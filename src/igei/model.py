"""Domain model shared by the loader and the scoring pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from igei.errors import DataError, RecordError, SpecError
from igei.metrics import MetricKind
from igei.penalized import Polarity

# Which variable of the referenced indicator feeds an external correction.
CORRECTION_FIELDS = ("total", "women", "men")

_FIELD_ATTRS = {"total": "x_a", "women": "x_w", "men": "x_m"}


@dataclass(frozen=True)
class Correction:
    """How an indicator's achievement correction is sourced.

    ``own_average`` uses the indicator's own total-population level,
    ``external`` borrows a variable from another indicator's
    observations, ``none`` applies no correction.
    """

    kind: str
    indicator: str | None = None
    field: str = "total"

    def __post_init__(self) -> None:
        if self.kind not in ("own_average", "external", "none"):
            raise SpecError(f"unknown correction kind {self.kind!r}")
        if self.kind == "external":
            if not self.indicator:
                raise SpecError("external correction requires a source indicator id")
            if self.field not in CORRECTION_FIELDS:
                raise SpecError(
                    f"external correction field must be one of {CORRECTION_FIELDS}, "
                    f"got {self.field!r}"
                )
        elif self.indicator is not None:
            raise SpecError(f"{self.kind!r} correction takes no source indicator")

    @property
    def source_attr(self) -> str:
        """Observation attribute name for the external field."""
        return _FIELD_ATTRS[self.field]


OWN_AVERAGE = Correction("own_average")
NO_CORRECTION = Correction("none")


@dataclass(frozen=True)
class IndicatorSpec:
    """Recipe for a single indicator: metric kind, polarity, correction, placement."""

    id: str
    label: str
    domain: str
    subdomain: str
    metric: MetricKind
    polarity: Polarity = Polarity.POSITIVE
    correction: Correction = NO_CORRECTION
    period: int | None = None

    def __post_init__(self) -> None:
        if self.polarity is Polarity.NEGATIVE and self.metric is not MetricKind.STANDARD:
            raise SpecError(
                f"{self.id}: negative polarity is only defined for standard-metric "
                f"(rate-valued) indicators"
            )
        if self.correction.kind == "own_average" and self.metric is not MetricKind.STANDARD:
            raise SpecError(
                f"{self.id}: own-average correction needs a total-population level, "
                f"which only standard observations carry"
            )
        if self.metric is MetricKind.CAPPED and self.correction.kind != "none":
            raise SpecError(f"{self.id}: capped indicators take no correction")


def external_source(
    spec: IndicatorSpec, specs: Mapping[str, IndicatorSpec]
) -> IndicatorSpec:
    """The indicator whose observations feed ``spec``'s external correction.

    Raises :class:`SpecError` unless that indicator is defined and is
    standard-metric, the only kind that carries the borrowed variable.
    """
    source = specs.get(spec.correction.indicator or "")
    if source is None:
        raise SpecError(
            f"indicator {spec.id!r}: external correction references "
            f"unknown indicator {spec.correction.indicator!r}"
        )
    if source.metric is not MetricKind.STANDARD:
        raise SpecError(
            f"indicator {spec.id!r}: external correction source "
            f"{spec.correction.indicator!r} must be a standard-metric indicator"
        )
    return source


@dataclass(frozen=True)
class SubDomain:
    id: str
    indicators: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.indicators:
            raise SpecError(f"sub-domain {self.id!r} has no indicators")


@dataclass(frozen=True)
class Domain:
    id: str
    subdomains: tuple[SubDomain, ...]

    def __post_init__(self) -> None:
        if not self.subdomains:
            raise SpecError(f"domain {self.id!r} has no sub-domains")


@dataclass(frozen=True)
class IndexTree:
    """The aggregation hierarchy: index -> domains -> sub-domains -> indicators."""

    domains: tuple[Domain, ...]

    def __post_init__(self) -> None:
        if not self.domains:
            raise SpecError("index tree has no domains")
        seen: dict[str, None] = {}  # insertion-ordered: the leaf order
        for dom in self.domains:
            for sub in dom.subdomains:
                for ind in sub.indicators:
                    if ind in seen:
                        raise SpecError(f"indicator {ind!r} appears more than once")
                    seen[ind] = None
        # not a field: equality, hashing and repr see only the domains
        object.__setattr__(self, "_leaf_ids", tuple(seen))

    def leaf_ids(self) -> tuple[str, ...]:
        """Indicator ids in tree order (domains, then sub-domains)."""
        return self._leaf_ids


@dataclass(frozen=True)
class ObservationRecord:
    """One raw measurement for a territory and indicator.

    A plain carrier: constructing one checks nothing, so that
    :func:`igei.dataio.validate_dataset` can collect and report every
    invalid record of a collection. :class:`Dataset` is where a record is
    trusted: it refuses any record for which :func:`record_problem`
    finds a problem, and any repeated (territory, indicator, period) key.
    """

    territory: str
    indicator: str
    period: int
    kind: MetricKind
    x_w: float | None = None
    x_m: float | None = None
    x_a: float | None = None
    value: float | None = None


def record_problem(rec: ObservationRecord) -> str | None:
    """Why ``rec``'s shape is wrong for its kind or a level is not finite and >= 0.

    Returns None for a clean record.
    """
    if rec.kind is MetricKind.STANDARD:
        if rec.value is not None:
            return "standard observations take no single value"
        if rec.x_w is None or rec.x_m is None:
            return "standard observations need both x_w and x_m"
    else:
        if rec.x_w is not None or rec.x_m is not None or rec.x_a is not None:
            return f"{rec.kind.value} observations take only the value column"
        if rec.value is None:
            return f"{rec.kind.value} observations need a value"
        if rec.kind is MetricKind.SHARE and not 0.0 <= rec.value <= 1.0:
            return f"share value {rec.value} is outside [0, 1]"
        if rec.kind is MetricKind.RATIO and rec.value <= 0:
            return f"ratio value {rec.value} must be positive"
    for name in ("x_w", "x_m", "x_a", "value"):
        v = getattr(rec, name)
        if v is not None and not 0.0 <= v < math.inf:
            if v < 0:
                return f"{name} must be non-negative, got {v}"
            return f"{name} must be a finite number, got {v}"
    return None


class Dataset:
    """Immutable lookup over observation records keyed by territory/indicator/period.

    Construction is where a record is trusted: it raises :class:`RecordError`
    for a repeated key or a record :func:`record_problem` refuses.
    """

    def __init__(self, records: Iterable[ObservationRecord]):
        self._by_key: dict[tuple[str, str, int], ObservationRecord] = {}
        by_pair: dict[tuple[str, str], list[ObservationRecord]] = {}
        territories: dict[str, None] = {}
        indicators: dict[str, None] = {}
        periods: set[int] = set()
        for rec in records:
            key = (rec.territory, rec.indicator, rec.period)
            if problem := record_problem(rec):
                raise RecordError(
                    f"territory {rec.territory!r}, indicator {rec.indicator!r}, "
                    f"period {rec.period}: {problem}",
                    problem,
                )
            if key in self._by_key:
                duplicate = (
                    f"duplicate observation for territory {rec.territory!r}, "
                    f"indicator {rec.indicator!r}, period {rec.period}"
                )
                raise RecordError(duplicate, duplicate)
            self._by_key[key] = rec
            by_pair.setdefault((rec.territory, rec.indicator), []).append(rec)
            territories.setdefault(rec.territory)
            indicators.setdefault(rec.indicator)
            periods.add(rec.period)
        self._records = tuple(self._by_key.values())
        self._by_pair = by_pair
        self.territories: tuple[str, ...] = tuple(territories)
        self.indicators: tuple[str, ...] = tuple(indicators)
        self.periods: tuple[int, ...] = tuple(sorted(periods))

    def __iter__(self) -> Iterator[ObservationRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def series(self, territory: str, indicator: str) -> Sequence[ObservationRecord]:
        """Every period's observation of one territory and indicator, in input order."""
        return self._by_pair.get((territory, indicator), ())

    def get(
        self, territory: str, indicator: str, period: int | None = None
    ) -> ObservationRecord | None:
        """Look up one observation; ``period=None`` requires a unique period."""
        if period is not None:
            return self._by_key.get((territory, indicator, period))
        matches = self.series(territory, indicator)
        if not matches:
            return None
        if len(matches) > 1:
            raise DataError(
                f"multiple periods recorded for territory {territory!r}, indicator "
                f"{indicator!r}; pass an explicit period or score as a time series"
            )
        return matches[0]


def as_dataset(records: "Dataset | Iterable[ObservationRecord]") -> Dataset:
    return records if isinstance(records, Dataset) else Dataset(records)
