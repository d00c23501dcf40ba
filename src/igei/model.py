"""Domain model shared by the loader and the scoring pipeline."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

from igei.errors import DataError, RecordError, SpecError
from igei.metrics import MetricKind
from igei.penalized import Polarity


def _shown(raw) -> str:
    """A short scalar as written, anything else by type: aliases can make a value huge."""
    if not isinstance(raw, (list, dict, set)):
        text = repr(raw)
        if len(text) <= 40:
            return text
    return "a " + {dict: "mapping", str: "long string"}.get(type(raw), type(raw).__name__)


def _member(enum: type[Enum], raw, what: str, owner: str = ""):
    """``raw`` as a member of ``enum``: a member, or a member's value."""
    try:
        return enum(raw)
    except ValueError:
        raise SpecError(f"{owner}unknown {what} {_shown(raw)}") from None


def _check_id(raw, what: str) -> None:
    if not isinstance(raw, str) or not raw:
        raise SpecError(f"{what} id must be a non-empty string, got {_shown(raw)}")


def _tuple_of(raw, item_type: type, owner: str, field: str, expected: str) -> tuple:
    """``raw``, a non-empty list or tuple (never a str) of truthy ``item_type`` values."""
    if not isinstance(raw, (list, tuple)):
        raise SpecError(f"{owner}: {field} must be a list, got {_shown(raw)}")
    if not raw:
        raise SpecError(f"{owner} has no {field}")
    for position, item in enumerate(raw, 1):
        if not isinstance(item, item_type) or not item:
            raise SpecError(
                f"{owner}: {field} must be {expected}, got {_shown(item)} at position {position}"
            )
    return tuple(raw)


class CorrectionKind(str, Enum):
    """Where an indicator's achievement correction comes from."""

    OWN_AVERAGE = "own_average"  # the indicator's own total-population level
    EXTERNAL = "external"        # a variable of another indicator's observations
    NONE = "none"                # no correction


# Which variable of the referenced indicator feeds an external correction.
_FIELD_ATTRS = {"total": "x_a", "women": "x_w", "men": "x_m"}
CORRECTION_FIELDS = tuple(_FIELD_ATTRS)


@dataclass(frozen=True)
class Correction:
    """How an indicator's achievement correction is sourced.

    ``kind`` may be given as a :class:`CorrectionKind` or as its value.
    """

    kind: CorrectionKind
    indicator: str | None = None
    field: str = "total"

    def __post_init__(self) -> None:
        kind = _member(CorrectionKind, self.kind, "correction kind")
        object.__setattr__(self, "kind", kind)
        if kind is CorrectionKind.EXTERNAL:
            if not isinstance(self.indicator, str) or not self.indicator:
                raise SpecError("external correction requires a source indicator id")
            if self.field not in CORRECTION_FIELDS:
                raise SpecError(
                    f"external correction field must be one of {CORRECTION_FIELDS}, "
                    f"got {_shown(self.field)}"
                )
        elif self.indicator is not None:
            raise SpecError(f"{kind.value!r} correction takes no source indicator")

    @property
    def source_attr(self) -> str:
        """Observation attribute name for the external field."""
        return _FIELD_ATTRS[self.field]


NO_CORRECTION = Correction(CorrectionKind.NONE)


@dataclass(frozen=True)
class IndicatorSpec:
    """Recipe for one indicator: metric kind, polarity, correction; the tree places it.

    Checked when built; ``metric`` and ``polarity`` may be given as values.
    """

    id: str
    label: str
    metric: MetricKind
    polarity: Polarity = Polarity.POSITIVE
    correction: Correction = NO_CORRECTION

    def __post_init__(self) -> None:
        _check_id(self.id, "indicator")
        owner = f"indicator {self.id!r}: "
        object.__setattr__(self, "metric", _member(MetricKind, self.metric, "metric kind", owner))
        object.__setattr__(self, "polarity", _member(Polarity, self.polarity, "polarity", owner))
        if not isinstance(self.correction, Correction):
            raise SpecError(f"{owner}correction must be a Correction, "
                            f"got {_shown(self.correction)}")
        if self.polarity is Polarity.NEGATIVE and self.metric is not MetricKind.STANDARD:
            raise SpecError(
                f"{self.id}: negative polarity is only defined for standard-metric "
                f"(rate-valued) indicators"
            )
        kind = self.correction.kind
        if kind is CorrectionKind.OWN_AVERAGE and self.metric is not MetricKind.STANDARD:
            raise SpecError(
                f"{self.id}: own-average correction needs a total-population level, "
                f"which only standard observations carry"
            )
        if self.metric is MetricKind.CAPPED and kind is not CorrectionKind.NONE:
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


def _refuse_repeats(ids: Iterable[str], what: str) -> None:
    """Raise :class:`SpecError` naming the first id that is seen a second time."""
    seen: set[str] = set()
    for i in ids:
        if i in seen:
            raise SpecError(f"{what} {i!r} appears more than once")
        seen.add(i)


@dataclass(frozen=True)
class SubDomain:
    id: str
    indicators: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_id(self.id, "sub-domain")
        owner = f"sub-domain {self.id!r}"
        indicators = _tuple_of(self.indicators, str, owner, "indicators", "indicator ids")
        object.__setattr__(self, "indicators", indicators)


@dataclass(frozen=True)
class Domain:
    id: str
    subdomains: tuple[SubDomain, ...]

    def __post_init__(self) -> None:
        _check_id(self.id, "domain")
        owner = f"domain {self.id!r}"
        subs = _tuple_of(self.subdomains, SubDomain, owner, "sub-domains", "SubDomain objects")
        _refuse_repeats((sub.id for sub in subs), f"{owner}: sub-domain")
        object.__setattr__(self, "subdomains", subs)


@dataclass(frozen=True)
class IndexTree:
    """The aggregation hierarchy: index -> domains -> sub-domains -> indicators."""

    domains: tuple[Domain, ...]

    def __post_init__(self) -> None:
        domains = _tuple_of(self.domains, Domain, "index tree", "domains", "Domain objects")
        _refuse_repeats((dom.id for dom in domains), "domain")
        object.__setattr__(self, "domains", domains)
        leaves = tuple(ind for dom in domains for sub in dom.subdomains for ind in sub.indicators)
        _refuse_repeats(leaves, "indicator")
        # not fields: equality, hashing and repr see only the domains
        object.__setattr__(self, "_leaf_ids", leaves)
        object.__setattr__(self, "_fold_plan", tuple(
            (dom.id, tuple(((dom.id, sub.id), sub.indicators) for sub in dom.subdomains))
            for dom in domains
        ))

    def leaf_ids(self) -> tuple[str, ...]:
        """Indicator ids in tree order (domains, then sub-domains)."""
        return self._leaf_ids

    def fold_plan(self) -> tuple[tuple[str, tuple], ...]:
        """Per domain, in tree order: its id and each sub-domain's key and indicators.

        Built once, so every report keyed by ``(domain id, sub-domain id)``
        shares the same key tuples.
        """
        return self._fold_plan


@dataclass(frozen=True, slots=True)
class ObservationRecord:
    """One raw measurement for a territory and indicator.

    Valid by construction: building a record that :func:`record_problem`
    refuses raises :class:`RecordError` naming its key. ``kind`` may be
    given as a :class:`MetricKind` or as its value.

    Records are slotted, so they have no ``__dict__`` (``vars(rec)``
    fails). Records loaded from one file share one string object per
    territory and indicator name and one ``int`` per period.
    """

    territory: str
    indicator: str
    period: int
    kind: MetricKind
    x_w: float | None = None
    x_m: float | None = None
    x_a: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        if self.kind.__class__ is not MetricKind:
            try:
                object.__setattr__(self, "kind", MetricKind(self.kind))
            except ValueError:
                pass  # record_problem names the unknown kind
        try:
            problem = record_problem(self)
        except TypeError:  # a level that does not compare with numbers
            problem = "levels must be numbers or None"
        if problem:
            raise RecordError(
                f"territory {self.territory!r}, indicator {self.indicator!r}, "
                f"period {self.period}: {problem}",
                problem,
            )


# bound once: on CPython 3.11 a member read off its Enum class takes a slow
# path (the metaclass defines __getattr__), and record_problem runs per record
_STANDARD, _SHARE, _RATIO = MetricKind.STANDARD, MetricKind.SHARE, MetricKind.RATIO


def record_problem(rec: ObservationRecord) -> str | None:
    """Why ``rec`` is not a well-formed observation; None for a clean record.

    A record needs non-empty names, an ``int`` period, a known kind, the
    columns its kind takes, and levels that are finite and >= 0.
    """
    if not rec.territory or not rec.indicator:
        return "territory and indicator must be non-empty"
    if rec.period.__class__ is not int:
        return f"period must be an integer year, got {rec.period!r}"
    kind = rec.kind
    if kind is _STANDARD:
        if rec.value is not None:
            return "standard observations take no single value"
        if rec.x_w is None or rec.x_m is None:
            return "standard observations need both x_w and x_m"
    elif kind.__class__ is not MetricKind:
        expected = ", ".join(k.value for k in MetricKind)
        return f"unknown metric kind {kind!r} (expected one of {expected})"
    else:
        if rec.x_w is not None or rec.x_m is not None or rec.x_a is not None:
            return f"{kind.value} observations take only the value column"
        if rec.value is None:
            return f"{kind.value} observations need a value"
        if kind is _SHARE and not 0.0 <= rec.value <= 1.0:
            return f"share value {rec.value} is outside [0, 1]"
        if kind is _RATIO and rec.value <= 0:
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

    Records are checked when built; construction raises :class:`RecordError`
    for a repeated (territory, indicator, period) key.
    """

    def __init__(self, records: Iterable[ObservationRecord]):
        by_key: dict[tuple[str, str, int], ObservationRecord] = {}
        by_pair: dict[tuple[str, str], Sequence[ObservationRecord]] = {}
        periods: set[int] = set()
        for rec in records:
            territory, indicator, period = rec.territory, rec.indicator, rec.period
            key = (territory, indicator, period)
            if key in by_key:
                duplicate = (
                    f"duplicate observation for territory {territory!r}, "
                    f"indicator {indicator!r}, period {period}"
                )
                raise RecordError(duplicate, duplicate)
            by_key[key] = rec
            pair = (territory, indicator)
            series = by_pair.get(pair)
            if series is None:
                by_pair[pair] = [rec]
            else:
                series.append(rec)
            periods.add(period)
        for pair, series in by_pair.items():
            # in place, so the lists are freed one by one
            by_pair[pair] = tuple(series)
        self._by_key = by_key
        self._records = tuple(by_key.values())
        self._by_pair = by_pair
        # a name's first pair comes from its first record: first-appearance order
        self.territories: tuple[str, ...] = tuple(dict.fromkeys(t for t, _ in by_pair))
        self.indicators: tuple[str, ...] = tuple(dict.fromkeys(i for _, i in by_pair))
        self.periods: tuple[int, ...] = tuple(sorted(periods))

    def __iter__(self) -> Iterator[ObservationRecord]:
        return iter(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def series(self, territory: str, indicator: str) -> tuple[ObservationRecord, ...]:
        """Every period's observation of one territory and indicator, in input order."""
        return self._by_pair.get((territory, indicator), ())

    def series_lengths(self) -> set[int]:
        """The distinct numbers of periods recorded per (territory, indicator) pair."""
        return {len(series) for series in self._by_pair.values()}

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
