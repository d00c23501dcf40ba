"""Domain model shared by the loader and the scoring pipeline."""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from igei._frozen import Frozen
from igei.errors import DataError, RecordError, SpecError
from igei.metrics import MetricKind, _complete
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


class Correction(Frozen):
    """How an indicator's achievement correction is sourced.

    ``kind`` may be given as a :class:`CorrectionKind` or as its value.
    """

    def __init__(self, kind: CorrectionKind | str, indicator: str | None = None,
                 field: str = "total") -> None:
        kind = _member(CorrectionKind, kind, "correction kind")
        if kind is CorrectionKind.EXTERNAL:
            if not isinstance(indicator, str) or not indicator:
                raise SpecError("external correction requires a source indicator id")
            if field not in CORRECTION_FIELDS:
                raise SpecError(
                    f"external correction field must be one of {CORRECTION_FIELDS}, "
                    f"got {_shown(field)}"
                )
        elif indicator is not None:
            raise SpecError(f"{kind.value!r} correction takes no source indicator")
        self._store(kind, indicator, field)

    @property
    def source_attr(self) -> str:
        """Observation attribute name for the external field."""
        return _FIELD_ATTRS[self.field]


NO_CORRECTION = Correction(CorrectionKind.NONE)


class IndicatorSpec(Frozen):
    """Recipe for one indicator: metric kind, polarity, correction; the tree places it.

    Checked when built; ``metric`` and ``polarity`` may be given as values.
    """

    def __init__(self, id: str, label: str, metric: MetricKind | str,
                 polarity: Polarity | str = Polarity.POSITIVE,
                 correction: Correction = NO_CORRECTION) -> None:
        _check_id(id, "indicator")
        owner = f"indicator {id!r}: "
        metric = _member(MetricKind, metric, "metric kind", owner)
        polarity = _member(Polarity, polarity, "polarity", owner)
        if not isinstance(correction, Correction):
            raise SpecError(f"{owner}correction must be a Correction, got {_shown(correction)}")
        if polarity is Polarity.NEGATIVE and metric is not MetricKind.STANDARD:
            raise SpecError(
                f"{id}: negative polarity is only defined for standard-metric "
                f"(rate-valued) indicators"
            )
        kind = correction.kind
        if kind is CorrectionKind.OWN_AVERAGE and metric is not MetricKind.STANDARD:
            raise SpecError(
                f"{id}: own-average correction needs a total-population level, "
                f"which only standard observations carry"
            )
        if metric is MetricKind.CAPPED and kind is not CorrectionKind.NONE:
            raise SpecError(f"{id}: capped indicators take no correction")
        self._store(id, label, metric, polarity, correction)


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


class SubDomain(Frozen):
    """A named group of indicator ids, the leaves of the tree."""

    def __init__(self, id: str, indicators: tuple[str, ...]) -> None:
        _check_id(id, "sub-domain")
        owner = f"sub-domain {id!r}"
        self._store(id, _tuple_of(indicators, str, owner, "indicators", "indicator ids"))


class Domain(Frozen):
    """A named group of sub-domains."""

    def __init__(self, id: str, subdomains: tuple[SubDomain, ...]) -> None:
        _check_id(id, "domain")
        owner = f"domain {id!r}"
        subs = _tuple_of(subdomains, SubDomain, owner, "sub-domains", "SubDomain objects")
        _refuse_repeats((sub.id for sub in subs), f"{owner}: sub-domain")
        self._store(id, subs)


class IndexTree(Frozen):
    """The aggregation hierarchy: index -> domains -> sub-domains -> indicators."""

    def __init__(self, domains: tuple[Domain, ...]) -> None:
        domains = _tuple_of(domains, Domain, "index tree", "domains", "Domain objects")
        _refuse_repeats((dom.id for dom in domains), "domain")
        self._store(domains)
        leaves = tuple(ind for dom in domains for sub in dom.subdomains for ind in sub.indicators)
        _refuse_repeats(leaves, "indicator")
        # not fields: equality, hashing and repr see only the domains
        object.__setattr__(self, "_leaf_ids", leaves)
        # a sub-domain's leaves are consecutive in tree order: one slice each
        plan, start = [], 0
        for dom in domains:
            subs = []
            for sub in dom.subdomains:
                stop = start + len(sub.indicators)
                subs.append(((dom.id, sub.id), slice(start, stop)))
                start = stop
            plan.append((dom.id, tuple(subs)))
        object.__setattr__(self, "_fold_plan", tuple(plan))

    def leaf_ids(self) -> tuple[str, ...]:
        """Indicator ids in tree order (domains, then sub-domains)."""
        return self._leaf_ids

    def fold_plan(self) -> tuple[tuple[str, tuple], ...]:
        """Per domain, in tree order: its id and each sub-domain's key and leaves.

        A sub-domain's leaves are a slice of :meth:`leaf_ids`. Built once,
        so every report keyed by ``(domain id, sub-domain id)`` shares the
        same key tuples.
        """
        return self._fold_plan


class ObservationRecord(Frozen):
    """One raw measurement for a territory and indicator.

    Valid by construction: building a record whose fields
    :func:`record_problem` refuses raises :class:`RecordError` naming its
    key. ``kind`` may be given as a :class:`MetricKind` or as its value.

    Records are slotted, so they have no ``__dict__`` (``vars(rec)``
    fails). Records loaded from one file share one string object per
    territory and indicator name and one ``int`` per period.
    """

    __slots__ = ("territory", "indicator", "period", "kind", "x_w", "x_m", "x_a", "value")

    def __init__(self, territory: str, indicator: str, period: int, kind: MetricKind | str,
                 x_w: float | None = None, x_m: float | None = None,
                 x_a: float | None = None, value: float | None = None) -> None:
        # checked on the arguments, then stored through the slot descriptors,
        # which the frozen __setattr__ does not guard
        if kind.__class__ is not MetricKind:
            try:
                kind = MetricKind(kind)
            except ValueError:
                pass  # record_problem names the unknown kind
        try:
            problem = record_problem(territory, indicator, period, kind, x_w, x_m, x_a, value)
        except TypeError:  # a level that does not compare with numbers
            problem = "levels must be numbers or None"
        if problem:
            raise RecordError(
                f"territory {territory!r}, indicator {indicator!r}, "
                f"period {period}: {problem}",
                problem,
            )
        _set_territory(self, territory)
        _set_indicator(self, indicator)
        _set_period(self, period)
        _set_kind(self, kind)
        _set_x_w(self, x_w)
        _set_x_m(self, x_m)
        _set_x_a(self, x_a)
        _set_value(self, value)


(_set_territory, _set_indicator, _set_period, _set_kind,
 _set_x_w, _set_x_m, _set_x_a, _set_value) = (
    getattr(ObservationRecord, name).__set__ for name in ObservationRecord.__slots__
)

# bound once: on CPython 3.11 a member read off its Enum class takes a slow
# path (the metaclass defines __getattr__), and record_problem runs per record
_STANDARD, _SHARE, _RATIO = MetricKind.STANDARD, MetricKind.SHARE, MetricKind.RATIO
# a finite level is at most _MAX: an int past the float range is below inf
_INF, _MAX = math.inf, math.nextafter(math.inf, 0.0)


def record_problem(
    territory, indicator, period, kind, x_w=None, x_m=None, x_a=None, value=None
) -> str | None:
    """Why these fields are not a well-formed observation; None for a clean one.

    The one record rule, which :class:`ObservationRecord` runs when built:
    a record needs non-empty names, an ``int`` period, a known kind, the
    columns its kind takes, and levels that are finite and >= 0.
    """
    if not territory or not indicator:
        return "territory and indicator must be non-empty"
    if period.__class__ is not int:
        return f"period must be an integer year, got {period!r}"
    if kind is _STANDARD:
        if value is not None:
            return "standard observations take no single value"
        if x_w is None or x_m is None:
            return "standard observations need both x_w and x_m"
        if 0.0 <= x_w <= _MAX and 0.0 <= x_m <= _MAX and (x_a is None or 0.0 <= x_a <= _MAX):
            return None
        return _level_problem((("x_w", x_w), ("x_m", x_m), ("x_a", x_a)))
    if kind.__class__ is not MetricKind:
        expected = ", ".join(k.value for k in MetricKind)
        return f"unknown metric kind {kind!r} (expected one of {expected})"
    if x_w is not None or x_m is not None or x_a is not None:
        return f"{kind.value} observations take only the value column"
    if value is None:
        return f"{kind.value} observations need a value"
    if kind is _SHARE and not 0.0 <= value <= 1.0:
        return f"share value {value} is outside [0, 1]"
    if kind is _RATIO and value <= 0:
        return f"ratio value {value} must be positive"
    if 0.0 <= value <= _MAX:
        return None
    return _level_problem((("value", value),))


def duplicate_problem(key: tuple) -> str:
    """The problem of a second observation with the (territory, indicator, period) ``key``."""
    return (f"duplicate observation for territory {key[0]!r}, "
            f"indicator {key[1]!r}, period {key[2]}")


def _level_problem(levels) -> str:
    """The first (name, level) pair that is negative or not finite, as a problem."""
    for name, v in levels:
        if v is not None and not 0.0 <= v <= _MAX:
            if v < 0:
                return f"{name} must be non-negative, got {v}"
            if isinstance(v, int):
                return f"{name} must be a finite number, got an integer past the float range"
            return f"{name} must be a finite number, got {v}"


class Columns(NamedTuple):
    """One indicator's observations, one tuple per record field, rows in input order."""

    territory: tuple[str, ...]
    period: tuple[int, ...]
    kind: tuple[MetricKind, ...]
    x_w: tuple[float | None, ...]
    x_m: tuple[float | None, ...]
    x_a: tuple[float | None, ...]
    value: tuple[float | None, ...]

    def well_formed(self) -> bool:
        """Whether :func:`record_problem` passes every row, tested column by column.

        Names and periods are not tested. A False answer can be cautious
        (a sum past the float range): the caller then checks row by row.
        """
        n = len(self.territory)
        if not n:
            return True
        kind = self.kind[0]
        if self.kind.count(kind) != n:
            return False
        if kind is _STANDARD:
            if self.value.count(None) != n or not (_complete(self.x_w) and _complete(self.x_m)):
                return False
            x_a = self.x_a if _complete(self.x_a) else [v for v in self.x_a if v is not None]
            return _finite(self.x_w, 0.0) and _finite(self.x_m, 0.0) and _finite(x_a, 0.0)
        if kind.__class__ is not MetricKind or not _complete(self.value):
            return False
        if (self.x_w.count(None), self.x_m.count(None), self.x_a.count(None)) != (n, n, n):
            return False
        if kind is _SHARE:
            return _finite(self.value, 0.0) and max(self.value) <= 1.0
        if kind is _RATIO:
            return _finite(self.value, 0.0) and 0.0 not in self.value
        return _finite(self.value, 0.0)


def _finite(column, low: float) -> bool:
    """Whether every level is finite and at least ``low``: a NaN makes the sum NaN."""
    return not column or (low <= min(column) and sum(column) < _INF)


def _floats(column: tuple) -> tuple:
    return tuple(v if v is None or v.__class__ is float else float(v) for v in column)


_record_fields = attrgetter(*ObservationRecord.__slots__)
_record_key = itemgetter(0, 1, 2)


class Dataset:
    """Immutable observations, one block of :class:`Columns` per indicator.

    ``Dataset(records)`` fills the blocks from records and raises
    :class:`RecordError` for a repeated (territory, indicator, period)
    key, in time linear in the records. Iteration and :meth:`get` build
    new records from the blocks on every call, levels as floats.
    """

    def __init__(self, records: Iterable[ObservationRecord]):
        rows = list(map(_record_fields, records))
        if len(set(map(_record_key, rows))) != len(rows):
            seen: set[tuple] = set()
            for key in map(_record_key, rows):
                if key in seen:
                    problem = duplicate_problem(key)
                    raise RecordError(problem, problem)
                seen.add(key)
        self._fill(rows)

    @classmethod
    def _from_columns(
        cls, blocks: dict[str, Columns], territories: Iterable[str], order: list[str]
    ) -> "Dataset":
        """A dataset of checked blocks; ``order`` names each input row's indicator."""
        data = cls.__new__(cls)
        data._set(blocks, tuple(territories), order)
        return data

    def _fill(self, rows: list[tuple]) -> None:
        """Fill the blocks from rows of the eight record fields, in input order.

        The rows' (territory, indicator, period) keys must be distinct. Levels
        are stored as floats, as the loader stores them: a record may hold an ``int``.
        """
        groups: dict[str, list[tuple]] = {}
        for row in rows:
            groups.setdefault(row[1], []).append(row)
        blocks = {}
        for indicator, group in groups.items():
            territory, _, period, kind, *levels = zip(*group)
            blocks[indicator] = Columns(territory, period, kind, *map(_floats, levels))
        territories = dict.fromkeys(row[0] for row in rows)
        self._set(blocks, tuple(territories), [row[1] for row in rows])

    def _set(self, blocks, territories, order) -> None:
        self._blocks: dict[str, Columns] = blocks
        self._order: list[str] = order
        # per indicator: each territory's row positions in the block, built on first lookup
        self._index: dict[str, dict[str, list[int]]] = {}
        self.territories: tuple[str, ...] = territories
        self.indicators: tuple[str, ...] = tuple(blocks)
        self.periods: tuple[int, ...] = tuple(
            sorted(set().union(*(block.period for block in blocks.values())))
        )

    def columns(self, indicator: str) -> Columns:
        """The indicator's block; empty when it has no observation."""
        return self._blocks.get(indicator, _NO_COLUMNS)

    def __iter__(self) -> Iterator[ObservationRecord]:
        rows = {indicator: zip(*block) for indicator, block in self._blocks.items()}
        for indicator in self._order:
            t, p, k, w, m, a, v = next(rows[indicator])
            yield ObservationRecord(t, indicator, p, k, w, m, a, v)

    def __len__(self) -> int:
        return len(self._order)

    def _row(self, territory: str, indicator: str, period: int | None) -> tuple | None:
        """The pair's observation as a row of its block's fields, or None.

        :meth:`get`'s lookup, through a row index kept per block, so it costs
        at most one comparison per period of the pair.
        """
        block = self.columns(indicator)
        index = self._index.get(indicator)
        if index is None:
            index = self._index[indicator] = {}
            for row, terr in enumerate(block.territory):
                index.setdefault(terr, []).append(row)
        rows = index.get(territory, ())
        if period is not None:  # keys are distinct: one row at most
            rows = [row for row in rows if block.period[row] == period]
        elif len(rows) > 1:
            raise DataError(
                f"multiple periods recorded for territory {territory!r}, indicator "
                f"{indicator!r}; pass an explicit period or score as a time series"
            )
        return tuple(column[rows[0]] for column in block) if rows else None

    def get(
        self, territory: str, indicator: str, period: int | None = None
    ) -> ObservationRecord | None:
        """Look up one observation; ``period=None`` requires a unique period."""
        row = self._row(territory, indicator, period)
        if row is None:
            return None
        t, p, k, w, m, a, v = row
        return ObservationRecord(t, indicator, p, k, w, m, a, v)


_NO_COLUMNS = Columns((), (), (), (), (), (), ())


def as_dataset(records: "Dataset | Iterable[ObservationRecord]") -> Dataset:
    return records if isinstance(records, Dataset) else Dataset(records)
