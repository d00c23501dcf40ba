"""End-to-end index computation.

Resolves reference maxima over a territory scope, dispatches
per-indicator scoring by metric kind, and folds indicator scores up the
tree (sub-domain, domain, final index) with the positive-polarity
penalized mean at every level.

Reference resolution needs the whole dataset; after it, per-territory
scoring is independent, deterministic, and side-effect free.
"""

from __future__ import annotations

from itertools import compress, repeat
from math import fsum
from operator import mul, sub
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from igei._frozen import Frozen
from igei.errors import AggregationError, IgeiError, MetricInputError, ScoringError
from igei.metrics import (
    _HALF_MAX,
    MetricKind,
    _all_rates,
    _capped,
    _complete,
    _correction,
    _invert,
    _ratio,
    _share,
    _some_degenerate,
    _standard,
    _within,
    correction_coefficient,
    invert_polarity,
    score_capped,
    score_ratio,
    score_share,
    score_standard,
)
from igei.model import (
    Columns,
    CorrectionKind,
    Dataset,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    _shown,
    as_dataset,
    external_source,
)
from igei.penalized import (RANGE_TOLERANCE, _SCORE_EPS, Polarity, _fold_scores, _pair_mean,
                            penalized_mean)

if TYPE_CHECKING:
    from igei.dataio import ScoreTable

# bound once: on CPython 3.11 a member read off its Enum class takes a slow path
# (the metaclass defines __getattr__); the column scorers read them once per leaf,
# and only score_territory and compute_indicator score one observation at a time
_NONE, _OWN_AVERAGE = CorrectionKind.NONE, CorrectionKind.OWN_AVERAGE
_STANDARD, _SHARE, _RATIO = MetricKind.STANDARD, MetricKind.SHARE, MetricKind.RATIO
_NEGATIVE = Polarity.NEGATIVE


class ReferenceLevels(Frozen):
    """Resolved scoring references.

    ``maxima`` maps an indicator id to its reference maximum on the
    working (polarity-adjusted) scale; ``bases`` maps
    ``(indicator, territory, period)`` to the externally sourced
    correction value for indicators whose correction borrows another
    indicator's variable; it defaults to a new empty dict.
    """

    def __init__(self, maxima: Mapping[str, float],
                 bases: Mapping[tuple[str, str, int], float] | None = None) -> None:
        self._store(maxima, {} if bases is None else bases)


class TerritoryReport(Frozen):
    """All computed values for one territory, from leaves to the final index."""

    def __init__(self, territory: str, indicator_scores: Mapping[str, float],
                 subdomain_values: Mapping[tuple[str, str], float],
                 domain_values: Mapping[str, float], index: float,
                 period: int | None = None) -> None:
        self._store(territory, indicator_scores, subdomain_values, domain_values, index, period)


class TableReport(Frozen):
    """The values of every tree node over a table of territories, one column each.

    The fields mirror :class:`TerritoryReport`, with a column in place of
    each value; position ``i`` of every column belongs to ``territories[i]``.
    """

    def __init__(self, territories: Sequence[str],
                 indicator_scores: Mapping[str, Sequence[float]],
                 subdomain_values: Mapping[tuple[str, str], Sequence[float]],
                 domain_values: Mapping[str, Sequence[float]], index: Sequence[float]) -> None:
        self._store(territories, indicator_scores, subdomain_values, domain_values, index)


def _working_scale(polarity: Polarity) -> Callable[[float], float]:
    """Map of raw levels onto the working scale (rates inverted for negative polarity)."""
    return invert_polarity if polarity is _NEGATIVE else float


def _correction_source(
    spec: IndicatorSpec, specs: Mapping[str, IndicatorSpec]
) -> tuple[str, str, Polarity]:
    """(source indicator id, observation attribute, source polarity) for a correction."""
    if spec.correction.kind is CorrectionKind.OWN_AVERAGE:
        return spec.id, "x_a", spec.polarity
    source = external_source(spec, specs)
    return source.id, spec.correction.source_attr, source.polarity


def resolve_references(
    dataset: Dataset | Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    scope: Sequence[str],
    time_mode: bool = False,
) -> ReferenceLevels:
    """Resolve per-indicator reference maxima and external correction bases.

    The reference maximum is taken over ``scope`` territories only (and
    over all periods when ``time_mode`` is set, freezing a single
    reference across the whole series). Correction base values are
    collected for every territory in the dataset, so territories outside
    the scope can still be scored against the scope's references.
    Each correction reads its source indicator's columns once, so the
    cost is linear in the records: a column that holds every territory's
    level in every period, each one valid on the working scale, gives its
    maximum with one ``max``; any other is read territory by territory,
    which raises on a fault.
    """
    data = as_dataset(dataset)
    scope = list(scope)
    if not scope:
        raise ScoringError("territory scope is empty")
    in_scope = set(scope)
    # a full column then holds each scope territory once per period
    fits = in_scope.issubset(data.territories) and (time_mode or len(data.periods) == 1)
    full = len(data.periods) * len(data.territories)
    everywhere = len(in_scope) == len(data.territories)
    maxima: dict[str, float] = {}
    bases: dict[tuple[str, str, int], float] = {}
    for spec in specs.values():
        if spec.correction.kind is CorrectionKind.NONE:
            continue
        source_id, attr, source_polarity = _correction_source(spec, specs)
        block = data.columns(source_id)
        levels, source, negative = None, getattr(block, attr), source_polarity is _NEGATIVE
        if (fits and len(block.territory) == full and _complete(source)
                and (not negative or _all_rates(source))):
            levels = _working_levels(source, negative)
        if levels:
            reference = max(levels if everywhere else
                            compress(levels, map(in_scope.__contains__, block.territory)))
        if not levels or not reference > 0:
            maxima[spec.id] = _row_reference(spec, (source_id, attr, source_polarity), data,
                                             scope, time_mode, bases)
            continue
        maxima[spec.id] = reference
        if spec.correction.kind is CorrectionKind.EXTERNAL:
            bases.update(zip(zip(repeat(spec.id), block.territory, block.period), levels))
    return ReferenceLevels(maxima=maxima, bases=bases)


def _row_reference(
    spec: IndicatorSpec, source: tuple[str, str, Polarity], data: Dataset,
    scope: list[str], time_mode: bool, bases: dict[tuple[str, str, int], float],
) -> float:
    """One correction's reference maximum, read territory by territory, which
    raises on a fault; an external correction's levels go into ``bases``.
    ``source`` is its :func:`_correction_source`."""
    source_id, attr, source_polarity = source
    external = spec.correction.kind is CorrectionKind.EXTERNAL
    # external bases cover every territory, and the scope reads from them
    levels_of: dict[str, list] = {terr: [] for terr in (data.territories if external else scope)}
    block = data.columns(source_id)
    # (period, level) in input order, then put on the working scale territory
    # by territory, so that a fault is named in territory order
    for terr, per, raw in zip(block.territory, block.period, getattr(block, attr)):
        if raw is not None and terr in levels_of:
            levels_of[terr].append((per, raw))
    working = _working_scale(source_polarity)
    for terr, levels in levels_of.items():
        for i, (per, raw) in enumerate(levels):
            try:
                levels[i] = (per, working(raw))
            except MetricInputError as exc:  # a rate above 1 under negative polarity
                raise ScoringError(
                    f"territory {terr!r}, indicator {source_id!r}, period {per}: {exc}"
                ) from None
    scope_values: list[float] = []
    for terr in scope:
        levels = levels_of.get(terr)
        if not levels:
            raise ScoringError(
                f"{spec.id}: no {attr} value of indicator {source_id!r} for "
                f"territory {terr!r}; dataset is incomplete"
            )
        if not time_mode and len(levels) > 1:
            raise ScoringError(
                f"{spec.id}: territory {terr!r} has {len(levels)} periods for "
                f"indicator {source_id!r}; score as a time series"
            )
        scope_values.extend(level for _, level in levels)
    reference = max(scope_values)
    if reference <= 0:
        raise ScoringError(
            f"{spec.id}: reference maximum must be strictly positive, "
            f"got {reference}"
        )
    if external:
        for terr, levels in levels_of.items():
            for per, level in levels:
                bases[(spec.id, terr, per)] = level
    return reference


def _score_row(spec: IndicatorSpec, refs: ReferenceLevels, territory: str, period: int,
               kind: MetricKind, x_w: float | None, x_m: float | None, x_a: float | None,
               value: float | None) -> float:
    """Score one observation, given as its block's fields, by its indicator recipe, on 0-100.

    Checks the kind, puts the total, x_w and x_m on the working scale, then
    finds the correction; a formula's refusal (say, an achievement above the
    reference maximum) is raised as a :class:`ScoringError` naming the key.
    """
    metric, corr = spec.metric, spec.correction.kind
    if kind is not metric:
        raise ScoringError(f"territory {territory!r}, indicator {spec.id!r}, period {period}: "
                           f"expected a {metric.value} observation, got {kind.value}")
    try:
        total = alpha = None
        if metric is _STANDARD:
            working = _working_scale(spec.polarity)
            total = None if x_a is None else working(x_a)
            x_w, x_m = working(x_w), working(x_m)
        if corr is not _NONE:
            reference = refs.maxima.get(spec.id)
            if reference is None:
                raise ScoringError(f"{spec.id}: references were not resolved for this indicator")
            if corr is _OWN_AVERAGE:
                base, lacking = total, (f"observation for {territory!r} lacks the total "
                                        f"level required by the own-average correction")
            else:
                base = refs.bases.get((spec.id, territory, period))
                lacking = (f"unresolved external correction for territory {territory!r}, "
                           f"period {period}")
            if base is None:
                raise ScoringError(f"{spec.id}: {lacking}")
            alpha = correction_coefficient(base, reference)
        if metric is _STANDARD:
            return score_standard(x_w, x_m, alpha)
        if metric is _SHARE:
            return score_share(value, alpha)
        return score_ratio(value, alpha) if metric is _RATIO else score_capped(value)
    except MetricInputError as exc:
        raise ScoringError(
            f"territory {territory!r}, indicator {spec.id!r}, period {period}: {exc}"
        ) from None


def compute_indicator(
    spec: IndicatorSpec, obs: ObservationRecord, refs: ReferenceLevels
) -> float:
    """Score one record by its indicator recipe, on 0-100.

    A scalar formula's refusal is raised as a :class:`ScoringError` naming the record.
    """
    return _score_row(spec, refs, obs.territory, obs.period, obs.kind,
                      obs.x_w, obs.x_m, obs.x_a, obs.value)


def aggregate_level(values: Iterable[float]) -> float:
    """Fold child scores into one value with the positive-polarity penalized mean.

    The result never leaves the children's [min, max] envelope; a single
    child passes through unchanged.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise AggregationError("cannot aggregate an empty level")
    return _fold_scores(vals)


def _fold_tree(tree: IndexTree, leaves: list, fold: Callable) -> tuple:
    """Sub-domain values, domain values and the index, folded up from ``leaves``:
    the last three fields of a report, in order.

    ``leaves`` holds one entry per tree leaf, in tree order: one
    territory's scores with ``fold=penalized_mean``, or a table's leaf
    columns with ``fold=_fold_kernel``. No node is tested: the callers
    test the leaves.
    """
    subdomain_values: dict = {}
    domain_values: dict = {}
    for dom_id, subdomains in tree.fold_plan():
        children = []
        for key, leaf_span in subdomains:
            value = subdomain_values[key] = fold(leaves[leaf_span])
            children.append(value)
        domain_values[dom_id] = fold(children)
    return subdomain_values, domain_values, fold(list(domain_values.values()))


def _fold_kernel(columns: list[Sequence[float]]) -> list[float]:
    """:func:`penalized_mean` of each row of equal-length, finite ``columns``, bit for bit.

    One child gives a copy of its column, two map the two-score formula and
    three or more form the same sums and products a column (or a row's
    ``fsum``) at a time. Nothing is tested: a node of leaves in [0, 100]
    stays within about 1e-13 of it, as its mean is within ulps of its
    children's [lo, hi] and its penalty var / (2 * ran) is at most
    (m - lo) / 2, since var <= (m - lo) * (hi - m).
    """
    if len(columns) <= 2:
        return list(map(_pair_mean, *columns)) if len(columns) == 2 else list(columns[0])
    # penalized_mean's sums and products, a column (or a row's fsum) at a time
    p = 1.0 / len(columns)
    means = list(map(fsum, zip(*[list(map(mul, repeat(p), col)) for col in columns])))
    ranges = map(sub, map(max, zip(*columns)), map(min, zip(*columns)))
    squares = [list(map(mul, repeat(p), map(pow, map(sub, col, means), repeat(2))))
               for col in columns]
    return [
        first if ran == 0.0 else m if ran <= RANGE_TOLERANCE else m - v / (2.0 * ran)
        for first, m, v, ran in zip(columns[0], means, map(fsum, zip(*squares)), ranges)
    ]


def aggregate_scores(
    tree: IndexTree,
    scores: Mapping[str, float],
    territory: str,
    period: int | None = None,
) -> TerritoryReport:
    """Fold a full set of leaf scores up the tree into a territory report.

    Every sub-domain, domain and the index is the penalized mean of its
    children, computed by the same kernel as :func:`aggregate_level`. A
    score that ``float`` refuses, or that lies outside [0, 100] by more than
    1e-9, raises an :class:`AggregationError` naming the territory and the
    leaf; no node is tested.
    """
    leaves = tree.leaf_ids()
    missing = [leaf for leaf in leaves if leaf not in scores]
    if missing:
        raise ScoringError(
            f"partial report for {territory!r}: missing scores for {', '.join(missing)}"
        )
    values = []
    for leaf in leaves:
        try:
            values.append(float(scores[leaf]))
        except (TypeError, ValueError, OverflowError):
            raise AggregationError(f"territory {territory!r}, indicator {leaf!r}: a score "
                                   f"must be a number, got {_shown(scores[leaf])}") from None
    for leaf, value in zip(leaves, values):
        if not -_SCORE_EPS <= value <= 100.0 + _SCORE_EPS:  # NaN fails it too
            raise AggregationError(f"territory {territory!r}, indicator {leaf!r}: "
                                   f"scores must lie in [0, 100], got {value}")
    return TerritoryReport(territory, dict(zip(leaves, values)),
                           *_fold_tree(tree, values, penalized_mean), period=period)


def aggregate_table(tree: IndexTree, table: ScoreTable) -> TableReport:
    """Fold every row of a score table up the tree, one tree node at a time.

    Row for row, the columns equal :func:`aggregate_scores` of
    ``table.row(territory)`` bit for bit, as the kernels are the same.
    Indicator columns outside the tree are ignored. A table that lacks a
    leaf's column, or holds a leaf score that :func:`aggregate_scores`
    refuses, raises the error that folding its rows one by one, in table
    order, raises first.
    """
    leaves = tree.leaf_ids()
    try:
        # a missing leaf fails on the first row: a table without rows folds
        # to empty columns, as it does row by row
        by_indicator = (dict(zip(table.indicators, table.columns)) if table.territories
                        else dict.fromkeys(leaves, ()))
        columns = list(map(by_indicator.__getitem__, leaves))
        # aggregate_scores's band, tested once on the leaves: no node is tested
        tested = all(_within(col, -_SCORE_EPS, 100.0 + _SCORE_EPS) for col in columns)
    except (KeyError, TypeError):  # a missing leaf, or a cell that only float() reads
        tested = False
    if not tested:
        for i, terr in enumerate(table.territories):
            aggregate_scores(tree, table._row_at(i), terr)
        # every row folds: a leaf holds numbers that only float() takes, like '5'
        columns = [list(map(float, column)) for column in columns]
    return TableReport(table.territories, dict(zip(leaves, columns)),
                       *_fold_tree(tree, columns, _fold_kernel))


def score_table(
    dataset: Dataset | Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    tree: IndexTree,
    refs: ReferenceLevels,
) -> TableReport:
    """:func:`score_territory` of every territory of the dataset, as columns.

    Position ``i`` of every column belongs to ``dataset.territories[i]``.
    """
    return _walk(as_dataset(dataset), specs, tree, refs, (None,))[0]


def score_series_tables(
    dataset: Dataset | Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    tree: IndexTree,
    scope: Sequence[str] | None = None,
) -> dict[int, TableReport]:
    """:func:`score_time_series`, with one :class:`TableReport` per period."""
    data = as_dataset(dataset)
    if not data.periods:
        raise ScoringError("dataset has no observations")
    width = len(data.periods)
    blocks = list(map(data.columns, data.indicators))
    # keys are unique, so a pair holds every period exactly when its
    # indicator holds width rows per territory
    if any(len(b.territory) != width * len(set(b.territory)) for b in blocks):
        coverage: dict[int, set[tuple[str, str]]] = {p: set() for p in data.periods}
        for ind, block in zip(data.indicators, blocks):
            for terr, per in zip(block.territory, block.period):
                coverage[per].add((terr, ind))
        first = coverage[data.periods[0]]
        differing = next(p for p, pairs in coverage.items() if pairs != first)
        raise ScoringError(
            f"inconsistent indicator coverage across periods (period {differing} "
            f"differs from period {data.periods[0]})"
        )
    scope = list(scope) if scope is not None else list(data.territories)
    refs = resolve_references(data, specs, scope, time_mode=True)
    tables = _walk(data, specs, tree, refs, data.periods)
    return dict(zip(data.periods, tables))


def score_time_series(
    dataset: Dataset | Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    tree: IndexTree,
    scope: Sequence[str] | None = None,
) -> dict[int, dict[str, TerritoryReport]]:
    """Score every period against references frozen over the whole series.

    The reference maximum for each indicator is taken across all scope
    territories and all periods, so a territory's score trajectory
    depends only on its own data: identical observations in two periods
    yield identical scores no matter what other territories do.
    """
    return {
        p: {terr: _report(table, i, p) for i, terr in enumerate(table.territories)}
        for p, table in score_series_tables(dataset, specs, tree, scope).items()
    }


def _report(table: TableReport, i: int, period: int | None) -> TerritoryReport:
    """Position ``i`` of every column of ``table``, as a territory report."""
    return TerritoryReport(
        territory=table.territories[i],
        indicator_scores={leaf: col[i] for leaf, col in table.indicator_scores.items()},
        subdomain_values={key: col[i] for key, col in table.subdomain_values.items()},
        domain_values={dom: col[i] for dom, col in table.domain_values.items()},
        index=table.index[i],
        period=period,
    )


def _walk(
    data: Dataset,
    specs: Mapping[str, IndicatorSpec],
    tree: IndexTree,
    refs: ReferenceLevels,
    periods: Sequence[int | None],
) -> list[TableReport]:
    """One table per period of every territory, scored and folded a leaf column at a time.

    A period of None reads each pair's one observation. On a fault,
    :func:`score_territory` replays the territories in period, territory
    and leaf order, so the error raised is the first in that order.
    """
    territories = data.territories
    leaves = tree.leaf_ids()
    width = len(periods)
    # the (territory, period) cells of the tables, periods innermost
    by_period = periods[0] is not None
    grid_territories = tuple(t for t in territories for _ in periods)
    grid_periods = tuple(periods) * len(territories)
    keys = list(zip(grid_territories, grid_periods)) if by_period else grid_territories
    try:
        columns = []
        for leaf in leaves:
            block = data.columns(leaf)
            if block.territory != grid_territories or (by_period and block.period != grid_periods):
                row_of = dict(zip(zip(block.territory, block.period) if by_period
                                  else block.territory, range(len(block.territory))))
                if len(row_of) != len(block.territory):  # a pair with several periods
                    raise KeyError(leaf)
                rows = list(map(row_of.__getitem__, keys))
                block = Columns(*(list(map(column.__getitem__, rows)) for column in block))
            scores = _column_scores(specs[leaf], block, refs)
            if scores is None:
                raise ScoringError(f"{leaf}: the column tests refused a block that scores")
            columns.append(scores)
        tables = []
        for i in range(width):
            leaf_columns = [column[i::width] for column in columns] if width > 1 else columns
            tables.append(TableReport(territories, dict(zip(leaves, leaf_columns)),
                                      *_fold_tree(tree, leaf_columns, _fold_kernel)))
    except (IgeiError, KeyError, TypeError):
        for period in periods:
            for terr in territories:
                score_territory(terr, data, specs, tree, refs, period)
        raise
    return tables


def _column_scores(spec: IndicatorSpec, block: Columns, refs: ReferenceLevels) -> list | None:
    """:func:`compute_indicator` of every row of ``block``, in row order, through
    the formulas alone; None exactly when it would refuse some row, as a test
    of each column (counts, min, max and sum) shows.

    Each row of a dataset block has passed the record rule: a standard row
    has x_w and x_m, its levels are finite and non-negative, a share lies in
    [0, 1] and a ratio above 0. The tests check what the scorers add to that
    rule, and a correction base, which ``refs`` may hold as any number.
    """
    if not block.kind:
        return []
    if block.kind.count(spec.metric) != len(block.kind):
        return None
    negative, correction = spec.polarity is _NEGATIVE, spec.correction.kind
    # compute_indicator puts the total on the working scale whatever the correction
    if negative and not all(map(_all_rates, (block.x_w, block.x_m, block.x_a))):
        return None
    if correction is _NONE:
        factors = repeat(1.0)
    else:
        reference = refs.maxima.get(spec.id)
        if reference is None or not 0.0 < reference <= _HALF_MAX:
            return None
        if correction is _OWN_AVERAGE:
            sources = _working_levels(block.x_a, negative) if _complete(block.x_a) else None
            if sources is None or max(sources) > reference:
                return None
        else:
            sources = list(map(refs.bases.get, zip(repeat(spec.id), block.territory, block.period)))
            if not _complete(sources) or not _within(sources, 0.0, reference):
                return None
        # 2a / (r + a) with 0 <= a <= r rounds to at most 1: _factor passes it
        factors = list(map(_correction, sources, repeat(reference)))
    if spec.metric is _STANDARD:
        x_w, x_m = _working_levels(block.x_w, negative), _working_levels(block.x_m, negative)
        if _some_degenerate(x_w, x_m) or max(x_w) > _HALF_MAX or max(x_m) > _HALF_MAX:
            return None
        return list(map(_standard, x_w, x_m, factors))
    if spec.metric is _SHARE:
        return list(map(_share, block.value, factors))
    if spec.metric is _RATIO:
        return list(map(_ratio, block.value, factors))
    return list(map(_capped, block.value))


def _working_levels(column: Sequence[float], negative: bool) -> Sequence[float]:
    """A column of levels, rates under negative polarity, on the working scale."""
    return list(map(_invert, column)) if negative else column


def score_territory(
    territory: str,
    dataset: Dataset | Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    tree: IndexTree,
    refs: ReferenceLevels,
    period: int | None = None,
) -> TerritoryReport:
    """Compute every indicator for one territory and aggregate to the final index.

    Scores one observation at a time, read off the blocks, so the walk
    replays it to name a fault.
    """
    data = as_dataset(dataset)
    scores: dict[str, float] = {}
    gaps: list[str] = []
    for leaf in tree.leaf_ids():
        spec = specs.get(leaf)
        if spec is None:
            raise ScoringError(f"no indicator spec for tree leaf {leaf!r}")
        row = data._row(territory, leaf, period)
        if row is None:
            gaps.append(leaf)
            continue
        scores[leaf] = _score_row(spec, refs, *row)
    if gaps:
        raise ScoringError(
            f"partial report for {territory!r}: missing observations for "
            f"{', '.join(gaps)}"
        )
    return aggregate_scores(tree, scores, territory, period=period)
