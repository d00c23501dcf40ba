"""End-to-end index computation.

Resolves reference maxima over a territory scope, dispatches
per-indicator scoring by metric kind, and folds indicator scores up the
tree (sub-domain, domain, final index) with the positive-polarity
penalized mean at every level.

Reference resolution needs the whole dataset; after it, per-territory
scoring is independent, deterministic, and side-effect free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from igei.errors import AggregationError, ScoringError
from igei.metrics import (
    MetricKind,
    correction_coefficient,
    gap_metric,
    invert_polarity,
    score_capped,
    score_ratio,
    score_share,
)
from igei.model import (
    Dataset,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    as_dataset,
    external_source,
)
from igei.penalized import Polarity, _fold_scores


@dataclass(frozen=True)
class ReferenceLevels:
    """Resolved scoring references.

    ``maxima`` maps an indicator id to its reference maximum on the
    working (polarity-adjusted) scale; ``bases`` maps
    ``(indicator, territory, period)`` to the externally sourced
    correction value for indicators whose correction borrows another
    indicator's variable.
    """

    maxima: Mapping[str, float]
    bases: Mapping[tuple[str, str, int], float] = field(default_factory=dict)


@dataclass(frozen=True)
class TerritoryReport:
    """All computed values for one territory, from leaves to the final index."""

    territory: str
    indicator_scores: Mapping[str, float]
    subdomain_values: Mapping[tuple[str, str], float]
    domain_values: Mapping[str, float]
    index: float
    period: int | None = None


def _working_scale(polarity: Polarity) -> Callable[[float], float]:
    """Map of raw levels onto the working scale (rates inverted for negative polarity)."""
    return invert_polarity if polarity is Polarity.NEGATIVE else float


def _correction_source(
    spec: IndicatorSpec, specs: Mapping[str, IndicatorSpec]
) -> tuple[str, str, Polarity]:
    """(source indicator id, observation attribute, source polarity) for a correction."""
    if spec.correction.kind == "own_average":
        return spec.id, "x_a", spec.polarity
    source = external_source(spec, specs)
    return source.id, spec.correction.source_attr, source.polarity


def _source_levels(
    data: Dataset, territory: str, source_id: str, attr: str, polarity: Polarity
) -> list[tuple[int, float]]:
    """(period, working level) of one territory's correction variable, by period."""
    working = _working_scale(polarity)
    levels = [
        (rec.period, working(raw))
        for rec in data.series(territory, source_id)
        if (raw := getattr(rec, attr)) is not None
    ]
    if len(levels) > 1:
        levels.sort()
    return levels


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
    Each territory's source observations come from the dataset's
    per-pair index, so the cost is linear in the records.
    """
    data = as_dataset(dataset)
    scope = list(scope)
    if not scope:
        raise ScoringError("territory scope is empty")
    maxima: dict[str, float] = {}
    bases: dict[tuple[str, str, int], float] = {}
    for spec in specs.values():
        if spec.correction.kind == "none":
            continue
        source_id, attr, source_polarity = _correction_source(spec, specs)
        external = spec.correction.kind == "external"
        # external bases cover every territory, and the scope reads from them
        levels_of = {
            terr: _source_levels(data, terr, source_id, attr, source_polarity)
            for terr in (data.territories if external else scope)
        }
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
        maxima[spec.id] = reference
        if external:
            for terr, levels in levels_of.items():
                for per, level in levels:
                    bases[(spec.id, terr, per)] = level
    return ReferenceLevels(maxima=maxima, bases=bases)


def _alpha(
    spec: IndicatorSpec,
    obs: ObservationRecord,
    working_total: float | None,
    refs: ReferenceLevels,
) -> float | None:
    """Correction coefficient for one observation; ``None`` when uncorrected."""
    corr = spec.correction
    if corr.kind == "none":
        return None
    reference = refs.maxima.get(spec.id)
    if reference is None:
        raise ScoringError(f"{spec.id}: references were not resolved for this indicator")
    if corr.kind == "own_average":
        if working_total is None:
            raise ScoringError(
                f"{spec.id}: observation for {obs.territory!r} lacks the total level "
                f"required by the own-average correction"
            )
        return correction_coefficient(working_total, reference)
    base = refs.bases.get((spec.id, obs.territory, obs.period))
    if base is None:
        raise ScoringError(
            f"{spec.id}: unresolved external correction for territory "
            f"{obs.territory!r}, period {obs.period}"
        )
    return correction_coefficient(base, reference)


def compute_indicator(
    spec: IndicatorSpec, obs: ObservationRecord, refs: ReferenceLevels
) -> float:
    """Score one observation according to its indicator recipe, on 0-100."""
    if obs.kind is not spec.metric:
        raise ScoringError(
            f"{spec.id}: expected a {spec.metric.value} observation, "
            f"got {obs.kind.value}"
        )
    if spec.metric is MetricKind.STANDARD:
        if obs.x_w is None or obs.x_m is None:
            raise ScoringError(
                f"{spec.id}: standard observation for {obs.territory!r} lacks "
                f"gendered levels"
            )
        working = _working_scale(spec.polarity)
        x_w, x_m = working(obs.x_w), working(obs.x_m)
        total = None if obs.x_a is None else working(obs.x_a)
        gamma = gap_metric(x_w, x_m)
        alpha = _alpha(spec, obs, total, refs)
        return (1.0 if alpha is None else alpha) * (1.0 - gamma) * 100.0
    if obs.value is None:
        raise ScoringError(
            f"{spec.id}: {spec.metric.value} observation for {obs.territory!r} "
            f"lacks a value"
        )
    if spec.metric is MetricKind.SHARE:
        return score_share(obs.value, _alpha(spec, obs, None, refs))
    if spec.metric is MetricKind.RATIO:
        alpha = _alpha(spec, obs, None, refs)
        return score_ratio(obs.value, 1.0 if alpha is None else alpha)
    return score_capped(obs.value)


def aggregate_level(values: Iterable[float]) -> float:
    """Fold child scores into one value with the positive-polarity penalized mean.

    The result never leaves the children's [min, max] envelope; a single
    child passes through unchanged.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise AggregationError("cannot aggregate an empty level")
    return _fold_scores(vals)


def aggregate_scores(
    tree: IndexTree,
    scores: Mapping[str, float],
    territory: str,
    period: int | None = None,
) -> TerritoryReport:
    """Fold a full set of leaf scores up the tree into a territory report.

    Every sub-domain, domain and the index is the penalized mean of its
    children, computed by the same kernel as :func:`aggregate_level`.
    """
    leaves = tree.leaf_ids()
    missing = [leaf for leaf in leaves if leaf not in scores]
    if missing:
        raise ScoringError(
            f"partial report for {territory!r}: missing scores for "
            f"{', '.join(missing)}"
        )
    leaf_scores = {leaf: float(scores[leaf]) for leaf in leaves}
    subdomain_values: dict[tuple[str, str], float] = {}
    domain_values: dict[str, float] = {}
    for dom in tree.domains:
        children = []
        for sub in dom.subdomains:
            value = _fold_scores([leaf_scores[i] for i in sub.indicators])
            subdomain_values[(dom.id, sub.id)] = value
            children.append(value)
        domain_values[dom.id] = _fold_scores(children)
    index = _fold_scores(list(domain_values.values()))
    return TerritoryReport(
        territory=territory,
        indicator_scores=leaf_scores,
        subdomain_values=subdomain_values,
        domain_values=domain_values,
        index=index,
        period=period,
    )


def score_territory(
    territory: str,
    dataset: Dataset | Iterable[ObservationRecord],
    specs: Mapping[str, IndicatorSpec],
    tree: IndexTree,
    refs: ReferenceLevels,
    period: int | None = None,
) -> TerritoryReport:
    """Compute every indicator for one territory and aggregate to the final index."""
    data = as_dataset(dataset)
    scores: dict[str, float] = {}
    gaps: list[str] = []
    for leaf in tree.leaf_ids():
        spec = specs.get(leaf)
        if spec is None:
            raise ScoringError(f"no indicator spec for tree leaf {leaf!r}")
        obs = data.get(territory, leaf, period)
        if obs is None:
            gaps.append(leaf)
            continue
        scores[leaf] = compute_indicator(spec, obs, refs)
    if gaps:
        raise ScoringError(
            f"partial report for {territory!r}: missing observations for "
            f"{', '.join(gaps)}"
        )
    return aggregate_scores(tree, scores, territory, period=period)


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
    data = as_dataset(dataset)
    if not data.periods:
        raise ScoringError("dataset has no observations")
    if data.series_lengths() != {len(data.periods)}:
        # keys are unique, so some pair misses a period: name the first period
        # whose coverage differs from the first period's
        coverage: dict[int, set[tuple[str, str]]] = {p: set() for p in data.periods}
        for r in data:
            coverage[r.period].add((r.territory, r.indicator))
        first = coverage[data.periods[0]]
        differing = next(p for p, pairs in coverage.items() if pairs != first)
        raise ScoringError(
            f"inconsistent indicator coverage across periods (period {differing} "
            f"differs from period {data.periods[0]})"
        )
    scope = list(scope) if scope is not None else list(data.territories)
    refs = resolve_references(data, specs, scope, time_mode=True)
    return {
        p: {
            terr: score_territory(terr, data, specs, tree, refs, period=p)
            for terr in data.territories
        }
        for p in data.periods
    }
