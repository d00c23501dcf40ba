"""Replay of the bundled 2023 reference tables, one (status, detail) check each.

``KNOWN-DEVIATION`` marks a published column that the documented formula
does not reproduce: it is reported, never papered over.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import cache

from igei import dataio, metrics, penalized, pipeline, stats
from igei.errors import IgeiError
from igei.model import ObservationRecord

PASS = "PASS"
FAIL = "FAIL"
KNOWN_DEVIATION = "KNOWN-DEVIATION"

# Rows carried in the published tables that are not among the 21 scoring
# regions: the national aggregate and the region whose two autonomous
# provinces are already counted.
AGGREGATE_TERRITORIES = ("Italia", "Trentino-Alto Adige/Südtirol")


@cache
def _bundled(loader, name: str | None = None):
    """``loader``'s result for a bundled file (its default for ``None``), read once per run."""
    return loader(None if name is None else dataio.bundled_path(name))


def demo_scores() -> list[tuple[ObservationRecord, float, float]]:
    """Each demo country's record with its classic-variant and standard score."""
    specs, tree = dataio.load_index_spec(dataio.bundled_path("demo_tree.yaml"))
    dataset = dataio.load_dataset(dataio.bundled_path("demo_countries.csv"))
    refs = pipeline.resolve_references(dataset, specs, dataset.territories)
    x_ref = max(rec.x_a for rec in dataset)
    return [(rec, metrics.score_gei(rec.x_w, rec.x_a, x_ref),
             pipeline.score_territory(rec.territory, dataset, specs, tree, refs).index)
            for rec in dataset]


def _check_demo_scores() -> tuple[str, str]:
    expected = dataio.load_demo_expected()
    max_delta = 0.0
    for rec, got_gei, got_std in demo_scores():
        exp_gei, exp_std = expected[rec.territory]
        max_delta = max(max_delta, abs(got_std - exp_std), abs(got_gei - exp_gei))
    status = PASS if max_delta <= 0.005 else FAIL
    return status, f"max |delta| {max_delta:.4f} over 10 published scores"


def _check_penalized_reference() -> tuple[str, str]:
    max_delta = 0.0
    for case in dataio.load_penalized_reference():
        max_delta = max(
            max_delta,
            abs(penalized.weighted_mean(case.values) - case.mean),
            abs(penalized.penalized_mean(case.values) - case.penalized),
        )
        if any(v <= 0 for v in case.values):
            try:
                penalized.geometric_mean(case.values)
            except IgeiError:
                pass  # non-positive values: the geometric mean must refuse
            else:
                return FAIL, "geometric mean accepted non-positive values"
        elif case.geometric is not None:
            max_delta = max(
                max_delta, abs(penalized.geometric_mean(case.values) - case.geometric)
            )
    status = PASS if max_delta <= 0.005 else FAIL
    return status, f"max |delta| {max_delta:.4f} across reference sequences"


def _check_domain_aggregation() -> tuple[str, str]:
    _, tree = _bundled(dataio.load_index_spec)
    table = _bundled(dataio.load_score_table, "indicator_scores_2023.csv")
    reference = _bundled(dataio.load_reference_table)
    max_delta = 0.0
    for terr in table.territories:
        rep = pipeline.aggregate_scores(tree, table.row(terr), terr)
        for dom, value in rep.domain_values.items():
            max_delta = max(max_delta, abs(value - reference[terr][dom]))
    n = len(table.territories) * len(tree.domains)
    status = PASS if max_delta <= 0.01 else FAIL
    return status, f"max |delta| {max_delta:.4f} over {n} published domain values"


def _check_final_index() -> tuple[str, str]:
    _, tree = _bundled(dataio.load_index_spec)
    reference = _bundled(dataio.load_reference_table)
    domains = [dom.id for dom in tree.domains]
    deltas = {
        terr: pipeline.aggregate_level([vals[d] for d in domains]) - vals["index"]
        for terr, vals in reference.items()
    }
    trento = pipeline.aggregate_level(
        [reference["Provincia Autonoma di Trento"][d] for d in domains]
    )
    if abs(trento - 73.184) > 0.005:
        return FAIL, (
            f"recomputed headline value {trento:.3f} does not match the "
            f"documented formula's 73.184"
        )
    lo, hi = min(deltas.values()), max(deltas.values())
    if max(abs(lo), abs(hi)) <= 0.01:
        return PASS, "published index column matches the documented formula"
    return KNOWN_DEVIATION, (
        f"published index column differs from the documented formula "
        f"(deltas {lo:+.3f}..{hi:+.3f}); domain columns reproduce, and the "
        f"formula is retained as specified"
    )


def _regions(territories) -> list[str]:
    return [t for t in territories if t not in AGGREGATE_TERRITORIES]


def _region_scores() -> tuple[list[str], dict[str, list[float]]]:
    """The bundled score table's scoring regions, and their scores by indicator."""
    table = _bundled(dataio.load_score_table, "indicator_scores_2023.csv")
    regions = _regions(table.territories)
    rows = [table.row(t) for t in regions]
    return regions, {ind: [row[ind] for row in rows] for ind in table.indicators}


def _summary_delta(summary: stats.DescriptiveSummary, expected: dict[str, float]) -> float:
    computed = asdict(summary)
    return max(abs(computed[stat] - val) for stat, val in expected.items())


def _check_index_summaries() -> tuple[str, str]:
    reference = _bundled(dataio.load_reference_table)
    published = dataio.load_reference_table(
        dataio.bundled_path("index_summary_2023.csv")
    )
    regions = _regions(reference)
    columns = {"IGEI": "index", "Work": "work", "Economy": "economy",
               "Knowledge": "knowledge", "Time": "time", "Politics": "politics",
               "Health": "health"}
    max_delta = 0.0
    for row_name, col in columns.items():
        summary = stats.descriptive_summary([reference[t][col] for t in regions])
        max_delta = max(max_delta, _summary_delta(summary, published[row_name]))
    status = PASS if max_delta <= 0.01 else FAIL
    return status, (
        f"max |delta| {max_delta:.4f} over 7 published rows "
        f"({len(regions)}-region population)"
    )


def _check_indicator_summaries() -> tuple[str, str]:
    published = dataio.load_reference_table(
        dataio.bundled_path("indicator_summary_2023.csv")
    )
    max_delta = max(
        _summary_delta(stats.descriptive_summary(values), published[ind])
        for ind, values in _region_scores()[1].items()
    )
    status = PASS if max_delta <= 0.01 else FAIL
    return status, f"max |delta| {max_delta:.4f} over 20 published rows"


def _check_correlations() -> tuple[str, str]:
    regions, columns = _region_scores()
    published = dataio.load_correlation_reference()
    corr = stats.correlation_matrix(list(columns.values()))
    pos = {ind: i for i, ind in enumerate(columns)}
    max_delta = max(
        abs(corr[pos[gi], pos[gj]] - val) for (gi, gj), val in published.items()
    )
    status = PASS if max_delta <= 0.01 else FAIL
    return status, (
        f"max |delta| {max_delta:.4f} over {len(published)} published cells "
        f"({len(regions)}-region population)"
    )


VERIFY_CHECKS = [
    ("five-country-scores", _check_demo_scores),
    ("penalized-mean-reference", _check_penalized_reference),
    ("domain-aggregation", _check_domain_aggregation),
    ("final-index-recomputation", _check_final_index),
    ("index-summary-statistics", _check_index_summaries),
    ("indicator-summary-statistics", _check_indicator_summaries),
    ("indicator-correlations", _check_correlations),
]


def run_verify_checks() -> list[tuple[str, str, str]]:
    """Run all verification checks; returns (name, status, detail) triples."""
    _bundled.cache_clear()  # each run reads the bundled files afresh, once
    results = []
    for name, check in VERIFY_CHECKS:
        try:
            status, detail = check()
        except Exception as exc:  # a crashed check is a failed check
            status, detail = FAIL, f"check raised {exc!r}"
        results.append((name, status, detail))
    return results
