"""Replay of the bundled 2023 reference tables, one (status, detail) check each.

The loaders of the published fixtures live here too, since only this
replay reads them.

``KNOWN-DEVIATION`` marks a published column that the documented formula
does not reproduce: it is reported, never papered over.
"""

from __future__ import annotations

from functools import cache
from typing import Iterator

from igei import dataio, metrics, penalized, pipeline, stats
from igei._frozen import Frozen
from igei.errors import DataError, IgeiError
from igei.model import ObservationRecord

PASS = "PASS"
FAIL = "FAIL"
KNOWN_DEVIATION = "KNOWN-DEVIATION"

# Rows carried in the published tables that are not among the 21 scoring
# regions: the national aggregate and the region whose two autonomous
# provinces are already counted.
AGGREGATE_TERRITORIES = ("Italia", "Trentino-Alto Adige/Südtirol")


# --- bundled reference fixtures --------------------------------------------


def _fixture_rows(
    source, default: str
) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Header and remaining (line number, stripped cells) of ``source``, or of a bundled file."""
    if source is None:
        source = dataio.bundled_path(default)
    rows = ((lineno, list(map(str.strip, row))) for lineno, row in dataio._rows(source, False))
    first = next(rows, None)
    if first is None:
        raise DataError(f"reference fixture {source} is empty")
    return first[1], rows


def load_reference_table(source=None) -> dict[str, dict[str, float]]:
    """Published numeric rows keyed by their first cell, then by column name.

    The default source holds the final-index and domain values per
    territory; the summary fixtures hold one descriptive-statistics row
    per column.
    """
    header, rows = _fixture_rows(source, "regional_index_2023.csv")
    out: dict[str, dict[str, float]] = {}
    for lineno, row in rows:
        out[row[0]] = {
            col: _required_number(cell, lineno, col) for col, cell in zip(header[1:], row[1:])
        }
    return out


def load_correlation_reference(source=None) -> dict[tuple[str, str], float]:
    """Published correlation cells keyed by (row indicator, column indicator)."""
    header, rows = _fixture_rows(source, "indicator_correlation_2023.csv")
    out: dict[tuple[str, str], float] = {}
    for lineno, row in rows:
        for col, cell in zip(header[1:], row[1:]):
            if cell:
                value = dataio._parse_number(cell, False, lineno, col)
                if value is not None:
                    out[(row[0], col)] = value
    return out


class PenalizedCase(Frozen):
    """One reference sequence with its published mean comparisons."""

    def __init__(self, values: tuple[float, ...], mean: float, penalized: float,
                 geometric: float | None) -> None:
        self._store(values, mean, penalized, geometric)


def _required_number(cell: str, lineno: int, column: str) -> float:
    value = dataio._parse_number(cell, False, lineno, column)
    if value is None:
        raise DataError(f"row {lineno}: column {column!r} is not a number: ''")
    return value


def load_penalized_reference(source=None) -> list[PenalizedCase]:
    header, rows = _fixture_rows(source, "penalized_mean_reference.csv")
    cases: list[PenalizedCase] = []
    for lineno, row in rows:
        seq, mean, penalized, geometric = row
        cases.append(
            PenalizedCase(
                values=tuple(_required_number(v.strip(), lineno, header[0])
                             for v in seq.split(";")),
                mean=_required_number(mean, lineno, header[1]),
                penalized=_required_number(penalized, lineno, header[2]),
                geometric=dataio._parse_number(geometric, False, lineno, header[3]),
            )
        )
    return cases


def load_demo_expected(source=None) -> dict[str, tuple[float, float]]:
    """Published (classic-variant, standard) score pairs for the demo countries."""
    header, rows = _fixture_rows(source, "demo_countries_expected.csv")
    return {
        row[0]: (_required_number(row[1], lineno, header[1]),
                 _required_number(row[2], lineno, header[2]))
        for lineno, row in rows
    }


@cache
def _bundled(loader, name: str | None = None):
    """``loader``'s result for a bundled file (its default for ``None``), read once per run."""
    return loader(None if name is None else dataio.bundled_path(name))


def demo_scores() -> list[tuple[ObservationRecord, float, float]]:
    """Each demo country's record with its classic-variant and standard score."""
    specs, tree = dataio.load_index_spec(dataio.bundled_path("demo_tree.yaml"))
    dataset = dataio.load_dataset(dataio.bundled_path("demo_countries.csv"))
    refs = pipeline.resolve_references(dataset, specs, dataset.territories)
    table = pipeline.score_table(dataset, specs, tree, refs)
    index = dict(zip(table.territories, table.index))
    records = list(dataset)
    x_ref = max(rec.x_a for rec in records)
    return [(rec, metrics.score_gei(rec.x_w, rec.x_a, x_ref), index[rec.territory])
            for rec in records]


def _check_demo_scores() -> tuple[str, str]:
    expected = load_demo_expected()
    max_delta = 0.0
    for rec, got_gei, got_std in demo_scores():
        exp_gei, exp_std = expected[rec.territory]
        max_delta = max(max_delta, abs(got_std - exp_std), abs(got_gei - exp_gei))
    status = PASS if max_delta <= 0.005 else FAIL
    return status, f"max |delta| {max_delta:.4f} over 10 published scores"


def _check_penalized_reference() -> tuple[str, str]:
    max_delta = 0.0
    for case in load_penalized_reference():
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
    reference = _bundled(load_reference_table)
    folded = pipeline.aggregate_table(tree, table).domain_values
    max_delta = max(abs(value - reference[terr][dom])
                    for dom, column in folded.items()
                    for terr, value in zip(table.territories, column))
    n = len(table.territories) * len(tree.domains)
    status = PASS if max_delta <= 0.01 else FAIL
    return status, f"max |delta| {max_delta:.4f} over {n} published domain values"


def _check_final_index() -> tuple[str, str]:
    _, tree = _bundled(dataio.load_index_spec)
    reference = _bundled(load_reference_table)
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
    computed = summary._asdict()
    return max(abs(computed[stat] - val) for stat, val in expected.items())


def _check_index_summaries() -> tuple[str, str]:
    reference = _bundled(load_reference_table)
    published = load_reference_table(
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
    published = load_reference_table(
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
    published = load_correlation_reference()
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
