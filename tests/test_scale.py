"""Invariants on seeded tables of 500 territories, not only the bundled 21."""

import dataclasses
import gc
import random
import time
import tracemalloc

import pytest

from igei.cli import main
from igei.dataio import OBSERVATION_HEADER, load_dataset, load_index_spec, load_score_table
from igei.errors import DataError
from igei.metrics import MetricKind
from igei.model import Dataset, ObservationRecord
from igei.pipeline import (
    aggregate_scores,
    aggregate_table,
    resolve_references,
    score_territory,
    score_time_series,
)

TERRITORIES = 500
SEED = 20231


def score_rows(leaves):
    """Header and one row per territory of 3-decimal scores.

    Every tenth territory copies the previous one's scores, so the ranking
    has ties; some rows hold constant, 0 and 100 scores.
    """
    rng = random.Random(SEED)
    rows = []
    for i in range(TERRITORIES):
        if i % 50 == 0:
            scores = [f"{rng.choice([0, 61.8, 100]):.3f}"] * len(leaves)
        elif i % 10 != 9:  # the tenth keeps the previous scores
            scores = [f"{rng.uniform(0, 100):.3f}" for _ in leaves]
            scores[rng.randrange(len(leaves))] = rng.choice(["0.000", "100.000"])
        rows.append(",".join([f"Region {i:05d}"] + scores))
    return "territory," + ",".join(leaves), rows


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """The same table twice: rows in generation order and shuffled."""
    _, tree = load_index_spec()
    header, rows = score_rows(tree.leaf_ids())
    shuffled = rows[:]
    random.Random(SEED + 1).shuffle(shuffled)
    assert shuffled != rows
    directory = tmp_path_factory.mktemp("scale")
    paths = []
    for name, body in (("ordered.csv", rows), ("shuffled.csv", shuffled)):
        path = directory / name
        path.write_text("\n".join([header] + body) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def test_every_node_inside_its_childrens_envelope(table_files):
    _, tree = load_index_spec()
    table = load_score_table(table_files[0])
    assert len(table.territories) == TERRITORIES
    for terr in table.territories:
        scores = table.row(terr)
        rep = aggregate_scores(tree, scores, terr)
        for dom in tree.domains:
            sub_values = []
            for sub in dom.subdomains:
                children = [scores[i] for i in sub.indicators]
                value = rep.subdomain_values[(dom.id, sub.id)]
                assert min(children) <= value <= max(children), (terr, sub.id)
                sub_values.append(value)
            value = rep.domain_values[dom.id]
            assert min(sub_values) <= value <= max(sub_values), (terr, dom.id)
        domains = list(rep.domain_values.values())
        assert min(domains) <= rep.index <= max(domains), terr


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--format", "csv"],
        ["aggregate", "--format", "json"],
        ["report", "--format", "json"],
    ],
)
def test_row_order_does_not_change_output(capsys, table_files, argv):
    outputs = []
    for path in table_files:
        assert main(argv + ["--data", path]) == 0
        outputs.append(capsys.readouterr().out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) > TERRITORIES


# --- observations ------------------------------------------------------------

PERIODS = (2022, 2023)
STEADY = "Region 00007"  # the same observations in both periods

# (low, high) of a single-value observation, by metric kind
VALUE_RANGES = {
    MetricKind.SHARE: (0.05, 0.95),
    MetricKind.RATIO: (0.5, 1.5),
    MetricKind.CAPPED: (0.0, 1.5),
}


def observation_cells(spec, rng):
    """x_w, x_m, x_a and value cells of one valid observation for ``spec``.

    Gendered levels stay inside (0, 1), so negative-polarity rates are
    valid too; x_a feeds own-average and external corrections.
    """
    if spec.metric is MetricKind.STANDARD:
        x_w, x_m = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        return [f"{x_w:.4f}", f"{x_m:.4f}", f"{(x_w + x_m) / 2:.4f}", ""]
    low, high = VALUE_RANGES[spec.metric]
    return ["", "", "", f"{rng.uniform(low, high):.4f}"]


@pytest.fixture(scope="module")
def observation_files(tmp_path_factory):
    """Single-period and two-period observation files, each in generation order and shuffled.

    Every territory but STEADY draws new observations for the second period.
    """
    specs, _ = load_index_spec()
    rng = random.Random(SEED)
    names = [f"Region {i:05d}" for i in range(TERRITORIES)]
    first = {t: {ind: observation_cells(s, rng) for ind, s in specs.items()} for t in names}
    second = {
        t: first[t] if t == STEADY else {ind: observation_cells(s, rng) for ind, s in specs.items()}
        for t in names
    }

    def rows(period, cells):
        return [
            ",".join([t, ind, str(period), specs[ind].metric.value] + c)
            for t, by_ind in cells.items()
            for ind, c in by_ind.items()
        ]

    directory = tmp_path_factory.mktemp("observations")
    files = {}
    for name, body in (
        ("single", rows(PERIODS[0], first)),
        ("series", rows(PERIODS[0], first) + rows(PERIODS[1], second)),
    ):
        shuffled = body[:]
        random.Random(SEED + 1).shuffle(shuffled)
        assert shuffled != body
        files[name] = []
        for order, lines in (("ordered", body), ("shuffled", shuffled)):
            path = directory / f"{name}-{order}.csv"
            text = "\n".join([",".join(OBSERVATION_HEADER)] + lines) + "\n"
            path.write_text(text, encoding="utf-8")
            files[name].append(str(path))
    return files


@pytest.mark.parametrize("series", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_observation_order_does_not_change_scores(capsys, observation_files, series, fmt):
    argv = ["score", "--format", fmt] + (["--time-series"] if series else [])
    outputs = []
    for path in observation_files["series" if series else "single"]:
        assert main(argv + ["--data", path]) == 0
        outputs.append(capsys.readouterr().out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) > TERRITORIES


# Bytes a loaded record keeps: one block of columns per indicator, with shared
# names and periods, sits near 127 on CPython 3.11. A record object per row
# in one index of per-pair tuples kept about 237, a second index keyed by
# (territory, indicator, period) about 330, and a dict-backed record with its
# own strings and period about 530.
KEPT_BYTES_PER_RECORD = 160


def test_loaded_records_are_lean(observation_files):
    specs, _ = load_index_spec()
    gc.collect()
    tracemalloc.start()
    try:
        data = load_dataset(observation_files["series"][0])
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) == TERRITORIES * len(PERIODS) * len(specs)
    assert kept / len(data) < KEPT_BYTES_PER_RECORD


# Bytes a loaded score cell keeps: one tuple of floats per territory sits near
# 39 on CPython 3.11; a dict keyed by a (territory, indicator) pair per cell
# kept about 113 on this table.
KEPT_BYTES_PER_SCORE = 60
# Bytes an aggregate_scores report keeps beside the table's floats: reports
# that share the tree's (domain, sub-domain) keys sit near 1,535; ten new key
# tuples per report kept about 2,095.
KEPT_BYTES_PER_REPORT = 1800


def test_score_tables_and_reports_are_lean(table_files):
    _, tree = load_index_spec()
    gc.collect()
    tracemalloc.start()
    try:
        table = load_score_table(table_files[0])
        gc.collect()
        table_bytes, _ = tracemalloc.get_traced_memory()
        reports = [aggregate_scores(tree, table.row(t), t) for t in table.territories]
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = len(table.territories) * len(table.indicators)
    assert table_bytes / cells < KEPT_BYTES_PER_SCORE
    assert (kept - table_bytes) / len(reports) < KEPT_BYTES_PER_REPORT


# Bytes aggregate_table keeps per territory beside the table: one float per
# folded node, whose value is new, and one list slot per node sit near 620
# on CPython 3.11, against about 1,535 for an aggregate_scores report.
KEPT_BYTES_PER_TERRITORY = 800


def test_table_columns_are_lean(table_files):
    _, tree = load_index_spec()
    table = load_score_table(table_files[0])
    gc.collect()
    tracemalloc.start()
    try:
        columns = aggregate_table(tree, table)
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(columns.index) == TERRITORIES
    assert kept / TERRITORIES < KEPT_BYTES_PER_TERRITORY


@pytest.mark.parametrize("series", [False, True])
def test_scoring_builds_no_record(capsys, monkeypatch, observation_files, series):
    built = []
    init = ObservationRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ObservationRecord, "__init__", counted)
    argv = ["score", "--format", "json"] + (["--time-series"] if series else [])
    path = observation_files["series" if series else "single"][1]
    assert main(argv + ["--data", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) > TERRITORIES
    assert built == []
    # records are built when asked for, once: a series builds only its pair's
    data = load_dataset(path)
    first = data.series(STEADY, "G1")
    assert len(built) == len(first)
    assert data.series(STEADY, "G1") is first
    assert sorted(rec.period for rec in first) == list(PERIODS[:len(first)])
    assert first[0] is next(rec for rec in data if rec.indicator == "G1" and rec.territory == STEADY)
    assert len(built) == len(data)
    # once iterated, a series builds nothing more
    second = data.series(STEADY, "G2")
    assert second[0] is next(rec for rec in data if rec.indicator == "G2" and rec.territory == STEADY)
    assert len(built) == len(data)


def test_scoring_one_territory_builds_only_its_records(monkeypatch, observation_files):
    built = []
    init = ObservationRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    specs, tree = load_index_spec()
    data = load_dataset(observation_files["series"][1])
    refs = resolve_references(data, specs, data.territories, time_mode=True)
    monkeypatch.setattr(ObservationRecord, "__init__", counted)
    report = score_territory(STEADY, data, specs, tree, refs, period=PERIODS[0])
    own = sum(len(data.series(STEADY, leaf)) for leaf in tree.leaf_ids())
    assert report.territory == STEADY
    assert 0 < len(built) == own < len(data)
    assert {args[0] for args in built} == {STEADY}


def test_unchanged_territory_keeps_its_scores(observation_files):
    specs, tree = load_index_spec()
    data = load_dataset(observation_files["series"][0])
    by_period = score_time_series(data, specs, tree)
    assert sorted(by_period) == list(PERIODS)
    before, after = (by_period[p] for p in PERIODS)
    assert len(before) == TERRITORIES
    for terr, report in before.items():
        same = dataclasses.replace(report, period=None) == dataclasses.replace(
            after[terr], period=None
        )
        assert same == (terr == STEADY), terr


LONG_SERIES = 20_000


def test_long_series_is_indexed_in_linear_time(tmp_path):
    """One pair over 20,000 shuffled periods: a scan of the pair's periods per
    record would take minutes, the index a fraction of a second."""
    periods = list(range(1, LONG_SERIES + 1))
    random.Random(SEED).shuffle(periods)
    records = [ObservationRecord("A", "G10", p, MetricKind.CAPPED, value=0.5) for p in periods]
    start = time.perf_counter()
    data = Dataset(records)
    assert time.perf_counter() - start < 1.0
    assert data.series("A", "G10") == tuple(records)
    assert data.periods == tuple(range(1, LONG_SERIES + 1))
    assert data.get("A", "G10", periods[-1]) is records[-1]

    # the loader still names the row of a repeated period
    lines = [",".join(OBSERVATION_HEADER)] + [f"A,G10,{p},capped,,,,0.5" for p in periods]
    lines.insert(LONG_SERIES // 2 + 1, f"A,G10,{periods[7]},capped,,,,0.7")
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    with pytest.raises(DataError) as info:
        load_dataset(path)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        f"row {LONG_SERIES // 2 + 2}: duplicate observation for territory 'A', "
        f"indicator 'G10', period {periods[7]}"
    )
