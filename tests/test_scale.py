"""Invariants on seeded tables of 500 territories, not only the bundled 21."""

import gc
import random
import time
import tracemalloc
from operator import attrgetter
from pathlib import Path

import pytest

from igei import dataio, pipeline
from igei.cli import main
from igei.dataio import (
    OBSERVATION_HEADER,
    bundled_path,
    load_dataset,
    load_index_spec,
    load_score_table,
)
from igei.errors import DataError
from igei.metrics import MetricKind
from igei.model import CorrectionKind, Dataset, ObservationRecord
from igei.penalized import Polarity
from igei.pipeline import (
    aggregate_scores,
    aggregate_table,
    resolve_references,
    score_series_tables,
    score_table,
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


def count_records(monkeypatch):
    """The arguments of every ObservationRecord built from now on."""
    built = []
    init = ObservationRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ObservationRecord, "__init__", counted)
    return built


@pytest.mark.parametrize("series", [False, True])
def test_scoring_builds_no_record(capsys, monkeypatch, observation_files, series):
    built = count_records(monkeypatch)
    argv = ["score", "--format", "json"] + (["--time-series"] if series else [])
    path = observation_files["series" if series else "single"][1]
    assert main(argv + ["--data", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) > TERRITORIES
    assert built == []
    # records are built when asked for, anew on every call
    data = load_dataset(path)
    periods = PERIODS if series else PERIODS[:1]
    first = [data.get(STEADY, "G1", period) for period in periods]
    assert len(built) == len(first)
    assert [data.get(STEADY, "G1", period) for period in periods] == first
    assert len(built) == 2 * len(first)
    assert [rec.period for rec in first] == list(periods)
    pair = [rec for rec in data if rec.indicator == "G1" and rec.territory == STEADY]
    assert sorted(pair, key=attrgetter("period")) == first
    built.clear()
    assert sum(1 for _ in data) == len(built) == len(data)


def test_scoring_one_territory_builds_no_record(monkeypatch, observation_files):
    specs, tree = load_index_spec()
    data = load_dataset(observation_files["series"][1])
    tables = score_series_tables(data, specs, tree)
    refs = resolve_references(data, specs, data.territories, time_mode=True)
    built = count_records(monkeypatch)
    report = score_territory(STEADY, data, specs, tree, refs, period=PERIODS[0])
    assert built == []
    assert report.territory == STEADY
    assert report.index == tables[PERIODS[0]].index[data.territories.index(STEADY)]


def test_a_fault_is_named_without_records(capsys, monkeypatch, observation_files, tmp_path):
    # the last territory, left out of the scope, is the only one above its
    # own-average reference, and only in the last period: the walk's replay
    # meets every other territory and period first
    last = f"Region {TERRITORIES - 1:05d}"
    lines = Path(observation_files["series"][0]).read_text(encoding="utf-8").splitlines()
    row = lines.index(next(line for line in lines
                           if line.startswith(f"{last},G4,{PERIODS[-1]},")))
    cells = lines[row].split(",")
    cells[6] = "0.9900"  # x_a; every generated level is at most 0.95
    lines[row] = ",".join(cells)
    path = tmp_path / "fault.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scope = ",".join(f"Region {i:05d}" for i in range(TERRITORIES - 1))
    built = count_records(monkeypatch)
    argv = ["score", "--time-series", "--data", str(path), "--scope", scope]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: territory {last!r}, indicator 'G4', period {PERIODS[-1]}: "
        "achievement 0.99 exceeds reference maximum 0.9338\n"
    )
    assert built == []


def test_unchanged_territory_keeps_its_scores(observation_files):
    specs, tree = load_index_spec()
    data = load_dataset(observation_files["series"][0])
    by_period = score_time_series(data, specs, tree)
    assert sorted(by_period) == list(PERIODS)
    before, after = (by_period[p] for p in PERIODS)
    assert len(before) == TERRITORIES
    for terr, report in before.items():
        same = report._replace(period=None) == after[terr]._replace(period=None)
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
    assert list(data) == records
    assert data.periods == tuple(range(1, LONG_SERIES + 1))
    assert data.get("A", "G10", periods[-1]) == records[-1]

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


# --- column tests: the per-row paths run only where a column fails its test --

# each per-row path of igei score and igei report, with what names its block
# (or, for the scoring walk's replay, its territory) in the call
FALLBACKS = (
    (dataio, "_load_rows", lambda handle, source, decimal_comma: "file"),
    (dataio, "_table_rows", lambda handle, source, decimal_comma: "file"),
    (dataio, "_block_findings", lambda spec, block: spec.id),
    (pipeline, "_row_reference", lambda spec, *rest: spec.id),
    (pipeline, "score_territory", lambda territory, *rest: territory),
    (pipeline, "_fold_scores", lambda values: "row"),
)


def count_fallbacks(monkeypatch) -> dict[str, list[str]]:
    """Record each call of a per-row path, by name, as the id of its block."""
    calls: dict[str, list[str]] = {}
    for module, name, block_of in FALLBACKS:
        original = getattr(module, name)

        def counted(*args, _name=name, _block_of=block_of, _original=original):
            calls.setdefault(_name, []).append(_block_of(*args))
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


BENCH_TERRITORIES = 300


def bench_rows(rng, territories, periods, blank_totals=True):
    """Observation rows of the bundled tree, as the benchmark writes them: an
    indicator corrected by another's total, or not at all, leaves its own
    total blank in half the rows."""
    specs, _ = load_index_spec()
    rows = []
    for terr in territories:
        for period in periods:
            for ind, spec in specs.items():
                cells = observation_cells(spec, rng)
                if (blank_totals and spec.metric is MetricKind.STANDARD
                        and spec.correction.kind is not CorrectionKind.OWN_AVERAGE
                        and rng.random() < 0.5):
                    cells[2] = ""
                rows.append(",".join([terr, ind, str(period), spec.metric.value] + cells))
    return rows


def quoted(line: str) -> str:
    """A line of comma-separated cells with every cell quoted, as R's write.csv
    quotes names."""
    return ",".join(f'"{cell}"' for cell in line.split(","))


@pytest.fixture(scope="module")
def bench_files(tmp_path_factory):
    """Bench-shaped files of BENCH_TERRITORIES territories: one period, two
    periods, and each written with CRLF line ends and with every cell quoted."""
    rng = random.Random(SEED + 2)
    names = [f"Region {i:05d}" for i in range(BENCH_TERRITORIES)]
    directory = tmp_path_factory.mktemp("bench-shaped")
    files = {}
    for name, periods in (("single", PERIODS[:1]), ("series", PERIODS)):
        lines = [",".join(OBSERVATION_HEADER)] + bench_rows(rng, names, periods)
        for variant, text in (
            (name, "\n".join(lines) + "\n"),
            (f"{name}-crlf", "\r\n".join(lines) + "\r\n"),
            (f"{name}-quoted", "\n".join(map(quoted, lines)) + "\n"),
        ):
            path = directory / f"{variant}.csv"
            path.write_bytes(text.encode("utf-8"))
            files[variant] = str(path)
    return files


@pytest.mark.parametrize("source", ["demo", "single", "series", "single-crlf", "series-crlf",
                                    "single-quoted", "series-quoted", "report"])
def test_clean_files_take_no_per_row_path(capsys, monkeypatch, bench_files, source):
    if source == "demo":
        argv = ["score", "--data", str(bundled_path("demo_countries.csv")),
                "--spec", str(bundled_path("demo_tree.yaml"))]
    elif source == "report":
        argv = ["report", "--data", str(bundled_path("indicator_scores_2023.csv"))]
    else:
        argv = ["score", "--data", bench_files[source]] + (
            ["--time-series"] if source.startswith("series") else [])
    calls = count_fallbacks(monkeypatch)
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out
    assert calls == {}


def with_cells(path, tmp_path, changes):
    """A copy of the observation file at ``path`` with the cells ``changes``
    maps (territory, indicator) to, given as {column name: text}."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        for column, text in changes.get((cells[0], cells[1]), {}).items():
            cells[header.index(column)] = text
        lines[i] = ",".join(cells)
    copy = tmp_path / "changed.csv"
    copy.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(copy)


def test_only_the_faulting_block_takes_the_per_row_path(capsys, monkeypatch, tmp_path,
                                                        bench_files):
    # a negative-polarity rate above 1: validation names it, scoring never starts
    path = with_cells(bench_files["single"], tmp_path, {("Region 00003", "G2"): {"x_m": "1.2"}})
    calls = count_fallbacks(monkeypatch)
    assert main(["score", "--data", path]) == 1
    assert "out-of-range" in capsys.readouterr().out
    assert calls == {"_block_findings": ["G2"]}

    # zeros in two rows of one column each: no row has both levels zero, so
    # every column test passes
    path = with_cells(bench_files["single"], tmp_path, {("Region 00003", "G4"): {"x_w": "0"},
                                                         ("Region 00005", "G4"): {"x_m": "0"}})
    calls.clear()
    assert main(["score", "--data", path, "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == BENCH_TERRITORIES + 1
    assert calls == {}

    # a row with both levels zero: validation names it, scoring never starts
    path = with_cells(bench_files["single"], tmp_path,
                      {("Region 00003", "G4"): {"x_w": "0", "x_m": "0"}})
    calls.clear()
    assert main(["score", "--data", path]) == 1
    out = capsys.readouterr().out
    assert "degenerate" in out and "Region 00003" in out
    assert calls == {"_block_findings": ["G4"]}


def subset_scope(data, specs):
    """Every third territory, and each territory that holds the largest or the
    smallest level of a standard indicator's column, so every out-of-scope
    achievement stays within the scope's references."""
    scope = set(data.territories[::3])
    for ind, spec in specs.items():
        block = data.columns(ind)
        for column in (block.x_w, block.x_m, block.x_a):
            rows = [(v, t) for v, t in zip(column, block.territory) if v is not None]
            if rows:
                scope.update((min(rows)[1], max(rows)[1]))
    assert len(scope) < len(data.territories)
    return sorted(scope)


def columns_of(report):
    """repr of every node value of a TerritoryReport, by node."""
    return {**{leaf: repr(v) for leaf, v in report.indicator_scores.items()},
            **{key: repr(v) for key, v in report.subdomain_values.items()},
            **{dom: repr(v) for dom, v in report.domain_values.items()},
            "index": repr(report.index)}


def row_of(table, i):
    """repr of position ``i`` of every column of a TableReport, by node."""
    return {**{leaf: repr(col[i]) for leaf, col in table.indicator_scores.items()},
            **{key: repr(col[i]) for key, col in table.subdomain_values.items()},
            **{dom: repr(col[i]) for dom, col in table.domain_values.items()},
            "index": repr(table.index[i])}


@pytest.mark.parametrize("series", [False, True])
def test_strict_subset_scope_matches_score_territory(monkeypatch, bench_files, series):
    specs, tree = load_index_spec()
    data = load_dataset(bench_files["series" if series else "single"])
    scope = subset_scope(data, specs)
    calls = count_fallbacks(monkeypatch)
    refs = resolve_references(data, specs, scope, time_mode=series)
    tables = (score_series_tables(data, specs, tree, scope) if series
              else {None: score_table(data, specs, tree, refs)})
    # the subset branch of the column path read every reference
    assert calls == {}
    # every territory, in the scope or out of it, against the scope's references
    for period, table in tables.items():
        assert table.territories == data.territories
        for i, terr in enumerate(data.territories):
            report = score_territory(terr, data, specs, tree, refs, period)
            assert row_of(table, i) == columns_of(report), (terr, period)
