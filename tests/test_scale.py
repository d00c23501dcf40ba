"""Invariants on seeded tables of 500 territories, not only the bundled 21."""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from igei.cli import main
from igei.dataio import OBSERVATION_HEADER, load_dataset, load_index_spec, load_score_table
from igei.metrics import MetricKind
from igei.pipeline import aggregate_scores, score_time_series

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


# Bytes a loaded record keeps, index included: slotted records that share
# their names and period sit near 360 on CPython 3.11; a dict-backed record
# with its own strings and period kept about 530.
KEPT_BYTES_PER_RECORD = 430


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
