"""Tree invariants on a seeded table of 500 territories, not only the bundled 21."""

import random

import pytest

from igei.cli import main
from igei.dataio import load_index_spec, load_score_table
from igei.pipeline import aggregate_scores

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
    "argv", [["report", "--format", "csv"], ["aggregate", "--format", "json"]]
)
def test_row_order_does_not_change_output(capsys, table_files, argv):
    outputs = []
    for path in table_files:
        assert main(argv + ["--data", path]) == 0
        outputs.append(capsys.readouterr().out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) > TERRITORIES
