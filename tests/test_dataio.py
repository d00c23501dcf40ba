import math
import random

import pytest

from igei import dataio
from igei.dataio import (
    load_correlation_reference,
    load_demo_expected,
    load_index_spec,
    load_observations,
    load_penalized_reference,
    load_reference_table,
    load_score_table,
    save_observations,
    validate_dataset,
)
from igei.errors import DataError, SpecError
from igei.metrics import MetricKind, score_standard
from igei.model import Dataset, ObservationRecord
from igei.penalized import Polarity

GOOD_FILE = """territory,indicator,period,kind,x_w,x_m,x_a,value
North,G1,2023,standard,0.4,0.6,0.5,
South,G1,2023,standard,0.3,0.5,0.4,
North,G2,2023,share,,,,0.35
"""


def write(tmp_path, text, name="obs.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadObservations:
    def test_three_rows(self, tmp_path):
        records = load_observations(write(tmp_path, GOOD_FILE))
        assert len(records) == 3
        assert [r.territory for r in records] == ["North", "South", "North"]
        assert records[0].x_w == 0.4 and records[0].value is None
        assert records[2].kind is MetricKind.SHARE and records[2].value == 0.35

    def test_share_bound_names_row(self, tmp_path):
        text = GOOD_FILE + "South,G2,2023,share,,,,1.2\n"
        with pytest.raises(DataError, match=r"row 5.*1\.2.*\[0, 1\]"):
            load_observations(write(tmp_path, text))

    def test_demo_dataset_scores_to_published_column(self):
        records = load_observations(dataio.bundled_path("demo_countries.csv"))
        assert len(records) == 5
        expected = load_demo_expected()
        x_ref = max(r.x_a for r in records)
        for rec in records:
            got = score_standard(rec.x_w, rec.x_m, rec.x_a, x_ref)
            assert got == pytest.approx(expected[rec.territory][1], abs=0.005)

    def test_duplicate_key_rejected(self, tmp_path):
        text = GOOD_FILE + "North,G1,2023,standard,0.1,0.2,0.15,\n"
        with pytest.raises(DataError, match="duplicate"):
            load_observations(write(tmp_path, text))

    def test_malformed_number_names_row(self, tmp_path):
        text = GOOD_FILE.replace("0.3,0.5,0.4", "0.3,abc,0.4")
        with pytest.raises(DataError, match="row 3"):
            load_observations(write(tmp_path, text))

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                GOOD_FILE + "West,G1,2023,standard,0.4,0.5,0.4\n",
                "row 5: expected 8 cells, got 7",
            ),
            (
                GOOD_FILE + " ,G1,2023,standard,0.4,0.5,0.4,\n",
                "row 5: territory and indicator must be non-empty",
            ),
            (
                GOOD_FILE + "West,G1,2023.0,standard,0.4,0.5,0.4,\n",
                "row 5: period is not an integer: '2023.0'",
            ),
            (
                GOOD_FILE + "West,G1,2023,Standard,0.4,0.5,0.4,\n",
                "row 5: unknown metric kind 'Standard' "
                "(expected one of standard, share, ratio, capped)",
            ),
            (
                GOOD_FILE + "West,G1,2023,standard,abc,0.5,x,\n",
                "row 5: column 'x_w' is not a number: 'abc'",
            ),
            (
                GOOD_FILE + "West,G1,2023,standard,0.4,0.5.1,x,y\n",
                "row 5: column 'x_m' is not a number: '0.5.1'",
            ),
            (
                GOOD_FILE + "West,G1,2023,standard,0.4,0.5,1e,y\n",
                "row 5: column 'x_a' is not a number: '1e'",
            ),
            (
                GOOD_FILE + "West,G2,2023,share,,,,half\n",
                "row 5: column 'value' is not a number: 'half'",
            ),
            (
                "territory;indicator;period;kind;x_w;x_m;x_a;value\n"
                "North;G1;2023;standard;0,4;0,6;0,5;\n"
                "South;G1;2023;standard;0,3;0,5.0;0,4;\n",
                "row 3: column 'x_m' is not a number: '0,5.0'",
            ),
        ],
        ids=[
            "cell-count", "empty-territory", "period", "kind",
            "x_w", "x_m", "x_a", "value", "decimal-comma",
        ],
    )
    def test_malformed_row_message(self, tmp_path, text, message):
        with pytest.raises(DataError) as info:
            load_observations(write(tmp_path, text), decimal_comma=";" in text)
        assert str(info.value) == message

    def test_bad_header_rejected(self, tmp_path):
        with pytest.raises(DataError, match="header"):
            load_observations(write(tmp_path, "a,b,c\n1,2,3\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="empty"):
            load_observations(write(tmp_path, "# nothing here\n"))

    def test_unknown_kind_rejected(self, tmp_path):
        text = GOOD_FILE.replace("share", "fraction")
        with pytest.raises(DataError, match="fraction"):
            load_observations(write(tmp_path, text))

    def test_standard_with_value_rejected(self, tmp_path):
        text = GOOD_FILE.replace("0.4,0.6,0.5,", "0.4,0.6,0.5,0.7")
        with pytest.raises(DataError, match="no single value"):
            load_observations(write(tmp_path, text))

    def test_share_with_levels_rejected(self, tmp_path):
        text = GOOD_FILE.replace(",,,,0.35", ",0.2,,,0.35")
        with pytest.raises(DataError, match="only the value column"):
            load_observations(write(tmp_path, text))

    def test_nonpositive_ratio_rejected(self, tmp_path):
        text = GOOD_FILE + "South,G3,2023,ratio,,,,0\n"
        with pytest.raises(DataError, match="positive"):
            load_observations(write(tmp_path, text))

    def test_negative_level_rejected(self, tmp_path):
        text = GOOD_FILE.replace("0.3,0.5,0.4", "-0.3,0.5,0.4")
        with pytest.raises(DataError, match="non-negative"):
            load_observations(write(tmp_path, text))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("South,G4,2023,capped,,,,nan", "value must be a finite number, got nan"),
            ("South,G3,2023,ratio,,,,inf", "value must be a finite number, got inf"),
            ("South,G2,2023,share,,,,nan", r"share value nan is outside \[0, 1\]"),
            ("West,G1,2023,standard,nan,0.5,0.4,", "x_w must be a finite number"),
            ("West,G1,2023,standard,0.4,0.5,inf,", "x_a must be a finite number"),
            ("West,G1,2023,standard,0.4,-inf,0.4,", "x_m must be non-negative"),
        ],
    )
    def test_non_finite_value_names_row(self, tmp_path, row, message):
        with pytest.raises(DataError, match=f"row 5: {message}"):
            load_observations(write(tmp_path, GOOD_FILE + row + "\n"))

    def test_loaded_records_share_names_and_periods(self, tmp_path):
        text = GOOD_FILE + "South,G2,2023,share,,,,0.4\n"
        data = dataio.load_dataset(write(tmp_path, text))
        north, south, north_g2, south_g2 = data
        assert north.territory is north_g2.territory
        assert south.territory is south_g2.territory
        assert north.indicator is south.indicator
        assert north_g2.indicator is south_g2.indicator
        assert all(rec.period is north.period for rec in data)
        assert data.territories[0] is north.territory
        assert data.indicators[1] is north_g2.indicator

    def test_round_trip(self, tmp_path):
        records = load_observations(write(tmp_path, GOOD_FILE))
        out = tmp_path / "copy.csv"
        save_observations(records, out)
        assert load_observations(out) == records

    def test_decimal_comma_flag(self, tmp_path):
        text = (
            "territory;indicator;period;kind;x_w;x_m;x_a;value\n"
            "North;G1;2023;standard;0,4;0,6;0,5;\n"
        )
        records = load_observations(write(tmp_path, text), decimal_comma=True)
        assert records[0].x_w == 0.4
        with pytest.raises(DataError):
            load_observations(write(tmp_path, text, name="c2.csv"))


class TestLoadIndexSpec:
    def test_bundled_tree_shape(self, default_spec):
        specs, tree = default_spec
        assert len(tree.leaf_ids()) == 20
        assert len(tree.domains) == 6
        subdomain_count = sum(len(d.subdomains) for d in tree.domains)
        assert subdomain_count == 10
        sizes = [
            tuple(len(s.indicators) for s in d.subdomains) for d in tree.domains
        ]
        assert sizes == [(1, 2), (2,), (2, 1), (2, 2), (2,), (3, 3)]

    def test_bundled_corrections(self, default_spec):
        specs, _ = default_spec
        assert specs["G3"].correction.kind == "external"
        assert specs["G3"].correction.indicator == "G1"
        assert specs["G3"].correction.field == "total"
        assert specs["G8"].correction.indicator == "G6"
        assert specs["G9"].correction.field == "women"
        assert specs["G10"].metric is MetricKind.CAPPED
        assert specs["G10"].correction.kind == "none"
        for gid in ("G2", "G18", "G19"):
            assert specs[gid].polarity is Polarity.NEGATIVE
        for gid in ("G13", "G14"):
            assert specs[gid].metric is MetricKind.SHARE
            assert specs[gid].correction.kind == "none"

    def test_placement_derived_from_tree(self, default_spec):
        specs, _ = default_spec
        assert (specs["G1"].domain, specs["G1"].subdomain) == ("work", "participation")
        assert specs["G4"].subdomain == "economy"  # implicit sub-domain

    def test_minimal_spec(self):
        specs, tree = load_index_spec(dataio.bundled_path("demo_tree.yaml"))
        assert tree.leaf_ids() == ("G1",)
        assert len(tree.domains) == 1

    def test_dangling_external_reference(self, tmp_path):
        text = """
tree:
  - domain: d
    indicators: [A]
indicators:
  A: {metric: share, correction: {indicator: MISSING, field: total}}
"""
        with pytest.raises(SpecError, match="MISSING"):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))

    def test_external_source_must_be_standard(self, tmp_path):
        text = """
tree:
  - domain: d
    indicators: [A, B]
indicators:
  A: {metric: share, correction: {indicator: B, field: total}}
  B: {metric: share}
"""
        with pytest.raises(SpecError, match="'A'.*'B' must be a standard-metric"):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))

    def test_duplicate_leaf(self, tmp_path):
        text = """
tree:
  - domain: d1
    indicators: [A]
  - domain: d2
    indicators: [A]
indicators:
  A: {metric: capped}
"""
        with pytest.raises(SpecError, match="more than once"):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))

    def test_domain_count_mismatch(self, tmp_path):
        text = """
domain_count: 3
tree:
  - domain: d
    indicators: [A]
indicators:
  A: {metric: capped}
"""
        with pytest.raises(SpecError, match="declares 3 domains"):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))

    def test_leaf_without_definition(self, tmp_path):
        text = """
tree:
  - domain: d
    indicators: [A, B]
indicators:
  A: {metric: capped}
"""
        with pytest.raises(SpecError, match="B"):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))

    def test_negative_polarity_requires_standard(self, tmp_path):
        text = """
tree:
  - domain: d
    indicators: [A]
indicators:
  A: {metric: share, polarity: negative}
"""
        with pytest.raises(SpecError, match="negative polarity"):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))


    @pytest.mark.parametrize(
        "entries, problem",
        [
            ("  C: {metric: capped}\n  C: {metric: share}\n",
             "line 6, column 3: found duplicate key 'C'"),
            ("  C: {metric: capped}\n  ? [C]\n  : {metric: share}\n",
             "line 6, column 5: found unhashable key"),
        ],
    )
    def test_repeated_or_unhashable_key(self, tmp_path, entries, problem):
        text = "tree:\n  - domain: d\n    indicators: [C]\nindicators:\n" + entries
        path = write(tmp_path, text, name="spec.yaml")
        with pytest.raises(SpecError) as info:
            load_index_spec(path)
        assert str(info.value) == f"{path}: malformed YAML at {problem}"

    def test_merge_keys_still_load(self, tmp_path):
        text = """
base: &base {metric: capped, label: Base}
tree:
  - domain: d
    indicators: [C]
indicators:
  C: {<<: *base, label: Own}
"""
        specs, _ = load_index_spec(write(tmp_path, text, name="spec.yaml"))
        assert (specs["C"].metric, specs["C"].label) == (MetricKind.CAPPED, "Own")


class TestMalformedSpecShapes:
    @pytest.mark.parametrize(
        "tree, message",
        [
            ("tree: {d: [A]}", "'tree' section must be a list"),
            ("tree:\n  - just-a-string", "tree entry 'just-a-string' is not a mapping"),
            (
                "tree:\n  - domain: d\n    subdomains:\n      - indicators: [A]",
                "domain 'd': every sub-domain needs an 'id'",
            ),
            (
                "tree:\n  - domain: d\n    subdomains: [s]",
                "domain 'd': every sub-domain needs an 'id', got 's'",
            ),
            ("tree:\n  - domain: d\n    subdomains: s", "subdomains must be a list"),
            (
                "tree:\n  - domain: d\n    subdomains:\n      - id: s",
                "sub-domain 's': indicators must be a list, got None",
            ),
            ("tree:\n  - domain: d\n    indicators: 7", "indicators must be a list"),
            (
                "tree:\n  - domain: d\n    indicators: [[A]]",
                r"domain 'd': indicators must be indicator ids, got \[\['A'\]\]",
            ),
            ("tree:\n  - domain: 1\n    indicators: [A]", "'domain' id, got 1"),
            (
                "tree:\n  - domain: d\n    subdomains:\n      - {id: [s], indicators: [A]}",
                "every sub-domain needs an 'id'",
            ),
        ],
    )
    def test_tree_shape_is_a_spec_error(self, tmp_path, tree, message):
        text = tree + "\nindicators:\n  A: {metric: capped}\n"
        with pytest.raises(SpecError, match=message):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))

    def test_indicators_section_must_be_a_mapping(self, tmp_path):
        text = "tree:\n  - domain: d\n    indicators: [A]\nindicators: [A]\n"
        with pytest.raises(SpecError, match="'indicators' section must be a mapping"):
            load_index_spec(write(tmp_path, text, name="spec.yaml"))


class TestValidateDataset:
    @pytest.fixture()
    def demo(self):
        specs, _ = load_index_spec(dataio.bundled_path("demo_tree.yaml"))
        records = load_observations(dataio.bundled_path("demo_countries.csv"))
        return specs, records

    def test_clean_dataset_has_no_findings(self, demo):
        specs, records = demo
        report = validate_dataset(records, specs)
        assert report.ok
        assert report.findings == ()

    def test_negative_level_finding(self, demo):
        specs, records = demo
        bad = records + [
            ObservationRecord("F", "G1", 2023, MetricKind.STANDARD, 0.2, -0.1, 0.1)
        ]
        report = validate_dataset(bad, specs)
        assert not report.ok
        assert any(f.code == "out-of-range" for f in report.errors)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_level_finding(self, demo, bad):
        specs, records = demo
        report = validate_dataset(
            records
            + [ObservationRecord("F", "G1", 2023, MetricKind.STANDARD, 0.2, bad, 0.1)],
            specs,
        )
        assert [(f.code, f.territory) for f in report.errors] == [("out-of-range", "F")]
        assert "finite" in report.errors[0].message

    def test_missing_pair_finding(self, demo):
        specs, records = demo
        report = validate_dataset(records[:-1], specs, scope=["A", "B", "C", "D", "E"])
        missing = [f for f in report.errors if f.code == "missing-pair"]
        assert [(f.territory, f.indicator) for f in missing] == [("E", "G1")]

    def test_shape_mismatch_finding(self, demo):
        specs, records = demo
        bad = records + [
            ObservationRecord("F", "G1", 2023, MetricKind.SHARE, value=0.5)
        ]
        report = validate_dataset(bad, specs)
        assert any(f.code == "shape-mismatch" for f in report.errors)

    def test_degenerate_pair_finding(self, demo):
        specs, records = demo
        bad = records + [
            ObservationRecord("F", "G1", 2023, MetricKind.STANDARD, 0.0, 0.0, 0.1)
        ]
        report = validate_dataset(bad, specs)
        assert any(f.code == "degenerate" for f in report.errors)

    def test_missing_total_finding(self, demo):
        specs, records = demo
        bad = records + [
            ObservationRecord("F", "G1", 2023, MetricKind.STANDARD, 0.2, 0.3, None)
        ]
        report = validate_dataset(bad, specs)
        assert any(f.code == "missing-total" for f in report.errors)

    def test_negative_polarity_rate_bound(self):
        from igei.model import Correction, IndicatorSpec

        spec = IndicatorSpec(
            id="N", label="N", domain="d", subdomain="s",
            metric=MetricKind.STANDARD, polarity=Polarity.NEGATIVE,
            correction=Correction("own_average"),
        )
        rec = ObservationRecord("X", "N", 2023, MetricKind.STANDARD, 0.5, 1.2, 0.8)
        report = validate_dataset([rec], {"N": spec})
        assert any("exceeds 1" in f.message for f in report.errors)

    def test_unknown_indicator_warning(self, demo):
        specs, records = demo
        extra = records + [
            ObservationRecord("A", "G99", 2023, MetricKind.CAPPED, value=0.5)
        ]
        report = validate_dataset(extra, specs)
        assert report.ok
        assert any(f.code == "unknown-indicator" for f in report.warnings)

    def test_duplicate_finding(self, demo):
        specs, records = demo
        report = validate_dataset(records + [records[0]], specs)
        assert any(f.code == "duplicate" for f in report.errors)

    def test_dataset_gives_the_same_findings(self, demo):
        # a Dataset skips the record checks it already passed
        specs, records = demo
        records = records + [
            ObservationRecord("F", "G1", 2023, MetricKind.STANDARD, 0.0, 0.0, 0.1),
            ObservationRecord("G", "G1", 2023, MetricKind.SHARE, value=0.5),
        ]
        report = validate_dataset(Dataset(records), specs)
        assert {f.code for f in report.errors} == {"degenerate", "shape-mismatch"}
        assert report == validate_dataset(records, specs)

    def test_findings_are_order_independent(self, demo):
        specs, records = demo
        bad = records + [
            ObservationRecord("F", "G1", 2023, MetricKind.STANDARD, 0.0, 0.0, 0.1),
            ObservationRecord("G", "G1", 2023, MetricKind.SHARE, value=0.5),
        ]
        shuffled = bad[:]
        random.Random(7).shuffle(shuffled)
        assert validate_dataset(bad, specs) == validate_dataset(shuffled, specs)


class TestScoreTable:
    def test_bundled_table(self, indicator_table):
        assert len(indicator_table.territories) == 23
        assert indicator_table.indicators == tuple(f"G{k}" for k in range(1, 21))
        assert indicator_table.scores[
            ("Provincia Autonoma di Trento", "G13")
        ] == pytest.approx(76.923)

    def test_row_and_column(self, indicator_table):
        row = indicator_table.row("Basilicata")
        assert len(row) == 20
        col = indicator_table.column("G10")
        assert len(col) == 23

    def test_out_of_range_score_rejected(self, tmp_path):
        text = "territory,G1\nX,101\n"
        with pytest.raises(DataError, match="outside"):
            load_score_table(write(tmp_path, text))

    def test_missing_cell_rejected(self, tmp_path):
        text = "territory,G1,G2\nX,50,\n"
        with pytest.raises(DataError, match="missing score"):
            load_score_table(write(tmp_path, text))

    def test_duplicate_territory_rejected(self, tmp_path):
        text = "territory,G1\nX,50\nX,60\n"
        with pytest.raises(DataError, match="duplicate territory"):
            load_score_table(write(tmp_path, text))


@pytest.mark.parametrize(
    "loader",
    [load_reference_table, load_correlation_reference, load_penalized_reference,
     load_demo_expected],
)
def test_empty_fixture_rejected(tmp_path, loader):
    path = write(tmp_path, "# header missing\n", name="fixture.csv")
    with pytest.raises(DataError) as info:
        loader(path)
    assert str(info.value) == f"reference fixture {path} is empty"
