import csv
import errno
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from igei import _bundled_spec, _spec_yaml, dataio
from igei.dataio import (
    OBSERVATION_HEADER,
    ScoreTable,
    load_index_spec,
    load_observations,
    load_score_table,
    validate_dataset,
)
from igei.errors import DataError, RecordError, SpecError
from igei.metrics import MetricKind, correction_coefficient, score_standard
from igei.model import Correction, Dataset, IndicatorSpec, ObservationRecord
from igei.penalized import Polarity
from igei.verify import (
    load_correlation_reference,
    load_demo_expected,
    load_penalized_reference,
    load_reference_table,
)

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
            got = score_standard(rec.x_w, rec.x_m, correction_coefficient(rec.x_a, x_ref))
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
            (
                "territory;indicator;period;kind;x_w;x_m;x_a;value\n"
                "North;G1;2023;ratio;;;;1.234\n",
                "row 2: column 'value' has a '.' but the decimal separator is ',': '1.234'",
            ),
        ],
        ids=[
            "cell-count", "empty-territory", "period", "kind",
            "x_w", "x_m", "x_a", "value", "decimal-comma", "decimal-point",
        ],
    )
    def test_malformed_row_message(self, tmp_path, text, message):
        with pytest.raises(DataError) as info:
            load_observations(write(tmp_path, text), decimal_comma=";" in text)
        assert str(info.value) == message

    def test_oversized_cell_names_row(self, tmp_path):
        text = GOOD_FILE + "West,G1,2023,standard," + "1" * 200_000 + ",0.5,0.4,\n"
        with pytest.raises(DataError) as info:
            load_observations(write(tmp_path, text))
        assert str(info.value) == "row 5: field larger than field limit (131072)"

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

    @pytest.mark.parametrize("levels", [",0.5", "0.4,"], ids=["x_w", "x_m"])
    @pytest.mark.parametrize("first", [True, False], ids=["first-row", "last-row"])
    def test_standard_row_without_both_levels_names_row(self, tmp_path, levels, first):
        # a blank is found by the column test of the block, then named by the row reader
        row = f"West,G1,2023,standard,{levels},0.4,"
        header, *rows = GOOD_FILE.splitlines()
        text = "\n".join([header, row, *rows] if first else [header, *rows, row]) + "\n"
        message = f"row {2 if first else 5}: standard observations need both x_w and x_m"
        for load in (dataio.load_dataset, load_observations):
            with pytest.raises(DataError) as info:
                load(write(tmp_path, text))
            assert str(info.value) == message

    @pytest.mark.parametrize("x_w, x_m", [(None, 0.5), (0.4, None)], ids=["x_w", "x_m"])
    def test_dataset_of_records_without_both_levels_is_refused(self, x_w, x_m):
        good = ObservationRecord("North", "G1", 2023, "standard", 0.4, 0.6)
        with pytest.raises(RecordError) as info:
            Dataset([good, ObservationRecord("West", "G1", 2023, "standard", x_w, x_m)])
        assert info.value.problem == "standard observations need both x_w and x_m"

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

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("extra, outcome", [
        # a share row among standard ones: the column blocks turn it down, and
        # the row-by-row reading loads it
        ("West,G1,2023,share,,,,0.4\n", 4),
        ("South,G2,2023,share,,,,1.2\n", "row 5: share value 1.2 is outside [0, 1]"),
    ])
    def test_read_once_from_a_pipe(self, extra, outcome):
        # as `igei score --data <(...)` passes it: a second open reads nothing
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, (GOOD_FILE + extra).encode())
            os.close(write_end)
            source = f"/dev/fd/{read_end}"
            if isinstance(outcome, int):
                data = dataio.load_dataset(source)
                assert len(data) == outcome
                assert data.get("West", "G1").kind is MetricKind.SHARE
            else:
                with pytest.raises(DataError) as info:
                    dataio.load_dataset(source)
                assert str(info.value) == outcome
        finally:
            os.close(read_end)

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
        _, tree = default_spec
        placement = {
            ind: (dom.id, sub.id)
            for dom in tree.domains for sub in dom.subdomains for ind in sub.indicators
        }
        assert placement["G1"] == ("work", "participation")
        assert placement["G4"] == ("economy", "economy")  # implicit sub-domain

    def test_period_key_checked_but_not_kept(self, tmp_path):
        text = (
            "tree:\n  - domain: d\n    indicators: [C]\n"
            "indicators:\n  C: {metric: capped, period: %s}\n"
        )
        specs, _ = load_index_spec(write(tmp_path, text % "2023", name="spec.yaml"))
        assert not hasattr(specs["C"], "period")
        with pytest.raises(SpecError) as info:
            load_index_spec(write(tmp_path, text % "'2023'", name="spec.yaml"))
        assert str(info.value) == (
            "indicator 'C': period must be an integer year, got '2023'"
        )

    def test_read_failure_is_a_data_error(self):
        class Unreadable:
            def open(self, *args, **kwargs):
                handle = io.StringIO()
                handle.read = mock.Mock(side_effect=OSError(errno.EIO, "Input/output error"))
                return handle

            def __str__(self):
                return "spec.yaml"

        with pytest.raises(DataError) as info:
            load_index_spec(Unreadable())
        assert str(info.value) == "cannot read spec.yaml: Input/output error"

    def test_null_label_is_refused(self, tmp_path):
        text = (
            "tree:\n  - domain: d\n    indicators: [C]\n"
            "indicators:\n  C: {metric: capped, label: null}\n"
        )
        with pytest.raises(SpecError) as info:
            load_index_spec(write(tmp_path, text, name="spec.yaml"))
        assert str(info.value) == "indicator 'C': label must be text, got None"

    @pytest.mark.parametrize(
        "tree, message",
        [
            (
                "  - domain: work\n    indicators: [A]\n"
                "  - domain: work\n    indicators: [B]\n",
                "domain 'work' appears more than once",
            ),
            (
                "  - domain: work\n    subdomains:\n"
                "      - {id: s, indicators: [A]}\n      - {id: s, indicators: [B]}\n",
                "domain 'work': sub-domain 's' appears more than once",
            ),
        ],
    )
    def test_repeated_tree_id(self, tmp_path, tree, message):
        # kept, the second 'work' would overwrite the first one's values
        text = "tree:\n" + tree + "indicators:\n  A: {metric: capped}\n  B: {metric: capped}\n"
        with pytest.raises(SpecError) as info:
            load_index_spec(write(tmp_path, text, name="spec.yaml"))
        assert str(info.value) == message

    def test_subdomain_id_may_repeat_across_domains(self, tmp_path):
        text = (
            "tree:\n"
            "  - domain: d1\n    subdomains: [{id: s, indicators: [A]}]\n"
            "  - domain: d2\n    subdomains: [{id: s, indicators: [B]}]\n"
            "indicators:\n  A: {metric: capped}\n  B: {metric: capped}\n"
        )
        _, tree = load_index_spec(write(tmp_path, text, name="spec.yaml"))
        assert tree.leaf_ids() == ("A", "B")

    def test_deep_nesting_is_a_spec_error(self, tmp_path):
        path = write(tmp_path, "tree: " + "[" * 500 + "\n", name="spec.yaml")
        with pytest.raises(SpecError) as info:
            load_index_spec(path)
        assert str(info.value) == f"{path}: malformed YAML: nesting is too deep"

    @pytest.mark.parametrize(
        "value, problem",
        [
            ("2023-13-45", "ValueError: month must be in 1..12"),
            ("!!float ''", "IndexError: string index out of range"),
            ("!!bool ''", "KeyError: ''"),
            ("!!int " + "9" * 5000, "ValueError: Exceeds the limit (4300 digits)"),
        ],
        ids=["date", "empty-float", "empty-bool", "long-int"],
    )
    def test_refused_scalar_is_a_spec_error(self, tmp_path, value, problem):
        # PyYAML's constructors raise these bare, not as a YAMLError
        path = write(tmp_path, f"tree: []\nindicators: {{}}\nx: {value}\n", name="spec.yaml")
        with pytest.raises(SpecError) as info:
            load_index_spec(path)
        message = str(info.value)
        assert message.startswith(
            f"{path}: malformed YAML: cannot construct a value ({problem}"
        )
        assert len(message) < len(str(path)) + 150

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


class TestSpecLoaders:
    """One loader reads a spec: PyYAML's pure safe loader, refusing repeated keys."""

    @pytest.mark.parametrize("name", ["igei_tree.yaml", "demo_tree.yaml"])
    def test_both_loaders_give_equal_documents(self, name):
        # the unique-key loader reads a valid spec as PyYAML's safe loader does
        text = dataio.bundled_path(name).read_text(encoding="utf-8")
        assert _spec_yaml._parse_yaml(text) == yaml.load(text, Loader=yaml.SafeLoader)

    def test_duplicate_key_refused(self, tmp_path):
        text = "tree: []\nindicators:\n  C: {metric: capped}\n  C: {metric: share}\n"
        with pytest.raises(yaml.constructor.ConstructorError, match="duplicate key 'C'"):
            yaml.load(text, Loader=_spec_yaml._PureLoader)
        path = write(tmp_path, text, name="spec.yaml")
        with pytest.raises(SpecError) as info:
            load_index_spec(path)
        assert str(info.value) == (
            f"{path}: malformed YAML at line 4, column 3: found duplicate key 'C'"
        )

    @pytest.mark.parametrize("depth", [150, 2000])
    def test_deep_closed_nesting_reads_as_before(self, tmp_path, depth):
        # the pure loader runs out of stack between the two
        text = "tree: " + "[" * depth + "]" * depth + "\nindicators: {}\n"
        path = write(tmp_path, text, name="spec.yaml")
        with pytest.raises(SpecError) as info:
            load_index_spec(path)
        assert str(info.value) == (
            "tree entry 1 is not a mapping, got a list" if depth == 150
            else f"{path}: malformed YAML: nesting is too deep"
        )

    @pytest.mark.parametrize(
        "entry, where",
        [
            ("[\t{domain: d, indicators: [C]}]", "line 1, column 8"),
            ("[{domain: d,\tindicators: [C]}]", "line 1, column 19"),
            ("[{domain: d, indicators: [C]}]\t", "line 1, column 37"),
        ],
    )
    def test_tab_reads_as_before(self, tmp_path, entry, where):
        # PyYAML's own scanner refuses these tabs, where libyaml would take them
        text = f"tree: {entry}\nindicators: {{C: {{metric: capped}}}}\n"
        path = write(tmp_path, text, name="spec.yaml")
        with pytest.raises(SpecError) as info:
            load_index_spec(path)
        assert str(info.value) == (
            f"{path}: malformed YAML at {where}: "
            "found character '\\t' that cannot start any token"
        )

    def test_tab_in_a_quoted_label_loads(self, tmp_path):
        text = (
            "tree: [{domain: d, indicators: [C]}]\n"
            "indicators: {C: {metric: capped, label: 'a\tb'}}\n"
        )
        specs, _ = load_index_spec(write(tmp_path, text, name="spec.yaml"))
        assert specs["C"].label == "a\tb"

    def test_aliases_are_walked_once(self, tmp_path):
        # nine levels of ten aliases: a reading that followed each would take
        # 10**9 steps; PyYAML builds each anchored node once and shares it
        lines = ["l0: &l0 [x]"] + [
            f"l{k}: &l{k} [{', '.join([f'*l{k - 1}'] * 10)}]" for k in range(1, 9)
        ] + [f"tree: [{', '.join(['*l8'] * 10)}]", "indicators: {}"]
        path = write(tmp_path, "\n".join(lines) + "\n", name="spec.yaml")
        start = time.perf_counter()
        with pytest.raises(SpecError) as info:
            load_index_spec(path)
        assert time.perf_counter() - start < 2.0
        assert str(info.value) == "tree entry 1 is not a mapping, got a list"

    def test_pure_loader_without_libyaml(self):
        assert _spec_yaml._PureLoader.__bases__ == (yaml.SafeLoader,)
        probe = (
            "import yaml; del yaml.CSafeLoader; from igei import _spec_yaml, dataio; "
            "specs, tree = dataio.load_index_spec(dataio.bundled_path('igei_tree.yaml')); "
            "assert len(tree.leaf_ids()) == 20"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(dataio.__file__).parents[1]))
        assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


class TestBundledSpec:
    """The default spec is served from a snapshot pinned to ``igei_tree.yaml``."""

    @pytest.mark.parametrize("loader", ["_PureLoader", "_parse_yaml"])
    def test_snapshot_is_the_yaml_document(self, loader):
        text = dataio.bundled_path("igei_tree.yaml").read_text(encoding="utf-8")
        if loader == "_parse_yaml":
            parsed = _spec_yaml._parse_yaml(text)
        else:
            parsed = yaml.load(text, Loader=getattr(_spec_yaml, loader))
        # json text, as dict == ignores the order of keys
        assert json.dumps(_bundled_spec.document()) == json.dumps(parsed)

    def test_snapshot_is_as_its_generator_writes_it(self):
        text = dataio.bundled_path("igei_tree.yaml").read_text(encoding="utf-8")
        written = Path(_bundled_spec.__file__).read_text(encoding="utf-8")
        assert _spec_yaml.snapshot_source(text) == written

    def test_each_call_gives_a_new_document(self):
        first = _bundled_spec.document()
        first["tree"][0]["domain"] = "changed"
        first["indicators"]["G1"]["metric"] = "share"
        assert _bundled_spec.document()["tree"][0]["domain"] == "work"
        assert load_index_spec()[0]["G1"].metric is MetricKind.STANDARD

    def test_default_spec_is_the_file_spec(self):
        specs, tree = load_index_spec()
        file_specs, file_tree = load_index_spec(dataio.bundled_path("igei_tree.yaml"))
        # repr lists every field of every value, in order
        assert repr(list(specs.items())) == repr(list(file_specs.items()))
        assert repr(tree) == repr(file_tree)
        assert (list(specs.items()), tree) == (list(file_specs.items()), file_tree)


class TestMalformedSpecShapes:
    @pytest.mark.parametrize(
        "tree, message",
        [
            ("tree: {d: [A]}", "'tree' section must be a list"),
            ("tree:\n  - just-a-string", "tree entry 1 is not a mapping, got 'just-a-string'"),
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
                "domain 'd': indicators must be indicator ids, got a list at position 1",
            ),
            # the implicit sub-domain named after the domain is built first
            (
                "tree:\n  - domain: 1\n    indicators: [A]",
                "^sub-domain id must be a non-empty string, got 1$",
            ),
            (
                "tree:\n  - domain: d\n    subdomains:\n      - {id: [s], indicators: [A]}",
                "^sub-domain id must be a non-empty string, got a list$",
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


ULP_ABOVE_ONE = math.nextafter(1.0, 2.0)
# N: a negative-polarity rate; P: corrected by its own total; Q: uncorrected
EDGE_SPECS = {
    "N": IndicatorSpec(id="N", label="N", metric=MetricKind.STANDARD,
                       polarity=Polarity.NEGATIVE, correction=Correction("own_average")),
    "P": IndicatorSpec(id="P", label="P", metric=MetricKind.STANDARD,
                       correction=Correction("own_average")),
    "Q": IndicatorSpec(id="Q", label="Q", metric=MetricKind.STANDARD),
}
EDGE_LEVELS = st.sampled_from([0.0, 0.5, 1.0, ULP_ABOVE_ONE, 2.0])


@st.composite
def validation_cases(draw):
    """Records of EDGE_SPECS over 1-4 territories with levels at the column
    tests' edges, now and then a missing total, a share or no record, and a
    scope that may name a territory without records."""
    territories = [f"T{i}" for i in range(draw(st.integers(1, 4)))]
    records = []
    for terr in territories:
        for ind in EDGE_SPECS:
            if draw(st.integers(0, 19)) == 0:
                continue
            if draw(st.integers(0, 9)) == 0:
                records.append(ObservationRecord(terr, ind, 2023, MetricKind.SHARE, value=0.5))
            else:
                total = draw(st.one_of(st.none(), EDGE_LEVELS))
                records.append(ObservationRecord(terr, ind, 2023, MetricKind.STANDARD,
                                                 draw(EDGE_LEVELS), draw(EDGE_LEVELS), total))
    scope = draw(st.one_of(st.none(), st.lists(st.sampled_from(territories + ["Z"]),
                                               min_size=1, unique=True)))
    return records, scope


def edge_block(ind, *rows):
    """Clean records of ``ind`` for A and B, then ``rows`` of (x_w, x_m, x_a) for C, D, ..."""
    levels = [(0.2, 0.3, 0.25), (0.4, 0.5, 0.45), *rows]
    return [ObservationRecord(chr(ord("A") + i), ind, 2023, MetricKind.STANDARD, *row)
            for i, row in enumerate(levels)]


class TestValidateDataset:
    @settings(deadline=None)
    @given(case=validation_cases())
    # each edge in the block's last row: a negative-polarity rate (or total) of
    # exactly 1 and one ulp above it, both levels zero, a missing total, and
    # zeros in two different rows, which the column test cannot tell apart
    @example(case=(edge_block("N", (0.5, 1.0, 1.0)), None))
    @example(case=(edge_block("N", (0.5, ULP_ABOVE_ONE, 0.8)), None))
    @example(case=(edge_block("N", (0.5, 0.6, ULP_ABOVE_ONE)), None))
    @example(case=(edge_block("Q", (0.5, 0.6, ULP_ABOVE_ONE)) + edge_block("N", (1.0, 0.6, None)),
                   None))
    @example(case=(edge_block("P", (0.0, 0.0, 0.1)), None))
    @example(case=(edge_block("P", (0.2, 0.3, None)), None))
    @example(case=(edge_block("Q", (0.0, 0.3, None), (0.3, 0.0, None)), None))
    def test_column_tests_find_what_the_rows_find(self, case):
        records, scope = case
        with mock.patch.object(dataio, "_block_clean", return_value=False):
            expected = validate_dataset(records, EDGE_SPECS, scope)
        report = validate_dataset(records, EDGE_SPECS, scope)
        assert report == expected
        # a full block lacks no pair of the scope's known territories
        territories = scope if scope is not None else {rec.territory for rec in records}
        recorded = {(rec.indicator, rec.territory) for rec in records}
        assert {(f.indicator, f.territory) for f in report.errors if f.code == "missing-pair"} == {
            (ind, terr) for ind in EDGE_SPECS for terr in territories
            if (ind, terr) not in recorded
        }

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
            id="N", label="N",
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

    def test_repeated_key_raises(self, demo):
        specs, records = demo
        with pytest.raises(DataError) as info:
            validate_dataset(records + [records[0]], specs)
        assert str(info.value) == (
            "duplicate observation for territory 'A', indicator 'G1', period 2023"
        )

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
        assert indicator_table.row("Provincia Autonoma di Trento")["G13"] == pytest.approx(
            76.923
        )

    def test_row_and_column(self, indicator_table):
        row = indicator_table.row("Basilicata")
        assert len(row) == 20
        col = indicator_table.column("G10")
        assert len(col) == 23
        position = indicator_table.territories.index("Basilicata")
        assert type(col) is list and col[position] == row["G10"]
        with pytest.raises(KeyError):
            indicator_table.row("Atlantis")
        with pytest.raises(ValueError):
            indicator_table.column("G99")

    @pytest.mark.parametrize("columns", [((50.0,),), ((50.0,), (1.0, 2.0)), ((50.0,), (1.0,))])
    def test_shape_checked_when_built(self, columns):
        # two territories and two indicators: a short column would fold to a short index
        with pytest.raises(DataError) as info:
            ScoreTable(("X", "Y"), ("G1", "G2"), columns)
        assert str(info.value) == (
            "a score table needs one column per indicator, one score per territory"
        )

    def test_out_of_range_score_rejected(self, tmp_path):
        text = "territory,G1\nX,101\n"
        with pytest.raises(DataError, match="outside"):
            load_score_table(write(tmp_path, text))

    def test_oversized_cell_names_row(self, tmp_path):
        # the cell reads as 50.0: only the csv module's size limit refuses it
        text = "territory,G1,G2\nX,50,50\n# note\nY,1," + "0" * 200_000 + "50\nZ,2,3\n"
        with pytest.raises(DataError) as info:
            load_score_table(write(tmp_path, text))
        assert str(info.value) == "row 4: field larger than field limit (131072)"

    def test_decimal_comma_flag(self, tmp_path):
        table = load_score_table(write(tmp_path, "territory;G1;G2\nX;50,5;1\n"),
                                 decimal_comma=True)
        assert table.row("X") == {"G1": 50.5, "G2": 1.0}

    def test_missing_cell_rejected(self, tmp_path):
        text = "territory,G1,G2\nX,50,\n"
        with pytest.raises(DataError, match="missing score"):
            load_score_table(write(tmp_path, text))

    def test_duplicate_territory_rejected(self, tmp_path):
        text = "territory,G1\nX,50\nX,60\n"
        with pytest.raises(DataError, match="duplicate territory"):
            load_score_table(write(tmp_path, text))

    # (decimal_comma, cells of row 2, message): the first bad cell is named,
    # a non-number quoted as written
    BAD_ROWS = [
        (False, ("nan", "50", "50"), "score nan for 'A' is outside [0, 100]"),
        (False, ("50", "nan", "50"), "score nan for 'B' is outside [0, 100]"),
        (False, ("50", "50", "nan"), "score nan for 'C' is outside [0, 100]"),
        (False, ("50", "inf", "50"), "score inf for 'B' is outside [0, 100]"),
        (False, ("50", "50", "-inf"), "score -inf for 'C' is outside [0, 100]"),
        (False, ("100.0001", "50", "50"), "score 100.0001 for 'A' is outside [0, 100]"),
        (False, ("50", "-0.5", "50"), "score -0.5 for 'B' is outside [0, 100]"),
        (False, ("50", "", "50"), "missing score for 'B'"),
        (False, ("50", "50", "1.2.3"), "column 'C' is not a number: '1.2.3'"),
        (False, ("50", "nan", "x"), "score nan for 'B' is outside [0, 100]"),
        (False, ("50", "x", "nan"), "column 'B' is not a number: 'x'"),
        (True, ("nan", "50,5", "50"), "score nan for 'A' is outside [0, 100]"),
        (True, ("50,5", "nan", "50"), "score nan for 'B' is outside [0, 100]"),
        (True, ("50", "50,5", "nan"), "score nan for 'C' is outside [0, 100]"),
        (True, ("50", "inf", "50"), "score inf for 'B' is outside [0, 100]"),
        (True, ("50", "50", "-inf"), "score -inf for 'C' is outside [0, 100]"),
        (True, ("100,0001", "50", "50"), "score 100.0001 for 'A' is outside [0, 100]"),
        (True, ("50", "-0,5", "50"), "score -0.5 for 'B' is outside [0, 100]"),
        (True, ("50", "", "50"), "missing score for 'B'"),
        (True, ("50", "50", "1,2,3"), "column 'C' is not a number: '1,2,3'"),
        (True, ("50", "x", "nan"), "column 'B' is not a number: 'x'"),
        (True, ("50", "1.234", "50"),
         "column 'B' has a '.' but the decimal separator is ',': '1.234'"),
        (True, ("1.5", "50", "x"), "column 'A' has a '.' but the decimal separator is ',': '1.5'"),
        (True, ("x", "1.5", "50"), "column 'A' is not a number: 'x'"),
    ]

    @pytest.mark.parametrize("decimal_comma, cells, message", BAD_ROWS)
    def test_bad_row_messages(self, tmp_path, decimal_comma, cells, message):
        sep = ";" if decimal_comma else ","
        text = f"territory{sep}A{sep}B{sep}C\nX{sep}1{sep}2{sep}3\nY{sep}" + sep.join(cells)
        with pytest.raises(DataError) as info:
            load_score_table(write(tmp_path, text + "\n"), decimal_comma=decimal_comma)
        assert str(info.value) == f"row 3: {message}"


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


@pytest.mark.parametrize("text, message", [
    ("territory,index,work\nA,71.5\nB,1,2,3\n", "row 2: expected 3 cells, got 2"),
    ("territory,index,work\nA,71.5,1\nB,1,2,3\n", "row 3: expected 3 cells, got 4"),
    ("territory,index,work\nA,71.5,1\nA,3,4\n", "row 3: duplicate territory 'A'"),
    ("# lead\ncolumn,mean\nIGEI,1\n\nIGEI,2\n", "row 5: duplicate column 'IGEI'"),
])
def test_uneven_or_repeated_reference_row_rejected(tmp_path, text, message):
    path = write(tmp_path, text, name="fixture.csv")
    with pytest.raises(DataError) as info:
        load_reference_table(path)
    assert str(info.value) == message


@pytest.mark.parametrize("loader, text, message", [
    (load_demo_expected, "territory,score_gei,score\nA,1,2\nA,3,4\n",
     "row 3: duplicate territory 'A'"),
    (load_correlation_reference, "column,G1,G2\nG1,1.00,\nG2,0.50,1.00\nG2,0.40,1.00\n",
     "row 4: duplicate column 'G2'"),
    (load_penalized_reference, "sequence,mean,penalized,geometric\n4;6,5,4.75,\n4;6,5,4.8,\n",
     "row 3: duplicate sequence '4;6'"),
], ids=["demo", "correlation", "penalized"])
def test_repeated_fixture_key_rejected(tmp_path, loader, text, message):
    # a repeated first cell would silently replace the earlier row
    with pytest.raises(DataError) as info:
        loader(write(tmp_path, text, name="fixture.csv"))
    assert str(info.value) == message


def test_uneven_penalized_reference_row_rejected(tmp_path):
    # each row is unpacked into four fields: a short one is named, not a bare ValueError
    path = write(tmp_path, "values,mean,penalized,geometric\n1;2,1.5,1.4\n", name="fixture.csv")
    with pytest.raises(DataError) as info:
        load_penalized_reference(path)
    assert str(info.value) == "row 2: expected 4 cells, got 3"


@pytest.mark.parametrize("name, loader", [
    ("regional_index_2023.csv", load_reference_table),
    ("index_summary_2023.csv", load_reference_table),
    ("indicator_summary_2023.csv", load_reference_table),
    ("indicator_correlation_2023.csv", load_correlation_reference),
    ("penalized_mean_reference.csv", load_penalized_reference),
    ("demo_countries_expected.csv", load_demo_expected),
])
def test_bundled_fixtures_are_even(name, loader):
    assert loader(dataio.bundled_path(name))


def test_blank_reference_cell_rejected(tmp_path):
    path = write(tmp_path, "territory,index,work\nA,71.5,70.5\nB,,70.5\n", name="fixture.csv")
    with pytest.raises(DataError) as info:
        load_reference_table(path)
    assert str(info.value) == "row 3: column 'index' is not a number: ''"


# --- byte-order mark -------------------------------------------------------------

BOM = "\ufeff"
# each delimited loader with a clean file, the same file with a bad cell in its
# last row, the error that cell raises, and the row reader the bad cell forces
BOM_CASES = [
    (load_score_table, "territory,G1,G2\nA,50,60\nB,70,80\n", "territory,G1,G2\nA,50,60\nB,70,x\n",
     "row 3: column 'G2' is not a number: 'x'", "_table_rows"),
    (load_observations, GOOD_FILE, GOOD_FILE + "East,G2,2023,share,,,,x\n",
     "row 5: column 'value' is not a number: 'x'", "_load_rows"),
]


@pytest.mark.parametrize("load, clean, bad, message, row_reader", BOM_CASES,
                         ids=["table", "observations"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, load, clean, bad, message, row_reader):
    expected = load(write(tmp_path, clean))
    with mock.patch.object(dataio, row_reader, wraps=getattr(dataio, row_reader)) as rows:
        assert load(write(tmp_path, BOM + clean)) == expected
        rows.assert_not_called()
        # the row reader skips it too, and counts the rows as before
        with pytest.raises(DataError) as info:
            load(write(tmp_path, BOM + bad))
        rows.assert_called_once()
    assert str(info.value) == message


def test_a_fixture_skips_a_leading_byte_order_mark(tmp_path):
    # the mark would hide the comment, and head the first column's name
    text = BOM + "# published values\nterritory,index\nA,71.5\n"
    assert load_reference_table(write(tmp_path, text)) == {"A": {"index": 71.5}}
    with pytest.raises(DataError) as info:
        load_reference_table(write(tmp_path, BOM + "territory,index\nA,1\nA,2\n"))
    assert str(info.value) == "row 3: duplicate territory 'A'"


def test_a_byte_order_mark_past_the_start_is_kept(tmp_path):
    table = load_score_table(write(tmp_path, f"territory,G1\nA,50\n{BOM}B,60\n"))
    assert table.territories == ("A", BOM + "B")


# --- duplicate keys ------------------------------------------------------------


@st.composite
def key_columns(draw):
    """Small (territory, period) keys: a grid in either order, or shuffled,
    ragged, holding a repeated key or territory run, or with one key renamed."""
    names = draw(st.lists(st.sampled_from("ABCDE"), min_size=1, max_size=4, unique=True))
    periods = draw(st.lists(st.integers(2020, 2024), min_size=1, max_size=4, unique=True))
    keys = [(t, p) for t in names for p in periods]
    layout = draw(st.sampled_from(
        ["territory-major", "period-major", "shuffled", "ragged", "repeated", "repeated run",
         "renamed"]))
    if layout == "period-major":
        keys = [(t, p) for p in periods for t in names]
    elif layout == "shuffled":
        keys = draw(st.permutations(keys))
    elif layout == "ragged" and len(keys) > 1:
        del keys[draw(st.integers(0, len(keys) - 1))]
    elif layout == "repeated":
        keys.insert(draw(st.integers(0, len(keys))), draw(st.sampled_from(keys)))
    elif layout == "repeated run":
        keys += keys[:len(periods)]
    elif layout == "renamed":
        # another territory's key, in the grid's period order
        i = draw(st.integers(0, len(keys) - 1))
        keys[i] = (draw(st.sampled_from(names)), keys[i][1])
    return keys


@given(key_columns())
def test_distinct_keys_agree_with_the_set_of_pairs(keys):
    territory, period = map(tuple, zip(*keys))
    assert dataio._distinct_keys(territory, period) == (len(set(keys)) == len(keys))


# --- numeric cells -------------------------------------------------------------

# a three in the Arabic-Indic, fullwidth, Devanagari, Bengali and Thai scripts:
# float() and int() read each as 3
NON_ASCII_DIGITS = "٣３३৩๓"


@st.composite
def spoiled_numbers(draw):
    """(plain number text, the same text with '_' between two digits or one
    digit swapped for a non-ASCII one)."""
    text = f"{draw(st.integers(0, 99))}.{draw(st.integers(0, 999)):03d}"
    if draw(st.booleans()):
        gaps = [i for i in range(1, len(text)) if text[i - 1].isdigit() and text[i].isdigit()]
        i = draw(st.sampled_from(gaps))
        return text, text[:i] + "_" + text[i:]
    i = draw(st.sampled_from([i for i, ch in enumerate(text) if ch.isdigit()]))
    return text, text[:i] + draw(st.sampled_from(NON_ASCII_DIGITS)) + text[i + 1:]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    number=spoiled_numbers(),
    table=st.booleans(),
    decimal_comma=st.booleans(),
    column=st.sampled_from(["first", "second", "period"]),
)
def test_numbers_with_underscores_or_non_ascii_digits_are_refused(
    tmp_path_factory, number, table, decimal_comma, column
):
    assume(not (table and column == "period"))
    plain, spoiled = number
    sep = ";" if decimal_comma else ","
    if decimal_comma:
        plain, spoiled = plain.replace(".", ","), spoiled.replace(".", ",")
    if column == "period":
        # a year: the digits of the number without its separator
        plain, spoiled = (text.replace(",", "").replace(".", "") for text in (plain, spoiled))
    path = tmp_path_factory.mktemp("cells") / "cells.csv"

    def load(cell):
        if table:
            # a non-ASCII name is no number, and passes
            cells = [cell, "7"] if column == "first" else ["7", cell]
            lines = ["territory", "A", "B"], ["Südtirol", *cells]
            reader = load_score_table
        else:
            period, x_w, x_m = "2023", "0.4", "0.6"
            if decimal_comma:
                x_w, x_m = "0,4", "0,6"
            if column == "period":
                period = cell
            elif column == "first":
                x_w = cell
            else:
                x_m = cell
            lines = OBSERVATION_HEADER, ["Südtirol", "G1", period, "standard", x_w, x_m, "", ""]
            reader = load_observations
        path.write_text("\n".join(sep.join(line) for line in lines) + "\n", encoding="utf-8")
        return reader(path, decimal_comma=decimal_comma)

    with pytest.raises(DataError) as info:
        load(spoiled)
    if table:
        name = "A" if column == "first" else "B"
        assert str(info.value) == f"row 2: column {name!r} is not a number: {spoiled!r}"
    elif column == "period":
        assert str(info.value) == f"row 2: period is not an integer: {spoiled!r}"
    else:
        name = "x_w" if column == "first" else "x_m"
        assert str(info.value) == f"row 2: column {name!r} is not a number: {spoiled!r}"
    loaded = load(plain)
    if table:
        assert float(plain.replace(",", ".")) in loaded.row("Südtirol").values()
    else:
        assert loaded[0].territory == "Südtirol"


@pytest.mark.parametrize(
    "loader, text, message",
    [
        (load_penalized_reference, "sequence,mean,penalized,geometric\n1;2_0,1,1,\n",
         "row 2: column 'sequence' is not a number: '2_0'"),
        (load_penalized_reference, "sequence,mean,penalized,geometric\n1;2,1,٣,\n",
         "row 2: column 'penalized' is not a number: '٣'"),
        (load_demo_expected, "territory,score_gei,score\nA,1_2,3\n",
         "row 2: column 'score_gei' is not a number: '1_2'"),
        (load_demo_expected, "territory,score_gei,score\nA,12,\n",
         "row 2: column 'score' is not a number: ''"),
    ],
)
def test_fixture_numbers_are_plain(tmp_path, loader, text, message):
    with pytest.raises(DataError) as info:
        loader(write(tmp_path, text, name="fixture.csv"))
    assert str(info.value) == message


# The one grammar of a number cell, with the whitespace around it stripped:
# ASCII digits, an optional sign, one decimal separator and an optional
# exponent. The README's "Data formats" section gives the same regex.
NUMBER = r"[+-]?([0-9]+([.][0-9]*)?|[.][0-9]+)([eE][+-]?[0-9]+)?"
# text near the grammar: digits of other scripts, '_', both separators,
# letters of nan and inf, and whitespace that str.strip() removes
NEAR_NUMBERS = st.text(alphabet="0123456789+-.,eE_ \xa0٣３nafi", max_size=8)


@st.composite
def number_cells(draw, separator):
    """A cell as written: a grammatical number or text near one, maybe padded."""
    grammar = NUMBER.replace("[.]", f"[{separator}]")
    text = draw(st.one_of(st.from_regex(grammar, fullmatch=True), NEAR_NUMBERS))
    pad = st.sampled_from(["", " ", "\xa0"])
    return draw(pad) + text + draw(pad)


def _accepted(cell: str, separator: str, high: float) -> float | None:
    """The value of a cell the grammar accepts inside [0, high], else None."""
    text = cell.strip()
    if not re.fullmatch(NUMBER.replace("[.]", f"[{separator}]"), text):
        return None
    value = float(text.replace(",", "."))
    return value if 0.0 <= value <= high else None


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data(), table=st.booleans(), decimal_comma=st.booleans())
def test_a_number_cell_is_read_exactly_when_it_fits_the_grammar(
    tmp_path_factory, data, table, decimal_comma
):
    separator = "," if decimal_comma else "."
    cell = data.draw(number_cells(separator))
    text = io.StringIO()
    writer = csv.writer(text, delimiter=";" if decimal_comma else ",", lineterminator="\n")
    if table:
        writer.writerows([["territory", "J1"], ["A", cell]])
    else:
        writer.writerows([OBSERVATION_HEADER, ["A", "J1", "2023", "capped", "", "", "", cell]])
    path = tmp_path_factory.mktemp("grammar") / "cells.csv"
    path.write_text(text.getvalue(), encoding="utf-8")
    # a score lies in [0, 100], a capped level in [0, inf)
    expected = _accepted(cell, separator, 100.0 if table else sys.float_info.max)
    try:
        if table:
            value = load_score_table(path, decimal_comma=decimal_comma).columns[0][0]
        else:
            value = load_observations(path, decimal_comma=decimal_comma)[0].value
    except DataError:
        assert expected is None, cell
    else:
        assert expected is not None and repr(value) == repr(expected), cell
