import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import igei
from igei import cli, dataio, model, verify
from igei.cli import main
from igei.dataio import bundled_path, load_observations, load_score_table

DEMO_DATA = str(bundled_path("demo_countries.csv"))
DEMO_SPEC = str(bundled_path("demo_tree.yaml"))
SCORES = str(bundled_path("indicator_scores_2023.csv"))
GOLDEN = Path(__file__).parent / "golden"
DEMO_ARGS = ["--data", DEMO_DATA, "--spec", DEMO_SPEC]
SERIES_ARGS = ["--data", str(GOLDEN / "series.csv"), "--spec", DEMO_SPEC, "--time-series"]
INVALID_ARGS = ["--data", str(GOLDEN / "degenerate.csv"), "--spec", DEMO_SPEC]
FORMATS = (("table", "txt"), ("csv", "csv"), ("json", "json"))
# eight rows of SCORES; the scope names six of them, out of order
SUBSET_ARGS = [
    "--data", str(GOLDEN / "scores-subset.csv"), "--scope",
    "Umbria,Lazio,Sardegna,Valle d'Aosta/Vallée d'Aoste,Campania,Trentino-Alto Adige/Südtirol",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDemo:
    def test_published_values(self, capsys):
        code, out, _ = run(capsys, "demo")
        assert code == 0
        lines = out.splitlines()
        assert "score_gei" in lines[0] and "score" in lines[0]
        body = "\n".join(lines[2:])
        for cell in ("12.00", "18.18", "14.29", "45.00", "57.14",
                     "53.33", "89.00", "88.89"):
            assert cell in body

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "demo", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert len(doc["countries"]) == 5
        assert doc["countries"][0]["score"] == "18.18"

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "demo")
        _, second, _ = run(capsys, "demo")
        assert first == second


class TestScore:
    def test_demo_scoring(self, capsys):
        code, out, _ = run(capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC)
        assert code == 0
        lines = out.splitlines()
        assert lines[2].startswith("E")  # best performer first
        assert "88.89" in lines[2]

    def test_json_full_precision(self, capsys):
        code, out, _ = run(
            capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC,
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        top = doc["reports"][0]
        assert top["territory"] == "E"
        assert top["index"] == pytest.approx(800 / 9, rel=1e-12)
        assert top["indicators"]["G1"] == top["index"]

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC,
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "territory,G1,work,index"
        assert lines[1] == "E,88.889,88.89,88.89"

    def test_csv_quotes_line_breaks(self, capsys, tmp_path):
        data = tmp_path / "breaks.csv"
        data.write_text(
            "territory,indicator,period,kind,x_w,x_m,x_a,value\n"
            '"A\nZ",G1,2023,standard,0.4,0.6,0.5,\n'
            "B,G1,2023,standard,0.1,0.3,0.2,\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "score", "--data", str(data), "--spec", DEMO_SPEC, "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out, newline="")))
        assert [row[0] for row in rows] == ["territory", "A\nZ", "B"]
        assert rows[1] == ["A\nZ", "80.000", "80.00", "80.00"]

    def test_crlf_in_a_name_survives_a_csv_round_trip(self, capsys, tmp_path):
        data = tmp_path / "crlf.csv"
        data.write_bytes(
            b"territory,indicator,period,kind,x_w,x_m,x_a,value\n"
            b'"B\r\nY",G1,2023,standard,0.4,0.6,0.5,\n'
            b"A,G1,2023,standard,0.1,0.3,0.2,\n"
        )
        assert load_observations(data)[0].territory == "B\r\nY"
        out = tmp_path / "scores.csv"
        code, _, _ = run(
            capsys, "score", "--data", str(data), "--spec", DEMO_SPEC, "--format", "csv",
            "--out", str(out),
        )
        assert code == 0
        assert load_score_table(out).territories == ("B\r\nY", "A")

    def test_time_series_csv_is_one_table(self, capsys):
        code, out, _ = run(capsys, "score", *SERIES_ARGS, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out, newline=""))
        assert header[:3] == ["period", "territory", "index"]
        assert [row[0] for row in rows] == ["2021"] * 3 + ["2022"] * 3 + ["2023"] * 3
        assert all(len(row) == len(header) for row in rows)

    def test_each_record_checked_once(self, capsys, monkeypatch):
        # a clean file is checked a column at a time: one check per indicator
        # block, no record built and no record checked on its own
        territories = tuple(rec.territory for rec in load_observations(DEMO_DATA))
        checked, built = [], []
        well_formed = model.Columns.well_formed

        def counted(block):
            checked.append(block.territory)
            return well_formed(block)

        monkeypatch.setattr(model.Columns, "well_formed", counted)
        monkeypatch.setattr(model, "record_problem", lambda *fields: built.append(fields))
        code, _, _ = run(capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC)
        assert code == 0
        assert checked == [territories]
        assert built == []

    def test_validation_failure_lists_findings(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "territory,indicator,period,kind,x_w,x_m,x_a,value\n"
            "A,G1,2023,standard,0.1,0.3,,\n",
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "score", "--data", str(bad), "--spec", DEMO_SPEC,
            "--format", "json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["errors"] >= 1
        assert any(f["code"] == "missing-total" for f in doc["findings"])

    @pytest.fixture()
    def two_country_data(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text(
            "territory,indicator,period,kind,x_w,x_m,x_a,value\n"
            "A,G1,2023,standard,0.1,0.3,0.2,\n"
            "B,G1,2023,standard,0.1,0.9,0.5,\n",
            encoding="utf-8",
        )
        return str(path)

    def test_scope_restricts_references(self, capsys, two_country_data):
        # reference taken over B only; A is still scored against it
        code, out, _ = run(
            capsys, "score", "--data", two_country_data, "--spec", DEMO_SPEC,
            "--scope", "B", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        by_territory = {r["territory"]: r["index"] for r in doc["reports"]}
        assert by_territory["A"] == pytest.approx((4 / 7) * 0.5 * 100, rel=1e-12)
        assert by_territory["B"] == pytest.approx(20.0, rel=1e-12)

    def test_out_of_scope_above_reference_fails_loudly(self, capsys, two_country_data):
        # B's achievement exceeds the scope's reference maximum: no clamping
        code, _, err = run(
            capsys, "score", "--data", two_country_data, "--spec", DEMO_SPEC,
            "--scope", "A",
        )
        assert code == 1
        assert "exceeds reference maximum" in err

    def test_reference_failure_names_the_record(self, capsys):
        # the scope's maximum total is B's 0.5, and D's 0.6 exceeds it
        code, out, err = run(
            capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC, "--scope", "A,B"
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: territory 'D', indicator 'G1', period 2023: "
            "achievement 0.6 exceeds reference maximum 0.5\n"
        )

    @pytest.mark.parametrize("argv", [
        ["demo"], ["verify"], ["score", *DEMO_ARGS], ["aggregate", "--data", SCORES],
        ["report", "--data", SCORES], ["score", *INVALID_ARGS],
    ], ids=["demo", "verify", "score", "aggregate", "report", "invalid"])
    def test_out_file(self, capsys, tmp_path, argv):
        # --out writes exactly what stdout would show, with the same exit code
        code, expected, _ = run(capsys, *argv)
        target = tmp_path / "out.txt"
        assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
        assert target.read_bytes() == expected.encode("utf-8")

    def test_time_series(self, capsys, tmp_path):
        data = tmp_path / "ts.csv"
        rows = ["territory,indicator,period,kind,x_w,x_m,x_a,value"]
        for period, shift in ((2022, 0.0), (2023, 0.2)):
            rows.append(f"A,G1,{period},standard,0.4,0.6,0.5,")
            rows.append(f"B,G1,{period},standard,{0.5 + shift},{0.7 + shift},{0.6 + shift},")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "score", "--data", str(data), "--spec", DEMO_SPEC,
            "--time-series", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert [p["period"] for p in doc["periods"]] == [2022, 2023]
        a_by_period = [
            next(r["index"] for r in p["reports"] if r["territory"] == "A")
            for p in doc["periods"]
        ]
        assert a_by_period[0] == a_by_period[1]

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC)
        _, second, _ = run(capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC)
        assert first == second


class TestBadInput:
    """Bad input ends as exit 1 with one ``error:`` line, never a traceback."""

    @staticmethod
    def _score(capsys, tmp_path, spec_text, data_text):
        spec = tmp_path / "spec.yaml"
        spec.write_text(spec_text, encoding="utf-8")
        data = tmp_path / "obs.csv"
        data.write_text(data_text, encoding="utf-8")
        code, out, err = run(capsys, "score", "--data", str(data), "--spec", str(spec))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    CAPPED_SPEC = (
        "tree:\n  - domain: d\n    indicators: [C]\n"
        "indicators:\n  C: {metric: capped}\n"
    )
    CAPPED_DATA = (
        "territory,indicator,period,kind,x_w,x_m,x_a,value\n"
        "A,C,2023,capped,,,,0.5\n"
    )

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("series", [False, True])
    def test_header_only_observations(self, capsys, tmp_path, fmt, series):
        # without --scope there is no territory to score: both modes name the
        # empty file, not an option the user never passed
        data = tmp_path / "obs.csv"
        data.write_text("territory,indicator,period,kind,x_w,x_m,x_a,value\n", encoding="utf-8")
        argv = ["score", "--data", str(data), "--spec", DEMO_SPEC, "--format", fmt]
        code, out, err = run(capsys, *argv, *(["--time-series"] if series else []))
        assert (code, out, err) == (1, "", "error: dataset has no observations\n")

    def test_non_finite_value(self, capsys, tmp_path):
        data = self.CAPPED_DATA + "B,C,2023,capped,,,,nan\n"
        err = self._score(capsys, tmp_path, self.CAPPED_SPEC, data)
        assert err == "error: row 3: value must be a finite number, got nan\n"

    def test_subdomain_without_id(self, capsys, tmp_path):
        spec = (
            "tree:\n  - domain: d\n    subdomains:\n      - indicators: [C]\n"
            "indicators:\n  C: {metric: capped}\n"
        )
        err = self._score(capsys, tmp_path, spec, self.CAPPED_DATA)
        assert "every sub-domain needs an 'id'" in err

    def test_non_mapping_tree_entry(self, capsys, tmp_path):
        spec = "tree:\n  - just-a-string\nindicators:\n  C: {metric: capped}\n"
        err = self._score(capsys, tmp_path, spec, self.CAPPED_DATA)
        assert "tree entry 1 is not a mapping, got 'just-a-string'" in err

    @staticmethod
    def _fails(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    def test_repeated_domain_id(self, capsys, tmp_path):
        # kept, the index read 90.00 with two 'work' columns instead of 40
        spec = tmp_path / "spec.yaml"
        spec.write_text(
            "tree:\n  - domain: work\n    indicators: [A]\n"
            "  - domain: work\n    indicators: [B]\n"
            "indicators:\n  A: {metric: capped}\n  B: {metric: capped}\n",
            encoding="utf-8",
        )
        data = tmp_path / "scores.csv"
        data.write_text("territory,A,B\nX,10,90\n", encoding="utf-8")
        err = self._fails(capsys, "aggregate", "--data", str(data), "--spec", str(spec))
        assert err == "error: domain 'work' appears more than once\n"

    def test_deeply_nested_yaml_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text("tree: " + "[" * 500 + "\n", encoding="utf-8")
        err = self._fails(capsys, "aggregate", "--data", SCORES, "--spec", str(spec))
        assert err == f"error: {spec}: malformed YAML: nesting is too deep\n"

    def test_nested_yaml_error_stays_short(self, capsys, tmp_path):
        # the whole nested value used to be quoted: one line of 834 characters
        spec = tmp_path / "spec.yaml"
        spec.write_text(
            "tree:\n  - " + "[" * 400 + "]" * 400 + "\nindicators: {C: {metric: capped}}\n",
            encoding="utf-8",
        )
        err = self._fails(capsys, "aggregate", "--data", SCORES, "--spec", str(spec))
        assert err == "error: tree entry 1 is not a mapping, got a list\n"
        assert len(err) < 200

    def test_aliased_yaml_values_are_not_expanded(self, capsys, tmp_path):
        # nine levels of ten aliases: a repr of the value would be 10**9 items
        lines = ["l0: &l0 [x, x, x, x, x, x, x, x, x, x]"]
        lines += [f"l{k}: &l{k} [{', '.join([f'*l{k - 1}'] * 10)}]" for k in range(1, 9)]
        spec = tmp_path / "spec.yaml"
        for tail, message in [
            (
                "tree: [*l8]\nindicators: {C: {metric: capped}}\n",
                "tree entry 1 is not a mapping, got a list",
            ),
            (
                "tree: [{domain: d, indicators: [C]}]\n"
                "indicators:\n  C: {metric: share, correction: {indicator: C, field: *l8}}\n",
                "indicator 'C': external correction needs an indicator id and a field "
                "name, got 'C' and a list",
            ),
            (
                "tree: [{domain: d, indicators: [C]}]\n"
                "indicators:\n  C: {metric: capped, label: *l8}\n",
                "indicator 'C': label must be text, got a list",
            ),
        ]:
            spec.write_text("\n".join(lines) + "\n" + tail, encoding="utf-8")
            err = self._fails(capsys, "aggregate", "--data", SCORES, "--spec", str(spec))
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "spec_text, message",
        [
            (
                CAPPED_SPEC.replace("capped}", "capped, correction: bogus}"),
                "indicator 'C': unknown correction kind 'bogus'",
            ),
            (
                CAPPED_SPEC.replace("capped}", "share, correction: {indicator: C, field: all}}"),
                "indicator 'C': external correction field must be one of "
                "('total', 'women', 'men'), got 'all'",
            ),
            # True == 1, so a one-domain tree used to accept it
            ("domain_count: true\n" + CAPPED_SPEC, "domain_count must be an integer, got True"),
            # YAML's true and yes are bools, and a bool is an int
            (
                CAPPED_SPEC.replace("capped}", "capped, period: true}"),
                "indicator 'C': period must be an integer year, got True",
            ),
            (
                CAPPED_SPEC.replace("capped}", "capped, period: yes}"),
                "indicator 'C': period must be an integer year, got True",
            ),
            # str(None) would label the indicator 'None'
            (
                CAPPED_SPEC.replace("capped}", "capped, label: null}"),
                "indicator 'C': label must be text, got None",
            ),
            # and str() of any other scalar would label it too
            (
                CAPPED_SPEC.replace("capped}", "capped, label: true}"),
                "indicator 'C': label must be text, got True",
            ),
            (
                CAPPED_SPEC.replace("capped}", "capped, label: 5}"),
                "indicator 'C': label must be text, got 5",
            ),
            (
                CAPPED_SPEC.replace("capped}", "capped, label: 1.5}"),
                "indicator 'C': label must be text, got 1.5",
            ),
        ],
        ids=["correction-kind", "correction-field", "domain-count", "period-true",
             "period-yes", "label-null", "label-true", "label-int", "label-float"],
    )
    def test_spec_value_refused(self, capsys, tmp_path, spec_text, message):
        spec = tmp_path / "spec.yaml"
        spec.write_text(spec_text, encoding="utf-8")
        err = self._fails(capsys, "aggregate", "--data", SCORES, "--spec", str(spec))
        assert err == f"error: {message}\n"

    def test_missing_data_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.csv")
        err = self._fails(capsys, "aggregate", "--data", missing)
        assert err == f"error: cannot read {missing}: No such file or directory\n"

    def test_data_is_a_directory(self, capsys, tmp_path):
        err = self._fails(capsys, "score", "--data", str(tmp_path))
        assert err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_data_not_utf8(self, capsys, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes("territory,G1\nSüdtirol,50\n".encode("latin-1"))
        err = self._fails(capsys, "aggregate", "--data", str(data))
        assert err.startswith(f"error: {data} is not UTF-8 text: ")

    def test_malformed_yaml_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text("tree: [a\nindicators: {}\n", encoding="utf-8")
        err = self._fails(capsys, "aggregate", "--data", SCORES, "--spec", str(spec))
        assert err.startswith(f"error: {spec}: malformed YAML at line 2, column ")

    def test_duplicate_yaml_key_in_spec(self, capsys, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text(self.CAPPED_SPEC + "  C: {metric: share}\n", encoding="utf-8")
        err = self._fails(capsys, "aggregate", "--data", SCORES, "--spec", str(spec))
        assert err == (
            f"error: {spec}: malformed YAML at line 6, column 3: found duplicate key 'C'\n"
        )

    def test_control_character_in_yaml_spec(self, capsys, tmp_path):
        # valid UTF-8, so PyYAML's reader rejects it, without a line mark
        spec = tmp_path / "spec.yaml"
        spec.write_text("tree: []\x00\nindicators: {}\n", encoding="utf-8")
        err = self._fails(capsys, "aggregate", "--data", SCORES, "--spec", str(spec))
        assert err == (
            f"error: {spec}: malformed YAML at position 8: unacceptable "
            "character #x0000: special characters are not allowed\n"
        )

    def test_unwritable_out(self, capsys, tmp_path):
        out = str(tmp_path / "missing-dir" / "x.csv")
        err = self._fails(capsys, "aggregate", "--data", SCORES, "--out", out)
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_duplicate_scope_entry_in_score(self, capsys):
        err = self._fails(capsys, "score", "--data", DEMO_DATA, "--spec", DEMO_SPEC,
                          "--scope", "A,B,A")
        assert err == "error: --scope lists territory 'A' more than once\n"

    def test_duplicate_scope_entry_in_report(self, capsys):
        # counted twice, Umbria would shift every summary and still exit 0
        err = self._fails(capsys, "report", "--data", SCORES,
                          "--scope", "Umbria,Lazio,Umbria,Marche")
        assert err == "error: --scope lists territory 'Umbria' more than once\n"


class TestAggregate:
    def test_reproduces_published_domains(self, capsys):
        code, out, _ = run(capsys, "aggregate", "--data", SCORES)
        assert code == 0
        top = out.splitlines()[2]
        assert top.startswith("Provincia Autonoma di Trento")
        for cell in ("73.18", "69.32", "73.62", "66.10", "69.61", "78.08", "90.33"):
            assert cell in top

    def test_csv_has_indicator_precision(self, capsys):
        code, out, _ = run(capsys, "aggregate", "--data", SCORES, "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("territory,G1,")
        assert lines[0].endswith("politics,health,index")
        top = next(l for l in lines if l.startswith("Provincia Autonoma di Trento"))
        assert "89.422" in top  # indicators carry three decimals

    def test_a_leading_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # spreadsheet programs start a UTF-8 export with one
        data = tmp_path / "scores.csv"
        data.write_bytes(b"\xef\xbb\xbf" + Path(SCORES).read_bytes())
        marked = run(capsys, "aggregate", "--data", str(data))
        assert marked == run(capsys, "aggregate", "--data", SCORES)
        assert marked[0] == 0


class TestReport:
    def test_sections_present(self, capsys, region_names):
        code, out, _ = run(
            capsys, "report", "--data", SCORES, "--scope", ",".join(region_names)
        )
        assert code == 0
        assert "Ranking" in out
        assert "Descriptive summaries" in out
        assert "Correlation matrix" in out
        # the domain rows reproduce the published statistics at two decimals
        summary_block = out.split("Descriptive summaries")[1]
        assert "health" in summary_block and "84.85" in summary_block

    def test_constant_column_is_named(self, capsys, tmp_path):
        table = load_score_table(SCORES)
        lines = [",".join(("territory",) + table.indicators)]
        for terr in table.territories:
            row = table.row(terr) | {"G10": 100.0}
            lines.append(",".join([terr] + [f"{row[ind]:.3f}" for ind in table.indicators]))
        data = tmp_path / "scores.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run(capsys, "report", "--data", str(data))
        assert (code, out) == (1, "")
        assert err == "error: correlation is undefined for constant indicator columns (G10)\n"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("scope", [None, 17])
    def test_row_order_changes_no_byte(self, capsys, tmp_path, region_names, fmt, scope):
        # every statistic ignores the row order, and the ranking sorts; a
        # scope listed in the same order names the same rows in either table
        lines = Path(SCORES).read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("territory"))
        body = lines[header + 1:]
        random.Random(scope).shuffle(body)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(lines[:header + 1] + body) + "\n", encoding="utf-8")
        argv = ["report", "--format", fmt]
        if scope:
            argv += ["--scope", ",".join(random.Random(scope).sample(region_names, scope))]
        outputs = [run(capsys, *argv, "--data", data) for data in (SCORES, str(shuffled))]
        assert outputs[0][0] == 0 and outputs[0] == outputs[1]

    def test_unknown_scope_territory(self, capsys):
        code, _, err = run(capsys, "report", "--data", SCORES, "--scope", "Atlantis")
        assert code == 1
        assert "Atlantis" in err

    def test_json_structure(self, capsys, region_names):
        code, out, _ = run(
            capsys, "report", "--data", SCORES,
            "--scope", ",".join(region_names), "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert len(doc["ranking"]) == 23
        assert doc["summaries"]["index"]["mean"] == pytest.approx(62.13, abs=0.01)
        assert len(doc["correlation"]["matrix"]) == 20


class TestScoreTableShapes:
    """``aggregate`` and ``report`` on header-only, partial and reordered tables."""

    @staticmethod
    def _write(tmp_path, indicators, territories=None):
        """SCORES with only ``indicators``, in that order, and only ``territories``;
        an indicator SCORES lacks gets a column of 50.000."""
        table = load_score_table(SCORES)
        lines = [",".join(("territory", *indicators))]
        for terr in table.territories if territories is None else territories:
            row = table.row(terr)
            lines.append(",".join([terr] + [f"{row.get(ind, 50.0):.3f}" for ind in indicators]))
        data = tmp_path / "scores.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(data)

    def test_header_only_table(self, capsys, tmp_path):
        _, tree = dataio.load_index_spec()
        leaves = tree.leaf_ids()
        data = self._write(tmp_path, leaves, territories=[])
        assert run(capsys, "report", "--data", data) == (
            1, "", "error: report needs at least 3 territories, got 0\n"
        )
        assert run(capsys, "aggregate", "--data", data, "--format", "json") == (
            0, json.dumps({"command": "aggregate", "reports": []}, indent=2) + "\n", ""
        )
        header = ["territory", *leaves, *(dom.id for dom in tree.domains), "index"]
        assert run(capsys, "aggregate", "--data", data, "--format", "csv") == (
            0, ",".join(header) + "\n", ""
        )
        code, out, _ = run(capsys, "aggregate", "--data", data)
        assert code == 0
        assert out.split() == ["territory", "index", *(dom.id for dom in tree.domains)] + [
            "-" * len(h) for h in ["territory", "index", *(dom.id for dom in tree.domains)]
        ]

    @pytest.mark.parametrize("command", ["aggregate", "report"])
    def test_partial_table_names_the_first_territory(self, capsys, tmp_path, command):
        _, tree = dataio.load_index_spec()
        kept = [leaf for leaf in tree.leaf_ids() if leaf not in ("G3", "G17")]
        territories = ["Molise", "Abruzzo", "Umbria"]
        data = self._write(tmp_path, kept, territories)
        assert run(capsys, command, "--data", data) == (
            1, "", "error: partial report for 'Molise': missing scores for G3, G17\n"
        )

    @pytest.mark.parametrize("scope", [None, "Molise,Umbria"])
    def test_report_on_two_territories_gives_the_count(self, capsys, tmp_path, scope):
        _, tree = dataio.load_index_spec()
        territories = ["Molise", "Umbria"] if scope is None else ["Molise", "Abruzzo", "Umbria"]
        data = self._write(tmp_path, tree.leaf_ids(), territories)
        where = " in --scope" if scope else ""
        argv = ["report", "--data", data] + (["--scope", scope] if scope else [])
        assert run(capsys, *argv) == (
            1, "", f"error: report needs at least 3 territories{where}, got 2\n"
        )

    @pytest.mark.parametrize("command", ["aggregate", "report"])
    @pytest.mark.parametrize("fmt, ext", FORMATS)
    def test_column_order_and_extra_columns_do_not_change_output(
        self, capsys, tmp_path, command, fmt, ext
    ):
        _, tree = dataio.load_index_spec()
        shuffled = list(tree.leaf_ids())
        random.Random(7).shuffle(shuffled)
        shuffled.insert(5, "X1")
        data = self._write(tmp_path, shuffled)
        code, out, err = run(capsys, command, "--data", data, "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{command}.{ext}").read_text(encoding="utf-8")


class TestCollector:
    """``main`` pauses the cyclic collector while a command runs, and leaves it
    as it found it however the command ends."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        found = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if found else gc.disable)()

    def test_after_success(self, capsys, collecting):
        assert run(capsys, "demo")[0] == 0
        assert gc.isenabled() is collecting

    def test_after_an_igei_error(self, capsys, collecting):
        assert run(capsys, "report", "--data", SCORES, "--scope", "Atlantis")[0] == 1
        assert gc.isenabled() is collecting

    def test_after_an_unexpected_exception(self, monkeypatch, collecting):
        seen = []

        def failing(args):
            seen.append(gc.isenabled())
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_demo", failing)
        with pytest.raises(RuntimeError, match="boom"):
            main(["demo"])
        assert seen == [False]
        assert gc.isenabled() is collecting

    def test_after_an_argument_error(self, capsys, collecting):
        with pytest.raises(SystemExit):
            main(["score"])
        assert gc.isenabled() is collecting


class TestVerify:
    def test_all_checks_pass_with_known_deviation(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines()
        statuses = {line.split()[1].rstrip(":"): line.split()[0] for line in lines[:-1]}
        assert statuses["five-country-scores"] == "PASS"
        assert statuses["penalized-mean-reference"] == "PASS"
        assert statuses["domain-aggregation"] == "PASS"
        assert statuses["final-index-recomputation"] == "KNOWN-DEVIATION"
        assert statuses["index-summary-statistics"] == "PASS"
        assert statuses["indicator-summary-statistics"] == "PASS"
        assert statuses["indicator-correlations"] == "PASS"
        assert lines[-1].startswith("7/7 checks passed")

    def test_json_listing(self, capsys):
        code, out, _ = run(capsys, "verify", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["failures"] == 0
        assert len(doc["checks"]) == 7
        by_name = {c["name"]: c["status"] for c in doc["checks"]}
        assert by_name["final-index-recomputation"] == "KNOWN-DEVIATION"

    def test_each_bundled_file_read_once(self, capsys, monkeypatch):
        reads = []
        for module, name in ((dataio, "load_index_spec"), (dataio, "load_score_table"),
                             (verify, "load_reference_table")):
            loader = getattr(module, name)

            def counted(source=None, *args, _loader=loader, **kwargs):
                reads.append((_loader.__name__, str(source)))
                return _loader(source, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        for _ in range(2):
            reads.clear()
            code, _, _ = run(capsys, "verify")
            assert code == 0
            assert sorted(reads) == sorted(set(reads))
            assert ("load_score_table", SCORES) in reads
            assert ("load_index_spec", "None") in reads

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "verify")
        _, second, _ = run(capsys, "verify")
        assert first == second


GOLDEN_RUNS = [
    (["verify"], "verify.txt", 0),
    (["verify", "--format", "json"], "verify.json", 0),
    (["demo"], "demo.txt", 0),
    (["demo", "--format", "csv"], "demo.csv", 0),
    (["demo", "--format", "json"], "demo.json", 0),
] + [
    ([command, *args, "--format", fmt], f"{name}.{ext}", 0)
    for command, args, name in (
        ("score", DEMO_ARGS, "score"),
        ("score", SERIES_ARGS, "score-series"),
        ("aggregate", ["--data", SCORES], "aggregate"),
        ("report", ["--data", SCORES], "report"),
    )
    for fmt, ext in FORMATS
] + [
    (["score", *INVALID_ARGS, "--format", "table"], "invalid.txt", 1),
    (["score", *INVALID_ARGS, "--format", "json"], "invalid.json", 1),
    (["verify", "--format", "csv"], "verify.csv", 0),
    (["score", *INVALID_ARGS, "--format", "csv"], "invalid.csv", 1),
] + [
    (["report", *SUBSET_ARGS, "--format", fmt], f"report-scope.{ext}", 0)
    for fmt, ext in FORMATS
]


class TestGoldenOutput:
    """Full command output, byte for byte, in every format."""

    @pytest.mark.parametrize(
        "argv, name, code", GOLDEN_RUNS,
        ids=[f"argv{i}-{name}" for i, (_, name, _) in enumerate(GOLDEN_RUNS)],
    )
    def test_matches_golden_file(self, capsys, argv, name, code):
        status, out, err = run(capsys, *argv)
        assert (status, err) == (code, "")
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


class TestStartup:
    def test_import_leaves_unneeded_modules_unloaded(self):
        # every CLI start would pay for these: numpy is a test-only dependency,
        # dataclasses pulls in inspect, json serves only JSON output, and
        # igei.verify only verify and demo, and yaml only a spec file
        unneeded = ["numpy", "dataclasses", "inspect", "json", "igei.verify", "yaml"]
        probe = f"import sys, igei.cli; print(*sorted({{*{unneeded!r}}} & sys.modules.keys()))"
        env = dict(os.environ, PYTHONPATH=str(Path(igei.__file__).parents[1]))
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True)
        assert (result.returncode, result.stdout, result.stderr) == (0, "\n", "")

    @staticmethod
    def _without_site(*args: str) -> subprocess.CompletedProcess:
        # -S: no site module, so no site-packages (PyYAML among them) and no
        # .pth file that imports a module before igei does
        env = dict(os.environ, PYTHONPATH=str(Path(igei.__file__).parents[1]),
                   PYTHONIOENCODING="utf-8")
        return subprocess.run([sys.executable, "-S", *args], env=env, capture_output=True)

    def test_import_without_site_loads_no_yaml_or_resources(self):
        unneeded = ["yaml", "importlib.resources"]
        result = self._without_site(
            "-c", f"import sys, igei.cli; print(*sorted({{*{unneeded!r}}} & sys.modules.keys()))"
        )
        assert (result.returncode, result.stdout, result.stderr) == (0, b"\n", b"")

    def test_report_without_site_reads_the_bundled_spec(self, capsys):
        argv = ["report", "--data", SCORES, "--format", "csv"]
        assert main(argv) == 0
        result = self._without_site("-m", "igei.cli", *argv)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == capsys.readouterr().out.encode("utf-8")


class TestNumberCells:
    @given(st.floats())
    @example(-0.0)
    @example(math.nan)
    @example(math.inf)
    @example(-math.inf)
    @example(5e-324)
    @example(2.2250738585072009e-308)
    @example(sys.float_info.max)
    @example(-1.7976931348623155e308)
    @example(0.005)
    @example(0.0005)
    def test_cells_read_as_format_writes_them(self, x):
        # a CSV row is its column formats joined with ',' and applied at once
        row = ",".join([cli._TEXT, cli._F2, cli._F3]) % ("t", x, x)
        assert row == f"t,{x:.2f},{x:.3f}"


# --- CSV rendering against the per-cell renderer ------------------------------
# The renderer applies one %-format per row and quotes only text columns; the
# reference formats every cell first and quotes any cell that needs it.


def _cells_csv(headers: list[str], rows: list[list[str]]) -> str:
    lines = [headers, *rows]
    text = "\n".join(map(",".join, lines))
    # a cell holds a ',', '"' or line break only where the joined text shows one
    if ('"' in text or "\r" in text or text.count("\n") >= len(lines)
            or text.count(",") > sum(map(len, lines)) - len(lines)):
        text = "\n".join(",".join(map(_cell_csv, row)) for row in lines)
    return text + "\n"


def _cell_csv(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


TEXT_CELLS = st.text(st.sampled_from(',"\n\r a.é€\U0001f600') | st.characters(), max_size=6)
NUMBERS = st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1e308, -1.7976931348623157e308,
                           0.005, 0.0005]) | st.floats()


@st.composite
def sections(draw):
    """Headers, formats and rows shaped like one of the CLI's sections."""
    k = draw(st.integers(0, 4))
    T, F2, F3 = cli._TEXT, cli._F2, cli._F3
    formats = draw(st.sampled_from([
        [T] + [F3] * k + [F2] * 3,  # the wide ranking: indicators, domains, index
        [T] + [F2] * (k + 1),  # the narrow ranking, and correlations
        [T, T] + [F2] * (k + 1),  # --time-series, led by a period column
        [T] + [F2] * 8,  # report summaries
        [T] * 5,  # validation findings
    ]))
    headers = draw(st.lists(TEXT_CELLS, min_size=len(formats), max_size=len(formats)))
    cells = [TEXT_CELLS if f == T else NUMBERS for f in formats]
    return headers, formats, draw(st.lists(st.tuples(*cells), max_size=4))


@given(sections())
@example((["territory", "index"], ["%s", "%.2f"], [("North, East", 1.0), ('"B"', -0.0)]))
@example((["a,b", "x"], ["%s", "%.3f"], [("\r", 5e-324), ("é\n", 1e308)]))
@example((["period", "territory"], ["%s", "%s"], [("2023", "North"), ("2024", 'B "b"')]))
def test_csv_matches_the_per_cell_renderer(section):
    headers, formats, rows = section
    cells = [[fmt % value for fmt, value in zip(formats, row)] for row in rows]
    assert cli._render_csv(headers, formats, rows) == _cells_csv(headers, cells)


# --- table rendering against the row-wise renderer ----------------------------
# The renderer formats and pads a column at a time; the reference formats every
# cell of a row first and pads each row through one str.format.


def _rows_table(headers: list[str], formats: list[str], rows: list[tuple]) -> str:
    rows = [list(map(str.__mod__, formats, row)) for row in rows]
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(headers)]
    line = "  ".join([f"{{:<{widths[0]}}}"] + [f"{{:>{w}}}" for w in widths[1:]]).format
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(*headers).rstrip(), rule] + [line(*r).rstrip() for r in rows]) + "\n"


@given(sections())
@example((["territory", "index"], ["%s", "%.2f"], []))  # header and rule only
@example((["a territory header", "an index header"], ["%s", "%.2f"], [("N", 1.0), ("S", -0.0)]))
@example((["territory"], ["%s"], [("North",), ("South",)]))  # one column
@example((["territory"], ["%s"], []))
@example((["territory", "index"], ["%s", "%.2f"], [("North  ", 61.5), ("South ", 7.0)]))
@example((["period", "territory", "index"], ["%s", "%s", "%.2f"],
          [("2023", "Valle d'Aosta/Vallée d'Aoste", 61.5), ("2024", "Südtirol  ", 1e308)]))
# a column of numbers above 0 takes its width from its largest; any other measures each cell
@example((["t", "x"], ["%s", "%.2f"], [("a", 0.0), ("b", -0.0)]))
@example((["t", "x"], ["%s", "%.2f"], [("a", -0.0), ("b", 0.0)]))
@example((["t", "x"], ["%s", "%.2f"], [("a", 99.99), ("b", 99.995)]))  # 100.00
@example((["t", "x"], ["%s", "%.3f"], [("a", 5e-324), ("b", 0.5)]))
@example((["t", "x"], ["%s", "%.2f"], [("a", 0.0), ("b", 0.0)]))
@example((["t", "x"], ["%s", "%.2f"], [("a", -1.5), ("b", -12.25)]))
@example((["t", "x", "y"], ["%s", "%.2f", "%.2f"],
          [("a", 1.0, math.nan), ("b", math.nan, -math.inf), ("c", math.inf, 2.0)]))
@example((["x", "t"], ["%.2f", "%s"], [(1.5, "a"), (-10.0, "b"), (100.0, "c")]))
def test_table_matches_the_row_wise_renderer(section):
    assert cli._render_table(*section) == _rows_table(*section)
