"""Self-tests of the benchmark: generator, oracle, gates and helpers.

    python3 -m pytest bench      or      python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import oracle  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from igei import cli, dataio, pipeline, stats  # noqa: E402
from igei.model import Dataset  # noqa: E402


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for wl in workloads.WORKLOADS.values():
            with self.subTest(workload=wl.name):
                first = workloads.input_text(wl, 7)
                self.assertEqual(first, workloads.input_text(wl, 7))
                self.assertNotEqual(first, workloads.input_text(wl, 8))

    def test_workload_sizes(self):
        sizes = {"score-wide": 1000 * 20, "score-series": 300 * 8 * 20, "report-scores": 5000}
        for name, rows in sizes.items():
            text = workloads.input_text(workloads.WORKLOADS[name], 3)
            self.assertEqual(len(text.splitlines()), rows + 2)  # comment and header

    def test_generated_observations_validate_cleanly(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "obs.csv"
            path.write_text(workloads.observation_text(5, 40, 3), encoding="utf-8")
            specs, _ = dataio.load_index_spec()
            records = dataio.load_observations(path)
            self.assertEqual(dataio.validate_dataset(records, specs).findings, ())
            kinds = {(r.kind.value, specs[r.indicator].polarity.value) for r in records}
            self.assertEqual(len(kinds), 5)  # four metric kinds, both polarities


class SpecTest(unittest.TestCase):
    def test_restatement_matches_bundled_tree(self):
        specs, tree = dataio.load_index_spec()
        bundled = tuple(
            (dom.id, tuple((sub.id, sub.indicators) for sub in dom.subdomains))
            for dom in tree.domains
        )
        self.assertEqual(bundled, spec.TREE)
        for ind, (kind, polarity, corr) in spec.INDICATORS.items():
            s = specs[ind]
            self.assertEqual((s.metric.value, s.polarity.value), (kind, polarity))
            if corr in ("own", "none"):
                self.assertEqual(s.correction.kind, {"own": "own_average"}.get(corr, corr))
            else:
                self.assertEqual((s.correction.indicator, s.correction.source_attr), corr)


class OracleTest(unittest.TestCase):
    def test_demo_data(self):
        specs, tree = dataio.load_index_spec(dataio.bundled_path("demo_tree.yaml"))
        path = dataio.bundled_path("demo_countries.csv")
        dataset = Dataset(dataio.load_observations(path))
        refs = pipeline.resolve_references(dataset, specs, dataset.territories)
        expected = oracle.score_observations(
            path, indicators={"G1": ("standard", "positive", "own")},
            tree=(("work", (("work", ("G1",)),)),))
        for (terr, _), exp in expected.items():
            got = pipeline.score_territory(terr, dataset, specs, tree, refs).index
            self.assertAlmostEqual(got, exp.index, places=9)

    def test_bundled_score_table(self):
        _, tree = dataio.load_index_spec()
        path = dataio.bundled_path("indicator_scores_2023.csv")
        table = dataio.load_score_table(path)
        for terr, scores in oracle.read_score_table(path).items():
            exp = oracle.fold(scores)
            got = pipeline.aggregate_scores(tree, table.row(terr), terr)
            self.assertAlmostEqual(got.index, exp.index, places=9)
            for dom, value in exp.domains.items():
                self.assertAlmostEqual(got.domain_values[dom], value, places=9)

    def _library_scores(self, path: Path, periods: int):
        specs, tree = dataio.load_index_spec()
        dataset = Dataset(dataio.load_observations(path))
        if periods > 1:
            by_period = pipeline.score_time_series(dataset, specs, tree)
            return {(t, p): rep for p, reps in by_period.items() for t, rep in reps.items()}
        refs = pipeline.resolve_references(dataset, specs, dataset.territories)
        return {(t, 2023): pipeline.score_territory(t, dataset, specs, tree, refs)
                for t in dataset.territories}

    def test_small_generated_instances(self):
        with tempfile.TemporaryDirectory() as tmp:
            for periods in (1, 3):
                path = Path(tmp) / f"obs{periods}.csv"
                path.write_text(workloads.observation_text(11, 25, periods), encoding="utf-8")
                expected = oracle.score_observations(path)
                got = self._library_scores(path, periods)
                self.assertEqual(set(got), set(expected))
                for key, exp in expected.items():
                    rep = got[key]
                    self.assertAlmostEqual(rep.index, exp.index, places=9)
                    for ind, value in exp.indicators.items():
                        self.assertAlmostEqual(rep.indicator_scores[ind], value, places=9)

    def test_report_statistics(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scores.csv"
            path.write_text(workloads.score_table_text(4, 60), encoding="utf-8")
            _, summaries, corr = oracle.report_expectations(path)
            table = dataio.load_score_table(path)
            for ind in spec.LEAVES:
                s = stats.descriptive_summary(table.column(ind))
                got = [s.mean, s.sd, s.cv, s.min, s.p25, s.p50, s.p75, s.max]
                for a, b in zip(got, summaries[ind]):
                    self.assertAlmostEqual(a, b, places=9)
            matrix = stats.correlation_matrix([table.column(ind) for ind in spec.LEAVES])
            self.assertAlmostEqual(float(matrix[0, 5]), corr[("G1", "G6")], places=9)


class GateTest(unittest.TestCase):
    """The gates accept the CLI's real output and reject a corrupted copy."""

    def _run_cli(self, wl, data: Path, out: Path) -> str:
        self.assertEqual(cli.main(workloads.cli_args(wl, data, out)), 0)
        return out.read_text(encoding="utf-8")

    def test_gates(self):
        cases = {
            "score-wide": (lambda s: workloads.observation_text(s, 30, 1),
                           oracle.score_observations, oracle.check_score_csv),
            "score-series": (lambda s: workloads.observation_text(s, 20, 3),
                             oracle.score_observations, oracle.check_series_table),
            "report-scores": (lambda s: workloads.score_table_text(s, 40),
                              oracle.report_expectations, oracle.check_report_csv),
        }
        with tempfile.TemporaryDirectory() as tmp:
            for name, (make, expect, check) in cases.items():
                with self.subTest(workload=name):
                    data, out = Path(tmp) / f"{name}.csv", Path(tmp) / f"{name}.out"
                    data.write_text(make(9), encoding="utf-8")
                    text = self._run_cli(workloads.WORKLOADS[name], data, out)
                    expected = expect(data)
                    self.assertEqual(check(text, expected), [])
                    lines = text.splitlines()
                    row = next(i for i, line in enumerate(lines) if line.startswith("Region"))
                    wrong = lines[row][:-1] + ("1" if lines[row][-1] != "1" else "2")
                    corrupted = "\n".join(lines[:row] + [wrong] + lines[row + 1:]) + "\n"
                    self.assertNotEqual(check(corrupted, expected), [])
                    self.assertNotEqual(check("\n".join(lines[:-1]) + "\n", expected), [])


class HelperTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(run.quartiles([3.0, 1.0, 2.0])[1], 2.0)
        self.assertEqual(run.quartiles([4.0, 1.0, 2.0, 3.0])[1], 2.5)
        self.assertEqual(run.quartiles([float(v) for v in range(1, 11)]), (2.75, 5.5, 8.25))
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0, 5.0))

    def test_penalized_mean(self):
        self.assertEqual(oracle.penalized_mean([40.0]), 40.0)
        self.assertEqual(oracle.penalized_mean([7.0, 7.0]), 7.0)
        # mean 1, variance 9, range 10: 1 - 9 / 20
        self.assertTrue(math.isclose(oracle.penalized_mean([0.0] * 9 + [10.0]), 0.55))

    def test_parse_importtime(self):
        stderr = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   yaml.error",
            "import time:      2000 |       2500 | yaml",
            "import time:       300 |        300 |     numpy.core",
            "import time:      1000 |      90000 |   numpy",
            "import time:      4000 |      95000 |   igei.stats",
            "import time:      6000 |     110000 | igei",
        ])
        self.assertEqual(run.parse_importtime(stderr), {
            "startup.numpy_import_s": 0.09,
            "startup.yaml_import_s": 0.0025,
            "startup.igei_self_import_s": 0.01,
        })

    def test_benchmark_json_matches_the_code(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({w["name"]: w["why"] for w in doc["workloads"]},
                         {w.name: w.why for w in workloads.WORKLOADS.values()})
        self.assertEqual([(m["name"], m["unit"]) for m in doc["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         [(name, run.metric_unit(name)) for name in run.PER_LAYER])


if __name__ == "__main__":
    unittest.main()
