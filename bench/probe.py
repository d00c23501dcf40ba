"""In-process probe: runs ``igei.cli.main`` inside an already-imported interpreter.

Started by ``run.py`` as a child with ``igei`` on ``PYTHONPATH``; prints
one JSON object on stdout.

    python probe.py inproc ARGV_JSON
        import igei.cli, then time one ``main(argv)`` call: what the
        ``igei`` console script does, plus a timer
    python probe.py trace ARGV_JSON FULL_ARGV_JSON HALF_ARGV_JSON
        time one untraced call, then one traced call on the full input and
        one on the half-size input (the first two argv lists differ only in --out)

Tracing wraps the public functions of each layer from outside the
package.  Spans are kept in memory and summarised per layer at the end:
calls, inclusive seconds, and self seconds (the span minus its direct
child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer name, module, attribute); classes are patched by method
SPANNED = (
    ("cli.main", "igei.cli", "main"),
    ("dataio.load_index_spec", "igei.dataio", "load_index_spec"),
    ("dataio.load_observations", "igei.dataio", "load_observations"),
    ("dataio.validate_dataset", "igei.dataio", "validate_dataset"),
    ("dataio.load_score_table", "igei.dataio", "load_score_table"),
    ("model.Dataset", "igei.model", "Dataset.__init__"),
    ("model.Dataset.get", "igei.model", "Dataset.get"),
    ("pipeline.resolve_references", "igei.pipeline", "resolve_references"),
    ("pipeline.score_time_series", "igei.pipeline", "score_time_series"),
    ("pipeline.score_territory", "igei.pipeline", "score_territory"),
    ("pipeline.compute_indicator", "igei.pipeline", "compute_indicator"),
    ("pipeline.aggregate_scores", "igei.pipeline", "aggregate_scores"),
    ("stats.descriptive_summary", "igei.stats", "descriptive_summary"),
    ("stats.correlation_matrix", "igei.stats", "correlation_matrix"),
    ("stats.rank_table", "igei.stats", "rank_table"),
)
# counted but not timed: too many calls for a span each
COUNTED = (("penalized.penalized_mean", "igei.penalized", "penalized_mean"),)
# work counts taken from a layer's return value
RESULT_COUNTS = {
    "dataio.load_observations": ("records", len),
    "dataio.validate_dataset": ("findings", lambda report: len(report.findings)),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts, result_count = self.counts, RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if result_count is not None:
                key = f"{name}.{result_count[0]}"
                counts[key] = counts.get(key, 0) + result_count[1](result)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for layers, make in ((SPANNED, self._span), (COUNTED, self._count)):
            for name, module_name, attr in layers:
                owner = sys.modules[module_name]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                wrapped = make(name, original)
                setattr(owner, leaf, wrapped)
                if not path:
                    # modules that imported the function by name call it
                    # through their own global
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name.startswith("igei") and getattr(mod, leaf, None) is original:
                            setattr(mod, leaf, wrapped)

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def summary(self) -> dict:
        """Per layer: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict[str, dict] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = layers.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        roots = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return {"layers": layers, "counts": dict(self.counts), "root_s": roots}


def _timed_main(main, argv) -> tuple[int, float]:
    start = time.perf_counter()
    rc = main(argv)
    return rc, time.perf_counter() - start


def main() -> None:
    mode, *argvs = sys.argv[1:]
    argvs = [json.loads(a) for a in argvs]
    start = time.perf_counter()
    import igei.cli

    result = {"import_s": time.perf_counter() - start}
    rc, seconds = _timed_main(igei.cli.main, argvs[0])
    result["untraced"] = {"rc": rc, "main_s": seconds}
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        for key, argv in zip(("full", "half"), argvs[1:]):
            tracer.reset()
            # the patched module attribute, so cli.main itself is spanned
            rc, seconds = _timed_main(igei.cli.main, argv)
            result[key] = {"rc": rc, "main_s": seconds, **tracer.summary()}
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
