"""Independent recomputation and output checks; does not import ``igei``.

The oracle recomputes every indicator score, domain value and final
index straight from the generated inputs with the formulas of the README
(symmetric gap, achievement correction against the scope maximum,
penalized arithmetic mean at every tree level).  The checks compare the
CLI's printed output with it to within one unit of the last printed
digit, and check its shape: one row per territory (or territory and
period), ranked by index, every value in [0, 100].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from spec import DOMAINS, INDICATORS, LEAVES, TREE


@dataclass(frozen=True)
class Expected:
    indicators: dict[str, float]
    domains: dict[str, float]
    index: float


def penalized_mean(values: list[float]) -> float:
    """Arithmetic mean minus population variance over twice the range."""
    lo, hi = min(values), max(values)
    if hi == lo:
        return values[0]
    mean = math.fsum(values) / len(values)
    var = math.fsum((x - mean) ** 2 for x in values) / len(values)
    return mean - var / (2.0 * (hi - lo))


def fold(scores: dict[str, float], tree=TREE) -> Expected:
    domains = {
        dom: penalized_mean([penalized_mean([scores[i] for i in inds]) for _, inds in subs])
        for dom, subs in tree
    }
    return Expected(dict(scores), domains, penalized_mean(list(domains.values())))


def _rows(path: Path):
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.reader(handle):
            if row and not row[0].startswith("#"):
                yield row


def _cell(text: str) -> float | None:
    return float(text) if text else None


def _working(x: float, polarity: str) -> float:
    return 1.0 - x if polarity == "negative" else x


def score_observations(path: Path, indicators=None, tree=TREE) -> dict[tuple[str, int], Expected]:
    """Expected results per (territory, period), references over all of them.

    With one period per territory this is plain scoring; with several it
    is time-series scoring, whose reference maxima span every period.
    """
    indicators = indicators or INDICATORS
    obs: dict[tuple[str, int], dict[str, dict[str, float | None]]] = {}
    rows = _rows(path)
    header = next(rows)
    for row in rows:
        rec = dict(zip(header, row))
        cells = {k: _cell(rec[k]) for k in ("x_w", "x_m", "x_a", "value")}
        obs.setdefault((rec["territory"], int(rec["period"])), {})[rec["indicator"]] = cells

    def base(key, ind) -> float:
        _, polarity, corr = indicators[ind]
        if corr == "own":
            return _working(obs[key][ind]["x_a"], polarity)
        source, column = corr
        return _working(obs[key][source][column], indicators[source][1])

    corrected = [ind for ind, (_, _, corr) in indicators.items() if corr != "none"]
    reference = {ind: max(base(key, ind) for key in obs) for ind in corrected}

    out = {}
    for key, cells in obs.items():
        scores = {}
        for ind, (kind, polarity, corr) in indicators.items():
            c = cells[ind]
            if corr == "none":
                alpha = 1.0
            else:
                b = base(key, ind)
                alpha = 2.0 * b / (reference[ind] + b)
            if kind == "standard":
                w, m = _working(c["x_w"], polarity), _working(c["x_m"], polarity)
                level = 1.0 - abs(w - m) / (w + m)
            elif kind == "share":
                level = 1.0 - abs(1.0 - 2.0 * c["value"])
            elif kind == "ratio":
                r = c["value"]
                level = 1.0 - abs(r - 1.0) / (r + 1.0)
            else:
                level = min(1.0, c["value"])
            scores[ind] = alpha * level * 100.0
        out[key] = fold(scores, tree)
    return out


def read_score_table(path: Path) -> dict[str, dict[str, float]]:
    rows = _rows(path)
    header = next(rows)
    return {row[0]: dict(zip(header[1:], map(float, row[1:]))) for row in rows}


# --- output checks ---------------------------------------------------------
# Each check returns a list of problems; an empty list means the output is
# correct.  Tolerance is one unit of the last printed digit.


def _close(printed: str, exact: float, decimals: int) -> bool:
    return abs(float(printed) - exact) <= 10.0 ** -decimals + 1e-9


def _check_ranked(rows: list[list[str]], expected: dict[str, Expected], where: str,
                  leaves: bool) -> list[str]:
    """Rows of territory, [20 indicator scores,] index/domains; ranked best first."""
    problems = []
    names = [r[0] for r in rows]
    if sorted(names) != sorted(expected) or len(set(names)) != len(names):
        problems.append(f"{where}: expected one row for each of {len(expected)} "
                        f"territories, got {len(rows)} rows")
        return problems
    previous = math.inf
    for row in rows:
        exp = expected[row[0]]
        if leaves:
            cols = [(v, exp.indicators[i], 3) for v, i in zip(row[1:21], LEAVES)]
            cols += [(v, exp.domains[d], 2) for v, d in zip(row[21:27], DOMAINS)]
            cols.append((row[27], exp.index, 2))
            index = float(row[27])
        else:
            cols = [(row[1], exp.index, 2)]
            cols += [(v, exp.domains[d], 2) for v, d in zip(row[2:8], DOMAINS)]
            index = float(row[1])
        for printed, exact, dec in cols:
            if not 0.0 <= float(printed) <= 100.0:
                problems.append(f"{where}: {row[0]}: value {printed} outside [0, 100]")
            elif not _close(printed, exact, dec):
                problems.append(f"{where}: {row[0]}: printed {printed}, oracle {exact:.6f}")
        if index > previous:
            problems.append(f"{where}: {row[0]} is not ranked by index")
        previous = index
        if len(problems) > 5:
            break
    return problems


def check_score_csv(text: str, expected: dict[tuple[str, int], Expected]) -> list[str]:
    lines = text.splitlines()
    header = ["territory", *LEAVES, *DOMAINS, "index"]
    if not lines or lines[0].split(",") != header:
        return ["score csv: unexpected header"]
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        return ["score csv: row with the wrong number of cells"]
    return _check_ranked(rows, {t: e for (t, _), e in expected.items()}, "score csv",
                         leaves=True)


def check_series_table(text: str, expected: dict[tuple[str, int], Expected]) -> list[str]:
    periods = sorted({p for _, p in expected})
    blocks = text.rstrip("\n").split("\n\n")
    if len(blocks) != len(periods):
        return [f"series table: expected {len(periods)} period blocks, got {len(blocks)}"]
    problems = []
    for period, block in zip(periods, blocks):
        lines = block.split("\n")
        if lines[0] != f"period {period}" or lines[1].split() != ["territory", "index", *DOMAINS]:
            problems.append(f"series table: malformed block for period {period}")
            continue
        rows = []
        for line in lines[3:]:
            cells = line.split()
            rows.append([" ".join(cells[:-7])] + cells[-7:])
        problems += _check_ranked(
            rows, {t: e for (t, p), e in expected.items() if p == period},
            f"series table period {period}", leaves=False)
    return problems


def _quantile(sorted_values: list[float], q: float) -> float:
    pos = (len(sorted_values) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary_row(values: list[float]) -> list[float]:
    """mean, population sd, cv, min, p25, p50, p75, max."""
    s = sorted(values)
    mean = math.fsum(s) / len(s)
    sd = math.sqrt(math.fsum((x - mean) ** 2 for x in s) / len(s))
    return [mean, sd, sd / mean, s[0], _quantile(s, 0.25), _quantile(s, 0.5),
            _quantile(s, 0.75), s[-1]]


def pearson(a: list[float], b: list[float]) -> float:
    ma, mb = math.fsum(a) / len(a), math.fsum(b) / len(b)
    da = [x - ma for x in a]
    db = [y - mb for y in b]
    cov = math.fsum(x * y for x, y in zip(da, db))
    r = cov / math.sqrt(math.fsum(x * x for x in da) * math.fsum(y * y for y in db))
    return max(-1.0, min(1.0, r))


def report_expectations(path: Path) -> tuple[dict[str, Expected], dict, dict]:
    """Oracle for ``report``: per-territory results, summary rows, correlations."""
    table = read_score_table(path)
    expected = {terr: fold(scores) for terr, scores in table.items()}
    columns = {"index": [e.index for e in expected.values()]}
    for dom in DOMAINS:
        columns[dom] = [e.domains[dom] for e in expected.values()]
    for leaf in LEAVES:
        columns[leaf] = [row[leaf] for row in table.values()]
    summaries = {name: summary_row(vals) for name, vals in columns.items()}
    corr = {(a, b): pearson(columns[a], columns[b])
            for i, a in enumerate(LEAVES) for b in LEAVES[i + 1:]}
    return expected, summaries, corr


def check_report_csv(text: str, oracle: tuple[dict[str, Expected], dict, dict]) -> list[str]:
    expected, summaries, corr = oracle
    sections = text.rstrip("\n").split("\n\n")
    titles = ["# ranking", "# summaries", "# correlation"]
    if [s.split("\n", 1)[0] for s in sections] != titles:
        return ["report csv: expected ranking, summaries and correlation sections"]
    ranking, summary, correlation = ([line.split(",") for line in s.split("\n")[1:]]
                                     for s in sections)
    if ranking[0] != ["territory", "index", *DOMAINS]:
        return ["report csv: unexpected ranking header"]
    problems = _check_ranked(ranking[1:], expected, "report ranking", leaves=False)
    names = [row[0] for row in summary[1:]]
    if names != list(summaries):
        return problems + ["report csv: unexpected summary rows"]
    for row in summary[1:]:
        for printed, exact in zip(row[1:], summaries[row[0]]):
            if not _close(printed, exact, 2):
                problems.append(f"report summaries: {row[0]}: printed {printed}, "
                                f"oracle {exact:.6f}")
    if correlation[0] != ["indicator", *LEAVES] or [r[0] for r in correlation[1:]] != list(LEAVES):
        return problems + ["report csv: malformed correlation matrix"]
    for i, row in enumerate(correlation[1:]):
        for j, printed in enumerate(row[1:]):
            a, b = LEAVES[i], LEAVES[j]
            exact = 1.0 if i == j else corr[(a, b) if i < j else (b, a)]
            if not _close(printed, exact, 2):
                problems.append(f"report correlation: {a}/{b}: printed {printed}, "
                                f"oracle {exact:.6f}")
    return problems[:6]
