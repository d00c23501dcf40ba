"""Benchmark workloads and the seeded input generator (stdlib only).

Every workload is closed loop: one caller runs each CLI invocation to
completion before it starts the next.  The generator draws only from
``random.Random(seed).random()`` and writes numbers with fixed decimals,
so one seed gives byte-identical files on every run and platform.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from spec import INDICATORS, LEAVES

OBSERVATION_HEADER = "territory,indicator,period,kind,x_w,x_m,x_a,value"
FIRST_PERIOD = 2016


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # "score" (observations) or "report" (score table)
    territories: int
    periods: int
    argv: tuple[str, ...]   # CLI arguments after the input file
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        # 1,000 territories x 1 period x 20 indicators = 20,000 observation rows;
        # at 2,000 a run held only six invocations and its fastest one spread
        # most, while reference resolution is still the largest layer at 1,000
        Workload(
            "score-wide", "score", 1000, 1, ("--format", "csv"),
            "many territories in one period: reference resolution and the"
            " Dataset index dominate, then observation parsing and validation",
        ),
        # 300 territories x 8 periods x 20 indicators = 48,000 observation rows
        Workload(
            "score-series", "score", 300, 8, ("--time-series",),
            "same layers keyed by period: frozen references, the per-period"
            " coverage check and per-period table rendering",
        ),
        # 5,000 territories x 20 indicator scores
        Workload(
            "report-scores", "report", 5000, 1, ("--format", "csv"),
            "skips observations and references: score-table loading, 85,000"
            " penalized means, statistics and the report's scope check",
        ),
    )
}

# (low, high) of the gendered levels of each standard indicator, and the
# decimals they are written with
STANDARD_LEVELS = {
    "G1": (0.35, 0.85, 4), "G2": (0.03, 0.35, 4), "G4": (12000.0, 38000.0, 1),
    "G5": (9000.0, 26000.0, 1), "G6": (0.15, 0.55, 4), "G7": (0.05, 0.25, 4),
    "G8": (0.20, 0.70, 4), "G11": (0.10, 0.35, 4), "G12": (0.04, 0.20, 4),
    "G15": (78.0, 86.0, 2), "G16": (50.0, 68.0, 2), "G17": (60.0, 75.0, 2),
    "G18": (0.08, 0.30, 4), "G19": (0.05, 0.35, 4), "G20": (0.10, 0.30, 4),
}
# single-value indicators: share, ratio and capped coverage
VALUE_LEVELS = {
    "G3": (0.15, 0.45), "G13": (0.20, 0.50), "G14": (0.10, 0.50),
    "G9": (0.55, 1.15), "G10": (0.10, 1.20),
}


def territory_names(n: int) -> list[str]:
    return [f"Region {i:05d}" for i in range(1, n + 1)]


def _observation_rows(rng: random.Random, territories: int, periods: int) -> list[str]:
    def u(lo: float, hi: float) -> float:
        return lo + (hi - lo) * rng.random()

    rows = []
    for terr in territory_names(territories):
        base = {ind: u(*VALUE_LEVELS[ind]) for ind in VALUE_LEVELS}
        base.update({ind: u(lo, hi) for ind, (lo, hi, _) in STANDARD_LEVELS.items()})
        for p in range(periods):
            period = 2023 if periods == 1 else FIRST_PERIOD + p
            for ind in LEAVES:
                kind = INDICATORS[ind][0]
                jitter = u(0.95, 1.05) if periods > 1 else 1.0
                if kind == "standard":
                    lo, hi, dec = STANDARD_LEVELS[ind]
                    x_m = min(hi, base[ind] * jitter)
                    x_w = x_m * u(0.60, 1.15)
                    x_a = x_w * u(0.45, 0.55) + x_m * u(0.45, 0.55)
                    cells = [f"{x_w:.{dec}f}", f"{x_m:.{dec}f}", f"{x_a:.{dec}f}", ""]
                    if INDICATORS[ind][2] != "own" and rng.random() < 0.5:
                        cells[2] = ""  # an external correction ignores x_a
                else:
                    cells = ["", "", "", f"{base[ind] * jitter:.4f}"]
                rows.append(",".join([terr, ind, str(period), kind] + cells))
    return rows


def observation_text(seed: int, territories: int, periods: int) -> str:
    rng = random.Random(seed)
    rows = _observation_rows(rng, territories, periods)
    head = f"# synthetic observations: seed {seed}, {territories} x {periods}"
    return "\n".join([head, OBSERVATION_HEADER] + rows) + "\n"


def score_table_text(seed: int, territories: int) -> str:
    rng = random.Random(seed)
    # each indicator gets its own centre and spread; the capped indicator
    # often saturates at exactly 100
    shape = {ind: (20.0 + 60.0 * rng.random(), 5.0 + 15.0 * rng.random())
             for ind in LEAVES}
    rows = []
    for terr in territory_names(territories):
        cells = []
        for ind in LEAVES:
            centre, spread = shape[ind]
            if ind == "G10":
                centre, spread = 85.0, 45.0
            v = centre + spread * (2.0 * rng.random() - 1.0)
            cells.append(f"{min(100.0, max(0.0, v)):.3f}")
        rows.append(",".join([terr] + cells))
    head = f"# synthetic indicator scores: seed {seed}, {territories} territories"
    return "\n".join([head, ",".join(("territory",) + LEAVES)] + rows) + "\n"


def input_text(workload: Workload, seed: int, half: bool = False) -> str:
    n = workload.territories // 2 if half else workload.territories
    if workload.command == "score":
        return observation_text(seed, n, workload.periods)
    return score_table_text(seed, n)


def write_input(workload: Workload, seed: int, directory: Path, half: bool = False) -> Path:
    path = directory / f"{workload.name}{'-half' if half else ''}.csv"
    path.write_text(input_text(workload, seed, half), encoding="utf-8")
    return path


def cli_args(workload: Workload, data: Path, out: Path) -> list[str]:
    return [workload.command, "--data", str(data), *workload.argv, "--out", str(out)]
