"""Descriptive summaries, correlation matrices, and ranking tables.

Conventions match the published result tables: population standard
deviation (n denominator), coefficient of variation sd/mean, and
quantiles by linear interpolation between order statistics at position
``(n - 1) * q + 1``.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import mul, neg, sub
from typing import Iterable, Mapping, Sequence

from igei._frozen import Frozen
from igei.errors import StatisticsError
from igei.penalized import _finite_fsum
from igei.pipeline import TerritoryReport

# about the square root of the least normal float: products of two norms stay normal
_MIN_NORM = 1.5e-154


class DescriptiveSummary(Frozen):
    """Location, spread, and quartiles of one score column."""

    def __init__(self, mean: float, sd: float | None, cv: float | None, min: float,
                 p25: float, p50: float, p75: float, max: float) -> None:
        self._store(mean, sd, cv, min, p25, p50, p75, max)


def _quantile(ordered: Sequence[float], q: float) -> float:
    """Linear interpolation in sorted values at 0-based position ``(n - 1) * q``."""
    position = (len(ordered) - 1) * q
    lower = math.floor(position)
    if lower >= len(ordered) - 1:
        return ordered[-1]
    a, b, t = ordered[lower], ordered[lower + 1], position - lower
    # numpy's interpolation form, so printed digits match its percentiles
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def descriptive_summary(values: Iterable[float]) -> DescriptiveSummary:
    """Summarize a score column.

    ``sd`` is the population standard deviation and needs at least two
    values; ``cv = sd / mean`` is undefined (None) when the mean is zero.
    """
    return _summarize(list(map(float, values)))[0]


def _summarize(column: Sequence[float]) -> tuple[DescriptiveSummary, list[float] | None, float]:
    """The summary of a column of floats, its values centred on the mean in
    column order (None for a constant column), and their sum of squares.

    The column is sorted once and summed once; every result is independent
    of the row order.
    """
    ordered = sorted(column)
    n = len(ordered)
    if n == 0:
        raise StatisticsError("cannot summarize an empty sequence")
    # fsum: correctly rounded, hence exactly permutation-invariant
    total = _finite_fsum(ordered, "the sum of the values", StatisticsError)
    if ordered[0] == ordered[-1]:
        # constant: fsum(x) / n can miss x by an ulp, which would put the
        # mean outside [min, max] and give a spurious nonzero sd
        mean, centred, squares = ordered[0], None, 0.0
    else:
        mean = total / n
        centred = list(map(sub, column, repeat(mean)))
        squares = _finite_fsum(
            map(mul, centred, centred), "the sum of squared deviations", StatisticsError
        )
    sd = math.sqrt(squares / n) if n >= 2 else None
    cv = sd / mean if sd is not None and mean != 0 else None
    if cv is not None and not -math.inf < cv < math.inf:
        raise StatisticsError(f"the coefficient of variation sd / mean = {sd} / {mean} overflows")
    summary = DescriptiveSummary(
        mean=mean,
        sd=sd,
        cv=cv,
        min=ordered[0],
        p25=_quantile(ordered, 0.25),
        p50=_quantile(ordered, 0.5),
        p75=_quantile(ordered, 0.75),
        max=ordered[-1],
    )
    return summary, centred, squares


def correlation_matrix(columns: Sequence[Sequence[float]]) -> dict[tuple[int, int], float]:
    """Pairwise Pearson correlations of equal-length columns.

    Returns a mapping keyed by ``(i, j)`` column positions, with both
    orders of every pair present, unit diagonal, and every value clipped
    to [-1, 1].
    """
    if len(columns) < 2:
        raise StatisticsError("need at least two columns to correlate")
    lengths = {len(c) for c in columns}
    if len(lengths) != 1:
        raise StatisticsError("columns must all have the same length")
    n = lengths.pop()
    if n < 3:
        raise StatisticsError("need at least three observations per column")
    centred, norms = [], []
    for i, col in enumerate(columns):
        # one sum per column: NaN and inf leave it non-finite
        mean = _finite_fsum(col, f"column {i}'s sum", StatisticsError) / n
        if min(col) == max(col):  # its centred values need not be exactly zero
            centred.append(None)
            continue
        centred.append(list(map(sub, col, repeat(mean))))
        squares = map(mul, centred[-1], centred[-1])
        norms.append(_norm(
            _finite_fsum(squares, f"column {i}'s sum of squares", StatisticsError), i
        ))
    return _pearson(centred, norms)


def report_statistics(
    columns: Mapping[str, Sequence[float]], correlated: Sequence[str]
) -> tuple[dict[str, DescriptiveSummary], dict[tuple[int, int], float]]:
    """:func:`descriptive_summary` of every column of floats, and
    :func:`correlation_matrix` of the ``correlated`` ones, in that order.

    Bit for bit the same values and errors; each column is sorted and
    summed once, and each correlated column is centred once.
    """
    summaries, moments = {}, {}
    for name, column in columns.items():
        summaries[name], *moment = _summarize(column)
        if name in correlated:
            moments[name] = moment
    if len(correlated) < 2:
        raise StatisticsError("need at least two columns to correlate")
    if len(columns[correlated[0]]) < 3:
        raise StatisticsError("need at least three observations per column")
    centred, norms = [], []
    for i, name in enumerate(correlated):
        column_centred, squares = moments[name]
        centred.append(column_centred)
        if column_centred is not None:
            norms.append(_norm(squares, i))
    return summaries, _pearson(centred, norms)


def _norm(squares: float, position: int) -> float:
    """The root of a column's sum of squares, refused when a product of two would underflow."""
    norm = math.sqrt(squares)
    if norm < _MIN_NORM:
        raise StatisticsError(f"column {position} varies too little to correlate")
    return norm


def _pearson(
    centred: Sequence[list[float] | None], norms: Sequence[float]
) -> dict[tuple[int, int], float]:
    """The correlation matrix of centred columns (None for a constant one) and their norms."""
    constant = [i for i, column in enumerate(centred) if column is None]
    if constant:
        error = StatisticsError(
            f"correlation is undefined for constant columns "
            f"(positions {', '.join(map(str, constant))})"
        )
        error.positions = tuple(constant)
        raise error
    matrix: dict[tuple[int, int], float] = {}
    for i, ci in enumerate(centred):
        matrix[i, i] = 1.0
        for j in range(i + 1, len(centred)):
            r = math.fsum(map(mul, ci, centred[j])) / (norms[i] * norms[j])
            matrix[i, j] = matrix[j, i] = min(1.0, max(-1.0, r))
    return matrix


def rank_order(index: Sequence[float], territories: Sequence[str]) -> list[int]:
    """Row positions ordered by final index, best first; ties break alphabetically."""
    keys = list(zip(map(neg, index), territories))
    return sorted(range(len(keys)), key=keys.__getitem__)


def rank_table(reports: Iterable[TerritoryReport]) -> list[TerritoryReport]:
    """Order reports by final index, best first; ties break alphabetically."""
    reports = list(reports)
    order = rank_order([r.index for r in reports], [r.territory for r in reports])
    return [reports[i] for i in order]
