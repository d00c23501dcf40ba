"""Weighted means and the variance-penalized means used for aggregation.

The penalized arithmetic mean shifts the weighted mean by
``var(x) / (2 * ran(x))``: downward for positive-polarity data (imbalance
among components is bad) and upward for negative polarity. The shifted
value never leaves the ``[min(x), max(x)]`` envelope, and for positive
values the same ``var / (2 * bound)`` quantity brackets the gap between
the arithmetic and geometric means (the Cartwright-Field refinement of
the AM-GM inequality).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, Sequence, Union

from igei._frozen import Frozen
from igei.errors import AggregationError

# Weights must sum to 1 within this tolerance.
WEIGHT_SUM_TOLERANCE = 1e-12

# Spreads at or below this are treated as constant sequences: the penalty is
# skipped instead of dividing by a vanishing range.
RANGE_TOLERANCE = 1e-12

# Allowance for floating-point drift when validating 0-100 score ranges.
_SCORE_EPS = 1e-9


class Polarity(Enum):
    """Direction of a quantity's relationship to well-being."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


class WeightedSequence(Frozen):
    """Non-empty finite reals with finite, non-negative weights summing to one (default 1/n)."""

    def __init__(self, values: Iterable[float], weights: Iterable[float] | None = None):
        vals = tuple(float(v) for v in values)
        if not vals:
            raise AggregationError("sequence must contain at least one value")
        if weights is None:
            w = (1.0 / len(vals),) * len(vals)
        else:
            w = tuple(float(x) for x in weights)
            if len(w) != len(vals):
                raise AggregationError(f"{len(vals)} values but {len(w)} weights")
            if any(x < 0 for x in w):
                raise AggregationError("weights must be non-negative")
            if abs(sum(w) - 1.0) > WEIGHT_SUM_TOLERANCE:
                raise AggregationError(f"weights must sum to 1, got {sum(w)!r}")
        for what, xs in (("value", vals), ("weight", w)):
            if not all(map(math.isfinite, xs)):
                position = next(i for i, x in enumerate(xs, 1) if not math.isfinite(x))
                raise AggregationError(f"{what} {position} is not finite: {xs[position - 1]}")
        self._store(vals, w)

    def __len__(self) -> int:
        return len(self.values)


SequenceLike = Union[WeightedSequence, Sequence[float]]


def _unpack(seq: SequenceLike) -> tuple[Sequence[float], Sequence[float]]:
    """(values, weights) of ``seq``, read as a :class:`WeightedSequence`."""
    if not isinstance(seq, WeightedSequence):
        seq = WeightedSequence(seq)
    return seq.values, seq.weights


def _finite_fsum(terms: Iterable[float], what: str, error=AggregationError) -> float:
    """``math.fsum(terms)``, raising ``error`` unless the terms and their sum are finite."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a square or sum past the float range, or inf - inf
        total = math.nan
    if not -math.inf < total < math.inf:
        raise error(f"{what} is not finite")
    return total


def _mean(values: Sequence[float], weights: Sequence[float]) -> float:
    # fsum: correctly rounded, hence invariant under permutation of the terms
    return _finite_fsum((p * x for p, x in zip(weights, values)), "the mean")


def _variance_about(values: Sequence[float], weights: Sequence[float], m: float) -> float:
    return _finite_fsum((p * (x - m) ** 2 for p, x in zip(weights, values)), "the variance")


def weighted_mean(seq: SequenceLike) -> float:
    """Weighted mean; equals the arithmetic mean under uniform weights."""
    return _mean(*_unpack(seq))


def penalized_mean(seq: SequenceLike, polarity: Polarity = Polarity.POSITIVE) -> float:
    """Weighted mean shifted by ``var / (2 * range)`` against the polarity.

    Positive polarity subtracts the penalty, negative polarity adds it.
    Constant sequences (including single elements) are returned
    unpenalized, which also removes the division-by-zero case. The
    result always lies within ``[min(x), max(x)]``. ``polarity`` may be a value.
    """
    if polarity.__class__ is not Polarity:
        try:
            polarity = Polarity(polarity)
        except ValueError:
            raise AggregationError(f"unknown polarity {polarity!r:.40}") from None
    values, weights = _unpack(seq)
    ran = max(values) - min(values)
    if ran == 0.0:
        # exactly constant: the weighted mean is the constant itself
        return values[0]
    m = _mean(values, weights)
    if ran <= RANGE_TOLERANCE:
        return m
    penalty = _variance_about(values, weights, m) / (2.0 * ran)
    return m - penalty if polarity is Polarity.POSITIVE else m + penalty


def _fold_scores(values: Sequence[float]) -> float:
    """:func:`penalized_mean` of a node's child scores, refusing the first outside [0, 100].

    ``values`` is a non-empty list or tuple of floats.
    """
    for v in values:
        if not -_SCORE_EPS <= v <= 100.0 + _SCORE_EPS:
            raise AggregationError(f"scores must lie in [0, 100], got {v}")
    return penalized_mean(values)


def _pair_mean(a: float, b: float) -> float:
    """:func:`penalized_mean` of two scores, with plain sums for ``fsum``.

    A sum of two floats is correctly rounded, as ``fsum`` is; only the
    sign of a zero sum differs, and ``fsum`` gives +0.0.
    """
    ran = b - a if a < b else a - b
    if ran == 0.0:
        return a
    m = (0.5 * a + 0.5 * b) or 0.0
    if ran <= RANGE_TOLERANCE:
        return m
    return m - (0.5 * (a - m) ** 2 + 0.5 * (b - m) ** 2) / (2.0 * ran)


def geometric_mean(seq: SequenceLike) -> float:
    """Weighted geometric mean of strictly positive values."""
    values, weights = _unpack(seq)
    if any(x <= 0 for x in values):
        raise AggregationError("geometric mean requires strictly positive values")
    if min(values) == max(values):
        # constant: the product of x^p with weights summing to 1 is x itself
        return values[0]
    try:
        return math.exp(math.fsum(p * math.log(x) for p, x in zip(weights, values)))
    except OverflowError:  # weights a rounding above 1, at the top of the float range
        raise AggregationError("the geometric mean overflows the float range") from None


def cartwright_field_bounds(seq: SequenceLike, a: float, b: float) -> tuple[float, float]:
    """Bracket the arithmetic-minus-geometric mean difference.

    For values in ``[a, b]`` with ``a > 0``, returns
    ``(var / (2b), var / (2a))``; the difference between the weighted
    arithmetic and geometric means always lies between the two, and the
    constants are the best possible.
    """
    values, weights = _unpack(seq)
    if not a > 0:  # NaN fails it too
        raise AggregationError(f"lower bound must be strictly positive, got {a}")
    if not a <= min(values) <= max(values) <= b:
        raise AggregationError(
            f"bounds [{a}, {b}] do not enclose the values "
            f"[{min(values)}, {max(values)}]"
        )
    var = _variance_about(values, weights, _mean(values, weights))
    return var / (2.0 * b), var / (2.0 * a)
