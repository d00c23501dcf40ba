"""Scalar formulas turning gendered observations into 0-100 indicator scores.

Two scoring families are provided. The classic level-based family
(``gei_*``, ``score_gei``) compares women's achievement to the total
population's and rescales to 1-100. The symmetric family used throughout
this package (``gap_metric``, ``correction_coefficient``,
``score_standard`` and the per-kind variants) treats the two genders
interchangeably, rescales to 0-100, and discounts each territory by its
achievement relative to a reference midway between its own average and
the best-performing territory's.

All functions are pure and operate on immutable scalars; they are safe
to call concurrently.
"""

from __future__ import annotations

import sys
from enum import Enum
from math import isnan
from operator import add
from typing import Sequence

from igei.errors import (
    DegenerateInputError,
    InconsistentReferenceError,
    MetricInputError,
    OutOfModelError,
)


class MetricKind(str, Enum):
    """How an indicator's raw observation is turned into a score."""

    STANDARD = "standard"  # women/men levels plus a total-population level
    SHARE = "share"        # single share in [0, 1]; the male share is its complement
    RATIO = "ratio"        # single positive ratio of two female rates
    CAPPED = "capped"      # single non-negative coverage ratio, capped at 1


# bound once for the guards below, which NaN fails; two levels at most _HALF_MAX sum to a float
_INF, _HALF_MAX = float("inf"), sys.float_info.max / 2


def gap_metric(x_w: float, x_m: float) -> float:
    """Relative gender gap ``|x_w - x_m| / (x_w + x_m)``.

    Symmetric in the two genders and bounded to [0, 1] for any
    non-negative levels: 0 means identical outcomes, 1 means one
    gender's outcome is zero.

    Raises:
        DegenerateInputError: if both levels are zero (0/0 is undefined;
            upstream validation should reject such observations).
    """
    if not (0.0 <= x_w <= _HALF_MAX and 0.0 <= x_m <= _HALF_MAX):
        raise MetricInputError(f"levels must lie in [0, {_HALF_MAX!r}], got ({x_w}, {x_m})")
    if x_w + x_m == 0:
        raise DegenerateInputError("gender gap is undefined when both levels are zero")
    return _gap(x_w, x_m)


def _gap(x_w: float, x_m: float) -> float:
    """:func:`gap_metric`'s formula, for levels it accepts."""
    return abs(x_w - x_m) / (x_w + x_m)


def _some_degenerate(x_w: Sequence[float], x_m: Sequence[float]) -> bool:
    """Whether some row of two columns of non-negative levels has both levels
    zero, which :func:`gap_metric` refuses: its sum alone is then 0.0."""
    return 0.0 in x_w and 0.0 in x_m and 0.0 in map(add, x_w, x_m)


def gei_gap_metric(x_w: float, x_a: float) -> float:
    """Level-based gender gap ``|1 - x_w / x_a|``.

    Unlike :func:`gap_metric` this compares women's level to the total
    population's and is not bounded above by 1 when ``x_w > 2 * x_a``;
    callers scoring with it must treat values above 1 as out of model.
    """
    if not 0.0 <= x_w < _INF:
        raise MetricInputError(f"women's level must be finite and non-negative, got {x_w}")
    if not 0.0 < x_a < _INF:
        raise DegenerateInputError(f"total level must be finite and positive, got {x_a}")
    gamma = abs(1.0 - x_w / x_a)
    if gamma == _INF:
        raise OutOfModelError(f"level-based gap of {x_w} to {x_a} overflows the float range")
    return gamma


def correction_coefficient(x_a: float, x_ref: float) -> float:
    """Achievement correction ``2 * x_a / (x_ref + x_a)``.

    ``x_ref`` is the maximum achievement over the territory set, so the
    coefficient lies in [0, 1], reaching 1 only for the best performer.
    Relative to the plain ratio ``x_a / x_ref`` it compares a territory
    to a reference midway between its own level and the best one,
    softening the shadow the top performer casts on weak territories.
    """
    _check_achievement(x_a, x_ref)
    return _correction(x_a, x_ref)


def _correction(x_a: float, x_ref: float) -> float:
    """:func:`correction_coefficient`'s formula, for levels it accepts."""
    return 2.0 * x_a / (x_ref + x_a)


def gei_correction_coefficient(x_a: float, x_ref: float) -> float:
    """Classic achievement correction ``x_a / x_ref``."""
    _check_achievement(x_a, x_ref)
    return x_a / x_ref


def _check_achievement(x_a: float, x_ref: float) -> None:
    """Refuse what neither achievement correction is defined for; NaN fails every test."""
    if not 0.0 < x_ref <= _HALF_MAX:
        raise MetricInputError(f"reference maximum must lie in (0, {_HALF_MAX!r}], got {x_ref}")
    if not 0.0 <= x_a:
        raise MetricInputError(f"achievement must be a non-negative number, got {x_a}")
    if x_a > x_ref:
        raise InconsistentReferenceError(
            f"achievement {x_a} exceeds reference maximum {x_ref}"
        )


def score_standard(x_w: float, x_m: float, correction: float | None = None) -> float:
    """Standard indicator score on the 0-100 scale.

    Multiplies the symmetric gap's complement by the optional correction:
    ``correction * (1 - gap_metric(x_w, x_m)) * 100``. The achievement-corrected
    score passes ``correction_coefficient(x_a, x_ref)``.
    """
    gap_metric(x_w, x_m)
    return _standard(x_w, x_m, _factor(correction))


def _standard(x_w: float, x_m: float, factor: float) -> float:
    """:func:`score_standard`'s formula, for levels it accepts and a factor in [0, 1]."""
    return factor * (1.0 - _gap(x_w, x_m)) * 100.0


def score_gei(x_w: float, x_a: float, x_ref: float) -> float:
    """Classic level-based indicator score on the 1-100 scale.

    ``1 + (x_a / x_ref) * (1 - |1 - x_w / x_a|) * 99``. The floor of 1
    was chosen historically so that downstream geometric aggregation
    never meets a zero.

    Raises:
        OutOfModelError: if the level-based gap exceeds 1 (women's level
            more than twice the total), where the scaled score would
            fall below its floor.
    """
    gamma = gei_gap_metric(x_w, x_a)
    if gamma > 1.0:
        raise OutOfModelError(
            f"level-based gap {gamma} exceeds 1; observation is outside the model"
        )
    alpha = gei_correction_coefficient(x_a, x_ref)
    return 1.0 + alpha * (1.0 - gamma) * 99.0


def invert_polarity(x: float) -> float:
    """Reverse a rate's direction: ``1 - x``.

    Only defined for rates in [0, 1]; used to fold indicators where a
    higher rate means worse outcomes (e.g. smoking) into the scoring
    convention where higher is better.
    """
    if not 0.0 <= x <= 1.0:
        raise MetricInputError(f"polarity inversion is only defined for rates, got {x}")
    return _invert(x)


def _invert(x: float) -> float:
    """:func:`invert_polarity`'s formula, for a rate in [0, 1]."""
    return 1.0 - x


def _complete(column: Sequence[float | None]) -> bool:
    """``None not in column`` for floats and None only, at C speed: ``sum`` raises at a None."""
    try:
        sum(column)
    except TypeError:
        return False
    return True


def _all_rates(levels: Sequence[float | None]) -> bool:
    """Whether :func:`invert_polarity` accepts every non-negative level of a
    column, skipping blanks (None)."""
    if not _complete(levels):
        levels = [v for v in levels if v is not None]
    return not levels or max(levels) <= 1.0


def _within(column: Sequence[float], low: float, high: float) -> bool:
    """Whether every value of ``column`` lies in [low, high]: a NaN makes the sum NaN."""
    return not column or (low <= min(column) and max(column) <= high and not isnan(sum(column)))


def score_share(share: float, correction: float | None = None) -> float:
    """Score a single share whose complement plays the male role.

    With ``s`` the women's share, the gap metric collapses to
    ``1 - |1 - 2s|``; the optional correction multiplies it before
    rescaling to 0-100. A share of 0.5 scores 100 (times the correction).
    """
    if not 0.0 <= share <= 1.0:
        raise MetricInputError(f"share must lie in [0, 1], got {share}")
    return _share(share, _factor(correction))


def _share(share: float, factor: float) -> float:
    """:func:`score_share`'s formula, for a share in [0, 1] and a factor in [0, 1]."""
    return factor * (1.0 - abs(1.0 - 2.0 * share)) * 100.0


def score_ratio(ratio: float, correction: float | None = None) -> float:
    """Score a positive ratio of two female rates.

    Writing the ratio ``r = num / den`` turns the symmetric gap into
    ``|r - 1| / (r + 1)``, so the score is
    ``correction * (1 - |r - 1| / (r + 1)) * 100`` (the correction is 1
    when omitted) and is invariant under ``r <-> 1/r``.
    """
    if not 0.0 < ratio < _INF:
        raise MetricInputError(f"ratio must be finite and positive, got {ratio}")
    return _ratio(ratio, _factor(correction))


def _ratio(ratio: float, factor: float) -> float:
    """:func:`score_ratio`'s formula, for a finite positive ratio and a factor in [0, 1]."""
    return factor * (1.0 - abs(ratio - 1.0) / (ratio + 1.0)) * 100.0


def _factor(correction: float | None) -> float:
    """A scorer's optional correction, 1 when omitted; NaN fails the range test."""
    if correction is None:
        return 1.0
    if not 0.0 <= correction <= 1.0:
        raise MetricInputError(f"correction must lie in [0, 1], got {correction}")
    return correction


def score_capped(value: float) -> float:
    """Score a coverage ratio as ``min(1, value) * 100``, with no correction."""
    if not 0.0 <= value < _INF:
        raise MetricInputError(f"coverage ratio must be finite and non-negative, got {value}")
    return _capped(value)


def _capped(value: float) -> float:
    """:func:`score_capped`'s formula, for a finite non-negative ratio."""
    return min(1.0, value) * 100.0
