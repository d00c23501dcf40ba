import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from igei.errors import (
    DegenerateInputError,
    InconsistentReferenceError,
    MetricInputError,
    OutOfModelError,
)
from igei.metrics import (
    _complete,
    correction_coefficient,
    gap_metric,
    gei_correction_coefficient,
    gei_gap_metric,
    invert_polarity,
    score_capped,
    score_gei,
    score_ratio,
    score_share,
    score_standard,
)

levels = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
positive_levels = st.floats(min_value=1e-6, max_value=1e6)
rates = st.floats(min_value=0.0, max_value=1.0)

# The published five-country demonstration: (x_w, x_m, x_a) with x_a the mean
# of x_w and x_m, reference maximum 0.9, and the two printed score columns.
FIVE_COUNTRIES = [
    ("A", 0.1, 0.3, 0.2, 12.00, 18.18),
    ("B", 0.1, 0.9, 0.5, 12.00, 14.29),
    ("C", 0.4, 0.6, 0.5, 45.00, 57.14),
    ("D", 0.4, 0.8, 0.6, 45.00, 53.33),
    ("E", 0.8, 1.0, 0.9, 89.00, 88.89),
]


class TestGapMetric:
    def test_direct_evaluation(self):
        assert gap_metric(0.1, 0.3) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("c", [0.3, 1.0, 5.0, 1e-9])
    def test_perfect_balance(self, c):
        assert gap_metric(c, c) == 0.0

    def test_one_sided_is_full_gap(self):
        assert gap_metric(0.0, 5.0) == 1.0
        assert gap_metric(5.0, 0.0) == 1.0

    def test_both_zero_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            gap_metric(0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(MetricInputError):
            gap_metric(-0.1, 0.3)

    @given(x_w=levels, x_m=levels)
    def test_symmetric_and_bounded(self, x_w, x_m):
        if x_w + x_m == 0:
            return
        g = gap_metric(x_w, x_m)
        assert g == gap_metric(x_m, x_w)
        assert 0.0 <= g <= 1.0


class TestGeiGapMetric:
    def test_direct_evaluation(self):
        assert gei_gap_metric(0.1, 0.2) == pytest.approx(0.5, abs=1e-12)

    def test_identity_case(self):
        assert gei_gap_metric(0.7, 0.7) == 0.0

    def test_full_inequality(self):
        assert gei_gap_metric(0.0, 0.5) == 1.0

    def test_zero_total_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            gei_gap_metric(0.1, 0.0)

    def test_can_exceed_one(self):
        # women's level above twice the total: flagged by score_gei, not here
        assert gei_gap_metric(0.5, 0.2) > 1.0


class TestCorrections:
    def test_direct_evaluation(self):
        assert correction_coefficient(0.2, 0.9) == pytest.approx(4 / 11, abs=1e-12)

    def test_best_performer(self):
        assert correction_coefficient(0.9, 0.9) == 1.0

    def test_zero_achievement(self):
        assert correction_coefficient(0.0, 0.9) == 0.0

    def test_above_reference_rejected(self):
        with pytest.raises(InconsistentReferenceError):
            correction_coefficient(1.0, 0.9)

    def test_zero_reference_rejected(self):
        with pytest.raises(MetricInputError):
            correction_coefficient(0.0, 0.0)

    def test_gei_variant(self):
        assert gei_correction_coefficient(0.2, 0.9) == pytest.approx(2 / 9, abs=1e-12)
        assert gei_correction_coefficient(0.9, 0.9) == 1.0
        assert gei_correction_coefficient(0.45, 0.9) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(InconsistentReferenceError):
            gei_correction_coefficient(1.0, 0.9)

    @given(x_a=levels, x_ref=positive_levels)
    def test_bounded(self, x_a, x_ref):
        if x_a > x_ref:
            return
        assert 0.0 <= correction_coefficient(x_a, x_ref) <= 1.0
        assert 0.0 <= gei_correction_coefficient(x_a, x_ref) <= 1.0


class TestStandardAndGeiScores:
    @pytest.mark.parametrize("name,x_w,x_m,x_a,exp_gei,exp_std", FIVE_COUNTRIES)
    def test_published_comparison(self, name, x_w, x_m, x_a, exp_gei, exp_std):
        std = score_standard(x_w, x_m, correction_coefficient(x_a, 0.9))
        assert std == pytest.approx(exp_std, abs=0.005)
        assert score_gei(x_w, x_a, 0.9) == pytest.approx(exp_gei, abs=0.005)

    def test_score_ordering_matches_published_rows(self):
        # the symmetric variant scores higher for the four weaker countries
        # and lower only for the top one
        for name, x_w, x_m, x_a, exp_gei, exp_std in FIVE_COUNTRIES:
            std = score_standard(x_w, x_m, correction_coefficient(x_a, 0.9))
            gei = score_gei(x_w, x_a, 0.9)
            if name == "E":
                assert gei > std
            else:
                assert std > gei

    def test_correction_is_optional(self):
        # uncorrected, the score is the gap's complement alone
        assert score_standard(0.4, 0.6) == (1.0 - gap_metric(0.4, 0.6)) * 100.0
        assert score_standard(0.4, 0.6, 0.5) == 0.5 * score_standard(0.4, 0.6)
        with pytest.raises(MetricInputError, match="correction"):
            score_standard(0.4, 0.6, 1.5)

    def test_gei_perfect_equality_at_max(self):
        assert score_gei(0.9, 0.9, 0.9) == pytest.approx(100.0, abs=1e-12)

    def test_gei_out_of_model(self):
        with pytest.raises(OutOfModelError):
            score_gei(0.5, 0.2, 0.9)

    @given(x_w=levels, x_m=levels, x_a=levels, x_ref=positive_levels)
    def test_standard_bounded(self, x_w, x_m, x_a, x_ref):
        if x_w + x_m == 0 or x_a > x_ref:
            return
        assert 0.0 <= score_standard(x_w, x_m, correction_coefficient(x_a, x_ref)) <= 100.0

    @given(c=positive_levels, x_a=levels, x_ref=positive_levels)
    def test_equality_fixed_point(self, c, x_a, x_ref):
        if x_a > x_ref:
            return
        alpha = correction_coefficient(x_a, x_ref)
        assert score_standard(c, c, correction_coefficient(x_a, x_ref)) == pytest.approx(
            alpha * 100.0, rel=1e-12
        )

    @given(x_m=positive_levels, x_a=levels, x_ref=positive_levels)
    def test_annihilation(self, x_m, x_a, x_ref):
        if x_a > x_ref:
            return
        assert score_standard(0.0, x_m, correction_coefficient(x_a, x_ref)) == 0.0

    def test_midpoint_identity_exact(self):
        # dyadic inputs make the algebraic identity exact in floating point
        x_w, x_m, x_ref = 0.25, 0.75, 0.5
        x_a = (x_w + x_m) / 2
        alpha = correction_coefficient(x_a, x_ref)
        gamma = gap_metric(x_w, x_m)
        assert alpha * (1 - gamma) == 2 * x_w / (x_ref + x_a)

    @given(x_w=positive_levels, x_m=positive_levels, x_ref=positive_levels)
    def test_midpoint_identity(self, x_w, x_m, x_ref):
        # with x_a the mean of the gendered levels, the corrected gap
        # compares women's level to the midpoint of x_ref and x_a
        x_w, x_m = min(x_w, x_m), max(x_w, x_m)
        x_a = (x_w + x_m) / 2
        if x_a > x_ref:
            return
        alpha = correction_coefficient(x_a, x_ref)
        gamma = gap_metric(x_w, x_m)
        assert alpha * (1 - gamma) == pytest.approx(
            2 * x_w / (x_ref + x_a), rel=1e-12
        )

    def test_monotonic_penalty_in_male_level(self):
        # fixed women's level, total tied to the gender mean: the score
        # strictly decreases as men's level grows
        x_w, x_ref = 0.3, 2.0
        previous = None
        for step in range(0, 40):
            x_m = x_w + step * 0.05
            x_a = (x_w + x_m) / 2
            score = score_standard(x_w, x_m, correction_coefficient(x_a, x_ref))
            if previous is not None:
                assert score < previous
            previous = score


class TestInvertPolarity:
    @pytest.mark.parametrize("x,expected", [(0.3, 0.7), (0.0, 1.0), (1.0, 0.0)])
    def test_examples(self, x, expected):
        assert invert_polarity(x) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 40.0])
    def test_non_rates_rejected(self, x):
        with pytest.raises(MetricInputError):
            invert_polarity(x)

    @given(x=rates)
    def test_involution(self, x):
        assert invert_polarity(invert_polarity(x)) == pytest.approx(x, abs=1e-15)


class TestScoreShare:
    def test_balanced_share(self):
        assert score_share(0.5) == pytest.approx(100.0, abs=1e-12)

    def test_published_inverse(self):
        # 1 - |1 - 2 * 0.143| = 0.286, scoring 28.60
        assert score_share(0.143) == pytest.approx(28.60, abs=1e-9)

    def test_no_representation(self):
        assert score_share(0.0) == 0.0

    def test_correction_scales(self):
        assert score_share(0.5, 0.25) == pytest.approx(25.0, abs=1e-12)

    def test_bad_share(self):
        with pytest.raises(MetricInputError):
            score_share(1.2)

    def test_bad_correction(self):
        with pytest.raises(MetricInputError):
            score_share(0.5, 1.5)

    @given(share=rates, alpha=rates)
    def test_bounded(self, share, alpha):
        assert 0.0 <= score_share(share, alpha) <= 100.0


class TestScoreRatio:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_balanced_ratio_leaves_correction(self, alpha):
        assert score_ratio(1.0, alpha) == pytest.approx(alpha * 100.0, abs=1e-12)

    def test_examples(self):
        assert score_ratio(3.0) == score_ratio(3.0, 1.0)
        assert score_ratio(3.0, 1.0) == pytest.approx(50.0, abs=1e-12)
        assert score_ratio(1 / 3, 1.0) == pytest.approx(50.0, abs=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(MetricInputError):
            score_ratio(0.0, 1.0)
        with pytest.raises(MetricInputError):
            score_ratio(-2.0, 1.0)

    @given(r=st.floats(min_value=1e-6, max_value=1e6), alpha=rates)
    def test_reciprocal_symmetry(self, r, alpha):
        assert score_ratio(r, alpha) == pytest.approx(
            score_ratio(1.0 / r, alpha), rel=1e-9, abs=1e-9
        )

    @given(r=st.floats(min_value=1e-6, max_value=1e6), alpha=rates)
    def test_bounded(self, r, alpha):
        assert 0.0 <= score_ratio(r, alpha) <= 100.0


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInputs:
    # each once returned a wrong finite score or nan
    @pytest.mark.parametrize(
        "formula, args",
        [
            (score_capped, (NAN,)),
            (score_capped, (INF,)),
            (gap_metric, (NAN, 1.0)),
            (gap_metric, (1.0, INF)),
            (gap_metric, (1e308, 1.7e308)),
            (gei_gap_metric, (NAN, 1.0)),
            (gei_gap_metric, (1.0, NAN)),
            (gei_gap_metric, (1e308, 1e-10)),
            (correction_coefficient, (NAN, 1.0)),
            (correction_coefficient, (0.5, NAN)),
            (correction_coefficient, (1e308, 1e308)),
            (gei_correction_coefficient, (NAN, 1.0)),
            (gei_correction_coefficient, (0.5, INF)),
            (score_ratio, (NAN, 1.0)),
            (score_ratio, (INF, 1.0)),
            (score_share, (NAN,)),
            (score_gei, (NAN, 1.0, 1.0)),
            (score_gei, (0.5, 0.5, NAN)),
            (score_standard, (0.4, 0.6, NAN)),
            (invert_polarity, (NAN,)),
        ],
    )
    def test_refused(self, formula, args):
        with pytest.raises(MetricInputError):
            formula(*args)

    def test_corrections_share_one_guard(self):
        for coefficient in (correction_coefficient, gei_correction_coefficient):
            with pytest.raises(MetricInputError) as info:
                coefficient(0.5, 0.0)
            assert str(info.value) == (
                "reference maximum must lie in (0, 8.988465674311579e+307], got 0.0"
            )
            with pytest.raises(InconsistentReferenceError):
                coefficient(0.6, 0.5)


class TestScoreCapped:
    def test_published_value(self):
        assert score_capped(0.412) == pytest.approx(41.20, abs=1e-9)

    def test_cap(self):
        assert score_capped(1.3) == 100.0

    def test_zero(self):
        assert score_capped(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(MetricInputError):
            score_capped(-0.1)

    @given(x=levels)
    def test_bounded(self, x):
        assert 0.0 <= score_capped(x) <= 100.0


class TestBlankTest:
    @given(st.lists(st.none() | st.floats(), max_size=8).map(tuple))
    @example(())
    @example((None,))
    @example((None, 1.0, 2.0))
    @example((1.0, 2.0, None))
    @example((math.nan, math.inf, -math.inf, -0.0))
    @example((math.inf, -math.inf, None))
    @example((1e308, 1e308, None))
    def test_equals_none_not_in(self, column):
        assert _complete(column) == (None not in column)
