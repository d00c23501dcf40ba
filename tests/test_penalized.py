import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igei.errors import AggregationError
from igei.penalized import (
    Polarity,
    WeightedSequence,
    _fold_scores,
    cartwright_field_bounds,
    geometric_mean,
    penalized_mean,
    weighted_mean,
)
from igei.verify import load_penalized_reference

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def sequences(min_size=1, max_size=10, elements=finite):
    return st.lists(elements, min_size=min_size, max_size=max_size)


@st.composite
def weighted_sequences(draw, min_size=2, max_size=10, elements=finite):
    values = draw(sequences(min_size=min_size, max_size=max_size, elements=elements))
    raw = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=10.0),
            min_size=len(values),
            max_size=len(values),
        )
    )
    total = sum(raw)
    return WeightedSequence(values, [r / total for r in raw])


def spread(values):
    return max(values) - min(values)


class TestWeightedSequence:
    def test_uniform_default(self):
        seq = WeightedSequence([4, 6])
        assert seq.weights == (0.5, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            WeightedSequence([])

    def test_length_mismatch(self):
        with pytest.raises(AggregationError):
            WeightedSequence([1, 2], [1.0])

    def test_negative_weight(self):
        with pytest.raises(AggregationError):
            WeightedSequence([1, 2], [1.5, -0.5])

    def test_weights_must_sum_to_one(self):
        with pytest.raises(AggregationError):
            WeightedSequence([1, 2], [0.5, 0.6])


class TestWeightedMean:
    def test_two_values(self):
        assert weighted_mean([4, 6]) == pytest.approx(5.0, abs=1e-12)

    def test_single_element(self):
        assert weighted_mean([3.7]) == 3.7

    def test_nine_zeros_and_ten(self):
        assert weighted_mean([0] * 9 + [10]) == pytest.approx(1.0, abs=1e-12)

    def test_nonuniform(self):
        assert weighted_mean(WeightedSequence([1, 3], [0.75, 0.25])) == pytest.approx(
            1.5, abs=1e-12
        )


class TestPenalizedMean:
    def test_reference_sequences(self):
        for case in load_penalized_reference():
            assert weighted_mean(case.values) == pytest.approx(case.mean, abs=0.005)
            assert penalized_mean(case.values) == pytest.approx(
                case.penalized, abs=0.005
            )

    def test_polarity_given_as_its_value(self):
        # a value once failed the identity test and took the negative branch
        xs = [10.0, 90.0]
        assert penalized_mean(xs, "positive") == penalized_mean(xs, Polarity.POSITIVE) == 40.0
        assert penalized_mean(xs, "negative") == penalized_mean(xs, Polarity.NEGATIVE) == 60.0
        for polarity in ("bogus", "Positive", None, 1):
            with pytest.raises(AggregationError, match="^unknown polarity "):
                penalized_mean(xs, polarity)

    @given(values=sequences(min_size=2), negative=st.booleans())
    def test_value_polarity_bit_identical(self, values, negative):
        member = Polarity.NEGATIVE if negative else Polarity.POSITIVE
        assert penalized_mean(values, member.value) == penalized_mean(values, member)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1e308, -1e308], "the variance is not finite"),
            ([1.7e308, 1e308, 0.0], "the variance is not finite"),
            ([float("nan"), 1.0], "value 1 is not finite: nan"),
        ],
    )
    def test_overflow_and_nan_refused(self, values, message):
        with pytest.raises(AggregationError) as info:
            penalized_mean(values)
        assert str(info.value) == message

    def test_exact_two_value_cases(self):
        assert penalized_mean([4, 6]) == pytest.approx(4.75, abs=1e-12)
        assert penalized_mean([2, 8]) == pytest.approx(4.25, abs=1e-12)
        assert penalized_mean([-1, 1]) == pytest.approx(-0.25, abs=1e-12)

    def test_outlier_sequence(self):
        assert penalized_mean([1] * 9 + [91]) == pytest.approx(5.95, abs=1e-12)

    def test_negative_polarity_two_value(self):
        # closed form (3*x0 + 5*x1) / 8
        assert penalized_mean([4, 6], Polarity.NEGATIVE) == pytest.approx(
            5.25, abs=1e-12
        )

    def test_constant_sequence_unpenalized(self):
        assert penalized_mean([7.3, 7.3, 7.3]) == 7.3
        assert penalized_mean([7.3, 7.3, 7.3], Polarity.NEGATIVE) == 7.3
        assert penalized_mean([42.0]) == 42.0

    @given(seq=weighted_sequences())
    def test_sandwich(self, seq):
        lo, hi = min(seq.values), max(seq.values)
        for polarity in Polarity:
            v = penalized_mean(seq, polarity)
            assert lo - 1e-9 <= v <= hi + 1e-9

    @given(seq=weighted_sequences())
    def test_penalty_direction(self, seq):
        if spread(seq.values) <= 1e-6:
            return
        mean = weighted_mean(seq)
        assert penalized_mean(seq, Polarity.POSITIVE) < mean
        assert penalized_mean(seq, Polarity.NEGATIVE) > mean

    @given(
        x=st.tuples(finite, finite).filter(lambda t: abs(t[0] - t[1]) > 1e-6)
    )
    def test_two_value_closed_form(self, x):
        x0, x1 = sorted(x)
        scale = max(1.0, abs(x0), abs(x1))
        assert penalized_mean([x0, x1]) == pytest.approx(
            (5 * x0 + 3 * x1) / 8, abs=1e-12 * scale
        )
        assert penalized_mean([x0, x1], Polarity.NEGATIVE) == pytest.approx(
            (3 * x0 + 5 * x1) / 8, abs=1e-12 * scale
        )

    @given(seq=weighted_sequences(), lam=st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_equivariance(self, seq, lam):
        scaled = WeightedSequence([lam * v for v in seq.values], seq.weights)
        for polarity in Polarity:
            expected = lam * penalized_mean(seq, polarity)
            assert penalized_mean(scaled, polarity) == pytest.approx(
                expected, rel=1e-10, abs=1e-10
            )

    @given(seq=weighted_sequences(), c=finite)
    def test_translation_equivariance(self, seq, c):
        shifted = WeightedSequence([v + c for v in seq.values], seq.weights)
        for polarity in Polarity:
            expected = penalized_mean(seq, polarity) + c
            assert penalized_mean(shifted, polarity) == pytest.approx(
                expected, rel=1e-10, abs=1e-6
            )

    @given(seq=weighted_sequences())
    def test_negation_duality(self, seq):
        negated = WeightedSequence([-v for v in seq.values], seq.weights)
        assert penalized_mean(negated, Polarity.POSITIVE) == pytest.approx(
            -penalized_mean(seq, Polarity.NEGATIVE), rel=1e-10, abs=1e-10
        )

    def test_convergence_to_mean_as_spread_shrinks(self):
        # a two-point family collapsing onto its mean: the penalty vanishes
        # with the spread
        center = 10.0
        for eps in [10.0 ** -k for k in range(1, 9)]:
            values = [center - eps, center + eps]
            for polarity in Polarity:
                assert abs(penalized_mean(values, polarity) - center) <= eps

    def test_no_ordering_against_geometric_mean(self):
        # the penalized mean falls on either side of the geometric mean
        assert penalized_mean([2, 8]) > geometric_mean([2, 8])
        assert penalized_mean([4, 6]) < geometric_mean([4, 6])


class TestGeometricMean:
    def test_reference_sequences(self):
        for case in load_penalized_reference():
            if any(v <= 0 for v in case.values):
                with pytest.raises(AggregationError):
                    geometric_mean(case.values)
            else:
                assert geometric_mean(case.values) == pytest.approx(
                    case.geometric, abs=0.005
                )

    def test_exact_values(self):
        assert geometric_mean([4, 6]) == pytest.approx(math.sqrt(24), rel=1e-12)
        assert geometric_mean([2, 8]) == pytest.approx(4.0, rel=1e-12)
        assert geometric_mean([1] * 9 + [91]) == pytest.approx(91 ** 0.1, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(AggregationError):
            geometric_mean([0] * 9 + [10])

    def test_negative_rejected(self):
        with pytest.raises(AggregationError):
            geometric_mean([-1, 1])


class TestCartwrightFieldBounds:
    def test_two_value_case(self):
        lower, upper = cartwright_field_bounds([4, 6], 4, 6)
        assert lower == pytest.approx(1 / 12, rel=1e-12)
        assert upper == pytest.approx(1 / 8, rel=1e-12)
        diff = weighted_mean([4, 6]) - geometric_mean([4, 6])
        assert lower <= diff <= upper

    def test_constant_sequence(self):
        lower, upper = cartwright_field_bounds([3, 3], 3, 3)
        assert (lower, upper) == (0.0, 0.0)
        assert weighted_mean([3, 3]) - geometric_mean([3, 3]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_wide_two_value_case(self):
        lower, upper = cartwright_field_bounds([2, 8], 2, 8)
        assert lower == pytest.approx(9 / 16, rel=1e-12)
        assert upper == pytest.approx(9 / 4, rel=1e-12)
        assert lower <= weighted_mean([2, 8]) - geometric_mean([2, 8]) <= upper

    def test_nonpositive_lower_bound_rejected(self):
        with pytest.raises(AggregationError):
            cartwright_field_bounds([1, 2], 0, 2)

    def test_bounds_must_enclose(self):
        with pytest.raises(AggregationError):
            cartwright_field_bounds([1, 2], 1.5, 2)
        with pytest.raises(AggregationError):
            cartwright_field_bounds([1, 2], 1, 1.5)

    @given(
        seq=weighted_sequences(
            elements=st.floats(min_value=0.01, max_value=1e4)
        )
    )
    def test_brackets_am_gm_difference(self, seq):
        a, b = min(seq.values), max(seq.values)
        lower, upper = cartwright_field_bounds(seq, a, b)
        diff = weighted_mean(seq) - geometric_mean(seq)
        assert lower - 1e-9 <= diff <= upper + 1e-9


class TestPlainAndUniformWeighted:
    @given(seq=sequences())
    def test_bit_identical(self, seq):
        # a plain sequence takes the same 1/n weights and the same fsum terms
        uniform = WeightedSequence(seq)
        assert weighted_mean(seq).hex() == weighted_mean(uniform).hex()
        for polarity in Polarity:
            assert (
                penalized_mean(seq, polarity).hex()
                == penalized_mean(uniform, polarity).hex()
            )


# the kernel's range allowance, floats just inside and outside it, and NaN
EPS = 1e-9
EDGES = [0.0, -0.0, 100.0, 5e-324, -5e-324, 2.2250738585072014e-308, -EPS, 100.0 + EPS,
         math.nextafter(-EPS, -math.inf), math.nextafter(100.0 + EPS, math.inf), 50.0,
         math.nan]
KERNEL_INPUTS = st.one_of(
    st.floats(min_value=0.0, max_value=100.0),  # subnormals included
    st.floats(min_value=-2 * EPS, max_value=2 * EPS),
    st.floats(min_value=100.0 - 2 * EPS, max_value=100.0 + 2 * EPS),
    st.sampled_from(EDGES),
)


def _in_range(v: float) -> bool:
    return -EPS <= v <= 100.0 + EPS


class TestFoldScores:
    """The tree-aggregation kernel: its range check, and its bit-identity with
    ``penalized_mean`` (also tested through ``aggregate_level``)."""

    @settings(max_examples=300)
    @given(values=st.one_of(
        st.lists(KERNEL_INPUTS, min_size=2, max_size=2),  # the two-child path
        st.lists(KERNEL_INPUTS, min_size=1, max_size=6),
    ))
    @example(values=[50.0, math.nan])
    @example(values=[50.0, math.nan, 50.0])  # min and max pass over it
    def test_bit_identical_to_penalized_mean_or_refused(self, values):
        bad = [v for v in values if not _in_range(v)]
        if bad:
            with pytest.raises(AggregationError) as info:
                _fold_scores(values)
            assert str(info.value) == f"scores must lie in [0, 100], got {bad[0]}"
        else:
            assert _fold_scores(values).hex() == penalized_mean(values).hex()

    def test_zero_sum_of_two_is_positive_zero(self):
        # fsum gives +0.0 for a zero sum, where -0.0 + -0.0 is -0.0
        for values in ([-5e-324, -0.0], [-0.0, -5e-324], [-1e-10, 1e-10]):
            assert _fold_scores(values).hex() == penalized_mean(values).hex()

    def test_names_first_value_out_of_range(self):
        with pytest.raises(AggregationError, match=r"got 101\.0$"):
            _fold_scores([50.0, 101.0, -3.0])
        with pytest.raises(AggregationError, match=r"got -3\.0$"):
            _fold_scores([-3.0, 101.0])

    def test_rejects_nan(self):
        for values in ([float("nan"), 50.0], [50.0, float("nan")],
                       [50.0, float("nan"), 50.0]):
            with pytest.raises(AggregationError, match="got nan"):
                _fold_scores(values)
