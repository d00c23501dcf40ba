import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from igei.errors import StatisticsError
from igei.pipeline import TerritoryReport
from igei.stats import (
    correlation_matrix,
    descriptive_summary,
    rank_order,
    rank_table,
    report_statistics,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def quantile_oracle(values, q):
    """Linear interpolation between order statistics at (n-1)*q + 1, longhand."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    lower = math.floor(position)
    upper = math.ceil(position)
    frac = position - lower
    return ordered[lower] * (1 - frac) + ordered[upper] * frac


def population_sd_oracle(values):
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


class TestDescriptiveSummary:
    def test_published_index_row(self, index_reference, region_names):
        values = [index_reference[t]["index"] for t in region_names]
        s = descriptive_summary(values)
        assert s.mean == pytest.approx(62.89, abs=0.01)
        assert s.sd == pytest.approx(7.12, abs=0.01)
        assert s.cv == pytest.approx(0.11, abs=0.01)
        assert s.min == pytest.approx(48.64, abs=0.01)
        assert s.p25 == pytest.approx(57.84, abs=0.01)
        assert s.p50 == pytest.approx(63.76, abs=0.01)
        assert s.p75 == pytest.approx(69.31, abs=0.01)
        assert s.max == pytest.approx(73.95, abs=0.01)

    def test_constant_sequence(self):
        s = descriptive_summary([4.2, 4.2, 4.2])
        assert s.mean == 4.2
        assert s.sd == 0.0
        assert s.cv == 0.0
        assert s.min == s.p25 == s.p50 == s.p75 == s.max == 4.2

    def test_exact_order_statistic_positions(self):
        s = descriptive_summary([1, 2, 3, 4, 5])
        assert (s.p25, s.p50, s.p75) == (2.0, 3.0, 4.0)

    def test_empty_rejected(self):
        with pytest.raises(StatisticsError):
            descriptive_summary([])

    @pytest.mark.parametrize(
        "values, message",
        [
            # nan once sorted into the middle: p50 1.0 and a nan mean
            ([float("nan"), 1, 2], "the sum of the values is not finite"),
            ([1, float("nan"), 1], "the sum of the values is not finite"),
            ([float("inf"), float("-inf"), 1], "the sum of the values is not finite"),
            ([float("inf")] * 2, "the sum of the values is not finite"),
            ([1e308, 1.5e308], "the sum of the values is not finite"),
            ([1e200, -1e200, 0.0], "the sum of squared deviations is not finite"),
            ([-1.0, 1.0, 1e-320], "the coefficient of variation sd / mean = "),
        ],
    )
    def test_non_finite_refused(self, values, message):
        with pytest.raises(StatisticsError) as info:
            descriptive_summary(values)
        assert str(info.value).startswith(message)

    def test_single_value_has_no_spread_stats(self):
        s = descriptive_summary([3.0])
        assert s.mean == 3.0
        assert s.sd is None and s.cv is None

    def test_constant_column_is_exact(self):
        value = 542.8956285512224 * 161.0
        s = descriptive_summary([value] * 3)
        assert s.mean == s.min == s.max == value
        assert s.sd == 0.0 and s.cv == 0.0

    def test_zero_mean_has_undefined_cv(self):
        s = descriptive_summary([-1.0, 1.0])
        assert s.mean == 0.0
        assert s.cv is None

    @given(values=st.lists(finite, min_size=2, max_size=30))
    def test_against_longhand_oracles(self, values):
        s = descriptive_summary(values)
        scale = max(1.0, max(abs(v) for v in values))
        assert s.sd == pytest.approx(population_sd_oracle(values), abs=1e-9 * scale)
        for q, got in ((0.25, s.p25), (0.5, s.p50), (0.75, s.p75)):
            assert got == pytest.approx(quantile_oracle(values, q), abs=1e-9 * scale)

    @given(values=st.lists(finite, min_size=2, max_size=20), seed=st.integers(0, 99))
    def test_permutation_invariance(self, values, seed):
        import random

        shuffled = values[:]
        random.Random(seed).shuffle(shuffled)
        assert descriptive_summary(values) == descriptive_summary(shuffled)

    @given(
        values=st.lists(st.floats(min_value=0.1, max_value=1e4), min_size=2, max_size=20),
        lam=st.floats(min_value=1e-3, max_value=1e3),
    )
    # fsum(x) / n misses the constant by an ulp here
    @example(values=[542.8956285512224] * 3, lam=161.0)
    def test_scale_equivariance(self, values, lam):
        base = descriptive_summary(values)
        scaled = descriptive_summary([lam * v for v in values])
        for stat in ("mean", "sd", "min", "p25", "p50", "p75", "max"):
            assert getattr(scaled, stat) == pytest.approx(
                lam * getattr(base, stat), rel=1e-9
            )
        if base.cv is not None:
            assert scaled.cv == pytest.approx(base.cv, rel=1e-9)


class TestCorrelationMatrix:
    def test_self_correlation(self):
        x = [1.0, 2.0, 4.0, 8.0]
        m = correlation_matrix([x, x])
        assert m[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_anti_correlation(self):
        x = [1.0, 2.0, 4.0, 8.0]
        m = correlation_matrix([x, [-v for v in x]])
        assert m[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_published_cell(self, indicator_table, region_names):
        rows = [indicator_table.row(t) for t in region_names]
        g1 = [row["G1"] for row in rows]
        g2 = [row["G2"] for row in rows]
        m = correlation_matrix([g1, g2])
        assert m[0, 1] == pytest.approx(0.67, abs=0.02)

    def test_symmetric_unit_diagonal_bounded(self, indicator_table, region_names):
        rows = [indicator_table.row(t) for t in region_names]
        columns = [[row[ind] for row in rows] for ind in indicator_table.indicators]
        m = correlation_matrix(columns)
        assert set(m) == {(i, j) for i in range(20) for j in range(20)}
        for i in range(20):
            assert m[i, i] == pytest.approx(1.0, abs=1e-12)
            for j in range(20):
                assert m[i, j] == pytest.approx(m[j, i], abs=1e-12)
                assert -1.0 <= m[i, j] <= 1.0

    def test_constant_column_rejected(self):
        with pytest.raises(StatisticsError, match="constant"):
            correlation_matrix([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])

    def test_constant_columns_carry_their_positions(self):
        with pytest.raises(StatisticsError) as info:
            correlation_matrix([[5.0] * 3, [1.0, 2.0, 3.0], [0.5] * 3])
        assert info.value.positions == (0, 2)
        assert str(info.value) == (
            "correlation is undefined for constant columns (positions 0, 2)"
        )

    def test_constant_column_with_inexact_mean_rejected(self):
        # fsum([0.1] * 3) / 3 is not 0.1, so centring leaves a nonzero residue
        with pytest.raises(StatisticsError, match=r"constant columns \(positions 0\)"):
            correlation_matrix([[0.1, 0.1, 0.1], [0.0, 1.0, 2.0]])

    def test_diagonal_is_exactly_one(self, indicator_table, region_names):
        rows = [indicator_table.row(t) for t in region_names]
        columns = [[row[ind] for row in rows] for ind in indicator_table.indicators]
        m = correlation_matrix(columns)
        assert [m[i, i] for i in range(20)] == [1.0] * 20

    @pytest.mark.parametrize(
        "columns, message",
        [
            # the clip once turned nan into -1.0
            ([[float("nan"), 1, 2], [1, 2, 3]], "column 0's sum is not finite"),
            ([[1, 2, 3], [float("inf"), 1, 2]], "column 1's sum is not finite"),
            # squares past the float range once correlated as -0.0
            ([[1, 2, 3], [1e200, 1, 2]], "column 1's sum of squares is not finite"),
            ([[0.0, 5e-324, 1e-323], [1, 2, 3]], "column 0 varies too little to correlate"),
        ],
    )
    def test_non_finite_refused_without_positions(self, columns, message):
        # positions name constant columns only, which report words as such
        with pytest.raises(StatisticsError) as info:
            correlation_matrix(columns)
        assert str(info.value) == message
        assert info.value.positions == ()

    def test_too_few_observations_rejected(self):
        with pytest.raises(StatisticsError):
            correlation_matrix([[1.0, 2.0], [3.0, 4.0]])

    def test_single_column_rejected(self):
        with pytest.raises(StatisticsError):
            correlation_matrix([[1.0, 2.0, 3.0]])

    def test_ragged_columns_rejected(self):
        with pytest.raises(StatisticsError):
            correlation_matrix([[1.0, 2.0, 3.0], [1.0, 2.0]])

    @given(
        x=st.lists(
            st.integers(min_value=-10**6, max_value=10**6),
            min_size=4, max_size=12, unique=True,
        ).map(lambda xs: [v / 100.0 for v in xs]),
        a=st.floats(min_value=0.01, max_value=100),
        b=st.floats(min_value=-100, max_value=100),
    )
    def test_positive_affine_invariance(self, x, a, b):
        y = [2.0 * v + 1.0 for v in x]
        base = correlation_matrix([x, y])
        transformed = correlation_matrix([[a * v + b for v in x], y])
        assert transformed[0, 1] == pytest.approx(base[0, 1], rel=1e-9, abs=1e-9)


scores = st.floats(min_value=0.0, max_value=100.0)
# two-decimal scores, the precision of the published tables
table_scores = st.integers(min_value=0, max_value=10_000).map(lambda v: v / 100)


# scores at any float and on a coarse grid, so ties and constant columns occur
score = st.one_of(st.floats(min_value=0, max_value=100), st.integers(0, 20).map(lambda k: k * 5.0))


@st.composite
def report_columns(draw):
    """(named columns, correlated names): an index column and 2-5 indicator
    columns of 3 to 12 rows (now and then fewer), and now and then a constant one."""
    n = draw(st.sampled_from([1, 2] + [*range(3, 13)] * 3))
    names = ["index"] + [f"L{j}" for j in range(draw(st.integers(2, 5)))]
    named = {name: draw(st.lists(score, min_size=n, max_size=n)) for name in names}
    if draw(st.integers(0, 5)) == 0:
        named[draw(st.sampled_from(names))] = [draw(score)] * n
    return named, names[1:]


def report_outcome(named, correlated, statistics=report_statistics):
    """repr of the summaries and matrix, so that every bit counts; or the error."""
    try:
        summaries, matrix = statistics(named, correlated)
    except StatisticsError as exc:
        return str(exc), exc.positions
    return repr(summaries), repr(matrix)


def one_by_one(named, correlated):
    summaries = {name: descriptive_summary(column) for name, column in named.items()}
    return summaries, correlation_matrix([named[name] for name in correlated])


class TestReportStatistics:
    @given(case=report_columns())
    def test_equals_the_public_functions_bit_for_bit(self, case):
        named, correlated = case
        assert report_outcome(named, correlated) == report_outcome(
            named, correlated, one_by_one
        )

    @given(case=report_columns(), data=st.data())
    def test_row_order_and_scope_subsets_change_no_bit(self, case, data):
        named, correlated = case
        n = len(named["index"])
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        picked = {name: [column[i] for i in rows] for name, column in named.items()}
        in_order = {name: [column[i] for i in sorted(rows)] for name, column in named.items()}
        assert report_outcome(picked, correlated) == report_outcome(in_order, correlated)
        assert report_outcome(picked, correlated, one_by_one) == report_outcome(
            in_order, correlated
        )


class TestAgainstNumpy:
    """numpy, a test-only dependency, as the reference implementation.

    Results agree within 1e-12 relative to the column's largest value;
    the quartiles use numpy's interpolation arithmetic and agree exactly.
    """

    @given(values=st.lists(scores, min_size=1, max_size=40))
    @example(values=[42.5])  # one value: quartiles defined, sd and cv not
    def test_descriptive_summary(self, values):
        s = descriptive_summary(values)
        arr = np.asarray(values)
        tol = 1e-12 * max(values)
        assert s.mean == pytest.approx(arr.mean(), rel=1e-12, abs=tol)
        assert (s.min, s.max) == (arr.min(), arr.max())
        assert [s.p25, s.p50, s.p75] == list(np.percentile(arr, [25, 50, 75]))
        if len(values) >= 2:
            assert s.sd == pytest.approx(arr.std(), rel=1e-12, abs=tol)
        if s.cv is not None:
            assert s.cv == pytest.approx(arr.std() / arr.mean(), rel=1e-12, abs=1e-12)

    @given(
        columns=st.integers(min_value=3, max_value=30).flatmap(
            lambda n: st.lists(
                st.lists(table_scores, min_size=n, max_size=n), min_size=2, max_size=6
            )
        )
    )
    def test_correlation_matrix(self, columns):
        assume(all(max(c) > min(c) for c in columns))
        m = correlation_matrix(columns)
        reference = np.corrcoef(np.asarray(columns))
        k = len(columns)
        assert set(m) == {(i, j) for i in range(k) for j in range(k)}
        for (i, j), r in m.items():
            assert r == pytest.approx(reference[i, j], rel=1e-12, abs=1e-12)


def report_stub(territory, index):
    return TerritoryReport(
        territory=territory,
        indicator_scores={},
        subdomain_values={},
        domain_values={},
        index=index,
    )


class TestRankTable:
    def test_published_ordering(self, index_reference):
        reports = [report_stub(t, vals["index"]) for t, vals in index_reference.items()]
        ranked = rank_table(reports)
        assert ranked[0].territory == "Provincia Autonoma di Trento"
        assert ranked[-1].territory == "Basilicata"
        indexes = [r.index for r in ranked]
        assert indexes == sorted(indexes, reverse=True)

    def test_single_report(self):
        ranked = rank_table([report_stub("X", 50.0)])
        assert [r.territory for r in ranked] == ["X"]

    def test_tie_breaks_alphabetically(self):
        ranked = rank_table([report_stub("Zeta", 50.0), report_stub("Alpha", 50.0)])
        assert [r.territory for r in ranked] == ["Alpha", "Zeta"]

    def test_stable_total_order(self):
        reports = [report_stub(t, v) for t, v in
                   [("B", 10.0), ("A", 10.0), ("C", 20.0), ("D", 5.0)]]
        first = [r.territory for r in rank_table(reports)]
        second = [r.territory for r in rank_table(reversed(reports))]
        assert first == second == ["C", "A", "B", "D"]

    def test_rank_order_gives_row_positions_with_the_same_rule(self):
        # ties break by code point, so 'Zeta' precedes 'alpha'; -0.0 ties 0.0
        index = [0.0, 50.0, 50.0, 75.0, -0.0, 50.0]
        territories = ["Nil", "alpha", "Zeta", "Top", "Low", "Beta"]
        assert rank_order(index, territories) == [3, 5, 2, 1, 4, 0]
        ranked = rank_table(report_stub(t, v) for t, v in zip(territories, index))
        assert [r.territory for r in ranked] == [territories[i] for i in [3, 5, 2, 1, 4, 0]]
        assert rank_order([], []) == []
