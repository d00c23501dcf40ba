import math
import random
import struct
import sys
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igei.dataio import (
    ScoreTable,
    _block_clean,
    _block_findings,
    bundled_path,
    load_index_spec,
    load_observations,
)
from igei.errors import (
    AggregationError,
    DataError,
    IgeiError,
    RecordError,
    ScoringError,
    SpecError,
)
from igei.metrics import _HALF_MAX, MetricKind
from igei.model import (
    Correction,
    CorrectionKind,
    Dataset,
    Domain,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    SubDomain,
)
from igei.penalized import (
    _SCORE_EPS,
    RANGE_TOLERANCE,
    Polarity,
    WeightedSequence,
    _fold_scores,
    _pair_mean,
    penalized_mean,
)
from igei.pipeline import (
    ReferenceLevels,
    TableReport,
    _column_scores,
    _fold_columns,
    _fold_tree,
    aggregate_level,
    aggregate_scores,
    aggregate_table,
    compute_indicator,
    resolve_references,
    score_table,
    score_territory,
    score_time_series,
)


def brute_penalized(values):
    """Definition written out longhand, independent of the library path."""
    n = len(values)
    mean = sum(values) / n
    if max(values) == min(values):
        return mean
    variance = sum((v - mean) ** 2 for v in values) / n
    return mean - variance / (2 * (max(values) - min(values)))


def two_value(lo, hi):
    return (5 * lo + 3 * hi) / 8


def obs_standard(territory, indicator, x_w, x_m, x_a=None, period=2023):
    return ObservationRecord(
        territory=territory, indicator=indicator, period=period,
        kind=MetricKind.STANDARD, x_w=x_w, x_m=x_m, x_a=x_a,
    )


def obs_value(territory, indicator, kind, value, period=2023):
    return ObservationRecord(
        territory=territory, indicator=indicator, period=period,
        kind=kind, value=value,
    )


def spec_standard(ind, polarity=Polarity.POSITIVE, correction=Correction("own_average")):
    return IndicatorSpec(
        id=ind, label=ind, metric=MetricKind.STANDARD, polarity=polarity,
        correction=correction,
    )


# --- a small synthetic universe exercising every metric kind ----------------

SYNTH_TREE = IndexTree(
    domains=(
        Domain(
            id="d1",
            subdomains=(
                SubDomain(id="s1", indicators=("J1",)),
                SubDomain(id="s2", indicators=("J2", "J3")),
            ),
        ),
        Domain(id="d2", subdomains=(SubDomain(id="d2", indicators=("J4", "J5")),)),
    )
)

SYNTH_SPECS = {
    "J1": spec_standard("J1"),
    "J2": spec_standard("J2", polarity=Polarity.NEGATIVE),
    "J3": IndicatorSpec(
        id="J3", label="J3", metric=MetricKind.SHARE,
        correction=Correction("external", indicator="J1", field="total"),
    ),
    "J4": IndicatorSpec(
        id="J4", label="J4", metric=MetricKind.RATIO,
        correction=Correction("external", indicator="J1", field="women"),
    ),
    "J5": IndicatorSpec(id="J5", label="J5", metric=MetricKind.CAPPED),
}

SYNTH_RECORDS = [
    obs_standard("X", "J1", 0.4, 0.6, 0.5),
    obs_standard("Y", "J1", 0.7, 0.9, 0.8),
    obs_standard("X", "J2", 0.2, 0.4, 0.3),
    obs_standard("Y", "J2", 0.1, 0.1, 0.1),
    obs_value("X", "J3", MetricKind.SHARE, 0.25),
    obs_value("Y", "J3", MetricKind.SHARE, 0.5),
    obs_value("X", "J4", MetricKind.RATIO, 0.8),
    obs_value("Y", "J4", MetricKind.RATIO, 1.25),
    obs_value("X", "J5", MetricKind.CAPPED, 1.4),
    obs_value("Y", "J5", MetricKind.CAPPED, 0.3),
]


class TestResolveReferences:
    def test_single_territory_max_of_one(self):
        specs = {"J1": spec_standard("J1")}
        refs = resolve_references([obs_standard("X", "J1", 0.4, 0.6, 0.7)], specs, ["X"])
        assert refs.maxima["J1"] == 0.7

    def test_five_country_reference(self):
        specs, _ = load_index_spec(bundled_path("demo_tree.yaml"))
        records = load_observations(bundled_path("demo_countries.csv"))
        refs = resolve_references(records, specs, [r.territory for r in records])
        assert refs.maxima["G1"] == 0.9

    def test_negative_polarity_inverts_before_max(self):
        specs = {"J2": spec_standard("J2", polarity=Polarity.NEGATIVE)}
        records = [
            obs_standard("X", "J2", 0.1, 0.1, 0.1),
            obs_standard("Y", "J2", 0.3, 0.3, 0.3),
        ]
        refs = resolve_references(records, specs, ["X", "Y"])
        assert refs.maxima["J2"] == pytest.approx(0.9, abs=1e-12)

    def test_empty_scope_rejected(self):
        with pytest.raises(ScoringError):
            resolve_references(SYNTH_RECORDS, SYNTH_SPECS, [])

    def test_missing_total_is_incomplete(self):
        specs = {"J1": spec_standard("J1")}
        with pytest.raises(ScoringError, match="incomplete"):
            resolve_references([obs_standard("X", "J1", 0.4, 0.6, None)], specs, ["X"])

    def test_scope_territory_without_data(self):
        specs = {"J1": spec_standard("J1")}
        with pytest.raises(ScoringError):
            resolve_references([obs_standard("X", "J1", 0.4, 0.6, 0.5)], specs, ["X", "Z"])

    def test_multiple_periods_need_time_mode(self):
        specs = {"J1": spec_standard("J1")}
        records = [
            obs_standard("X", "J1", 0.4, 0.6, 0.5, period=2022),
            obs_standard("X", "J1", 0.4, 0.6, 0.5, period=2023),
        ]
        with pytest.raises(ScoringError, match="time series"):
            resolve_references(records, specs, ["X"])
        refs = resolve_references(records, specs, ["X"], time_mode=True)
        assert refs.maxima["J1"] == 0.5

    def test_external_source_must_be_standard(self):
        # the same rule, and error, as the spec loader's
        specs = {
            "J5": SYNTH_SPECS["J5"],
            "J3": IndicatorSpec(
                id="J3", label="J3", metric=MetricKind.SHARE,
                correction=Correction("external", indicator="J5"),
            ),
        }
        with pytest.raises(SpecError, match="'J3'.*'J5' must be a standard-metric"):
            resolve_references(SYNTH_RECORDS, specs, ["X"])

    def test_zero_reference_rejected(self):
        specs = {"J1": spec_standard("J1")}
        with pytest.raises(ScoringError, match="positive"):
            resolve_references([obs_standard("X", "J1", 0.4, 0.6, 0.0)], specs, ["X"])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.25])
    def test_bad_level_raises_in_any_scope_order(self, bad):
        # a nan level once made the maximum depend on the scope's order;
        # such a record is now refused when it is built
        specs = {"J1": spec_standard("J1")}
        messages = set()
        for scope in (["X", "Y"], ["Y", "X"]):
            with pytest.raises(DataError) as info:
                records = [
                    obs_standard("X", "J1", 0.4, 0.6, bad),
                    obs_standard("Y", "J1", 0.5, 0.7, 0.6),
                ]
                resolve_references(records, specs, scope)
            messages.add(str(info.value))
        problem = "must be non-negative" if bad < 0 else "must be a finite number"
        assert messages == {
            f"territory 'X', indicator 'J1', period 2023: x_a {problem}, got {bad}"
        }

    def test_bad_external_level_names_source(self):
        # J3 borrows J1's total; a bad total of an out-of-scope territory
        # would become its correction base
        with pytest.raises(DataError) as info:
            records = SYNTH_RECORDS + [obs_standard("Z", "J1", 0.4, 0.6, float("nan"))]
            resolve_references(records, SYNTH_SPECS, ["Y"])
        assert str(info.value) == (
            "territory 'Z', indicator 'J1', period 2023: x_a must be a finite number, got nan"
        )

    def test_inverted_rate_above_one_names_its_record(self):
        # the CLI's validate_dataset catches this first; the library path did not
        specs = {"J2": spec_standard("J2", polarity="negative")}
        records = [obs_standard("A", "J2", 0.2, 0.4, 1.2)]
        with pytest.raises(ScoringError) as info:
            resolve_references(records, specs, ["A"])
        assert str(info.value) == (
            "territory 'A', indicator 'J2', period 2023: "
            "polarity inversion is only defined for rates, got 1.2"
        )

    def test_external_bases_cover_out_of_scope_territories(self):
        refs = resolve_references(SYNTH_RECORDS, SYNTH_SPECS, ["Y"])
        # references come from Y only, but X can still be scored
        assert refs.maxima["J3"] == 0.8
        assert refs.bases[("J3", "X", 2023)] == 0.5
        assert refs.bases[("J4", "X", 2023)] == 0.4


# --- reference resolution against a brute-force oracle ---------------------

ORACLE_SPECS = {
    "S1": spec_standard("S1"),
    "S2": spec_standard("S2", polarity=Polarity.NEGATIVE),
    "ET": IndicatorSpec(
        id="ET", label="ET", metric=MetricKind.SHARE,
        correction=Correction("external", indicator="S1", field="total"),
    ),
    "EW": IndicatorSpec(
        id="EW", label="EW", metric=MetricKind.RATIO,
        correction=Correction("external", indicator="S1", field="women"),
    ),
    "EM": IndicatorSpec(
        id="EM", label="EM", metric=MetricKind.SHARE,
        correction=Correction("external", indicator="S2", field="men"),
    ),
    "C": IndicatorSpec(id="C", label="C", metric=MetricKind.CAPPED),
}


def oracle_references(records, specs, scope, time_mode):
    """Scan every record for each corrected indicator; raise where resolution must."""
    attrs = {"total": "x_a", "women": "x_w", "men": "x_m"}
    maxima, bases = {}, {}
    for spec in specs.values():
        corr = spec.correction
        if corr.kind == "none":
            continue
        if corr.kind == "own_average":
            source, attr = spec, "x_a"
        else:
            source, attr = specs[corr.indicator], attrs[corr.field]
        found = {}
        for rec in records:
            raw = getattr(rec, attr)
            if rec.indicator == source.id and raw is not None:
                negative = source.polarity is Polarity.NEGATIVE
                # an external correction reads every territory's level, the others the scope's
                if negative and raw > 1.0 and (corr.kind == "external" or rec.territory in scope):
                    raise ScoringError(f"{spec.id}: {rec.territory}: rate above 1")
                found[(rec.territory, rec.period)] = 1.0 - raw if negative else raw
        for terr in scope:
            n_periods = sum(1 for t, _ in found if t == terr)
            if n_periods == 0 or (n_periods > 1 and not time_mode):
                raise ScoringError(f"{spec.id}: {terr}")
        maxima[spec.id] = max(v for (t, _), v in found.items() if t in scope)
        if maxima[spec.id] <= 0:
            raise ScoringError(f"{spec.id}: reference")
        if corr.kind == "external":
            bases.update(((spec.id, t, p), v) for (t, p), v in found.items())
    return maxima, bases


# levels on a coarse grid, so ties and equal maxima occur
rates = st.integers(min_value=0, max_value=20).map(lambda k: k / 20)
# now and then a missing total, which leaves the pair without a correction level
totals = st.integers(min_value=-2, max_value=20).map(lambda k: None if k < 0 else k / 20)


@st.composite
def resolution_cases(draw):
    territories = [f"T{i}" for i in range(draw(st.integers(1, 5)))]
    periods = list(range(2020, 2020 + draw(st.integers(1, 3))))
    records = []
    for terr in territories:
        for period in periods:
            for ind in ("S1", "S2"):
                records.append(
                    obs_standard(
                        terr, ind, draw(rates), draw(rates), draw(totals), period=period
                    )
                )
    records = draw(st.permutations(records))
    scope = draw(st.lists(st.sampled_from(territories), min_size=1, unique=True))
    return records, scope, draw(st.booleans())


ULP_ABOVE_ONE = math.nextafter(1.0, 2.0)


def resolution_edge(scope, **changes):
    """S1 and S2 observations of T0 and T1, T1's rows last, with the levels
    ``T1_S2={"x_m": ...}`` names replaced (``T1_S2=None`` drops the record);
    resolved in one period."""
    records = [
        obs_standard("T0", "S1", 0.4, 0.6, 0.5), obs_standard("T0", "S2", 0.3, 0.5, 0.4),
        obs_standard("T1", "S1", 0.5, 0.7, 0.6), obs_standard("T1", "S2", 0.2, 0.4, 0.3),
    ]
    records = [rec._replace(**changes.get(key, {}))
               for rec in records if (key := f"{rec.territory}_{rec.indicator}") not in changes
               or changes[key] is not None]
    return records, scope, False


# the column tests' edges: a negative-polarity rate of exactly 1 and one ulp
# above it, read for the scope (S2's total) or for every territory (S2's men,
# which EM borrows); a None total outside a strict-subset scope, where S1
# falls back and returns and ET lacks the territory's base; a source record
# missing in the scope and out of it
RESOLUTION_EDGES = [
    resolution_edge(["T0", "T1"], T1_S1=None),
    resolution_edge(["T0"], T1_S1=None),
    resolution_edge(["T0", "T1"], T1_S2={"x_m": 1.0, "x_a": 1.0}),
    resolution_edge(["T0", "T1"], T1_S2={"x_a": ULP_ABOVE_ONE}),
    resolution_edge(["T0"], T1_S2={"x_m": ULP_ABOVE_ONE}),
    resolution_edge(["T0"], T1_S2={"x_a": ULP_ABOVE_ONE}),
    resolution_edge(["T0"], T1_S1={"x_a": None}),
    resolution_edge(["T0", "T1"], T1_S1={"x_a": None}),
]


def with_examples(cases):
    """Run a ``case`` property test on each of ``cases`` as well."""
    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test
    return decorate


class TestResolveReferencesOracle:
    @given(case=resolution_cases())
    @with_examples(RESOLUTION_EDGES)
    def test_matches_brute_force_scan(self, case):
        records, scope, time_mode = case
        try:
            maxima, bases = oracle_references(records, ORACLE_SPECS, scope, time_mode)
        except ScoringError:
            with pytest.raises(ScoringError):
                resolve_references(records, ORACLE_SPECS, scope, time_mode=time_mode)
            return
        refs = resolve_references(records, ORACLE_SPECS, scope, time_mode=time_mode)
        assert dict(refs.maxima) == maxima
        assert dict(refs.bases) == bases

    def test_out_of_scope_bases_keep_every_period(self):
        records = [
            obs_standard(terr, "S1", 0.5, 0.5, level, period=period)
            for terr, level in (("A", 0.4), ("B", 0.6))
            for period in (2022, 2021)
        ]
        specs = {"S1": ORACLE_SPECS["S1"], "ET": ORACLE_SPECS["ET"]}
        refs = resolve_references(records, specs, ["A"], time_mode=True)
        assert refs.maxima == {"S1": 0.4, "ET": 0.4}
        assert refs.bases == {
            ("ET", t, p): v
            for t, v in (("A", 0.4), ("B", 0.6))
            for p in (2021, 2022)
        }


@pytest.fixture(scope="module")
def demo_setup():
    specs, _ = load_index_spec(bundled_path("demo_tree.yaml"))
    records = load_observations(bundled_path("demo_countries.csv"))
    refs = resolve_references(records, specs, [r.territory for r in records])
    return specs, records, refs


class TestComputeIndicator:
    def test_published_standard_score(self, demo_setup):
        specs, records, refs = demo_setup
        by_territory = {r.territory: r for r in records}
        assert compute_indicator(specs["G1"], by_territory["A"], refs) == pytest.approx(
            18.18, abs=0.005
        )

    def test_share_without_correction(self):
        spec = IndicatorSpec(id="S", label="S", metric=MetricKind.SHARE)
        obs = obs_value("X", "S", MetricKind.SHARE, 0.5)
        assert compute_indicator(spec, obs, ReferenceLevels(maxima={})) == pytest.approx(
            100.0, abs=1e-12
        )

    def test_capped_published_value(self):
        spec = IndicatorSpec(id="C", label="C", metric=MetricKind.CAPPED)
        obs = obs_value("X", "C", MetricKind.CAPPED, 0.132)
        assert compute_indicator(spec, obs, ReferenceLevels(maxima={})) == pytest.approx(
            13.20, abs=1e-9
        )

    def test_kind_mismatch_rejected(self):
        spec = SYNTH_SPECS["J3"]
        obs = obs_standard("X", "J3", 0.4, 0.6, 0.5)
        with pytest.raises(ScoringError, match="expected a share"):
            compute_indicator(spec, obs, ReferenceLevels(maxima={}))

    def test_unresolved_references_rejected(self):
        with pytest.raises(ScoringError, match="not resolved"):
            compute_indicator(
                SYNTH_SPECS["J1"],
                obs_standard("X", "J1", 0.4, 0.6, 0.5),
                ReferenceLevels(maxima={}),
            )

    def test_unresolved_external_base_rejected(self):
        refs = ReferenceLevels(maxima={"J3": 0.8}, bases={})
        with pytest.raises(ScoringError, match="external"):
            compute_indicator(
                SYNTH_SPECS["J3"], obs_value("X", "J3", MetricKind.SHARE, 0.25), refs
            )

    def test_missing_value_rejected(self):
        refs = ReferenceLevels(maxima={"J3": 0.8}, bases={("J3", "X", 2023): 0.5})
        with pytest.raises(DataError, match="share observations need a value"):
            bad = ObservationRecord(
                territory="X", indicator="J3", period=2023, kind=MetricKind.SHARE
            )
            compute_indicator(SYNTH_SPECS["J3"], bad, refs)

    def test_full_dispatch_against_hand_arithmetic(self):
        refs = resolve_references(SYNTH_RECORDS, SYNTH_SPECS, ["X", "Y"])
        data = Dataset(SYNTH_RECORDS)

        def score(terr, ind):
            return compute_indicator(SYNTH_SPECS[ind], data.get(terr, ind), refs)

        # standard, own average: alpha = 2*.5/(.8+.5), gap = .2/1.0
        assert score("X", "J1") == pytest.approx((1.0 / 1.3) * 0.8 * 100, rel=1e-12)
        # negative polarity: inverted to (.8,.6,.7) against inverted max .9
        assert score("X", "J2") == pytest.approx(
            (1.4 / 1.6) * (1 - 0.2 / 1.4) * 100, rel=1e-12
        )
        # share with external total: alpha = 2*.5/(.8+.5), metric 1-|1-2*.25|
        assert score("X", "J3") == pytest.approx((1.0 / 1.3) * 0.5 * 100, rel=1e-12)
        # ratio with external women's rate: alpha = 2*.4/(.7+.4)
        assert score("X", "J4") == pytest.approx(
            (0.8 / 1.1) * (1 - 0.2 / 1.8) * 100, rel=1e-12
        )
        assert score("X", "J5") == 100.0
        assert score("Y", "J1") == pytest.approx(87.5, rel=1e-12)
        assert score("Y", "J2") == pytest.approx(100.0, rel=1e-12)
        assert score("Y", "J3") == pytest.approx(100.0, rel=1e-12)
        assert score("Y", "J4") == pytest.approx((8 / 9) * 100, rel=1e-12)
        assert score("Y", "J5") == pytest.approx(30.0, rel=1e-12)


# scores as the loaders read them: any float in range, 3-decimal values,
# and the range's ends and midpoint
SCORES = st.one_of(
    st.floats(min_value=0, max_value=100),
    st.integers(min_value=0, max_value=100_000).map(lambda k: k / 1000),
    st.sampled_from([0.0, 50.0, 100.0]),
)
SCORE_LISTS = st.one_of(
    st.lists(SCORES, min_size=1, max_size=6),
    st.lists(SCORES, min_size=2, max_size=2),
    # ties: few distinct values, so repeats and constant lists are common
    st.lists(SCORES, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)
    ),
)


class TestAggregateLevel:
    def test_two_indicator_domain_published(self, indicator_table):
        row = indicator_table.row("Provincia Autonoma di Trento")
        politics = aggregate_level([row["G13"], row["G14"]])
        assert politics == pytest.approx(78.077, abs=0.002)
        assert politics == pytest.approx(two_value(row["G13"], row["G14"]), rel=1e-12)
        economy = aggregate_level([row["G4"], row["G5"]])
        assert economy == pytest.approx(73.619, abs=0.002)

    def test_knowledge_chain_published(self, indicator_table):
        row = indicator_table.row("Provincia Autonoma di Trento")
        sub1 = aggregate_level([row["G6"], row["G7"]])
        assert sub1 == pytest.approx(two_value(row["G6"], row["G7"]), rel=1e-12)
        assert sub1 == pytest.approx(78.499, abs=0.002)
        domain = aggregate_level([sub1, row["G8"]])
        assert domain == pytest.approx(66.104, abs=0.002)

    def test_health_chain_published(self, indicator_table):
        row = indicator_table.row("Provincia Autonoma di Trento")
        status = aggregate_level([row["G15"], row["G16"], row["G17"]])
        behaviours = aggregate_level([row["G18"], row["G19"], row["G20"]])
        assert status == pytest.approx(
            brute_penalized([row["G15"], row["G16"], row["G17"]]), rel=1e-12
        )
        assert status == pytest.approx(97.291, abs=0.002)
        assert behaviours == pytest.approx(86.149, abs=0.002)
        assert aggregate_level([status, behaviours]) == pytest.approx(90.327, abs=0.002)

    def test_single_child_passes_through(self):
        assert aggregate_level([42.5]) == 42.5

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_level([])

    def test_out_of_range_rejected(self):
        with pytest.raises(AggregationError):
            aggregate_level([50.0, 101.0])
        with pytest.raises(AggregationError):
            aggregate_level([-3.0])

    @given(values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8))
    def test_never_exceeds_plain_mean(self, values):
        assert aggregate_level(values) <= sum(values) / len(values) + 1e-9

    @given(values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8))
    def test_order_invariance(self, values):
        shuffled = values[:]
        random.Random(0).shuffle(shuffled)
        assert aggregate_level(values) == aggregate_level(shuffled)

    @given(values=SCORE_LISTS)
    # two children, as ten of the bundled tree's seventeen nodes have
    @example(values=[73.619, 78.077])
    @example(values=[78.077, 73.619])
    @example(values=[0.0, 100.0])
    @example(values=[33.333, 33.334])
    @example(values=[61.8, 61.8])
    @example(values=[50.0, 50.0 + 5e-13])  # inside the range tolerance
    def test_bit_identical_to_penalized_mean(self, values):
        assert aggregate_level(values).hex() == penalized_mean(values).hex()

    @given(values=st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=8))
    def test_matches_brute_force(self, values):
        assert aggregate_level(values) == pytest.approx(
            brute_penalized(values), rel=1e-9, abs=1e-9
        )


class TestAggregateScores:
    def test_domain_reproduction_all_territories(self, default_spec, indicator_table,
                                                 index_reference):
        _, tree = default_spec
        for terr in indicator_table.territories:
            rep = aggregate_scores(tree, indicator_table.row(terr), terr)
            for dom in rep.domain_values:
                assert rep.domain_values[dom] == pytest.approx(
                    index_reference[terr][dom], abs=0.01
                ), f"{terr}/{dom}"

    def test_top_territory_domain_vector(self, default_spec, indicator_table):
        _, tree = default_spec
        rep = aggregate_scores(
            tree, indicator_table.row("Provincia Autonoma di Trento"),
            "Provincia Autonoma di Trento",
        )
        expected = {
            "work": 69.325, "economy": 73.619, "knowledge": 66.104,
            "time": 69.607, "politics": 78.077, "health": 90.327,
        }
        for dom, value in expected.items():
            assert rep.domain_values[dom] == pytest.approx(value, abs=0.002)

    def test_missing_leaves_named(self, default_spec):
        _, tree = default_spec
        with pytest.raises(ScoringError, match="missing scores for.*G20"):
            aggregate_scores(tree, {"G1": 50.0}, "X")

    def test_missing_leaves_listed_in_tree_order(self, default_spec):
        _, tree = default_spec
        gaps = ("G2", "G17", "G9")
        scores = {leaf: 50.0 for leaf in tree.leaf_ids() if leaf not in gaps}
        with pytest.raises(ScoringError) as info:
            aggregate_scores(tree, scores, "X")
        assert str(info.value) == "partial report for 'X': missing scores for G2, G9, G17"

    def test_first_out_of_range_leaf_named(self, default_spec):
        _, tree = default_spec
        scores = {leaf: 50.0 for leaf in tree.leaf_ids()}
        scores.update(G3=101.0, G7=-3.0)
        with pytest.raises(AggregationError) as info:
            aggregate_scores(tree, scores, "X")
        assert str(info.value) == (
            "territory 'X', indicator 'G3': scores must lie in [0, 100], got 101.0"
        )

    @pytest.mark.parametrize("score, shown", [("x", "'x'"), (None, "None"), ([], "a list")])
    def test_a_non_number_score_names_its_leaf(self, default_spec, score, shown):
        _, tree = default_spec
        scores = {leaf: 50.0 for leaf in tree.leaf_ids()}
        scores.update(G5=score, G9=score)
        with pytest.raises(AggregationError) as info:
            aggregate_scores(tree, scores, "X")
        assert str(info.value) == (
            f"territory 'X', indicator 'G5': a score must be a number, got {shown}"
        )

    def test_nan_leaf_rejected(self, default_spec):
        _, tree = default_spec
        scores = {leaf: 50.0 for leaf in tree.leaf_ids()}
        scores["G12"] = float("nan")
        with pytest.raises(AggregationError) as info:
            aggregate_scores(tree, scores, "X")
        assert str(info.value) == (
            "territory 'X', indicator 'G12': scores must lie in [0, 100], got nan"
        )

    @given(
        scores=st.lists(
            st.floats(min_value=0, max_value=100), min_size=20, max_size=20
        )
    )
    def test_hierarchical_sandwich(self, scores, default_spec):
        _, tree = default_spec
        leaf_scores = dict(zip(tree.leaf_ids(), scores))
        rep = aggregate_scores(tree, leaf_scores, "X")
        for dom in tree.domains:
            for sub in dom.subdomains:
                children = [leaf_scores[i] for i in sub.indicators]
                v = rep.subdomain_values[(dom.id, sub.id)]
                assert min(children) - 1e-9 <= v <= max(children) + 1e-9
            sub_vals = [rep.subdomain_values[(dom.id, s.id)] for s in dom.subdomains]
            assert min(sub_vals) - 1e-9 <= rep.domain_values[dom.id] <= max(sub_vals) + 1e-9
        dom_vals = list(rep.domain_values.values())
        assert min(dom_vals) - 1e-9 <= rep.index <= max(dom_vals) + 1e-9
        assert 0.0 <= rep.index <= 100.0


# at and just inside the kernel's [0, 100] tolerance
EDGE_SCORES = st.sampled_from([0.0, 100.0, 100.0 - 1e-9, 100.0 + 1e-9, -1e-9, 1e-9])


@st.composite
def score_tables(draw, bad=None):
    """(tree, table): a random tree whose nodes have one, two or more children,
    and a table of its leaves in shuffled row and column order.

    Rows mix any in-range score, the tolerance's edges and constant rows; a
    ``bad`` strategy, when given, overwrites one or more cells.
    """
    leaf_ids = iter(f"L{k}" for k in range(1000))
    tree = IndexTree(domains=[
        Domain(id=f"d{d}", subdomains=[
            SubDomain(id=f"s{s}", indicators=[
                next(leaf_ids) for _ in range(draw(st.integers(1, 4)))
            ])
            for s in range(draw(st.integers(1, 3)))
        ])
        for d in range(draw(st.integers(1, 4)))
    ])
    leaves = list(tree.leaf_ids())
    cell = st.one_of(SCORES, EDGE_SCORES)
    row = st.one_of(
        st.lists(cell, min_size=len(leaves), max_size=len(leaves)),
        cell.map(lambda v: [v] * len(leaves)),
    )
    rows = draw(st.lists(row, min_size=0 if bad is None else 1, max_size=6))
    if bad is not None:
        cells = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(leaves) - 1), bad)
        for r, c, value in draw(st.lists(cells, min_size=1, max_size=3)):
            rows[r][c] = value
    territories = [f"T{k}" for k in range(len(rows))]
    order = draw(st.permutations(range(len(rows))))
    columns = draw(st.permutations(range(len(leaves))))
    table = ScoreTable(
        territories=tuple(territories[i] for i in order),
        indicators=tuple(leaves[j] for j in columns),
        columns=tuple(tuple(rows[i][j] for i in order) for j in columns),
    )
    return tree, table


def bits(value):
    return struct.pack("<d", value)


class TestAggregateTable:
    @settings(deadline=None)
    @given(case=score_tables())
    def test_equals_aggregate_scores_bit_for_bit(self, case):
        tree, table = case
        columns = aggregate_table(tree, table)
        assert columns.territories == table.territories
        for i, terr in enumerate(table.territories):
            rep = aggregate_scores(tree, table.row(terr), terr)
            for got, want in (
                (columns.indicator_scores, rep.indicator_scores),
                (columns.subdomain_values, rep.subdomain_values),
                (columns.domain_values, rep.domain_values),
            ):
                assert list(got) == list(want)
                assert [bits(col[i]) for col in got.values()] == list(map(bits, want.values()))
            assert bits(columns.index[i]) == bits(rep.index)
        assert all(
            len(col) == len(table.territories)
            for field in (columns.indicator_scores, columns.subdomain_values,
                          columns.domain_values)
            for col in field.values()
        )

    @settings(deadline=None)
    @given(case=score_tables(bad=st.sampled_from(
        [math.nan, -1.0, -2e-9, 100.0 + 2e-9, 101.0, math.inf, -math.inf]
    )))
    def test_refuses_as_the_rows_would(self, case):
        tree, table = case
        with pytest.raises(AggregationError) as row_by_row:
            for terr in table.territories:
                aggregate_scores(tree, table.row(terr), terr)
        with pytest.raises(AggregationError) as columnwise:
            aggregate_table(tree, table)
        assert str(columnwise.value) == str(row_by_row.value)

    def test_missing_leaf_names_the_first_territory(self, default_spec, indicator_table):
        _, tree = default_spec
        kept = [i for i, ind in enumerate(indicator_table.indicators) if ind not in ("G9", "G2")]
        table = ScoreTable(
            territories=indicator_table.territories[::-1],
            indicators=tuple(indicator_table.indicators[i] for i in kept),
            columns=tuple(indicator_table.columns[i][::-1] for i in kept),
        )
        with pytest.raises(ScoringError) as info:
            aggregate_table(tree, table)
        assert str(info.value) == (
            f"partial report for {table.territories[0]!r}: missing scores for G2, G9"
        )
        empty = aggregate_table(tree, table._replace(territories=(),
                                                     columns=tuple(() for _ in kept)))
        assert empty.index == [] and all(col == [] for col in empty.domain_values.values())

    @pytest.mark.parametrize("cell", ["x", None])
    def test_a_non_number_cell_names_its_territory_and_indicator(
        self, default_spec, indicator_table, cell
    ):
        _, tree = default_spec
        k = indicator_table.indicators.index("G4")
        column = list(indicator_table.columns[k])
        column[2] = column[5] = cell
        table = indicator_table._replace(
            columns=indicator_table.columns[:k] + (tuple(column),)
            + indicator_table.columns[k + 1:])
        with pytest.raises(AggregationError) as info:
            aggregate_table(tree, table)
        assert str(info.value) == (
            f"territory {table.territories[2]!r}, indicator 'G4': "
            f"a score must be a number, got {cell!r}"
        )

    def test_a_number_as_text_folds_as_its_row(self, default_spec, indicator_table):
        _, tree = default_spec
        k = indicator_table.indicators.index("G4")
        column = list(indicator_table.columns[k])
        column[2] = "50.5"
        table = indicator_table._replace(
            columns=indicator_table.columns[:k] + (tuple(column),)
            + indicator_table.columns[k + 1:])
        folded = aggregate_table(tree, table)
        assert folded.indicator_scores["G4"][2] == 50.5
        for i, terr in enumerate(table.territories):
            assert folded.index[i] == aggregate_scores(tree, table.row(terr), terr).index


# --- one range test per fold against a test of every node ---------------------


def per_node_fold_columns(columns):
    """The column fold as it was before leaf tables took one range test:
    every node tests each child column against the kernel's range."""
    for col in columns:
        if col and not (-_SCORE_EPS <= min(col) and max(col) <= 100.0 + _SCORE_EPS
                        and not math.isnan(sum(col))):
            raise AggregationError("a column holds a score outside [0, 100]")
    if len(columns) <= 2:
        return list(map(_pair_mean, *columns)) if len(columns) == 2 else list(columns[0])
    p = 1.0 / len(columns)
    means = [math.fsum(p * x for x in row) for row in zip(*columns)]
    folded = []
    for first, m, row in zip(columns[0], means, zip(*columns)):
        ran = max(row) - min(row)
        v = math.fsum(p * (x - m) ** 2 for x in row)
        folded.append(first if ran == 0.0 else m if ran <= RANGE_TOLERANCE
                      else m - v / (2.0 * ran))
    return folded


def per_node_aggregate_table(tree, table):
    """aggregate_table's (subdomain, domain, index) columns through the
    per-node fold, or the error its row-by-row replay raises."""
    by_indicator = dict(zip(table.indicators, table.columns))
    columns = [by_indicator[leaf] for leaf in tree.leaf_ids()]
    try:
        return _fold_tree(tree, columns, per_node_fold_columns)
    except AggregationError:
        for i, terr in enumerate(table.territories):
            aggregate_scores(tree, table._row_at(i), terr)
        raise


def fold_outcome(fold, tree, table):
    """Every folded value's bits, or the error's type and message."""
    try:
        folded = fold(tree, table)
    except IgeiError as exc:
        return type(exc), str(exc)
    if isinstance(folded, TableReport):
        folded = folded.subdomain_values, folded.domain_values, folded.index
    subdomains, domains, index = folded
    return ([(key, list(map(bits, col))) for key, col in subdomains.items()],
            [(key, list(map(bits, col))) for key, col in domains.items()],
            list(map(bits, index)))


FOLD_LEAVES = st.one_of(
    st.sampled_from([0.0, 100.0, -1e-9, 100.0 + 1e-9, 1e-300, math.nan]),
    st.floats(min_value=0, max_value=100),
)


@st.composite
def wide_score_tables(draw):
    """(tree, table): 1-7 children at every node and 0-4 rows of leaf scores."""
    leaf_ids = iter(f"L{k}" for k in range(400))
    children = st.integers(1, 7)
    tree = IndexTree(domains=[
        Domain(id=f"d{d}", subdomains=[
            SubDomain(id=f"s{s}", indicators=[next(leaf_ids) for _ in range(draw(children))])
            for s in range(draw(children))
        ])
        for d in range(draw(children))
    ])
    leaves = tree.leaf_ids()
    rows = draw(st.lists(st.lists(FOLD_LEAVES, min_size=len(leaves), max_size=len(leaves)),
                         max_size=4))
    return tree, ScoreTable(territories=tuple(f"T{k}" for k in range(len(rows))),
                            indicators=leaves,
                            columns=tuple(zip(*rows)) if rows else ((),) * len(leaves))


class TestOneRangeTestPerFold:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=wide_score_tables())
    def test_aggregate_table_equals_the_per_node_fold(self, case):
        tree, table = case
        assert (fold_outcome(aggregate_table, tree, table)
                == fold_outcome(per_node_aggregate_table, tree, table))

    def test_a_leaf_past_the_range_keeps_the_per_node_tests(self):
        # within the kernel's tolerance, so every node folds as before
        tree = IndexTree(domains=[Domain(id="d", subdomains=[
            SubDomain(id="s", indicators=["a", "b", "c"])])])
        table = ScoreTable(territories=("T",), indicators=("a", "b", "c"),
                           columns=((100.0 + 1e-9,), (-1e-9,), (50.0,)))
        assert (fold_outcome(aggregate_table, tree, table)
                == fold_outcome(per_node_aggregate_table, tree, table))


# cells at the kernel's edges: both zeros, the range's ends and its tolerance
EDGE_CELLS = st.sampled_from([-0.0, 0.0, 100.0, -_SCORE_EPS, 100.0 + _SCORE_EPS, 1e-9])
BAD_CELLS = st.sampled_from([math.nan, -1.0, -2e-9, 100.0 + 2e-9, 101.0, math.inf, -math.inf])


@st.composite
def fold_columns(draw, bad=False):
    """1 to 7 equal-length columns; rows mix any scores, edges, ties and
    constant rows, and with ``bad`` one to three cells the kernel refuses."""
    width = draw(st.integers(1, 7))
    cell = st.one_of(SCORES, EDGE_CELLS)
    row = st.one_of(
        st.lists(cell, min_size=width, max_size=width),
        cell.map(lambda v: [v] * width),
        st.lists(cell, min_size=1, max_size=2).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=width, max_size=width)
        ),
    )
    rows = draw(st.lists(row, min_size=1 if bad else 0, max_size=8))
    if bad:
        cells = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, width - 1), BAD_CELLS)
        for r, c, value in draw(st.lists(cells, min_size=1, max_size=3)):
            rows[r][c] = value
    return [[row[j] for row in rows] for j in range(width)]


class TestFoldColumns:
    @settings(deadline=None)
    @given(columns=fold_columns())
    # two children at the range's ends, exactly
    @example(columns=[[50.0, 100.0 + _SCORE_EPS], [1.0, -_SCORE_EPS]])
    @example(columns=[[100.0 + _SCORE_EPS, 0.0, 7.5], [-_SCORE_EPS, 100.0, 7.5]])
    def test_equals_the_row_kernel_bit_for_bit(self, columns):
        expected = list(map(_fold_scores, zip(*columns)))
        assert list(map(bits, _fold_columns(columns))) == list(map(bits, expected))

    @settings(deadline=None)
    @given(columns=fold_columns(bad=True))
    # a NaN after the first row: min and max pass over it
    @example(columns=[[50.0, math.nan]])
    @example(columns=[[50.0, 50.0], [50.0, math.nan], [1.0, 2.0]])
    # two children: a NaN in the last row, and one ulp past the range's end
    @example(columns=[[50.0, 60.0, 70.0], [1.0, 2.0, math.nan]])
    @example(columns=[[50.0, 60.0], [1.0, math.nextafter(100.0 + _SCORE_EPS, 200.0)]])
    def test_raises_on_every_bad_column(self, columns):
        # the row that holds the fault is named by the callers' replay, as
        # TestAggregateTable.test_refuses_as_the_rows_would pins
        with pytest.raises(AggregationError):
            list(map(_fold_scores, zip(*columns)))
        with pytest.raises(AggregationError):
            _fold_columns(columns)


class TestIndexTree:
    def test_leaf_ids_in_tree_order(self, default_spec):
        _, tree = default_spec
        expected = tuple(
            ind for dom in tree.domains for sub in dom.subdomains for ind in sub.indicators
        )
        assert tree.leaf_ids() == expected == tuple(f"G{i}" for i in range(1, 21))
        assert SYNTH_TREE.leaf_ids() == ("J1", "J2", "J3", "J4", "J5")
        # computed once, at construction
        assert tree.leaf_ids() is tree.leaf_ids()

    def test_equality_and_hash_see_only_the_domains(self):
        twin = IndexTree(domains=SYNTH_TREE.domains)
        assert twin == SYNTH_TREE and hash(twin) == hash(SYNTH_TREE)
        assert repr(twin) == f"IndexTree(domains={SYNTH_TREE.domains!r})"
        assert IndexTree._fields == ("domains",)
        assert twin != IndexTree(domains=SYNTH_TREE.domains[:1])
        pruned = SYNTH_TREE._replace(domains=SYNTH_TREE.domains[1:])
        assert pruned.leaf_ids() == ("J4", "J5")


    def test_repeated_domain_id(self):
        sub = SubDomain(id="s", indicators=("A",))
        twin = SubDomain(id="s", indicators=("B",))
        with pytest.raises(SpecError, match="^domain 'd' appears more than once$"):
            IndexTree(domains=(Domain(id="d", subdomains=(sub,)),
                               Domain(id="d", subdomains=(twin,))))

    def test_repeated_subdomain_id_within_a_domain(self):
        subs = (SubDomain(id="s", indicators=("A",)), SubDomain(id="s", indicators=("B",)))
        with pytest.raises(SpecError, match="^domain 'd': sub-domain 's' appears more than once$"):
            IndexTree(domains=(Domain(id="d", subdomains=subs),))


class TestCorrection:
    def test_kind_is_an_enum_and_accepts_its_value(self):
        own = Correction("own_average")
        assert own.kind is CorrectionKind.OWN_AVERAGE
        assert own == Correction(CorrectionKind.OWN_AVERAGE)
        assert hash(own) == hash(Correction(CorrectionKind.OWN_AVERAGE))
        assert own.kind == "own_average"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"kind": "bogus"}, "unknown correction kind 'bogus'"),
            ({"kind": "none", "indicator": "X"}, "'none' correction takes no source indicator"),
            (
                {"kind": "own_average", "indicator": "X"},
                "'own_average' correction takes no source indicator",
            ),
            ({"kind": "external"}, "external correction requires a source indicator id"),
            (
                {"kind": "external", "indicator": "X", "field": "all"},
                "external correction field must be one of ('total', 'women', 'men'), "
                "got 'all'",
            ),
        ],
    )
    def test_messages(self, kwargs, message):
        with pytest.raises(SpecError) as info:
            Correction(**kwargs)
        assert str(info.value) == message


class TestSpecTypesValidByConstruction:
    SUB = SubDomain("s", ("A",))

    # each value is built inside the test: construction is what refuses it
    @pytest.mark.parametrize(
        "build, message",
        [
            (
                partial(IndicatorSpec, "", "x", "capped"),
                "indicator id must be a non-empty string, got ''",
            ),
            (
                partial(IndicatorSpec, 7, "x", "capped"),
                "indicator id must be a non-empty string, got 7",
            ),
            (
                partial(IndicatorSpec, "G", "x", "bogus"),
                "indicator 'G': unknown metric kind 'bogus'",
            ),
            (
                partial(IndicatorSpec, "G", "x", "Standard"),
                "indicator 'G': unknown metric kind 'Standard'",
            ),
            (
                partial(IndicatorSpec, "G", "x", ["standard"]),
                "indicator 'G': unknown metric kind a list",
            ),
            (
                partial(IndicatorSpec, "G", "x", "standard", "up"),
                "indicator 'G': unknown polarity 'up'",
            ),
            (
                partial(IndicatorSpec, "G", "x", "standard", None),
                "indicator 'G': unknown polarity None",
            ),
            (
                partial(IndicatorSpec, "G", "x", "standard", correction="own_average"),
                "indicator 'G': correction must be a Correction, got 'own_average'",
            ),
            (
                partial(IndicatorSpec, "G", "x", "share", "negative"),
                "G: negative polarity is only defined for standard-metric "
                "(rate-valued) indicators",
            ),
            (partial(SubDomain, "", ("A",)), "sub-domain id must be a non-empty string, got ''"),
            (
                partial(SubDomain, None, ("A",)),
                "sub-domain id must be a non-empty string, got None",
            ),
            (partial(SubDomain, "s", "AB"), "sub-domain 's': indicators must be a list, got 'AB'"),
            (partial(SubDomain, "s", None), "sub-domain 's': indicators must be a list, got None"),
            (partial(SubDomain, "s", ()), "sub-domain 's' has no indicators"),
            (
                partial(SubDomain, "s", ("A", "")),
                "sub-domain 's': indicators must be indicator ids, got '' at position 2",
            ),
            (
                partial(SubDomain, "s", ["A", 3]),
                "sub-domain 's': indicators must be indicator ids, got 3 at position 2",
            ),
            (partial(Domain, 3, (SUB,)), "domain id must be a non-empty string, got 3"),
            (partial(Domain, "", (SUB,)), "domain id must be a non-empty string, got ''"),
            (
                partial(Domain, "d", SUB),
                "domain 'd': sub-domains must be a list, got SubDomain(id='s', indicators=('A',))",
            ),
            (partial(Domain, "d", []), "domain 'd' has no sub-domains"),
            (
                partial(Domain, "d", (SUB, "t")),
                "domain 'd': sub-domains must be SubDomain objects, got 't' at position 2",
            ),
            (partial(IndexTree, "d"), "index tree: domains must be a list, got 'd'"),
            (partial(Correction, None), "unknown correction kind None"),
            (
                partial(Correction, "external", indicator=["J1"]),
                "external correction requires a source indicator id",
            ),
            (
                partial(Correction, "external", indicator="J1", field=["total"] * 50),
                "external correction field must be one of ('total', 'women', 'men'), got a list",
            ),
            (partial(WeightedSequence, [1.0, float("nan")]), "value 2 is not finite: nan"),
            (partial(WeightedSequence, [float("-inf")]), "value 1 is not finite: -inf"),
            (
                partial(WeightedSequence, [1.0, 2.0], [float("nan")] * 2),
                "weight 1 is not finite: nan",
            ),
            (
                partial(WeightedSequence, [1.0, 2.0], [float("inf"), 0.0]),
                "weights must sum to 1, got inf",
            ),
        ],
    )
    def test_refused_value(self, build, message):
        with pytest.raises((SpecError, AggregationError)) as info:
            build()
        assert str(info.value) == message

    def test_indicators_stored_as_a_tuple(self):
        sub = SubDomain("s", ["A", "B"])
        assert sub.indicators == ("A", "B") and sub == SubDomain("s", ("A", "B"))
        dom = Domain("d", [sub])
        assert dom.subdomains == (sub,)
        assert IndexTree([dom]) == IndexTree((dom,))

    def test_values_behave_as_their_members(self):
        by_value = IndicatorSpec("J2", "J2", "standard", "negative", Correction("own_average"))
        by_member = spec_standard("J2", polarity=Polarity.NEGATIVE)
        assert by_value == by_member and hash(by_value) == hash(by_member)
        assert by_value.metric is MetricKind.STANDARD
        assert by_value.polarity is Polarity.NEGATIVE
        records = SYNTH_RECORDS[2:4]
        refs = resolve_references(records, {"J2": by_member}, ["X", "Y"])
        assert refs == resolve_references(records, {"J2": by_value}, ["X", "Y"])
        # negative polarity: 1 - x_w = 0.8, 1 - x_m = 0.6, 1 - x_a = 0.7 against 0.9
        score = compute_indicator(by_value, records[0], refs)
        assert score == compute_indicator(by_member, records[0], refs)
        assert score == pytest.approx((2 * 0.7 / 1.6) * (6 / 7) * 100, abs=1e-12)

    def test_polarity_value_scores_as_that_polarity(self):
        # a string polarity once failed an identity test and scored as positive
        obs = obs_standard("X", "G2", 0.2, 0.4)
        refs = ReferenceLevels(maxima={})
        negative = IndicatorSpec("G2", "x", MetricKind.STANDARD, "negative")
        positive = IndicatorSpec("G2", "x", MetricKind.STANDARD, "positive")
        assert compute_indicator(negative, obs, refs) == pytest.approx(100 * 6 / 7, abs=1e-12)
        assert compute_indicator(positive, obs, refs) == pytest.approx(100 * 2 / 3, abs=1e-12)


class TestObservationRecord:
    def test_slotted(self):
        record = obs_standard("X", "J1", 0.4, 0.6)
        assert not hasattr(record, "__dict__")
        with pytest.raises(TypeError):
            vars(record)

    def test_repr_equality_and_hash(self):
        record = obs_standard("X", "J1", 0.4, 0.6)
        assert repr(record) == (
            "ObservationRecord(territory='X', indicator='J1', period=2023, "
            "kind=<MetricKind.STANDARD: 'standard'>, x_w=0.4, x_m=0.6, x_a=None, "
            "value=None)"
        )
        twin = obs_standard("X", "J1", 0.4, 0.6)
        assert record == twin and record is not twin
        assert hash(record) == hash(twin)
        assert record != obs_standard("X", "J1", 0.4, 0.6, 0.5)
        assert len({record, twin}) == 1

    def test_replace_and_frozen(self):
        record = obs_standard("X", "J1", 0.4, 0.6)
        moved = record._replace(period=2024)
        assert moved.period == 2024 and record.period == 2023
        assert moved._replace(period=2023) == record
        with pytest.raises(AttributeError, match="cannot assign to field 'x_w'"):
            record.x_w = 0.5


    def test_kind_given_as_its_value(self):
        record = ObservationRecord("X", "J1", 2023, "standard", 0.4, 0.6)
        assert record.kind is MetricKind.STANDARD
        assert record == obs_standard("X", "J1", 0.4, 0.6)

    @pytest.mark.parametrize(
        "changes, problem",
        [
            (
                {"kind": "Standard"},
                "unknown metric kind 'Standard' "
                "(expected one of standard, share, ratio, capped)",
            ),
            ({"kind": None}, "unknown metric kind None"),
            ({"kind": ["standard"]}, "unknown metric kind ['standard']"),
            ({"period": "2023"}, "period must be an integer year, got '2023'"),
            ({"period": 2023.0}, "period must be an integer year, got 2023.0"),
            ({"period": True}, "period must be an integer year, got True"),
            ({"territory": ""}, "territory and indicator must be non-empty"),
            ({"x_w": "0.4"}, "levels must be numbers or None"),
        ],
    )
    def test_refused_when_built(self, changes, problem):
        fields = dict(territory="X", indicator="J1", period=2023, kind="standard",
                      x_w=0.4, x_m=0.6) | changes
        with pytest.raises(RecordError) as info:
            ObservationRecord(**fields)
        assert info.value.problem.startswith(problem)
        assert str(info.value).endswith(f": {info.value.problem}")


class TestDatasetBoundary:
    # each record is built inside the test: construction is what refuses it
    @pytest.mark.parametrize(
        "record, problem",
        [
            (
                partial(obs_standard("X", "J1", 0.4, 0.6)._replace, value=0.5),
                "standard observations take no single value",
            ),
            (
                partial(obs_standard, "X", "J1", 0.4, None),
                "standard observations need both x_w and x_m",
            ),
            (
                partial(obs_value("X", "J1", MetricKind.SHARE, 0.5)._replace, x_a=0.5),
                "share observations take only the value column",
            ),
            (
                partial(obs_value, "X", "J1", MetricKind.CAPPED, None),
                "capped observations need a value",
            ),
            (
                partial(obs_value, "X", "J1", MetricKind.SHARE, 1.5),
                "share value 1.5 is outside [0, 1]",
            ),
            (
                partial(obs_value, "X", "J1", MetricKind.RATIO, 0.0),
                "ratio value 0.0 must be positive",
            ),
            (
                partial(obs_standard, "X", "J1", -0.1, 0.6),
                "x_w must be non-negative, got -0.1",
            ),
            (
                partial(obs_standard, "X", "J1", 0.4, float("inf")),
                "x_m must be a finite number, got inf",
            ),
            (
                partial(obs_standard, "X", "J1", 0.4, 0.6, float("nan")),
                "x_a must be a finite number, got nan",
            ),
            (
                partial(obs_value, "X", "J1", MetricKind.CAPPED, float("nan")),
                "value must be a finite number, got nan",
            ),
            # an int compares exactly: 10**400 is below inf, but no float
            (
                partial(obs_standard, "X", "J1", 10**400, 1),
                "x_w must be a finite number, got an integer past the float range",
            ),
            (
                partial(obs_value, "X", "J1", MetricKind.RATIO, 10**400),
                "value must be a finite number, got an integer past the float range",
            ),
        ],
    )
    def test_refused_record_names_its_key(self, record, problem):
        with pytest.raises(DataError) as info:
            record()
        assert str(info.value) == f"territory 'X', indicator 'J1', period 2023: {problem}"

    def test_int_level_past_the_float_range_is_a_record_error(self):
        # it used to build, and Dataset then raised a bare OverflowError
        with pytest.raises(RecordError) as info:
            Dataset([ObservationRecord("X", "J1", 2023, "standard", 10**400, 1)])
        assert info.value.problem.startswith("x_w must be a finite number")
        largest = ObservationRecord("X", "J1", 2023, "standard", int(sys.float_info.max), 1)
        assert Dataset([largest]).columns("J1").x_w == (sys.float_info.max,)

    def test_lookups_build_new_equal_records(self):
        data = Dataset(SYNTH_RECORDS)
        found = data.get("X", "J1")
        assert found == SYNTH_RECORDS[0] and found is not SYNTH_RECORDS[0]
        assert data.get("X", "J1") is not found
        assert list(data) == SYNTH_RECORDS
        assert data.get("nowhere", "J1") is None and data.get("X", "J1", 1999) is None

    def test_repeated_key_refused(self):
        with pytest.raises(DataError) as info:
            Dataset(SYNTH_RECORDS + [obs_value("Y", "J5", MetricKind.CAPPED, 0.9)])
        assert str(info.value) == (
            "duplicate observation for territory 'Y', indicator 'J5', period 2023"
        )


class TestScoreTerritory:
    def test_synthetic_universe_against_hand_arithmetic(self):
        refs = resolve_references(SYNTH_RECORDS, SYNTH_SPECS, ["X", "Y"])
        rep = score_territory("X", SYNTH_RECORDS, SYNTH_SPECS, SYNTH_TREE, refs)

        j1 = (1.0 / 1.3) * 0.8 * 100
        j2 = (1.4 / 1.6) * (1 - 0.2 / 1.4) * 100
        j3 = (1.0 / 1.3) * 0.5 * 100
        j4 = (0.8 / 1.1) * (1 - 0.2 / 1.8) * 100
        j5 = 100.0
        s2 = two_value(min(j2, j3), max(j2, j3))
        d1 = two_value(min(j1, s2), max(j1, s2))
        d2 = two_value(min(j4, j5), max(j4, j5))
        index = two_value(min(d1, d2), max(d1, d2))

        assert rep.subdomain_values[("d1", "s1")] == pytest.approx(j1, rel=1e-12)
        assert rep.subdomain_values[("d1", "s2")] == pytest.approx(s2, rel=1e-12)
        assert rep.domain_values["d1"] == pytest.approx(d1, rel=1e-12)
        assert rep.domain_values["d2"] == pytest.approx(d2, rel=1e-12)
        assert rep.index == pytest.approx(index, rel=1e-12)

    def test_constant_scores_propagate(self, default_spec):
        specs, tree = default_spec
        # equal leaf scores collapse every level to the same constant
        rep = aggregate_scores(tree, {leaf: 61.8 for leaf in tree.leaf_ids()}, "X")
        assert rep.index == 61.8
        assert set(rep.domain_values.values()) == {61.8}
        assert set(rep.subdomain_values.values()) == {61.8}

    def test_missing_observation_named(self):
        refs = resolve_references(SYNTH_RECORDS, SYNTH_SPECS, ["X", "Y"])
        partial = [r for r in SYNTH_RECORDS if not (r.territory == "X" and r.indicator == "J5")]
        with pytest.raises(ScoringError, match="missing observations for J5"):
            score_territory("X", partial, SYNTH_SPECS, SYNTH_TREE, refs)

    def test_bad_level_names_the_record(self):
        # a nan level used to surface only in aggregation, naming no record
        refs = resolve_references(SYNTH_RECORDS, SYNTH_SPECS, ["X", "Y"])
        with pytest.raises(DataError) as info:
            records = [obs_standard("X", "J1", float("nan"), 0.6, 0.5)] + SYNTH_RECORDS[1:]
            score_territory("X", records, SYNTH_SPECS, SYNTH_TREE, refs)
        assert str(info.value) == (
            "territory 'X', indicator 'J1', period 2023: x_w must be a finite number, got nan"
        )


    def test_zero_pair_names_the_record(self):
        # a library caller that skips validate_dataset still learns which record
        records = [obs_standard("X", "J1", 0.0, 0.0, 0.5)] + SYNTH_RECORDS[1:]
        refs = resolve_references(records, SYNTH_SPECS, ["X", "Y"])
        with pytest.raises(ScoringError) as info:
            score_territory("X", records, SYNTH_SPECS, SYNTH_TREE, refs)
        assert str(info.value) == (
            "territory 'X', indicator 'J1', period 2023: "
            "gender gap is undefined when both levels are zero"
        )

    def test_wrong_kind_names_the_record(self):
        share = obs_value("X", "J5", MetricKind.SHARE, 0.5)
        records = SYNTH_RECORDS[:8] + [share, SYNTH_RECORDS[9]]
        refs = resolve_references(records, SYNTH_SPECS, ["X", "Y"])
        message = ("territory 'X', indicator 'J5', period 2023: "
                   "expected a capped observation, got share")
        with pytest.raises(ScoringError) as info:
            compute_indicator(SYNTH_SPECS["J5"], share, refs)
        assert str(info.value) == message
        with pytest.raises(ScoringError) as info:
            score_territory("X", records, SYNTH_SPECS, SYNTH_TREE, refs)
        assert str(info.value) == message


class TestScoreTimeSeries:
    @staticmethod
    def _period_records(jitter_y):
        records = []
        for period, dy in jitter_y:
            records += [
                obs_standard("A", "J1", 0.4, 0.6, 0.5, period=period),
                obs_standard("B", "J1", 0.4 + dy, 0.6 + dy, 0.5 + dy, period=period),
            ]
        return records

    def test_constant_territory_has_constant_scores(self):
        specs = {"J1": spec_standard("J1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2021, 0.0), (2022, 0.1), (2023, 0.3)])
        by_period = score_time_series(records, specs, tree)
        a_scores = [by_period[p]["A"].index for p in (2021, 2022, 2023)]
        assert a_scores[0] == pytest.approx(a_scores[1], abs=1e-12)
        assert a_scores[0] == pytest.approx(a_scores[2], abs=1e-12)
        b_scores = [by_period[p]["B"].index for p in (2021, 2022, 2023)]
        assert len(set(b_scores)) == 3

    def test_single_period_matches_plain_scoring(self):
        specs = {"J1": spec_standard("J1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2023, 0.2)])
        by_period = score_time_series(records, specs, tree)
        refs = resolve_references(records, specs, ["A", "B"])
        plain = score_territory("A", records, specs, tree, refs)
        assert by_period[2023]["A"].index == plain.index

    def test_reference_frozen_across_periods(self):
        # B overtakes the old maximum in the second period; A's data never
        # changes, so A's scores must not change either
        specs = {"J1": spec_standard("J1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2022, 0.0), (2023, 0.4)])
        by_period = score_time_series(records, specs, tree)
        assert by_period[2022]["A"].index == by_period[2023]["A"].index

    def test_inconsistent_coverage_rejected(self):
        specs = {"J1": spec_standard("J1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2022, 0.0), (2023, 0.1)])
        records.append(obs_standard("C", "J1", 0.5, 0.5, 0.5, period=2023))
        with pytest.raises(ScoringError, match="coverage"):
            score_time_series(records, specs, tree)

    @pytest.mark.parametrize("extra_period, differing", [(2021, 2022), (2023, 2023)])
    def test_pair_in_one_end_period_only(self, extra_period, differing):
        specs = {"J1": spec_standard("J1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2021, 0.0), (2022, 0.1), (2023, 0.2)])
        records.append(obs_standard("C", "J1", 0.5, 0.5, 0.5, period=extra_period))
        with pytest.raises(ScoringError) as info:
            score_time_series(records, specs, tree)
        assert str(info.value) == (
            f"inconsistent indicator coverage across periods (period {differing} "
            f"differs from period 2021)"
        )

    def test_coverage_error_names_first_differing_period(self):
        specs = {"J1": spec_standard("J1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2021, 0.0), (2022, 0.1), (2023, 0.2)])
        # 2022 lacks B and 2023 gains C: the check reports the earlier period
        records = [r for r in records if (r.territory, r.period) != ("B", 2022)]
        records.insert(0, obs_standard("C", "J1", 0.5, 0.5, 0.5, period=2023))
        with pytest.raises(
            ScoringError, match=r"period 2022 differs from period 2021"
        ):
            score_time_series(records, specs, tree)


# --- the scoring walk against scoring one record at a time --------------------

LEVEL_STEPS = st.integers(min_value=1, max_value=20).map(lambda k: k / 20)


@st.composite
def walk_cases(draw):
    """Records of SYNTH_SPECS over 1-4 territories and 1-3 periods, in any
    order, a scope, and now and then one fault: a negative-polarity rate
    above 1, a missing leaf, or a pair that lacks a period. The specs are
    SYNTH_SPECS with the negative-polarity J2 corrected by its own average,
    not at all, or by J1's total."""
    correction = draw(st.sampled_from([
        Correction("own_average"), Correction("none"),
        Correction("external", indicator="J1", field="total"),
    ]))
    specs = {**SYNTH_SPECS,
             "J2": spec_standard("J2", polarity=Polarity.NEGATIVE, correction=correction)}
    territories = [f"T{i}" for i in range(draw(st.integers(1, 4)))]
    periods = list(range(2020, 2020 + draw(st.integers(1, 3))))
    records = []
    for terr in territories:
        for period in periods:
            records += [
                obs_standard(terr, "J1", draw(LEVEL_STEPS), draw(LEVEL_STEPS),
                             draw(LEVEL_STEPS), period=period),
                obs_standard(terr, "J2", draw(LEVEL_STEPS), draw(LEVEL_STEPS),
                             draw(LEVEL_STEPS), period=period),
                obs_value(terr, "J3", MetricKind.SHARE, draw(LEVEL_STEPS), period=period),
                obs_value(terr, "J4", MetricKind.RATIO, 2 * draw(LEVEL_STEPS), period=period),
                obs_value(terr, "J5", MetricKind.CAPPED, 1.5 * draw(LEVEL_STEPS), period=period),
            ]
    fault = draw(st.sampled_from([None, None, "rate", "leaf", "period"]))
    victim = draw(st.sampled_from(records))
    if fault == "rate":
        # one or two cells: which is first depends on the period, then the territory
        cells = draw(st.lists(st.tuples(st.sampled_from(territories), st.sampled_from(periods)),
                              min_size=1, max_size=2))
        # a total above 1 fails whatever the correction: scoring puts it on the working scale
        level = draw(st.sampled_from(["x_m", "x_a"]))
        records = [
            rec._replace(**{level: 1.2})
            if rec.indicator == "J2" and (rec.territory, rec.period) in cells else rec
            for rec in records
        ]
    elif fault == "leaf":
        records = [rec for rec in records
                   if (rec.territory, rec.indicator) != (victim.territory, victim.indicator)]
    elif fault == "period":
        records.remove(victim)
    # a scope short of every territory can leave an achievement above its reference
    scope = draw(st.lists(st.sampled_from(territories), min_size=1, unique=True))
    return draw(st.permutations(records)), scope, specs


def total_fault_case(correction):
    """A clean dataset but for a negative-polarity total above 1 on J2, corrected
    by ``correction``: drawn cases rarely lack other faults."""
    records = [
        obs_standard("T0", "J1", 0.5, 0.5, 0.5), obs_standard("T0", "J2", 0.5, 0.5, 1.2),
        obs_value("T0", "J3", MetricKind.SHARE, 0.5), obs_value("T0", "J4", MetricKind.RATIO, 1.0),
        obs_value("T0", "J5", MetricKind.CAPPED, 0.5),
    ]
    specs = {**SYNTH_SPECS,
             "J2": spec_standard("J2", polarity=Polarity.NEGATIVE, correction=correction)}
    return records, ["T0"], specs


TOTAL_FAULTS = [total_fault_case(Correction("none")),
                total_fault_case(Correction("external", indicator="J1", field="total"))]


def walk_edge(scope=("T0", "T1"), j1=Correction("own_average"), **changes):
    """A clean dataset of SYNTH_SPECS (J1 corrected by ``j1``) over T0 and T1,
    T1's rows last in every block, with the levels ``T1_J2={"x_m": ...}``
    names replaced."""
    records = []
    for terr, step in (("T0", 0.0), ("T1", 0.1)):
        records += [
            obs_standard(terr, "J1", 0.4 + step, 0.6, 0.5 + step),
            obs_standard(terr, "J2", 0.3, 0.5 - step, 0.4),
            obs_value(terr, "J3", MetricKind.SHARE, 0.4 + step),
            obs_value(terr, "J4", MetricKind.RATIO, 0.8 + step),
            obs_value(terr, "J5", MetricKind.CAPPED, 0.7 + step),
        ]
    records = [rec._replace(**changes.get(f"{rec.territory}_{rec.indicator}", {}))
               for rec in records]
    return records, list(scope), {**SYNTH_SPECS, "J1": spec_standard("J1", correction=j1)}


# the column tests' edges, each in T1's rows: out of the scope, a total and a
# women's level exactly equal to the scope's reference, and a total one ulp
# above it; a negative-polarity rate of exactly 1 and one ulp above it; both
# levels zero, on the raw and on the working scale; a missing total outside
# the scope, which J3 borrows, with J1 corrected by it and with J1 uncorrected
WALK_EDGES = [
    walk_edge(["T0"], T1_J1={"x_w": 0.4, "x_a": 0.5}),
    walk_edge(["T0"], T1_J1={"x_w": 0.4, "x_a": math.nextafter(0.5, 1.0)}),
    walk_edge(T1_J2={"x_m": 1.0}),
    walk_edge(T1_J2={"x_m": ULP_ABOVE_ONE}),
    walk_edge(T1_J1={"x_w": 0.0, "x_m": 0.0}),
    walk_edge(T1_J2={"x_w": 1.0, "x_m": 1.0}),
    walk_edge(["T0"], T1_J1={"x_a": None}),
    walk_edge(["T0"], j1=Correction("none"), T1_J1={"x_a": None}),
]


def record_by_record(records, specs, refs, territories, periods):
    """TerritoryReports scored one record at a time, in period, territory and
    leaf order, through compute_indicator and aggregate_scores."""
    reports = {}
    for period in periods:
        for terr in territories:
            matches = {}
            for rec in records:
                if rec.territory == terr and (period is None or rec.period == period):
                    matches.setdefault(rec.indicator, []).append(rec)
            scores, gaps = {}, []
            for leaf in SYNTH_TREE.leaf_ids():
                found = matches.get(leaf, [])
                if len(found) > 1:
                    raise DataError(
                        f"multiple periods recorded for territory {terr!r}, indicator "
                        f"{leaf!r}; pass an explicit period or score as a time series"
                    )
                if not found:
                    gaps.append(leaf)
                    continue
                scores[leaf] = compute_indicator(specs[leaf], found[0], refs)
            if gaps:
                raise ScoringError(
                    f"partial report for {terr!r}: missing observations for {', '.join(gaps)}"
                )
            reports[(period, terr)] = aggregate_scores(SYNTH_TREE, scores, terr, period=period)
    return reports


def as_columns(reports):
    """The values of TerritoryReports or of a TableReport, one list per tree node."""
    if isinstance(reports, list):
        return {
            "territories": [rep.territory for rep in reports],
            "index": [rep.index for rep in reports],
            **{node: [getattr(rep, field)[node] for rep in reports]
               for field in ("indicator_scores", "subdomain_values", "domain_values")
               for node in getattr(reports[0], field)},
        }
    return {
        "territories": list(reports.territories),
        "index": list(reports.index),
        **{node: list(column)
           for field in ("indicator_scores", "subdomain_values", "domain_values")
           for node, column in getattr(reports, field).items()},
    }


def outcome(call, *args, **kwargs):
    """repr of the result, or the type and text of the IgeiError raised."""
    try:
        return repr(call(*args, **kwargs))
    except (DataError, ScoringError, AggregationError) as exc:
        return type(exc).__name__, str(exc)


class TestScoringWalk:
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=walk_cases())
    @example(case=TOTAL_FAULTS[0])
    @example(case=TOTAL_FAULTS[1])
    @with_examples(WALK_EDGES)
    def test_score_territory_is_record_by_record(self, case):
        records, scope, specs = case
        territories = list(dict.fromkeys(rec.territory for rec in records))
        periods = sorted({rec.period for rec in records})
        data = Dataset(records)
        time_mode = len(periods) > 1
        refs = outcome(resolve_references, data, specs, scope, time_mode=time_mode)
        if isinstance(refs, tuple):
            return
        refs = resolve_references(data, specs, scope, time_mode=time_mode)
        for period in periods + [None]:
            for terr in territories + ["nowhere"]:
                expected = outcome(
                    lambda: record_by_record(records, specs, refs, [terr], [period])[
                        (period, terr)]
                )
                got = outcome(score_territory, terr, data, specs, SYNTH_TREE, refs,
                              period=period)
                assert got == expected, (terr, period)
        if len(periods) == 1:
            # score_table is the walk's one-period case
            expected = outcome(lambda: as_columns(
                list(record_by_record(records, specs, refs, territories, [None]).values())
            ))
            assert outcome(lambda: as_columns(score_table(data, specs, SYNTH_TREE, refs))) == (
                expected
            )

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=walk_cases())
    @example(case=TOTAL_FAULTS[0])
    @example(case=TOTAL_FAULTS[1])
    @with_examples(WALK_EDGES)
    def test_score_time_series_is_record_by_record(self, case):
        records, scope, specs = case
        territories = list(dict.fromkeys(rec.territory for rec in records))
        periods = sorted({rec.period for rec in records})
        coverage = {p: {(r.territory, r.indicator) for r in records if r.period == p}
                    for p in periods}
        differing = next((p for p in periods if coverage[p] != coverage[periods[0]]), None)

        def expected():
            if differing is not None:
                raise ScoringError(
                    f"inconsistent indicator coverage across periods (period {differing} "
                    f"differs from period {periods[0]})"
                )
            refs = resolve_references(records, specs, scope, time_mode=True)
            reports = record_by_record(records, specs, refs, territories, periods)
            return {p: {t: reports[(p, t)] for t in territories} for p in periods}

        assert outcome(score_time_series, records, specs, SYNTH_TREE, scope=scope) == (
            outcome(expected)
        )

    def test_int_levels_score_as_their_floats(self):
        # a record may hold int levels; its Dataset stores them as floats once
        levels = {"J1": ((2, 3, 5), (7, 3, 4)), "J2": ((0, 1, 1), (1, 0, 0)),
                  "J3": (1, 0), "J4": (2, 1), "J5": (1, 3)}
        ints = [
            obs_standard(terr, ind, *level, period=period) if isinstance(level, tuple)
            else obs_value(terr, ind, SYNTH_SPECS[ind].metric, level, period=period)
            for period in (2022, 2023) for ind, pair in levels.items()
            for terr, level in zip(("X", "Y"), pair)
        ]
        floats = [rec._replace(**{name: float(v) for name in ("x_w", "x_m", "x_a", "value")
                                  if (v := getattr(rec, name)) is not None})
                  for rec in ints]
        assert type(ints[0].x_w) is int and ints == floats
        data = Dataset(ints)
        for ind in levels:
            block = data.columns(ind)
            assert {type(v) for col in block[3:] for v in col} <= {float, type(None)}
        assert list(data) == ints and type(next(iter(data)).x_w) is float  # read back as floats
        for period in (2022, 2023):
            in_period = [rec for rec in ints if rec.period == period]
            refs = resolve_references(Dataset(in_period), SYNTH_SPECS, ["X", "Y"])
            assert repr(refs) == repr(resolve_references(
                Dataset([rec for rec in floats if rec.period == period]), SYNTH_SPECS, ["X", "Y"]))
            expected = record_by_record(in_period, SYNTH_SPECS, refs, ["X", "Y"], [None])
            table = score_table(Dataset(in_period), SYNTH_SPECS, SYNTH_TREE, refs)
            assert repr(as_columns(table)) == repr(as_columns(list(expected.values())))
        assert repr(score_time_series(ints, SYNTH_SPECS, SYNTH_TREE)) == repr(
            score_time_series(floats, SYNTH_SPECS, SYNTH_TREE))

    def test_first_fault_is_first_in_period_then_territory_order(self):
        # T0 fails in 2021 and T1 in 2020: scoring period by period meets T1 first
        records = [
            obs_standard(terr, "J1", 0.5, 0.5, 0.5, period=period)
            for terr in ("T0", "T1") for period in (2020, 2021)
        ]
        records[1] = records[1]._replace(x_m=1.2)
        records[2] = records[2]._replace(x_w=1.3)
        specs = {"J1": spec_standard("J1", polarity=Polarity.NEGATIVE)}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        with pytest.raises(ScoringError) as info:
            score_time_series(records, specs, tree)
        assert str(info.value) == (
            "territory 'T1', indicator 'J1', period 2020: "
            "polarity inversion is only defined for rates, got 1.3"
        )

    def test_empty_dataset_scores_to_an_empty_table(self, default_spec):
        specs, tree = default_spec
        refs = ReferenceLevels({ind: 1.0 for ind in specs})
        resolved = score_table(Dataset([]), specs, tree, refs)
        assert resolved.territories == () and resolved.index == []
        assert score_table(Dataset([]), specs, tree, ReferenceLevels({})) == resolved


# --- the column tests against the scalar checks they stand for ----------------

PAST_HALF_MAX = math.nextafter(_HALF_MAX, math.inf)
# levels at the tests' edges: both zeros, a rate of exactly 1 and one ulp above
# it, half the float range and one ulp past it, and the largest float
EDGE_LEVELS = st.sampled_from([0.0, -0.0, 1.0, ULP_ABOVE_ONE, 3.0, _HALF_MAX, PAST_HALF_MAX,
                               sys.float_info.max])
# references and correction bases, which refs may hold as any number or lack
REFERENCES = st.one_of(
    st.sampled_from([None, math.nan, math.inf, -math.inf, -1.0, -0.0, 0.0, 5e-324, 0.25, 1.0,
                     ULP_ABOVE_ONE, _HALF_MAX, PAST_HALF_MAX]),
    st.floats(allow_nan=True, allow_infinity=True),
)
RATES = st.sampled_from([0.0, 0.25, 0.5, 1.0])
OWN = Correction("own_average")
EXTERNAL = Correction("external", indicator="S", field="total")
CLEAN_VALUES = {
    MetricKind.STANDARD: RATES,
    MetricKind.SHARE: RATES,
    MetricKind.RATIO: st.sampled_from([5e-324, 0.5, 1.0, 3.0, sys.float_info.max]),
    MetricKind.CAPPED: st.sampled_from([0.0, 0.5, 1.0, 3.0, sys.float_info.max]),
}


def block_record(i, kind, draw):
    """The fields of record ``i`` of a block, of ``kind``, with clean levels."""
    fields = {"territory": f"T{i}", "indicator": "K", "period": 2020 + i % 2, "kind": kind}
    if kind is MetricKind.STANDARD:
        fields.update(x_w=draw(RATES), x_m=draw(RATES), x_a=draw(RATES))
    else:
        fields.update(value=draw(CLEAN_VALUES[kind]))
    return fields


@st.composite
def scored_blocks(draw):
    """A spec of any kind, polarity and correction, its block of 1-5 records
    and refs, clean at first (every level a rate, the reference 1) and then
    spoiled 0-2 times: a record of another kind, a level at an edge or
    missing, or a reference or base anywhere or missing."""
    metric = draw(st.sampled_from(list(MetricKind)))
    standard = metric is MetricKind.STANDARD
    polarity = draw(st.sampled_from(list(Polarity))) if standard else Polarity.POSITIVE
    corrections = [Correction("none")]
    if metric is not MetricKind.CAPPED:
        corrections.append(EXTERNAL)
    if standard:
        corrections.append(OWN)
    spec = IndicatorSpec(id="K", label="K", metric=metric, polarity=polarity,
                         correction=draw(st.sampled_from(corrections)))
    rows = [block_record(i, metric, draw) for i in range(draw(st.integers(1, 5)))]
    maxima = {"K": 1.0}
    bases = {("K", row["territory"], row["period"]): draw(RATES) for row in rows}
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2, 2]))):
        spoil = draw(st.sampled_from(["kind", "level", "level", "reference", "base"]))
        i = draw(st.integers(0, len(rows) - 1))
        if spoil == "kind":
            rows[i] = block_record(i, draw(st.sampled_from(list(MetricKind))), draw)
        elif spoil == "level" and rows[i]["kind"] is MetricKind.STANDARD:
            name = draw(st.sampled_from(["x_w", "x_m", "x_a"]))
            rows[i][name] = draw(st.one_of(EDGE_LEVELS, st.none()) if name == "x_a"
                                 else EDGE_LEVELS)
        elif spoil in ("reference", "base"):
            key = "K" if spoil == "reference" else ("K", rows[i]["territory"], rows[i]["period"])
            store = maxima if spoil == "reference" else bases
            store[key] = draw(REFERENCES)
            if store[key] is None:
                del store[key]
    return spec, [ObservationRecord(**row) for row in rows], ReferenceLevels(maxima, bases)


def standard_case(levels, polarity=Polarity.POSITIVE, correction=Correction("none"), **refs):
    """A standard spec's block of (x_w, x_m, x_a) rows, and its refs."""
    records = [obs_standard(f"T{i}", "K", *row) for i, row in enumerate(levels)]
    return spec_standard("K", polarity, correction), records, ReferenceLevels(**refs)


# zeros in two different rows, which every scorer accepts, and in one row,
# which it refuses, on the raw scale and on the working scale of a
# negative-polarity rate; then one edge of each other test: a total above the
# reference or missing, a negative-polarity rate one ulp above 1, a level or a
# reference past half the float range, and a NaN base after a clean one, which
# min and max pass over
BLOCK_EDGES = [
    standard_case([(0.0, 0.5, None), (0.5, 0.0, None)], maxima={}),
    standard_case([(0.5, 0.5, None), (0.0, -0.0, None)], maxima={}),
    standard_case([(1.0, 0.5, 0.5), (0.5, 1.0, 0.5)], Polarity.NEGATIVE, OWN, maxima={"K": 0.5}),
    standard_case([(0.5, 0.5, 0.5), (1.0, 1.0, 0.5)], Polarity.NEGATIVE, OWN, maxima={"K": 0.5}),
    standard_case([(0.5, 0.5, 1.0), (0.5, 0.5, 3.0)], correction=OWN, maxima={"K": 1.0}),
    standard_case([(0.5, 0.5, 1.0), (0.5, 0.5, None)], correction=OWN, maxima={"K": 1.0}),
    standard_case([(0.5, 0.5, None), (0.5, ULP_ABOVE_ONE, None)], Polarity.NEGATIVE, maxima={}),
    standard_case([(ULP_ABOVE_ONE, 0.5, None)], Polarity.NEGATIVE, maxima={}),
    standard_case([(0.5, 0.5, ULP_ABOVE_ONE)], Polarity.NEGATIVE, maxima={}),
    standard_case([(0.5, 0.5, None), (PAST_HALF_MAX, 0.5, None)], maxima={}),
    standard_case([(0.5, 0.5, 0.5)], correction=OWN, maxima={"K": PAST_HALF_MAX}),
    standard_case([(0.5, 0.5, None)] * 2, correction=EXTERNAL, maxima={"K": 1.0},
                  bases={("K", "T0", 2023): 0.5, ("K", "T1", 2023): math.nan}),
]


def refuses(spec, records, refs):
    """Whether compute_indicator refuses some record."""
    for rec in records:
        try:
            compute_indicator(spec, rec, refs)
        except ScoringError:
            return True
    return False


class TestColumnTestsAreExact:
    @settings(derandomize=True, database=None, deadline=None, max_examples=800)
    @given(case=scored_blocks())
    @with_examples(BLOCK_EDGES)
    def test_column_scores_refuse_exactly_when_a_row_would(self, case):
        spec, records, refs = case
        scores = _column_scores(spec, Dataset(records).columns("K"), refs)
        assert (scores is None) == refuses(spec, records, refs)
        if scores is not None:
            expected = [compute_indicator(spec, rec, refs) for rec in records]
            assert list(map(bits, scores)) == list(map(bits, expected))

    @settings(derandomize=True, database=None, deadline=None, max_examples=800)
    @given(case=scored_blocks())
    @with_examples(BLOCK_EDGES)
    def test_block_clean_exactly_when_no_row_has_a_finding(self, case):
        spec, records, _ = case
        block = Dataset(records).columns("K")
        assert _block_clean(spec, block) == (next(_block_findings(spec, block), None) is None)
