import dataclasses
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from igei.dataio import load_observations, bundled_path, load_index_spec
from igei.errors import AggregationError, DataError, ScoringError, SpecError
from igei.metrics import MetricKind
from igei.model import (
    Correction,
    Dataset,
    Domain,
    IndexTree,
    IndicatorSpec,
    ObservationRecord,
    SubDomain,
)
from igei.penalized import Polarity, penalized_mean
from igei.pipeline import (
    ReferenceLevels,
    aggregate_level,
    aggregate_scores,
    compute_indicator,
    resolve_references,
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


def spec_standard(ind, polarity=Polarity.POSITIVE, correction=Correction("own_average"),
                  domain="d", subdomain="s"):
    return IndicatorSpec(
        id=ind, label=ind, domain=domain, subdomain=subdomain,
        metric=MetricKind.STANDARD, polarity=polarity, correction=correction,
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
    "J1": spec_standard("J1", domain="d1", subdomain="s1"),
    "J2": spec_standard("J2", polarity=Polarity.NEGATIVE, domain="d1", subdomain="s2"),
    "J3": IndicatorSpec(
        id="J3", label="J3", domain="d1", subdomain="s2", metric=MetricKind.SHARE,
        correction=Correction("external", indicator="J1", field="total"),
    ),
    "J4": IndicatorSpec(
        id="J4", label="J4", domain="d2", subdomain="d2", metric=MetricKind.RATIO,
        correction=Correction("external", indicator="J1", field="women"),
    ),
    "J5": IndicatorSpec(
        id="J5", label="J5", domain="d2", subdomain="d2", metric=MetricKind.CAPPED,
    ),
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
                id="J3", label="J3", domain="d", subdomain="s", metric=MetricKind.SHARE,
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
        # records built in code skip the loader's checks; a nan level made
        # the maximum depend on the scope's order
        specs = {"J1": spec_standard("J1")}
        records = [
            obs_standard("X", "J1", 0.4, 0.6, bad),
            obs_standard("Y", "J1", 0.5, 0.7, 0.6),
        ]
        messages = set()
        for scope in (["X", "Y"], ["Y", "X"]):
            with pytest.raises(DataError) as info:
                resolve_references(records, specs, scope)
            messages.add(str(info.value))
        problem = "must be non-negative" if bad < 0 else "must be a finite number"
        assert messages == {
            f"territory 'X', indicator 'J1', period 2023: x_a {problem}, got {bad}"
        }

    def test_bad_external_level_names_source(self):
        # J3 borrows J1's total; a bad total of an out-of-scope territory
        # would become its correction base
        records = SYNTH_RECORDS + [obs_standard("Z", "J1", 0.4, 0.6, float("nan"))]
        with pytest.raises(DataError) as info:
            resolve_references(records, SYNTH_SPECS, ["Y"])
        assert str(info.value) == (
            "territory 'Z', indicator 'J1', period 2023: x_a must be a finite number, got nan"
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
        id="ET", label="ET", domain="d", subdomain="s", metric=MetricKind.SHARE,
        correction=Correction("external", indicator="S1", field="total"),
    ),
    "EW": IndicatorSpec(
        id="EW", label="EW", domain="d", subdomain="s", metric=MetricKind.RATIO,
        correction=Correction("external", indicator="S1", field="women"),
    ),
    "EM": IndicatorSpec(
        id="EM", label="EM", domain="d", subdomain="s", metric=MetricKind.SHARE,
        correction=Correction("external", indicator="S2", field="men"),
    ),
    "C": IndicatorSpec(id="C", label="C", domain="d", subdomain="s",
                       metric=MetricKind.CAPPED),
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


class TestResolveReferencesOracle:
    @given(case=resolution_cases())
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
        spec = IndicatorSpec(
            id="S", label="S", domain="d", subdomain="s", metric=MetricKind.SHARE
        )
        obs = obs_value("X", "S", MetricKind.SHARE, 0.5)
        assert compute_indicator(spec, obs, ReferenceLevels(maxima={})) == pytest.approx(
            100.0, abs=1e-12
        )

    def test_capped_published_value(self):
        spec = IndicatorSpec(
            id="C", label="C", domain="d", subdomain="s", metric=MetricKind.CAPPED
        )
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
        bad = ObservationRecord(
            territory="X", indicator="J3", period=2023, kind=MetricKind.SHARE
        )
        with pytest.raises(ScoringError, match="lacks a value"):
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
        assert str(info.value) == "scores must lie in [0, 100], got 101.0"

    def test_nan_leaf_rejected(self, default_spec):
        _, tree = default_spec
        scores = {leaf: 50.0 for leaf in tree.leaf_ids()}
        scores["G12"] = float("nan")
        with pytest.raises(AggregationError) as info:
            aggregate_scores(tree, scores, "X")
        assert str(info.value) == "scores must lie in [0, 100], got nan"

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
        assert [f.name for f in dataclasses.fields(IndexTree)] == ["domains"]
        assert twin != IndexTree(domains=SYNTH_TREE.domains[:1])
        pruned = dataclasses.replace(SYNTH_TREE, domains=SYNTH_TREE.domains[1:])
        assert pruned.leaf_ids() == ("J4", "J5")


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
        moved = dataclasses.replace(record, period=2024)
        assert moved.period == 2024 and record.period == 2023
        assert dataclasses.replace(moved, period=2023) == record
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.x_w = 0.5


class TestDatasetBoundary:
    @pytest.mark.parametrize(
        "record, problem",
        [
            (
                dataclasses.replace(obs_standard("X", "J1", 0.4, 0.6), value=0.5),
                "standard observations take no single value",
            ),
            (obs_standard("X", "J1", 0.4, None), "standard observations need both x_w and x_m"),
            (
                dataclasses.replace(obs_value("X", "J1", MetricKind.SHARE, 0.5), x_a=0.5),
                "share observations take only the value column",
            ),
            (obs_value("X", "J1", MetricKind.CAPPED, None), "capped observations need a value"),
            (obs_value("X", "J1", MetricKind.SHARE, 1.5), "share value 1.5 is outside [0, 1]"),
            (obs_value("X", "J1", MetricKind.RATIO, 0.0), "ratio value 0.0 must be positive"),
            (obs_standard("X", "J1", -0.1, 0.6), "x_w must be non-negative, got -0.1"),
            (obs_standard("X", "J1", 0.4, float("inf")), "x_m must be a finite number, got inf"),
            (
                obs_standard("X", "J1", 0.4, 0.6, float("nan")),
                "x_a must be a finite number, got nan",
            ),
            (
                obs_value("X", "J1", MetricKind.CAPPED, float("nan")),
                "value must be a finite number, got nan",
            ),
        ],
    )
    def test_refused_record_names_its_key(self, record, problem):
        with pytest.raises(DataError) as info:
            Dataset([SYNTH_RECORDS[1], record])
        assert str(info.value) == f"territory 'X', indicator 'J1', period 2023: {problem}"

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
        records = [obs_standard("X", "J1", float("nan"), 0.6, 0.5)] + SYNTH_RECORDS[1:]
        with pytest.raises(DataError) as info:
            score_territory("X", records, SYNTH_SPECS, SYNTH_TREE, refs)
        assert str(info.value) == (
            "territory 'X', indicator 'J1', period 2023: x_w must be a finite number, got nan"
        )


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
        specs = {"J1": spec_standard("J1", domain="d1", subdomain="s1")}
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
        specs = {"J1": spec_standard("J1", domain="d1", subdomain="s1")}
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
        specs = {"J1": spec_standard("J1", domain="d1", subdomain="s1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2022, 0.0), (2023, 0.4)])
        by_period = score_time_series(records, specs, tree)
        assert by_period[2022]["A"].index == by_period[2023]["A"].index

    def test_inconsistent_coverage_rejected(self):
        specs = {"J1": spec_standard("J1", domain="d1", subdomain="s1")}
        tree = IndexTree(
            domains=(Domain(id="d1", subdomains=(SubDomain(id="s1", indicators=("J1",)),)),)
        )
        records = self._period_records([(2022, 0.0), (2023, 0.1)])
        records.append(obs_standard("C", "J1", 0.5, 0.5, 0.5, period=2023))
        with pytest.raises(ScoringError, match="coverage"):
            score_time_series(records, specs, tree)

    @pytest.mark.parametrize("extra_period, differing", [(2021, 2022), (2023, 2023)])
    def test_pair_in_one_end_period_only(self, extra_period, differing):
        specs = {"J1": spec_standard("J1", domain="d1", subdomain="s1")}
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
        specs = {"J1": spec_standard("J1", domain="d1", subdomain="s1")}
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
