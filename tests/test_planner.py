"""Augmentation recipes: factors, counts, preconditions, coverage."""

import math
import warnings

import pytest

from auction_lab import (
    ComponentExtra,
    EqualRevenue,
    EstimatorConfig,
    Exponential,
    MixtureDistribution,
    RevenueEstimate,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceSubsetReserve,
    TwoPoint,
    Uniform,
    build_market,
    coverage_probability,
    estimate_mc,
    evaluate_plan,
    expected_revenue_quadrature,
    guarantee_factor,
    nontargeted_counts,
    plan_hr_dominant,
    plan_no_reserve,
    plan_nontargeted,
    plan_nontargeted_hr,
    plan_random_subset,
    plan_sample_reserve,
    plan_targeted,
    select_anonymous_reserve,
)
from auction_lab.errors import (
    AssumptionUnverified,
    GroupTooSmall,
    InvalidDelta,
    IrregularComponent,
    IrregularComponentWarning,
    NoDominantComponent,
)
from auction_lab.planner import (
    ANON_RESERVE,
    HR_DOMINANT,
    NO_RESERVE,
    NONTARGETED,
    NONTARGETED_HR,
    RANDOM_SUBSET,
    RECIPES,
    SAMPLE_RESERVE,
    TARGETED,
)


class TestPlanTargeted:
    def test_one_extra_per_component(self):
        m = build_market((Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 2)
        plan = plan_targeted(m)
        assert plan.guarantee_factor == 2.0
        assert plan.extras == (ComponentExtra(0), ComponentExtra(1))

    def test_single_component_degenerates_to_one_extra(self):
        m = build_market((Uniform(0, 1),), [[1.0]] * 2)
        plan = plan_targeted(m)
        assert len(plan.extras) == 1 and plan.guarantee_factor == 2.0

    def test_atomic_component_rejected(self):
        m = build_market((TwoPoint(1, 100, 0.01),), [[1.0]] * 2)
        with pytest.raises(IrregularComponent):
            plan_targeted(m)


class TestPlanHrDominant:
    def test_larger_uniform_dominates(self):
        m = build_market((Uniform(0, 2), Uniform(0, 1)), [[0.5, 0.5]] * 2)
        plan = plan_hr_dominant(m)
        assert plan.extras == (ComponentExtra(0),)
        assert plan.guarantee_factor == 2.0

    def test_exponential_dominates_uniform(self):
        # h_exp = 1 <= 1/(1-x) = h_uniform on [0, 1)
        m = build_market((Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 2)
        plan = plan_hr_dominant(m)
        assert plan.extras == (ComponentExtra(1),)

    def test_crossing_reported(self):
        m = build_market((Uniform(0, 1), Exponential(2.0)), [[0.5, 0.5]] * 2)
        with pytest.raises(NoDominantComponent) as err:
            plan_hr_dominant(m)
        crossing = err.value.crossing
        assert crossing is not None
        assert crossing[2] == pytest.approx(0.5, abs=2e-3)  # hazards cross at 1/2

    def test_dominant_found_past_the_rival_tail_underflow(self):
        # Exp(10)'s tail underflows near x = 75 on Exp(0.1)'s grid; its
        # hazard stays 10 there, so component 1 (hazard 0.1) dominates
        m = build_market((Exponential(10.0), Exponential(0.1)), [[0.5, 0.5]] * 2)
        plan = plan_hr_dominant(m)
        assert plan.reserve_component == 1
        assert plan.extras == (ComponentExtra(1),)

    def test_no_dominant_past_the_rival_tail_underflow(self):
        # Uniform(0, 80)'s hazard passes 10 only on (79.9, 80), where
        # Exp(10)'s density and tail have underflowed
        m = build_market((Uniform(0, 80), Exponential(10.0)), [[0.5, 0.5]] * 2)
        with pytest.raises(NoDominantComponent) as err:
            plan_hr_dominant(m)
        assert 79.9 < err.value.crossing[2] < 80.0


class TestNontargetedCounts:
    def test_worked_example(self):
        # ceil(ln(20) / 0.2) = ceil(14.978...) = 15
        n_general, factor, _, _ = nontargeted_counts(4, 0.2)
        assert n_general == 15
        assert factor == pytest.approx(2.0 * 5 / 4)

    def test_hr_count(self):
        _, _, n_hr, factor_hr = nontargeted_counts(4, 0.2, p1=0.1)
        assert n_hr == 10
        assert factor_hr == pytest.approx(2.0 * math.e / (math.e - 1.0))

    def test_k_equals_one(self):
        n_general, _, _, _ = nontargeted_counts(1, 1.0)
        assert n_general == 1  # ceil(ln 2)

    def test_invalid_delta(self):
        with pytest.raises(InvalidDelta):
            nontargeted_counts(4, 0.3)  # delta > 1/k
        with pytest.raises(InvalidDelta):
            nontargeted_counts(4, 0.0)
        with pytest.raises(InvalidDelta):
            nontargeted_counts(2, 0.5, p1=1.5)

    def test_monotonicity_in_delta_and_k(self):
        base, _, _, _ = nontargeted_counts(3, 0.1)
        tighter, _, _, _ = nontargeted_counts(3, 0.05)
        assert tighter >= base  # n* nonincreasing in delta
        bigger_k, _, _, _ = nontargeted_counts(5, 0.1)
        assert bigger_k >= base  # n* nondecreasing in k


class TestIidPlans:
    def test_nontargeted_plan_counts(self):
        m = build_market(
            (Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 3
        )
        plan = plan_nontargeted(m)
        assert plan.count == math.ceil(math.log(6) / 0.5)
        assert plan.guarantee_factor == pytest.approx(3.0)  # 2 * 3/2

    def test_nontargeted_hr_plan(self):
        m = build_market((Uniform(0, 2), Uniform(0, 1)), [[0.25, 0.75]] * 3)
        plan = plan_nontargeted_hr(m)
        assert plan.count == 4  # ceil(1/0.25)
        assert plan.reserve_component == 0

    def test_marginal_recipes_refuse_non_iid(self):
        m = build_market((Uniform(0, 2), Uniform(0, 1)), [[0.5, 0.5], [0.3, 0.7], [0.8, 0.2]])
        with pytest.raises(InvalidDelta):
            plan_nontargeted(m)
        with pytest.raises(InvalidDelta):
            plan_nontargeted_hr(m)


class TestAnonymousReserve:
    def test_candidates_and_factor(self):
        m = build_market((Uniform(0, 1), Uniform(0, 2)), [[0.5, 0.5]] * 2)
        plan = select_anonymous_reserve(m)
        assert plan.guarantee_factor == 8.0  # 4k with k=2
        assert plan.mechanism.reserve in (
            pytest.approx(0.5, rel=1e-6),
            pytest.approx(1.0, rel=1e-6),
        )

    def test_single_component(self):
        m = build_market((Uniform(0, 1),), [[1.0]] * 2)
        plan = select_anonymous_reserve(m)
        assert plan.guarantee_factor == 4.0
        assert isinstance(plan.mechanism, SecondPriceAnonymousReserve)
        assert plan.mechanism.reserve == pytest.approx(0.5, rel=1e-6)

    def test_ranks_candidates_by_exact_revenue(self):
        m = build_market((Uniform(0, 1), Exponential(1.0)), [[0.3, 0.7]] * 3)
        plan = select_anonymous_reserve(m)
        mixtures = [m.bidder_mixture(i) for i in range(m.n)]
        revenues = [
            expected_revenue_quadrature(mixtures, c.monopoly_reserve()).mean
            for c in m.components
        ]
        assert plan.reserve_component == revenues.index(max(revenues))
        assert plan.mechanism == SecondPriceAnonymousReserve(
            m.components[plan.reserve_component].monopoly_reserve()
        )

    def test_equal_revenue_candidate_skipped_and_named(self):
        m = build_market((Uniform(0, 1), EqualRevenue()), [[0.5, 0.5]] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = select_anonymous_reserve(m)
        assert plan.reserve_component == 0
        flagged = {a.name: a for a in plan.assumptions}
        attained = flagged["all_candidates_attained"]
        assert attained.verified is False
        assert attained.detail == "1/2 candidates; component 1 (EqualRevenue) unattained"
        # phi of the equal-revenue law is -1 everywhere: regular on the grid
        assert flagged["components_regular_mixture"].verified is True
        with pytest.raises(AssumptionUnverified, match="all_candidates_attained"):
            guarantee_factor(plan)

    def test_irregular_component_leaves_the_factor_unverified(self):
        bimodal = MixtureDistribution((Exponential(10.0), Exponential(0.1)), (0.9, 0.1))
        with pytest.warns(IrregularComponentWarning):
            m = build_market((bimodal, Uniform(0, 1)), [[0.5, 0.5]] * 3)
        plan = select_anonymous_reserve(m)
        flagged = {a.name: a for a in plan.assumptions}
        assert flagged["components_regular_mixture"].verified is False
        assert "component 0" in flagged["components_regular_mixture"].detail
        with pytest.raises(AssumptionUnverified):
            guarantee_factor(plan)

    def test_atomic_component_leaves_the_factor_unverified(self):
        m = build_market((TwoPoint(1, 4, 0.2), Uniform(0, 1)), [[0.5, 0.5]] * 3)
        plan = select_anonymous_reserve(m)
        with pytest.raises(AssumptionUnverified):
            guarantee_factor(plan)


class TestSampleBasedPlans:
    def market(self):
        return build_market(
            (Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 8
        )

    def test_three_plans_with_factors(self):
        m = self.market()
        assert plan_sample_reserve(m, (4, 4)).guarantee_factor == pytest.approx(2 * 5 / 4)
        assert plan_no_reserve(m, (4, 4)).guarantee_factor == pytest.approx(2 * 4 / 3)
        assert plan_random_subset(m).mechanism == SecondPriceSubsetReserve((0, 1))
        sample = plan_sample_reserve(m)
        assert sample.mechanism == SecondPriceSubsetReserve((8, 9))
        assert sample.extras == (ComponentExtra(0), ComponentExtra(1))
        assert plan_no_reserve(m).mechanism == SecondPrice()

    def test_t_two_gives_factor_four(self):
        assert plan_no_reserve(self.market(), (2, 2)).guarantee_factor == pytest.approx(4.0)

    def test_sample_reserve_near_two_for_single_group(self):
        m = build_market((Uniform(0, 1),), [[1.0]] * 8)
        assert plan_sample_reserve(m, (8,)).guarantee_factor == pytest.approx(2 * 9 / 8)

    def test_each_recipe_raises_its_own_group_too_small(self):
        m = self.market()
        with pytest.raises(GroupTooSmall, match="no-reserve guarantee needs t >= 2"):
            plan_no_reserve(m, (1, 5))
        assert plan_sample_reserve(m, (1, 5)).guarantee_factor == pytest.approx(4.0)
        with pytest.raises(GroupTooSmall, match="sample reserve needs t >= 1"):
            plan_sample_reserve(m, (0, 5))
        with pytest.raises(GroupTooSmall, match="subset reserve needs more bidders"):
            plan_random_subset(build_market((Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 2))

    def test_one_group_size_per_component(self):
        with pytest.raises(ValueError):
            plan_sample_reserve(self.market(), (4,))

    def test_heuristic_group_sizes_flagged(self):
        for plan in (plan_sample_reserve(self.market()), plan_no_reserve(self.market())):
            flags = {a.name: a.verified for a in plan.assumptions}
            assert flags["group_sizes_known"] is False
            with pytest.raises(AssumptionUnverified):
                guarantee_factor(plan)

    def test_guarantee_factor_on_verified_plan(self):
        m = build_market((Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 2)
        plan = plan_targeted(m)
        assert guarantee_factor(plan) == 2.0


class TestCoverage:
    def test_coupon_collector_bound(self):
        k, delta = 4, 0.2
        n_star, _, _, _ = nontargeted_counts(k, delta)
        p_hat, se = coverage_probability((0.2, 0.2, 0.2, 0.4), n_star, 100_000, seed=5)
        assert p_hat >= 1.0 - 1.0 / (k + 1) - 3.0 * se

    def test_coverage_increases_with_draws(self):
        lo, _ = coverage_probability((0.5, 0.5), 2, 50_000, seed=7)
        hi, _ = coverage_probability((0.5, 0.5), 8, 50_000, seed=7)
        assert hi > lo


class TestEvaluatePlan:
    def test_targeted_beats_half_benchmark(self):
        from auction_lab import discriminating_benchmark

        m = build_market(
            (Uniform(0, 1), Exponential(1.0)), [[0.3, 0.7], [0.8, 0.2]]
        )
        cfg = EstimatorConfig(seed=13, n_samples=150_000)
        plan = plan_targeted(m)
        rev = evaluate_plan(m, plan, cfg)
        bench = discriminating_benchmark(m)
        se = math.hypot(bench.std_err, 2 * rev.std_err)
        assert bench.mean <= plan.guarantee_factor * rev.mean + 4 * se

    def test_nontargeted_extends_market(self):
        m = build_market((Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 2)
        plan = plan_nontargeted(m)
        cfg = EstimatorConfig(seed=17, n_samples=50_000)
        rev = evaluate_plan(m, plan, cfg)
        base = evaluate_plan(
            m, plan_targeted(m), EstimatorConfig(seed=17, n_samples=50_000)
        )
        assert rev.mean > 0.0 and base.mean > 0.0

    def test_subset_reserve_plan_runs(self):
        m = build_market((Uniform(0, 1),), [[1.0]] * 6)
        cfg = EstimatorConfig(seed=19, n_samples=50_000)
        rev = evaluate_plan(m, plan_random_subset(m), cfg)
        assert rev.mean > 0.0

    def test_sample_based_bounds_on_grouped_regular_market(self):
        # two groups of four bidders, each pinned to one regular component
        from auction_lab import discriminating_benchmark

        rows = [[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4
        m = build_market((Uniform(0, 1), Exponential(1.0)), rows)
        cfg = EstimatorConfig(seed=23, n_samples=200_000)
        bench = discriminating_benchmark(m)  # the single realized profile
        for plan in (plan_sample_reserve(m, (4, 4)), plan_no_reserve(m, (4, 4))):
            rev = evaluate_plan(m, plan, cfg)
            se = math.hypot(bench.std_err, plan.guarantee_factor * rev.std_err)
            assert bench.mean <= plan.guarantee_factor * rev.mean + 4 * se, plan.strategy


def _oracle_auction(market, plan):
    """The strategy -> (market, mechanism, extras) table evaluate_plan once held.

    The sample reserve has no entry: its auction is its plan's mechanism and
    extras, pinned by SAMPLE_RESERVE_ESTIMATE instead.
    """
    if plan.strategy in (TARGETED, HR_DOMINANT):
        return market, SecondPrice(), plan.extras
    if plan.strategy in (NONTARGETED, NONTARGETED_HR):
        return market.extended(plan.count), SecondPrice(), ()
    if plan.strategy == ANON_RESERVE:
        reserve = market.components[plan.reserve_component].monopoly_reserve()
        return market, SecondPriceAnonymousReserve(reserve), ()
    if plan.strategy == RANDOM_SUBSET:
        return market, SecondPriceSubsetReserve(tuple(range(market.k))), ()
    if plan.strategy == NO_RESERVE:
        return market, SecondPrice(), ()
    raise AssertionError(plan.strategy)


# evaluate_plan of plan_sample_reserve on TestPlanCarriesItsAuction.MARKET at
# seed 31, 20 000 samples, 3 streams, as computed when the mechanism drew its
# reserve from the stream after the bidders: the component extras draw the
# same uniforms in the same order, so the bits must not move
SAMPLE_RESERVE_ESTIMATE = RevenueEstimate(
    mean=float.fromhex("0x1.cc7f85890b972p-1"),  # 0.8994104127685161
    std_err=float.fromhex("0x1.24043aa9312a8p-8"),  # 0.004455818482885711
    n_samples=20_000,
    method="mc",
)


class TestPlanCarriesItsAuction:
    # i.i.d., regular, U(0, 2) hazard-rate dominant, delta = 1/k, groups of 3
    MARKET = build_market((Uniform(0, 2), Uniform(0, 1)), [[0.5, 0.5]] * 6)

    def plans(self):
        m = self.MARKET
        return [
            plan_targeted(m),
            plan_hr_dominant(m),
            plan_nontargeted(m),
            plan_nontargeted_hr(m),
            select_anonymous_reserve(m),
            plan_sample_reserve(m),
            plan_random_subset(m),
            plan_no_reserve(m),
        ]

    def test_every_recipe_applies(self):
        plans = self.plans()
        strategies = {p.strategy for p in plans}
        assert strategies == {
            TARGETED, HR_DOMINANT, NONTARGETED, NONTARGETED_HR,
            ANON_RESERVE, SAMPLE_RESERVE, RANDOM_SUBSET, NO_RESERVE,
        }

    def test_recipes_name_each_strategy_once(self):
        strategies = [strategy for strategy, _ in RECIPES]
        assert sorted(strategies) == sorted({
            TARGETED, HR_DOMINANT, NONTARGETED, NONTARGETED_HR,
            ANON_RESERVE, SAMPLE_RESERVE, RANDOM_SUBSET, NO_RESERVE,
        })

    def test_each_recipe_builds_its_strategy(self):
        # every recipe applies to MARKET, so no row of the table goes unchecked
        for strategy, builder in RECIPES:
            assert builder(self.MARKET).strategy == strategy

    def test_evaluate_plan_bit_identical_to_the_strategy_table(self):
        cfg = EstimatorConfig(seed=31, n_samples=20_000, n_streams=3)
        for plan in self.plans():
            if plan.strategy == SAMPLE_RESERVE:
                continue
            market, mech, extras = _oracle_auction(self.MARKET, plan)
            assert evaluate_plan(self.MARKET, plan, cfg) == estimate_mc(
                market, mech, extras, cfg
            ), plan.strategy

    def test_sample_reserve_estimate_pinned(self):
        cfg = EstimatorConfig(seed=31, n_samples=20_000, n_streams=3)
        plan = plan_sample_reserve(self.MARKET)
        assert evaluate_plan(self.MARKET, plan, cfg) == SAMPLE_RESERVE_ESTIMATE
