"""Augmentation recipes: factors, counts, preconditions, coverage."""

import math

import pytest

from auction_lab import (
    ComponentExtra,
    EqualRevenue,
    EstimatorConfig,
    Exponential,
    TwoPoint,
    Uniform,
    build_market,
    coverage_probability,
    evaluate_plan,
    guarantee_factor,
    nontargeted_counts,
    plan_hr_dominant,
    plan_nontargeted,
    plan_nontargeted_hr,
    plan_targeted,
    sample_based_plans,
    select_anonymous_reserve,
)
from auction_lab.errors import (
    AssumptionUnverified,
    GroupTooSmall,
    InvalidDelta,
    IrregularComponent,
    NoDominantComponent,
)
from auction_lab.planner import NO_RESERVE, RANDOM_SUBSET, SAMPLE_RESERVE


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
        cfg = EstimatorConfig(seed=3, n_samples=50_000)
        plan = select_anonymous_reserve(m, cfg)
        assert plan.guarantee_factor == 8.0  # 4k with k=2
        assert plan.reserve in (pytest.approx(0.5, rel=1e-6), pytest.approx(1.0, rel=1e-6))

    def test_single_component(self):
        m = build_market((Uniform(0, 1),), [[1.0]] * 2)
        cfg = EstimatorConfig(seed=3, n_samples=20_000)
        plan = select_anonymous_reserve(m, cfg)
        assert plan.guarantee_factor == 4.0
        assert plan.reserve == pytest.approx(0.5, rel=1e-6)

    def test_plan_carries_the_evidence_estimate(self):
        m = build_market((Uniform(0, 1), Exponential(1.0)), [[0.3, 0.7]] * 3)
        cfg = EstimatorConfig(seed=7, n_samples=30_000)
        plan = select_anonymous_reserve(m, cfg)
        assert plan.estimate == evaluate_plan(m, plan, cfg)

    def test_equal_revenue_candidate_skipped_with_warning(self):
        m = build_market((Uniform(0, 1), EqualRevenue()), [[0.5, 0.5]] * 2)
        cfg = EstimatorConfig(seed=3, n_samples=20_000)
        with pytest.warns(UserWarning):
            plan = select_anonymous_reserve(m, cfg)
        assert plan.reserve_component == 0
        flagged = {a.name: a.verified for a in plan.assumptions}
        assert flagged["all_candidates_attained"] is False


class TestSampleBasedPlans:
    def market(self):
        return build_market(
            (Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 8
        )

    def test_three_plans_with_factors(self):
        plans = sample_based_plans(self.market(), group_sizes=(4, 4))
        by = {p.strategy: p for p in plans}
        assert by[SAMPLE_RESERVE].guarantee_factor == pytest.approx(2 * 5 / 4)
        assert by[NO_RESERVE].guarantee_factor == pytest.approx(2 * 4 / 3)
        assert by[RANDOM_SUBSET].subset == (0, 1)

    def test_t_two_gives_factor_four(self):
        plans = sample_based_plans(self.market(), group_sizes=(2, 2))
        by = {p.strategy: p for p in plans}
        assert by[NO_RESERVE].guarantee_factor == pytest.approx(4.0)

    def test_sample_reserve_near_two_for_single_group(self):
        m = build_market((Uniform(0, 1),), [[1.0]] * 8)
        plans = sample_based_plans(m, group_sizes=(8,), include=(SAMPLE_RESERVE,))
        assert plans[0].guarantee_factor == pytest.approx(2 * 9 / 8)

    def test_no_reserve_needs_t_at_least_two(self):
        with pytest.raises(GroupTooSmall):
            sample_based_plans(self.market(), group_sizes=(1, 5))

    def test_heuristic_group_sizes_flagged(self):
        plans = sample_based_plans(self.market())
        by = {p.strategy: p for p in plans}
        flags = {a.name: a.verified for a in by[SAMPLE_RESERVE].assumptions}
        assert flags["group_sizes_known"] is False
        with pytest.raises(AssumptionUnverified):
            guarantee_factor(by[SAMPLE_RESERVE])

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
        bench = discriminating_benchmark(m, cfg)
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
        plans = sample_based_plans(m, group_sizes=(6,), include=(RANDOM_SUBSET,))
        cfg = EstimatorConfig(seed=19, n_samples=50_000)
        rev = evaluate_plan(m, plans[0], cfg)
        assert rev.mean > 0.0

    def test_sample_based_bounds_on_grouped_regular_market(self):
        # two groups of four bidders, each pinned to one regular component
        from auction_lab import discriminating_benchmark

        rows = [[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4
        m = build_market((Uniform(0, 1), Exponential(1.0)), rows)
        cfg = EstimatorConfig(seed=23, n_samples=200_000)
        bench = discriminating_benchmark(m, cfg)  # the single realized profile
        plans = sample_based_plans(
            m, group_sizes=(4, 4), include=(SAMPLE_RESERVE, NO_RESERVE)
        )
        for plan in plans:
            rev = evaluate_plan(m, plan, cfg)
            se = math.hypot(bench.std_err, plan.guarantee_factor * rev.std_err)
            assert bench.mean <= plan.guarantee_factor * rev.mean + 4 * se, plan.strategy
