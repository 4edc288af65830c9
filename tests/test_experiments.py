"""Built-in experiments and the sweep market generators."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auction_lab import (
    BUILTIN_EXPERIMENTS,
    SecondPriceAnonymousReserve,
    build_market,
    estimate_mc,
    hr_crossing,
    hr_ordered_markets,
    plan_hr_dominant,
    plan_targeted,
    random_mixture_markets,
    regularity_check,
    run_experiment,
)
from auction_lab import Uniform
from auction_lab import experiments
from auction_lab.errors import AssumptionUnverified
from auction_lab.planner import Assumption
from auction_lab.reports import ExperimentReport, ReportRow


class TestGenerators:
    def test_random_markets_shapes_and_regularity(self):
        markets = random_mixture_markets(seed=2, count=12)
        assert len(markets) == 12
        for m in markets:
            assert 2 <= m.n <= 4 and 1 <= m.k <= 3
            assert np.all(m.weights > 0.0)
            assert m.delta >= 0.04
            for comp in m.components:
                assert regularity_check(comp)

    def test_hr_markets_have_dominant_first_component(self):
        for m in hr_ordered_markets(seed=2, count=8):
            assert m.k >= 2
            for t in range(1, m.k):
                assert hr_crossing(m.components[0], m.components[t]) is None
            # degenerate rows: every bidder pinned to one component
            assert np.all(np.sort(m.weights, axis=1)[:, -1] == 1.0)
            assert plan_hr_dominant(m).reserve_component == 0

    def test_generators_deterministic(self):
        a = random_mixture_markets(seed=9, count=3)
        b = random_mixture_markets(seed=9, count=3)
        assert [m.components for m in a] == [m.components for m in b]
        assert all(np.array_equal(x.weights, y.weights) for x, y in zip(a, b))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 12))
    def test_sweep_components_have_tail_index_above_two(self, seed, count):
        # a value with tail index above 2 has a finite variance, and so does
        # every order statistic of the market's values: 4-SE verdicts mean something
        for gen in (random_mixture_markets, hr_ordered_markets):
            for m in gen(seed, count):
                assert all(c.tail_index > 2.0 for c in m.components), gen.__name__


class TestSweepStructure:
    def test_thm1_rows_per_market(self):
        rep = run_experiment("thm1-sweep", seed=2, n_samples=2_000)
        assert len(rep.rows) == 40  # benchmark + bound row per market
        assert all(r.verdict == "pass" for r in rep.rows if r.verdict)

    def test_hr_sweep_reports_commensurateness(self):
        rep = run_experiment("hr-lemma-sweep", seed=2, n_samples=20_000)
        eq6 = [r for r in rep.rows if "eq6" in r.mechanism]
        assert len(eq6) == 10
        assert all(r.mean == 1.0 for r in eq6)

    def test_horizon_flag_moves_benchmark(self):
        lo = run_experiment("appendix-lb", seed=2, horizon=1e3)
        hi = run_experiment("appendix-lb", seed=2, horizon=1e6)
        get = lambda rep: [r for r in rep.rows if r.mechanism == "discriminating_benchmark"][0]
        assert get(lo).mean < get(hi).mean < 1.75


class TestPlannerExperimentAgreement:
    def test_targeted_and_hr_agree_at_k_one(self):
        m = build_market((Uniform(0, 1),), [[1.0]] * 3)
        t = plan_targeted(m)
        h = plan_hr_dominant(m)
        assert t.guarantee_factor == h.guarantee_factor == 2.0
        assert t.extras == h.extras


SWEEP_BUILDERS = [
    ("thm1-sweep", "plan_targeted", "sp_plus_\\d_extras"),
    ("hr-lemma-sweep", "plan_hr_dominant", "sp_plus_dominant_extra"),
    ("reserve-4k-sweep", "select_anonymous_reserve", "sp_reserve_0.123"),
]


class TestSweepsRunThePlan:
    """Each sweep prices the auction its plan builder returns, at the plan's factor."""

    def spy(self, monkeypatch, builder, **changes):
        real = getattr(experiments, builder)
        plans = []

        def spy(market):
            plan = replace(real(market), **changes)
            plans.append((market, plan))
            return plan

        monkeypatch.setattr(experiments, builder, spy)
        return plans

    @pytest.mark.parametrize("name, builder, label", SWEEP_BUILDERS)
    def test_auction_and_factor_come_from_the_plan(self, monkeypatch, name, builder, label):
        mech = SecondPriceAnonymousReserve(0.123)
        plans = self.spy(monkeypatch, builder, guarantee_factor=7.5, mechanism=mech)
        seed, n_samples, n_streams = 4, 2_000, 2
        rows = BUILTIN_EXPERIMENTS[name](seed, n_samples, n_streams, 1e6, count=2)
        assert len(plans) == 2
        recipe = [r for r in rows if r.bound_tested.startswith("benchmark <=")]
        assert [r.bound_tested for r in recipe] == ["benchmark <= 7.5*mean + 4se"] * 2
        for idx, ((market, plan), row) in enumerate(zip(plans, recipe)):
            assert re.fullmatch(f"m{idx:02d}:{label}", row.mechanism)
            cfg = experiments._market_cfg(seed, idx, n_samples, n_streams)
            assert row.mean == estimate_mc(market, mech, plan.extras, cfg).mean

    @pytest.mark.parametrize("name, builder, label", SWEEP_BUILDERS)
    def test_unverified_premise_raises(self, monkeypatch, name, builder, label):
        self.spy(monkeypatch, builder, assumptions=(Assumption("premise", False, "spy"),))
        with pytest.raises(AssumptionUnverified, match="premise"):
            BUILTIN_EXPERIMENTS[name](4, 2_000, 2, 1e6, count=1)


def test_report_passed_property_and_exit_semantics():
    ok = ExperimentReport(
        "s", (ReportRow("a", 1.0, 0.0, 0, "mc", "b", "pass"),), seed=0
    )
    bad = ExperimentReport(
        "s", (ReportRow("a", 1.0, 0.0, 0, "mc", "b", "fail"),), seed=0
    )
    assert ok.passed and not bad.passed


def test_emit_exit_code_two_on_verdict_failure(monkeypatch, capsys):
    import auction_lab.cli as cli

    failing = ExperimentReport(
        "forced", (ReportRow("x", 0.0, 0.0, 0, "mc", "bound", "fail"),), seed=0
    )
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: failing)
    assert cli.main(["reproduce", "thm1-sweep"]) == 2
