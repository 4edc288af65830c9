"""Acceptance criteria.

Each test prints one ACCEPTANCE line (pass/fail) and then asserts, so
`pytest -s tests/test_acceptance.py` doubles as the certification run.
The heavy randomized sweeps (criteria 2-4, 7) share module-scoped results
computed at 10^6 Monte Carlo samples; criterion 9 checks their recipe rows
against the exact revenue of the same plans, with no new draws.
"""

import math
import time

import numpy as np
import pytest

from auction_lab import (
    EqualRevenue,
    EstimatorConfig,
    Exponential,
    MixtureDistribution,
    MyersonRegular,
    PostedSequence,
    PowerLaw,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceBidderReserves,
    TruncatedNormal,
    Uniform,
    coverage_probability,
    expected_revenue_quadrature,
    hr_ordered_markets,
    iron_distribution,
    nontargeted_counts,
    plan_hr_dominant,
    plan_targeted,
    random_mixture_markets,
    run_experiment,
    select_anonymous_reserve,
    virtual_surplus_gap,
)
from auction_lab.revenue import _column_laws

SEED = 20130
N_MC = 10**6
N_STREAMS = 8


def report(number: int, passed: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {number:02d} [{'PASS' if passed else 'FAIL'}] {detail}")
    return passed


@pytest.fixture(scope="module")
def thm1_sweep():
    return run_experiment("thm1-sweep", seed=SEED, n_samples=N_MC, n_streams=N_STREAMS)


@pytest.fixture(scope="module")
def hr_sweep():
    return run_experiment(
        "hr-lemma-sweep", seed=SEED, n_samples=N_MC, n_streams=N_STREAMS
    )


@pytest.fixture(scope="module")
def reserve_sweep():
    return run_experiment(
        "reserve-4k-sweep", seed=SEED, n_samples=N_MC, n_streams=N_STREAMS
    )


def test_criterion_1_appendix_lower_bound_numbers():
    start = time.perf_counter()
    rep = run_experiment("appendix-lb", seed=SEED, horizon=1e6)
    hr09 = run_experiment("hr09-lb", seed=SEED, horizon=1e6)
    elapsed = time.perf_counter() - start

    by = {r.mechanism: r for r in rep.rows}
    conditional = by["both_equal_revenue_conditional"].mean
    vickrey = by["vickrey_plus_2_extras"].mean
    bench = by["discriminating_benchmark"].mean
    ratio = by["benchmark_over_vickrey"].mean
    duplicates = {r.mechanism: r for r in hr09.rows}["duplicated_vickrey"].mean

    expected_conditional = 0.125 + math.log(8.0)
    checks = {
        "conditional": abs(conditional - expected_conditional) <= 1e-3,
        "vickrey": abs(vickrey - 1.55) <= 0.01,
        "benchmark": 1.74 <= bench <= 1.7501,
        "duplicates": abs(duplicates - 1.5) <= 1e-3,
        "ratio<=2": ratio <= 2.0,
        "runtime<5s": elapsed < 5.0,
    }
    ok = all(checks.values())
    assert report(
        1,
        ok,
        f"conditional={conditional:.5f} (target {expected_conditional:.5f}), "
        f"vickrey+2={vickrey:.4f}, benchmark={bench:.6f}, duplicates={duplicates:.4f}, "
        f"ratio={ratio:.4f} (<=2), {elapsed:.2f}s; failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_2_factor_two_sweep(thm1_sweep):
    verdicts = [r for r in thm1_sweep.rows if r.verdict]
    n_markets = len(verdicts)
    fails = [r.mechanism for r in verdicts if r.verdict != "pass"]
    ok = n_markets >= 20 and not fails
    assert report(
        2,
        ok,
        f"benchmark <= 2*Rev(SP + one extra per component) + 4se on "
        f"{n_markets - len(fails)}/{n_markets} randomized markets at {N_MC} samples"
        + (f"; failing: {fails}" if fails else ""),
    )


def test_criterion_3_hazard_rate_lemma_sweep(hr_sweep):
    bound_rows = [r for r in hr_sweep.rows if "sp_plus_dominant" in r.mechanism]
    eq5_rows = [r for r in hr_sweep.rows if "eq5" in r.mechanism]
    eq6_rows = [r for r in hr_sweep.rows if "eq6" in r.mechanism]
    n = len(bound_rows)
    all_pass = all(
        r.verdict == "pass" for r in bound_rows + eq5_rows + eq6_rows
    )
    ok = n >= 10 and all_pass
    assert report(
        3,
        ok,
        f"{n} hazard-rate-ordered markets: factor-2 bound, Eq5 >= -4se, "
        f"Eq6 pointwise 100% -> {'all pass' if all_pass else 'FAILURES'} "
        f"(divergence samples per market: {[r.n_samples for r in eq6_rows]})",
    )


def test_criterion_4_anonymous_reserve_4k(reserve_sweep):
    verdicts = [r for r in reserve_sweep.rows if r.verdict]
    fails = [r.mechanism for r in verdicts if r.verdict != "pass"]
    ok = len(verdicts) >= 20 and not fails
    assert report(
        4,
        ok,
        f"benchmark <= 4k*Rev(SP @ best monopoly reserve) + 4se on "
        f"{len(verdicts) - len(fails)}/{len(verdicts)} markets"
        + (f"; failing: {fails}" if fails else ""),
    )


def test_criterion_5_coupon_collector_sizing():
    k, delta = 4, 0.2
    n_star, _, _, _ = nontargeted_counts(k, delta)
    exact_ok = n_star == 15
    p_hat, se = coverage_probability(
        (0.2, 0.2, 0.2, 0.4), n_star, n_trials=100_000, seed=SEED
    )
    target = 1.0 - 1.0 / (k + 1)
    mc_ok = p_hat >= target - 3.0 * se
    ok = exact_ok and mc_ok
    assert report(
        5,
        ok,
        f"n*(k=4, delta=0.2) = {n_star} (= 15); coverage at n* = {p_hat:.4f} "
        f">= {target:.3f} - 3*{se:.4f}",
    )


def test_criterion_6_targeted_vs_nontargeted_exact():
    start = time.perf_counter()
    rep = run_experiment("tvsnt", seed=SEED)
    elapsed = time.perf_counter() - start
    by = {r.mechanism: r for r in rep.rows}
    opt = by["optimal_original"].mean
    targeted = by["targeted_two_extras"].mean
    nontargeted = by["nontargeted_10_extras"].mean
    checks = {
        "targeted>=0.99opt": targeted >= 0.99 * opt,
        "nontargeted<0.35opt": nontargeted < 0.35 * opt,
        "runtime<1s": elapsed < 1.0,
    }
    ok = all(checks.values())
    assert report(
        6,
        ok,
        f"opt={opt:.4f}, targeted={targeted:.4f} ({targeted / opt:.3f}x), "
        f"nontargeted={nontargeted:.4f} ({nontargeted / opt:.3f}x), {elapsed:.3f}s",
    )


def _lemma_suite_mechanisms(market):
    comps = _column_laws(market, ())
    reserves = tuple(c.monopoly_reserve() for c in comps)
    dominant = plan_hr_dominant(market).reserve_component
    anon = market.components[dominant].monopoly_reserve()
    return [
        ("second_price", SecondPrice()),
        ("sp_anonymous_reserve", SecondPriceAnonymousReserve(anon)),
        ("sp_bidder_reserves", SecondPriceBidderReserves(reserves)),
        ("myerson_regular", MyersonRegular(tuple(comps))),
        ("posted_sequence", PostedSequence(reserves, tuple(range(market.n)))),
    ]


def test_criterion_7_myerson_lemma_suite():
    markets = hr_ordered_markets(SEED, 10)
    worst = 0.0
    failures = []
    for idx, market in enumerate(markets):
        cfg = EstimatorConfig(
            seed=SEED + 7_000_019 * (idx + 1), n_samples=N_MC, n_streams=N_STREAMS
        )
        suite = _lemma_suite_mechanisms(market)
        gaps = virtual_surplus_gap(market, [mech for _, mech in suite], (), cfg)
        for (name, _), gap in zip(suite, gaps):
            z = abs(gap.mean) / gap.std_err if gap.std_err > 0 else 0.0
            worst = max(worst, z)
            if abs(gap.mean) > 4.0 * gap.std_err:
                failures.append((idx, name, gap.mean, gap.std_err))
    ok = not failures
    assert report(
        7,
        ok,
        f"|MC revenue - MC virtual surplus| <= 4se for 5 mechanisms x "
        f"{len(markets)} regular markets at {N_MC} samples; worst |z| = {worst:.2f}"
        + (f"; failures: {failures}" if failures else ""),
    )


IRONING_MATRIX = [
    Uniform(0.0, 1.0),
    Uniform(0.5, 2.5),
    Exponential(1.0),
    Exponential(0.3),
    PowerLaw(2.5),
    PowerLaw(1.2),
    TruncatedNormal(1.0, 1.0),
    TruncatedNormal(0.5, 2.0),
    EqualRevenue(),
    MixtureDistribution((Exponential(10.0), Exponential(0.1)), (0.9, 0.1)),
    MixtureDistribution((Uniform(0.0, 1.0), Uniform(0.0, 3.0)), (0.7, 0.3)),
    MixtureDistribution((Uniform(0.0, 1.0), Exponential(0.25)), (0.6, 0.4)),
]


def test_criterion_8_ironing_properties():
    from auction_lab import regularity_check

    failures = []
    worst_phi_err = 0.0
    for dist in IRONING_MATRIX:
        curve = iron_distribution(dist)
        if not np.all(curve.hull_R >= curve.raw_R - 1e-12):
            failures.append((str(dist), "hull below raw"))
        if np.max(np.diff(curve.hull_R, 2)) > 1e-9:
            failures.append((str(dist), "hull not concave"))
        if np.any(np.diff(curve.ironed_phi) > 1e-9):
            failures.append((str(dist), "ironed phi not monotone"))
        if regularity_check(dist):
            q_mid = 0.5 * (curve.grid[:-1] + curve.grid[1:])
            band = (q_mid >= 0.01) & (q_mid <= 0.99)
            v_mid = np.asarray(dist.quantile(1.0 - q_mid[band]))
            phi = np.asarray(dist._virtual_unchecked(v_mid))
            err = float(np.max(np.abs(curve.ironed_phi[band] - phi)))
            worst_phi_err = max(worst_phi_err, err)
            if err > 1e-3:
                failures.append((str(dist), f"phi mismatch {err:.2e}"))
            if np.max(np.abs(curve.hull_R - curve.raw_R)) > 1e-8:
                failures.append((str(dist), "hull != raw on regular input"))
    ok = not failures
    assert report(
        8,
        ok,
        f"hull/concavity/monotonicity over {len(IRONING_MATRIX)} family-matrix "
        f"entries; worst regular phi mismatch = {worst_phi_err:.2e} (tol 1e-3)"
        + (f"; failures: {failures}" if failures else ""),
    )


# each sweep fixture with the markets and the plan builder it ran
SWEEP_PLANS = [
    ("thm1_sweep", random_mixture_markets, 20, plan_targeted),
    ("hr_sweep", hr_ordered_markets, 10, plan_hr_dominant),
    ("reserve_sweep", random_mixture_markets, 20, select_anonymous_reserve),
]


def plan_quadrature(market, plan):
    """Exact revenue of a second-price plan on its column laws: the coins are
    independent across bidders."""
    assert plan.count is None
    laws = _column_laws(market, plan.extras)
    return expected_revenue_quadrature(laws, getattr(plan.mechanism, "reserve", None))


@pytest.mark.parametrize(
    "fixture, markets, count, builder", SWEEP_PLANS, ids=[p[0] for p in SWEEP_PLANS]
)
def test_criterion_9_recipe_rows_match_quadrature(request, fixture, markets, count, builder):
    sweep = request.getfixturevalue(fixture)
    rows = [r for r in sweep.rows if r.bound_tested.startswith("benchmark <=")]
    assert len(rows) == count
    worst = 0.0
    failures = []
    for idx, (market, row) in enumerate(zip(markets(SEED, count), rows)):
        exact = plan_quadrature(market, builder(market)).mean
        z = (row.mean - exact) / row.std_err
        worst = max(worst, abs(z))
        if abs(z) > 4.0:
            failures.append((row.mechanism, row.mean, exact, z))
    ok = not failures
    assert report(
        9,
        ok,
        f"{fixture}: |MC recipe row - quadrature of its plan| <= 4se on "
        f"{count - len(failures)}/{count} markets; worst |z| = {worst:.2f}"
        + (f"; failures: {failures}" if failures else ""),
    )
