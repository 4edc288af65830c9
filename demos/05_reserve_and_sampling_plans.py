"""Every augmentation recipe on one market, with evidence estimates.

For an i.i.d. irregular market the planner offers: targeted extras (one
per component, factor 2), a single hazard-rate-dominant extra (factor 2),
n* non-targeted extras from the mixture itself (factor 2(k+1)/k), the best
component monopoly reserve (factor 4k), and the sample-based reserves.
Each plan is evaluated by Monte Carlo next to the coin-observing
benchmark so the guarantee can be eyeballed.
"""

from auction_lab import (
    EstimatorConfig,
    Exponential,
    Uniform,
    build_market,
    discriminating_benchmark,
    evaluate_plan,
    nontargeted_counts,
    plan_hr_dominant,
    plan_no_reserve,
    plan_nontargeted,
    plan_random_subset,
    plan_sample_reserve,
    plan_targeted,
    select_anonymous_reserve,
)

MARKET = build_market(
    (Exponential(0.5), Uniform(0.0, 1.5)),
    [[0.7, 0.3]] * 6,
)


def main():
    cfg = EstimatorConfig(seed=29, n_samples=300_000)
    bench = discriminating_benchmark(MARKET, cfg)
    print(f"market: n={MARKET.n}, k={MARKET.k}, delta={MARKET.delta:.2f}, iid={MARKET.iid}")
    print(f"coin-observing benchmark: {bench.mean:.4f} +- {bench.std_err:.4f}\n")

    n_star, factor, _, _ = nontargeted_counts(MARKET.k, MARKET.delta)
    print(f"non-targeted sizing: n* = {n_star} mixture extras, factor {factor:.3f}\n")

    plans = [
        plan_targeted(MARKET),
        plan_hr_dominant(MARKET),
        plan_nontargeted(MARKET),
        select_anonymous_reserve(MARKET, cfg),
        plan_sample_reserve(MARKET, group_sizes=(4, 2)),
        plan_random_subset(MARKET),
        plan_no_reserve(MARKET, group_sizes=(4, 2)),
    ]

    print(f"{'strategy':<26} {'factor':>7} {'revenue':>9} {'bench/rev':>10} {'ok':>4}")
    for plan in plans:
        est = evaluate_plan(MARKET, plan, cfg)
        ratio = bench.mean / est.mean
        ok = ratio <= plan.guarantee_factor + 0.05
        print(f"{plan.strategy:<26} {plan.guarantee_factor:>7.3f} "
              f"{est.mean:>9.4f} {ratio:>10.3f} {'yes' if ok else 'NO':>4}")


if __name__ == "__main__":
    main()
