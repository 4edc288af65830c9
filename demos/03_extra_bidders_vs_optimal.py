"""One extra bidder per population group halves the gap to optimal.

Build an irregular market (every bidder a different mixture of regular
components), price the optimal seller who can observe the mixture coins
(the discriminating benchmark), and compare against a plain Vickrey
auction recruiting one extra bidder per component.  The theory promises
benchmark <= 2 * augmented-Vickrey revenue; the observed ratios are
usually far below 2.

When one component hazard-rate dominates the rest, a single extra bidder
from it already achieves the factor-2 guarantee.  Dominance is a grid
certificate: markets without a dominant component report the first hazard
crossing instead.
"""

from auction_lab import (
    EstimatorConfig,
    Exponential,
    SecondPrice,
    Uniform,
    build_market,
    discriminating_benchmark,
    estimate_mc,
    evaluate_plan,
    plan_hr_dominant,
    plan_targeted,
)
from auction_lab.errors import NoDominantComponent

MARKET = build_market(
    (Exponential(0.5), Uniform(0.0, 1.0), Exponential(1.0)),
    [
        [0.6, 0.3, 0.1],
        [0.2, 0.2, 0.6],
        [0.1, 0.8, 0.1],
    ],
)

NO_DOMINANT = build_market(
    (Uniform(0.0, 2.0), Exponential(1.0)),
    [[0.5, 0.5], [0.5, 0.5]],
)


def main():
    cfg = EstimatorConfig(seed=11, n_samples=400_000)
    bench = discriminating_benchmark(MARKET)
    plain = estimate_mc(MARKET, SecondPrice(), (), cfg)
    targeted = plan_targeted(MARKET)
    augmented = evaluate_plan(MARKET, targeted, cfg)

    print(f"coin-observing optimal benchmark: {bench.mean:.4f} +- {bench.std_err:.4f}")
    print(f"plain Vickrey, no extras:         {plain.mean:.4f} +- {plain.std_err:.4f}")
    print(f"Vickrey + one extra per group:    {augmented.mean:.4f} +- {augmented.std_err:.4f}")
    print(f"benchmark / augmented = {bench.mean / augmented.mean:.3f}  "
          f"(guarantee: <= {targeted.guarantee_factor})")

    hr = plan_hr_dominant(MARKET)
    single = evaluate_plan(MARKET, hr, cfg)
    print(f"\nhazard-rate dominant component: {hr.reserve_component} "
          f"({MARKET.components[hr.reserve_component]})")
    print(f"Vickrey + one dominant extra:     {single.mean:.4f} +- {single.std_err:.4f}")
    print(f"benchmark / single-extra = {bench.mean / single.mean:.3f}  "
          f"(guarantee: <= {hr.guarantee_factor})")

    print("\nnot every family mix has a dominant component:")
    try:
        plan_hr_dominant(NO_DOMINANT)
    except NoDominantComponent as exc:
        cand, other, x, h1, h2 = exc.crossing
        print(f"  U(0,2) vs Exp(1): hazards cross at x = {x:.3f} "
              f"({h1:.3f} > {h2:.3f}); single-extra recipe refused")


if __name__ == "__main__":
    main()
