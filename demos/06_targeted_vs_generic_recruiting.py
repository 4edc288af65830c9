"""Why recruiting from the right segment beats recruiting broadly.

A niche good: each of n bidders is worth 1 almost always and n^2 with
probability 1/n^2.  Two deterministic extras (one worth 1, one worth n^2)
push plain Vickrey past the original optimal revenue, while recruiting
generic bidders from the same two-point population needs on the order of
n^(3/2) extras before the second-highest value ever reaches n^2.  Vickrey
revenue comes from quadrature of the second-highest value's tail, which
is constant between the two atoms and so exact to rounding: the
interesting probabilities are O(1/n^2), far below Monte Carlo resolution.
"""

from auction_lab import PointMass, TwoPoint, best_posted_ladder_two_point, expected_revenue_quadrature


def main(n=10):
    dist = TwoPoint(1.0, float(n * n), 1.0 / (n * n))
    opt, ladder = best_posted_ladder_two_point(n, dist)
    print(f"n = {n}, values in {{1, {n * n}}}, P(high) = 1/{n * n}")
    print(f"optimal revenue (posted-ladder search): {opt.mean:.4f}")
    print(f"  ladder: {len(ladder[0])} offers, prices {sorted(set(ladder[0]), reverse=True)}")

    targeted = expected_revenue_quadrature([dist] * n + [PointMass(1.0), PointMass(float(n * n))])
    print(f"\nVickrey + targeted extras {{1, {n * n}}}: {targeted.mean:.4f} "
          f"({targeted.mean / opt.mean:.2%} of optimal)")

    print("\nVickrey + j generic extras from the same population:")
    for j in (0, n, 4 * n, n * n // 2, 40 * n):
        rev = expected_revenue_quadrature([dist] * (n + j))
        print(f"  j = {j:>4}: revenue {rev.mean:>8.4f}  ({rev.mean / opt.mean:>6.2%} of optimal)")


if __name__ == "__main__":
    main()
