"""Value distributions and their auction-theoretic derived quantities.

Walk through the distribution families: cdf/quantile round trips, hazard
rates, virtual values phi(x) = x - 1/h(x), revenue curves R(q) = q*Q(1-q),
and monopoly reserves.  The equal-revenue family shows why a monopoly
price can fail to exist: r * P(value >= r) = r/(r+1) keeps increasing, so
asking for its argmax raises SupremumNotAttained.
"""

import numpy as np

from auction_lab import (
    EqualRevenue,
    Exponential,
    PowerLaw,
    TruncatedNormal,
    TwoPoint,
    Uniform,
    regularity_check,
    substream,
)
from auction_lab.errors import SupremumNotAttained

FAMILIES = [
    Uniform(0, 1),
    Uniform(0.5, 2.5),
    Exponential(1.0),
    PowerLaw(2.5),
    TruncatedNormal(1.0, 1.0),
    EqualRevenue(),
]


def main():
    print(f"{'family':<24} {'median':>8} {'h(med)':>8} {'phi(med)':>9} "
          f"{'R(1/2)':>8} {'reserve':>9} {'regular':>8}")
    for d in FAMILIES:
        med = d.quantile(0.5)
        h, phi = d.hazard_and_virtual(med)
        r_half = d.revenue_curve_point(0.5)
        try:
            reserve = f"{d.monopoly_reserve():.4f}"
        except SupremumNotAttained:
            reserve = "sup only"
        print(f"{str(d):<24} {med:>8.4f} {h:>8.4f} {phi:>9.4f} "
              f"{r_half:>8.4f} {reserve:>9} {str(regularity_check(d)):>8}")

    print("\nPosted price at an atom sells the atom (left-limit convention):")
    tp = TwoPoint(1.0, 100.0, 0.01)
    for price in (1.0, 100.0):
        print(f"  price {price:>5}: sale probability {tp.survival_at_or_above(price):.4f}, "
              f"revenue {price * tp.survival_at_or_above(price):.4f}")

    print("\nSampling is stream-addressed and reproducible:")
    d = Exponential(1.0)
    a = d.sample(substream(42, 0), size=4)
    b = d.sample(substream(42, 0), size=4)
    print(f"  substream(42, 0): {np.round(a, 6)}")
    print(f"  again        : {np.round(b, 6)}  (identical)")


if __name__ == "__main__":
    main()
