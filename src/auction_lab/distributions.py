"""One-dimensional value distributions with auction-theoretic derived quantities.

Each family exposes the usual cdf/pdf/quantile/sampling surface plus the
quantities mechanism design cares about: hazard rate h(x) = f(x)/(1-F(x)),
virtual value phi(x) = x - 1/h(x), the revenue curve R(q) = q * Q(1-q) where
Q is the (generalized inverse) quantile function, and the monopoly reserve
argmax_r r * P(value >= r).

Conventions
-----------
* cdf is right-continuous; posted-price and monopoly-revenue computations use
  the left limit P(value >= r) = 1 - F(r-) so a price at an atom sells it.
* Supports are intervals on the non-negative real line.  Grid work on
  unbounded supports happens in quantile space q in (EPS_Q, 1 - EPS_Q) so no
  truncation point has to be chosen in value space.
* All distribution objects are immutable and safe to share across workers.
  Sampling requires an explicit stream (see streams.substream).
* Families implement array-in/array-out primitives (`_cdf`, `_quantile`,
  ...).  Only the public methods of the Distribution base convert the
  argument, check quantile and survival levels, and return float for a
  scalar argument.

regularity_check and hr_crossing are grid certificates: numerical, not
symbolic, verdicts on a quantile-spaced grid (default 10 001 points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AtomicDistribution,
    DisjointSupports,
    IrregularComponent,
    OutsideSupport,
    SupremumNotAttained,
    UnboundedQuantile,
)

__all__ = [
    "SupportInterval",
    "Distribution",
    "Uniform",
    "Exponential",
    "PowerLaw",
    "EqualRevenue",
    "TruncatedNormal",
    "PointMass",
    "TwoPoint",
    "regularity_check",
    "hr_crossing",
    "EPS_Q",
    "MONOTONE_TOL",
]

#: Quantile-space epsilon for all grid work on unbounded supports.
EPS_Q = 1e-9

#: Tie tolerance for every monotonicity check in this module.
MONOTONE_TOL = 1e-9

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SupportInterval:
    """Closed support interval [lo, hi]; hi may be math.inf."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < 0.0:
            raise ValueError("valuations are non-negative; support lo must be >= 0")
        if not self.lo <= self.hi:
            raise ValueError("support requires lo <= hi")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)


def _match(x, out):
    """Return float for scalar input, ndarray otherwise."""
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out)
    return out


class Distribution:
    """Public law methods over array primitives that families implement.

    The public methods are the only place an argument is converted, a level
    is checked, or a scalar result becomes float.  Families implement the
    array primitives `_cdf`, `_pdf`, one of `_quantile` and `_quantile_into`
    (plus `_cdf_left` with atoms, `_survival`/`_survival_quantile` to stay
    exact in the tail, `_mills` where the ratio S/f loses the tail, and
    `_virtual_inverse` when regular) on float arrays whose levels are
    already checked.
    """

    #: set by subclasses
    support: SupportInterval
    is_continuous: bool
    #: a with P(value > x) ~ x**-a; inf for bounded or thinner tails
    tail_index = math.inf

    # -- public law surface ---------------------------------------------------

    def cdf(self, x):
        return _match(x, self._cdf(np.asarray(x, dtype=float)))

    def cdf_left(self, x):
        """P(value < x); differs from cdf only at atoms."""
        return _match(x, self._cdf_left(np.asarray(x, dtype=float)))

    def pdf(self, x):
        return _match(x, self._pdf(np.asarray(x, dtype=float)))

    def survival(self, x):
        """P(value > x)."""
        return _match(x, self._survival(np.asarray(x, dtype=float)))

    def quantile(self, q):
        """Generalized inverse inf{x : F(x) >= q}.

        q in (0, 1) always allowed; q in {0, 1} only when the corresponding
        support endpoint is finite, otherwise UnboundedQuantile.
        """
        return _match(q, self._quantile(self._check_quantile_arg(q)))

    def survival_quantile(self, q):
        """inf{x : survival(x) <= q}, i.e. quantile(1 - q) computed stably.

        q in {0, 1} follows the quantile endpoint rules (q = 0 needs a
        finite top).
        """
        return _match(q, self._survival_quantile(self._check_survival_arg(q)))

    def virtual_inverse(self, y):
        """inf{x in support : phi(x) >= y} for regular families."""
        return _match(y, self._virtual_inverse(np.asarray(y, dtype=float)))

    # -- array primitives (families override) -------------------------------

    def _cdf(self, x):
        raise NotImplementedError

    def _cdf_left(self, x):
        return self._cdf(x)

    def _pdf(self, x):
        raise NotImplementedError

    def _survival(self, x):
        # families override this where 1 - cdf would lose the tail
        return 1.0 - self._cdf(x)

    def _quantile(self, q):
        return self._quantile_into(q, np.empty(np.shape(q)))

    def _quantile_into(self, q, out):
        """`_quantile(q)` written into `out` with the same bits.  A family
        defines one of the two: the other comes from it here, and one whose
        quantile is a chain of ufuncs writes it into `out` with no temporary."""
        out[...] = self._quantile(q)
        return out

    def _survival_quantile(self, q):
        return self._quantile(1.0 - q)

    def _mills(self, x):
        # the inverse hazard (1 - F)/f: h = 1/mills and phi = x - mills
        return self._survival(x) / self._pdf(x)

    def _virtual_inverse(self, y):
        raise NotImplementedError(f"{self} has no virtual inverse")

    # -- shared machinery ----------------------------------------------------

    def _check_quantile_arg(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < 0.0) or np.any(q > 1.0):
            raise ValueError("quantile level must lie in [0, 1]")
        if np.any(q == 1.0) and not self.support.bounded:
            raise UnboundedQuantile(f"{self}: quantile(1) is an infinite endpoint")
        return q

    def _check_survival_arg(self, q):
        q = np.asarray(q, dtype=float)
        if np.any(q < 0.0) or np.any(q > 1.0):
            raise ValueError("survival level must lie in [0, 1]")
        if np.any(q == 0.0) and not self.support.bounded:
            raise UnboundedQuantile(f"{self}: survival_quantile(0) is infinite")
        return q

    def sample(self, stream, size=None):
        """Inverse-transform sample; deterministic given the stream state."""
        return self.quantile(stream.random(size))

    def survival_at_or_above(self, r):
        """P(value >= r) = 1 - F(r-)."""
        x = np.asarray(r, dtype=float)
        return _match(r, self._survival(x) if self.is_continuous else 1.0 - self._cdf_left(x))

    def hazard(self, x):
        """Hazard rate f(x)/(1-F(x)) strictly inside the support."""
        self._require_density(x)
        return _match(x, 1.0 / self._mills(np.asarray(x, dtype=float)))

    def virtual(self, x):
        """Virtual value x - 1/h(x) strictly inside the support."""
        self._require_density(x)
        return self._virtual_unchecked(x)

    def _virtual_unchecked(self, x):
        xv = np.asarray(x, dtype=float)
        return _match(x, xv - self._mills(xv))

    def hazard_and_virtual(self, x):
        """Return (h(x), phi(x)) at a point strictly inside the support."""
        return self.hazard(x), self.virtual(x)

    def _require_density(self, x):
        if not self.is_continuous:
            raise AtomicDistribution(f"{self} has atoms; no density exists")
        lo, hi = self.support.lo, self.support.hi
        xv = np.asarray(x, dtype=float)
        if np.any(xv <= lo) or np.any(xv >= hi):
            raise OutsideSupport(f"{self}: need {lo} < x < {hi}")

    def revenue_curve_point(self, q):
        """R(q) = q * Q(1 - q) for 0 < q < 1."""
        qv = np.asarray(q, dtype=float)
        if np.any(qv <= 0.0) or np.any(qv >= 1.0):
            raise ValueError("revenue curve is defined for 0 < q < 1")
        return _match(q, qv * self._survival_quantile(qv))

    def monopoly_reserve(self) -> float:
        """argmax_r r * P(value >= r), to 1e-9 relative precision.

        Continuous families are maximized over sale probability q (the
        objective is R(q)); a maximum pinned against the search cap
        q = EPS_Q means the posted-price revenue is still increasing at
        quantile(1 - EPS_Q) and the supremum is not attained.
        """
        if not self.is_continuous:
            return self._atom_monopoly_reserve()

        grid = np.linspace(EPS_Q, 1.0, 2049)
        rev = grid * self.survival_quantile(grid)
        j = int(np.argmax(rev))
        if j == 0 and rev[0] > rev[1] + MONOTONE_TOL:
            raise SupremumNotAttained(
                f"{self}: posted revenue still increasing at quantile(1-{EPS_Q})"
            )
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, len(grid) - 1)]
        q_star = _golden_max(lambda q: q * self.survival_quantile(q), lo, hi)
        return float(self.survival_quantile(q_star))

    def _atom_monopoly_reserve(self) -> float:
        raise NotImplementedError

    def __str__(self):
        return type(self).__name__


def _golden_max(f, lo, hi, rel_tol=1e-9):
    """Golden-section maximization of a unimodal-on-bracket function."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(abs(a), abs(b), 1e-12):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _bisect(too_low, lo, hi, iterations):
    """Elementwise bisection of the brackets [lo, hi]: halve `iterations`
    times toward the points where `too_low(mid)` turns false, return the
    midpoints."""
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        low = too_low(mid)
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Continuous families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Uniform(Distribution):
    """Uniform on [a, b]; h(x) = 1/(b-x), phi(x) = 2x - b."""

    a: float
    b: float
    is_continuous = True

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError("Uniform requires b > a")
        if self.a < 0.0:
            raise ValueError("Uniform requires a >= 0")

    @property
    def support(self):
        return SupportInterval(self.a, self.b)

    def _cdf(self, x):
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def _pdf(self, x):
        inside = (x >= self.a) & (x <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def _quantile_into(self, q, out):
        np.multiply(q, self.b - self.a, out=out)
        return np.add(self.a, out, out=out)

    def _survival(self, x):
        return np.clip((self.b - x) / (self.b - self.a), 0.0, 1.0)

    def _survival_quantile(self, q):
        return self.b - q * (self.b - self.a)

    def _virtual_inverse(self, y):
        return np.clip((y + self.b) / 2.0, self.a, self.b)

    def __str__(self):
        return f"Uniform({self.a}, {self.b})"


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential with rate lam on [0, inf); constant hazard lam."""

    lam: float
    is_continuous = True

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("Exponential requires lam > 0")

    @property
    def support(self):
        return SupportInterval(0.0, math.inf)

    def _cdf(self, x):
        return np.where(x <= 0.0, 0.0, -np.expm1(-self.lam * np.maximum(x, 0.0)))

    def _pdf(self, x):
        return np.where(x < 0.0, 0.0, self.lam * np.exp(-self.lam * np.maximum(x, 0.0)))

    def _quantile_into(self, q, out):
        # -log1p(-q) / lam, whose sign the divisor carries: the same bits in one pass fewer
        np.negative(q, out=out)
        np.log1p(out, out=out)
        return np.divide(out, -self.lam, out=out)

    def _survival(self, x):
        return np.exp(-self.lam * np.maximum(x, 0.0))

    def _survival_quantile(self, q):
        return -np.log(q) / self.lam

    def _mills(self, x):
        # S/f for its bits, but 1/lam where subnormal or 0/0 floats lose the ratio
        s, f = self._survival(x), self._pdf(x)
        exact = np.full(np.shape(s), 1.0 / self.lam)
        return np.divide(s, f, out=exact, where=np.minimum(s, f) >= np.finfo(float).tiny)

    def _virtual_inverse(self, y):
        return np.maximum(y + 1.0 / self.lam, 0.0)

    def __str__(self):
        return f"Exponential({self.lam})"


@dataclass(frozen=True)
class PowerLaw(Distribution):
    """G(x) = 1 - x**(-alpha) on [1, inf); h(x) = alpha/x.

    phi(x) = x * (1 - 1/alpha): regular iff alpha >= 1 (constant zero at
    alpha = 1, decreasing below).
    """

    alpha: float
    is_continuous = True

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("PowerLaw requires alpha > 0")

    @property
    def tail_index(self):
        return self.alpha

    @property
    def support(self):
        return SupportInterval(1.0, math.inf)

    def _cdf(self, x):
        return np.where(x <= 1.0, 0.0, 1.0 - np.maximum(x, 1.0) ** (-self.alpha))

    def _pdf(self, x):
        return np.where(x < 1.0, 0.0, self.alpha * np.maximum(x, 1.0) ** (-self.alpha - 1.0))

    def _quantile_into(self, q, out):
        np.subtract(1.0, q, out=out)
        out **= -1.0 / self.alpha  # `**=` takes the fast paths of `**`
        return out

    def _survival(self, x):
        return np.maximum(x, 1.0) ** (-self.alpha)

    def _survival_quantile(self, q):
        return q ** (-1.0 / self.alpha)

    def _virtual_inverse(self, y):
        if self.alpha == 1.0:
            # phi is identically zero: any support point meets y <= 0
            return np.where(y <= 0.0, 1.0, np.inf)
        if self.alpha < 1.0:
            raise ValueError("PowerLaw(alpha<1) is irregular; no virtual inverse")
        return np.maximum(y * self.alpha / (self.alpha - 1.0), 1.0)

    def __str__(self):
        return f"PowerLaw({self.alpha})"


@dataclass(frozen=True)
class EqualRevenue(Distribution):
    """F(x) = 1 - 1/(x+1) on [0, inf): the shifted equal-revenue family.

    Every posted price r earns r/(r+1), increasing toward 1; the virtual
    value is identically -1, so the monopoly price is a supremum and
    monopoly_reserve raises SupremumNotAttained.
    """

    is_continuous = True
    tail_index = 1.0

    @property
    def support(self):
        return SupportInterval(0.0, math.inf)

    def _cdf(self, x):
        x = np.maximum(x, 0.0)
        return x / (x + 1.0)

    def _pdf(self, x):
        return np.where(x < 0.0, 0.0, (np.maximum(x, 0.0) + 1.0) ** -2.0)

    def _quantile(self, q):
        return q / (1.0 - q)

    def _survival(self, x):
        return 1.0 / (np.maximum(x, 0.0) + 1.0)

    def _survival_quantile(self, q):
        return (1.0 - q) / q

    def _virtual_inverse(self, y):
        return np.where(y <= -1.0, 0.0, np.inf)

    def __str__(self):
        return "EqualRevenue"


@dataclass(frozen=True)
class TruncatedNormal(Distribution):
    """Normal(mu, sigma) conditioned on [0, inf).

    Quantiles invert ndtr in closed form with ndtri; the virtual value uses
    the Mills ratio through erfcx, and its inverse is a bisection.  The
    methods import those from scipy.special when they run, so importing the
    package does not pay for scipy.special (about 0.3 s and 25 MB) unless a
    TruncatedNormal is evaluated.
    """

    mu: float
    sigma: float
    is_continuous = True

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("TruncatedNormal requires sigma > 0")

    @property
    def support(self):
        return SupportInterval(0.0, math.inf)

    @property
    def _mass_above_zero(self):
        from scipy.special import ndtr

        return float(ndtr(self.mu / self.sigma))

    def _cdf(self, x):
        from scipy.special import ndtr

        z = (x - self.mu) / self.sigma
        z0 = -self.mu / self.sigma
        # for mu <= 0 both lower tails sit near 1; the upper tails keep the digits
        mass_0_to_x = ndtr(z) - ndtr(z0) if self.mu > 0.0 else ndtr(-z0) - ndtr(-z)
        out = mass_0_to_x / self._mass_above_zero
        return np.clip(np.where(x <= 0.0, 0.0, out), 0.0, 1.0)

    def _pdf(self, x):
        z = (x - self.mu) / self.sigma
        dens = np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))
        return np.where(x < 0.0, 0.0, dens / self._mass_above_zero)

    def _survival(self, x):
        from scipy.special import ndtr

        # Phi((mu - x)/sigma) stays accurate where 1 - cdf would round away
        out = ndtr((self.mu - x) / self.sigma) / self._mass_above_zero
        return np.where(x <= 0.0, 1.0, np.clip(out, 0.0, 1.0))

    def _survival_quantile(self, q):
        from scipy.special import ndtri

        return np.maximum(self.mu - self.sigma * ndtri(q * self._mass_above_zero), 0.0)

    def _quantile(self, q):
        from scipy.special import ndtr, ndtri

        # invert ndtr on the side where its argument is at most 1/2: past
        # that, the cdf side keeps too few digits of the gap to 1
        lower = ndtr(-self.mu / self.sigma) + q * self._mass_above_zero
        low = np.maximum(self.mu + self.sigma * ndtri(np.minimum(lower, 0.5)), 0.0)
        x = np.where(lower > 0.5, self._survival_quantile(1.0 - q), low)
        if self.mu > 0.0:
            return x
        # for mu <= 0 that is mu minus a number near mu, so a small quantile
        # keeps few digits; one Newton step on _cdf, accurate there, restores
        # them.  Above the median F(x) - q keeps only absolute digits, so the
        # survival form stands.
        with np.errstate(divide="ignore", invalid="ignore"):
            polished = np.maximum(x - (self._cdf(x) - q) / self._pdf(x), 0.0)
        return np.where(q <= 0.5, polished, x)

    def _mills(self, x):
        from scipy.special import erfcx

        # S/f is sigma times the normal Mills ratio Q(z)/pdf(z) = sqrt(pi/2)
        # erfcx(z/sqrt 2); formed as a ratio it is 0/0 beyond z ~ 37
        z = (x - self.mu) / self.sigma
        return self.sigma * (math.sqrt(0.5 * math.pi) * erfcx(z / math.sqrt(2.0)))

    def _virtual_inverse(self, y):
        # phi(x) >= x - sigma sqrt(pi/2) for x >= max(mu, 0), so phi > y at
        # y + 2 sigma; mu + 12 sigma covers every y below mu + 10 sigma
        hi = np.maximum(self.mu + 12.0 * self.sigma, y + 2.0 * self.sigma)
        return _bisect(lambda mid: self._virtual_unchecked(mid) < y, np.zeros_like(y), hi, 80)

    def __str__(self):
        return f"TruncatedNormal({self.mu}, {self.sigma})"


# ---------------------------------------------------------------------------
# Atomic families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PointMass(Distribution):
    """Deterministic value v."""

    v: float
    is_continuous = False

    def __post_init__(self):
        if self.v < 0.0:
            raise ValueError("PointMass requires v >= 0")

    @property
    def support(self):
        return SupportInterval(self.v, self.v)

    def _cdf(self, x):
        return np.where(x >= self.v, 1.0, 0.0)

    def _cdf_left(self, x):
        return np.where(x > self.v, 1.0, 0.0)

    def _pdf(self, x):
        raise AtomicDistribution("PointMass has no density")

    def _quantile(self, q):
        return np.full(np.shape(q), self.v)

    def _atom_monopoly_reserve(self):
        return self.v

    def __str__(self):
        return f"PointMass({self.v})"


@dataclass(frozen=True)
class TwoPoint(Distribution):
    """v_lo with probability 1 - p_hi, v_hi with probability p_hi."""

    v_lo: float
    v_hi: float
    p_hi: float
    is_continuous = False

    def __post_init__(self):
        if not self.v_lo < self.v_hi:
            raise ValueError("TwoPoint requires v_lo < v_hi")
        if self.v_lo < 0.0:
            raise ValueError("TwoPoint requires v_lo >= 0")
        if not 0.0 < self.p_hi < 1.0:
            raise ValueError("TwoPoint requires 0 < p_hi < 1")

    @property
    def support(self):
        return SupportInterval(self.v_lo, self.v_hi)

    def _cdf(self, x):
        return np.where(x >= self.v_hi, 1.0, np.where(x >= self.v_lo, 1.0 - self.p_hi, 0.0))

    def _cdf_left(self, x):
        return np.where(x > self.v_hi, 1.0, np.where(x > self.v_lo, 1.0 - self.p_hi, 0.0))

    def _pdf(self, x):
        raise AtomicDistribution("TwoPoint has no density")

    def _quantile(self, q):
        return np.where(q > 1.0 - self.p_hi, self.v_hi, self.v_lo)

    def _atom_monopoly_reserve(self):
        # tie goes to the lower price (same revenue, weakly more sales)
        if self.v_hi * self.p_hi > self.v_lo:
            return self.v_hi
        return self.v_lo

    def __str__(self):
        return f"TwoPoint({self.v_lo}, {self.v_hi}, {self.p_hi})"


# ---------------------------------------------------------------------------
# Grid certificates
# ---------------------------------------------------------------------------


def regularity_check(d: Distribution, grid_size: int = 10_001) -> bool:
    """True iff phi is nondecreasing on a quantile-spaced grid.

    Numerical verdict: successive differences are allowed to dip by at most
    MONOTONE_TOL.  Raises AtomicDistribution for atom-carrying families.
    """
    if not d.is_continuous:
        raise AtomicDistribution(f"{d}: regularity is defined via the density")
    if grid_size < 100:
        raise ValueError("grid_size must be at least 100")
    q = np.linspace(EPS_Q, 1.0 - EPS_Q, grid_size)
    phi = np.asarray(d._virtual_unchecked(d.quantile(q)))
    return bool(np.all(np.diff(phi) >= -MONOTONE_TOL))


def _require_regular(dists):
    """Raise IrregularComponent naming the first entry that is atomic or fails the grid check."""
    for t, d in enumerate(dists):
        if not d.is_continuous or not regularity_check(d):
            raise IrregularComponent(f"component {t} ({d}) is not regular")


def _intersection_grid(d1: Distribution, d2: Distribution, grid_size: int):
    """Value-space grid strictly inside the support intersection.

    Points are quantile-spaced under d1 so unbounded intersections need no
    truncation choice.
    """
    lo = max(d1.support.lo, d2.support.lo)
    hi = min(d1.support.hi, d2.support.hi)
    if not hi > lo:
        raise DisjointSupports(f"supports of {d1} and {d2} overlap in at most a point")
    u_lo = max(float(d1.cdf(lo)), EPS_Q)
    u_hi = min(float(d1.cdf(hi)) if math.isfinite(hi) else 1.0, 1.0 - EPS_Q)
    # interior points only: both hazards must be defined at every grid point
    u = np.linspace(u_lo, u_hi, grid_size + 2)[1:-1]
    return np.asarray(d1.quantile(u))


def hr_crossing(d1: Distribution, d2: Distribution, grid_size: int = 10_001):
    """First grid point where h_{d1} > h_{d2} + tol or a hazard is nan, else None.

    None means d1 hazard-rate dominates d2 on the grid certificate.
    """
    if not (d1.is_continuous and d2.is_continuous):
        raise AtomicDistribution("hazard-rate dominance needs continuous distributions")
    x = _intersection_grid(d1, d2, grid_size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h1 = 1.0 / d1._mills(x)
        h2 = 1.0 / d2._mills(x)
    # a nan hazard (0/0: density and tail underflowed) is no evidence: a crossing
    bad = ~(h1 <= h2 + MONOTONE_TOL)
    if not np.any(bad):
        return None
    j = int(np.argmax(bad))
    return float(x[j]), float(h1[j]), float(h2[j])
