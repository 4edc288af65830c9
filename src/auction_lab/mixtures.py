"""Mixtures of regular components and the machinery built on them.

A market is n bidders and k component distributions; bidder i draws her
value in two stages: a k-valued coin picks a component with probabilities
given by row i of the weight matrix, then the value is drawn from that
component.  The coin outcome is observable to the discriminating benchmark,
so sampling returns it alongside the value.

Irregular revenue curves are "ironed" by replacing R(q) = q * Q(1-q) with
its upper concave hull on a uniform quantile grid; the hull slope per grid
cell is the ironed virtual value (the marginal revenue dR/dq), constant
across ironed intervals and nonincreasing in q.  The grid construction is a
numerical approximation of exact ironing with error vanishing in grid size.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    EPS_Q,
    Distribution,
    SupportInterval,
    _bisect,
    _match,
    regularity_check,
)
from .errors import (
    AtomicDistribution,
    IrregularComponentWarning,
    NegativeWeight,
    ProfileSpaceTooLarge,
    WeightRowSum,
)

__all__ = [
    "MixtureDistribution",
    "MarketModel",
    "IndexProfile",
    "IronedCurve",
    "build_market",
    "sample_two_stage",
    "enumerate_profiles",
    "iron",
    "iron_distribution",
    "DEFAULT_IRONING_GRID",
    "PROFILE_CAP",
]

ROW_SUM_TOL = 1e-12
DEFAULT_IRONING_GRID = 4_097
PROFILE_CAP = 10**6


def _coin_rule(cum, u):
    """Component per uniform: min(searchsorted(cum, u, "right"), k-1) by k-1 comparisons."""
    coin = np.zeros(np.shape(u), dtype=np.int64)
    for c in cum[:-1]:
        coin += u >= c
    return coin


def _values_given_coins(components, active, coin, u):
    """Each active component's quantile of the whole array, selected by coin.

    `active` lists the components of weight > 0, the only ones a coin names;
    a lone one needs no selection.  Quantiles are elementwise, so each value
    keeps the bits of its own component's quantile.  Stream uniforms lie in
    [0, 1), so no level check is needed.
    """
    *rest, last = active
    values = np.asarray(components[last]._quantile(u), dtype=float)
    for t in rest:
        values = np.where(coin == t, components[t]._quantile(u), values)
    return values


class MixtureDistribution(Distribution):
    """Convex combination of component distributions for one bidder."""

    def __init__(self, components, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (len(components),):
            raise ValueError("one weight per component required")
        self.components = tuple(components)
        self.weights = weights
        self._active = [(t, w) for t, w in enumerate(weights) if w > 0.0]
        self.is_continuous = all(
            self.components[t].is_continuous for t, _ in self._active
        )

    @property
    def support(self):
        los = [self.components[t].support.lo for t, _ in self._active]
        his = [self.components[t].support.hi for t, _ in self._active]
        return SupportInterval(min(los), max(his))

    @property
    def tail_index(self):
        return min(self.components[t].tail_index for t, _ in self._active)

    def _delegate(self):
        if len(self._active) == 1:
            return self.components[self._active[0][0]]
        return None

    def _blend(self, method, x):
        """A pointwise law primitive: the lone active component's, else the weighted sum."""
        single = self._delegate()
        if single is not None:
            return getattr(single, method)(x)
        return sum(w * getattr(self.components[t], method)(x) for t, w in self._active)

    def _invert(self, method, levels, too_low):
        """Invert a monotone law primitive between the extreme component answers.

        `too_low(mid)` marks the levels whose answer lies above mid.
        """
        comp = np.stack([getattr(self.components[t], method)(levels) for t, _ in self._active])
        return _bisect(too_low, comp.min(axis=0), comp.max(axis=0), 100)

    def _cdf(self, x):
        return self._blend("_cdf", x)

    def _cdf_left(self, x):
        return self._blend("_cdf_left", x)

    def _pdf(self, x):
        if not self.is_continuous:
            raise AtomicDistribution("mixture carries an atom; no density")
        return self._blend("_pdf", x)

    def _survival(self, x):
        return self._blend("_survival", x)

    def _survival_quantile(self, q):
        single = self._delegate()
        if single is not None:
            return single._survival_quantile(q)
        return self._invert("_survival_quantile", q, lambda mid: self._survival(mid) > q)

    def _quantile(self, q):
        single = self._delegate()
        if single is not None:
            return single._quantile(q)
        return self._invert("_quantile", q, lambda mid: self._cdf(mid) < q)

    def sample(self, stream, size=None):
        """Two-stage draw; marginal law equals the mixture cdf."""
        _, values = self.sample_with_coin(stream, size)
        return values

    def sample_with_coin(self, stream, size=None):
        """Return (component-index, value); the coin stays observable.

        Draws `size` coin uniforms, then `size` value uniforms; each value is
        its coin's entry of the active components' quantiles of the whole
        value-uniform array.  The coin rule stops at the last active
        component, so no coin names a zero weight even where the cumulative
        weights fall short of 1.
        """
        active = [t for t, _ in self._active]
        coin = _coin_rule(np.cumsum(self.weights[: active[-1] + 1]), stream.random(size))
        u_val = stream.random(size)
        if size is None:
            return int(coin), self.components[int(coin)].quantile(u_val)
        return coin, _values_given_coins(self.components, active, coin, u_val)

    def __str__(self):
        parts = " + ".join(f"{w:g}*{self.components[t]}" for t, w in self._active)
        return f"Mixture({parts})"


@dataclass(frozen=True)
class MarketModel:
    """n bidders over k shared components with per-bidder mixture weights."""

    components: tuple
    weights: np.ndarray  # (n, k), rows sum to 1

    def __post_init__(self):
        self.weights.setflags(write=False)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def k(self) -> int:
        return self.weights.shape[1]

    @property
    def delta(self) -> float:
        """Minimum mixture probability over the entries actually used."""
        used = self.weights[self.weights > 0.0]
        return float(used.min())

    @property
    def iid(self) -> bool:
        return bool(np.all(np.abs(self.weights - self.weights[0]) <= ROW_SUM_TOL))

    def bidder_mixture(self, i: int) -> MixtureDistribution:
        return MixtureDistribution(self.components, self.weights[i])

    def mixture_cdf(self, i: int, x):
        return self.bidder_mixture(i).cdf(x)

    def mixture_pdf(self, i: int, x):
        return self.bidder_mixture(i).pdf(x)

    def extended(self, extra_rows: int) -> "MarketModel":
        """Append i.i.d. bidders drawn from the (shared) marginal mixture.

        Only valid for i.i.d. markets; used by the non-targeted recipes.
        """
        if not self.iid:
            raise ValueError("extending by marginal draws requires an i.i.d. market")
        rows = np.vstack([self.weights, np.tile(self.weights[0], (extra_rows, 1))])
        return MarketModel(self.components, rows)


def build_market(components, weights) -> MarketModel:
    """Validate and freeze a MarketModel.

    Continuous components failing the regularity grid check trigger an
    IrregularComponentWarning (not fatal: atomic components are legitimate
    inputs for the advertising experiments).
    """
    components = tuple(components)
    if len(components) < 1:
        raise ValueError("at least one component required")
    w = np.array(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] != len(components) or w.shape[0] < 1:
        raise ValueError(
            f"weights must be (n, k={len(components)}); got shape {w.shape}"
        )
    if np.any(w < 0.0):
        i, t = map(int, np.argwhere(w < 0.0)[0])
        raise NegativeWeight(f"weights[{i}][{t}] = {w[i, t]} is negative")
    sums = w.sum(axis=1)
    bad = np.abs(sums - 1.0) > ROW_SUM_TOL
    if np.any(bad):
        i = int(np.argmax(bad))
        raise WeightRowSum(f"weights row {i} sums to {sums[i]!r}, not 1")
    for t, comp in enumerate(components):
        if comp.is_continuous and not regularity_check(comp):
            warnings.warn(
                f"component {t} ({comp}) fails the regularity grid check",
                IrregularComponentWarning,
                stacklevel=2,
            )
    return MarketModel(components, w)


def sample_two_stage(market: MarketModel, i: int, stream, size=None):
    """Draw (component-index, value) for bidder i."""
    if not 0 <= i < market.n:
        raise IndexError(f"bidder index {i} out of range for n={market.n}")
    return market.bidder_mixture(i).sample_with_coin(stream, size)


@dataclass(frozen=True)
class IndexProfile:
    """One outcome of the n mixture coins with its probability."""

    q: tuple
    weight: float

    @property
    def distinct_count(self) -> int:
        """k(q): number of distinct components in the profile."""
        return len(set(self.q))


def enumerate_profiles(market: MarketModel, cap: int = PROFILE_CAP):
    """All k**n index profiles with exact weights (sum to 1 up to 1e-12)."""
    total = market.k**market.n
    if total > cap:
        raise ProfileSpaceTooLarge(
            f"k**n = {market.k}**{market.n} = {total} exceeds cap {cap}"
        )
    w = market.weights
    out = []
    for q in itertools.product(range(market.k), repeat=market.n):
        weight = float(np.prod(w[np.arange(market.n), q]))
        out.append(IndexProfile(q=q, weight=weight))
    return out


@dataclass(frozen=True)
class IronedCurve:
    """Revenue curve, its upper concave hull, and the hull-slope virtual values.

    grid        uniform quantile points q_0 < ... < q_{m-1}
    raw_R       R(q_j) = q_j * Q(1 - q_j)
    hull_R      upper concave hull of (grid, raw_R), equal at the grid ends
    ironed_phi  hull slope per grid cell (length m-1), nonincreasing in q,
                i.e. the ironed marginal revenue dR/dq
    values      Q(1 - q_j), decreasing in j; value-space cell edges
    """

    grid: np.ndarray
    raw_R: np.ndarray
    hull_R: np.ndarray
    ironed_phi: np.ndarray
    values: np.ndarray
    source: Distribution = field(repr=False)

    def __post_init__(self):
        for arr in (self.grid, self.raw_R, self.hull_R, self.ironed_phi, self.values):
            arr.setflags(write=False)

    def ironed_virtual(self, v):
        """Ironed virtual value at v: slope of the hull cell containing it."""
        q = 1.0 - np.asarray(self.source.cdf(v), dtype=float)
        dq = self.grid[1] - self.grid[0]
        cell = np.clip(((q - self.grid[0]) / dq).astype(int), 0, len(self.ironed_phi) - 1)
        return _match(v, self.ironed_phi[cell])


def _upper_concave_hull(x, y):
    """Indices of the upper hull vertices of the path (x, y), x increasing."""
    hull = []
    for j in range(len(x)):
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (x[a] - x[o]) * (y[j] - y[o]) - (y[a] - y[o]) * (x[j] - x[o])
            if cross >= 0.0:
                hull.pop()
            else:
                break
        hull.append(j)
    return np.asarray(hull, dtype=int)


def iron_distribution(dist: Distribution, grid_size: int = DEFAULT_IRONING_GRID) -> IronedCurve:
    """Iron any continuous distribution's revenue curve."""
    if not dist.is_continuous:
        raise AtomicDistribution(f"{dist}: ironing needs a continuous distribution")
    if grid_size < 257:
        raise ValueError("ironing grid must have at least 257 points")
    grid = np.linspace(EPS_Q, 1.0, grid_size)
    values = np.asarray(dist.survival_quantile(grid), dtype=float)
    raw = grid * values
    verts = _upper_concave_hull(grid, raw)
    hull = np.interp(grid, grid[verts], raw[verts])
    # the hull never dips below the curve; enforce against float round-off
    hull = np.maximum(hull, raw)
    phi = np.diff(hull) / np.diff(grid)
    # concavity makes the slopes nonincreasing; remove interpolation noise
    # (~1e-13 inside ironed intervals) so the step function is exactly monotone
    phi = np.minimum.accumulate(phi)
    return IronedCurve(
        grid=grid, raw_R=raw, hull_R=hull, ironed_phi=phi, values=values, source=dist
    )


def iron(market: MarketModel, i: int, grid_size: int = DEFAULT_IRONING_GRID) -> IronedCurve:
    """Iron bidder i's mixture revenue curve."""
    return iron_distribution(market.bidder_mixture(i), grid_size)
