"""Mixtures of regular components and the machinery built on them.

A market is n bidders and k component distributions; bidder i draws her
value in two stages: a k-valued coin picks a component with probabilities
given by row i of the weight matrix, then the value is drawn from that
component.  The coin outcome is observable to the discriminating benchmark,
so sampling returns it alongside the value.  A bidder pinned to one
component, by a weight row with one positive entry, has a fixed coin, so
the bidder's mixture is that component, bit for bit in every law primitive
but the density: `MyersonRegular` prices a pinned bidder's own mixture
exactly as its component.

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
    "enumerate_profiles",
    "iron",
    "iron_distribution",
    "DEFAULT_IRONING_GRID",
    "PROFILE_CAP",
]

ROW_SUM_TOL = 1e-12
DEFAULT_IRONING_GRID = 4_097
PROFILE_CAP = 10**6


def _coin_rule(cum, u, out=None):
    """Component per uniform: min(searchsorted(cum, u, "right"), k-1) by k-1
    comparisons, written into `out` when given."""
    coin = np.empty(np.shape(u), dtype=np.int64) if out is None else out
    coin.fill(0)
    for c in cum[:-1]:
        coin += u >= c
    return coin


class _Workspace:
    """The arrays a draw of up to `rows` rows writes into, reused by every
    block a worker draws: the uniform buffer a block stream fills, the value
    matrix of `columns` columns, a (k, rows) stack of component quantiles,
    the coins, the flat indices into the stack and the row numbers.

    It holds arrays only, never the stream that lends it, so reference
    counting frees it with the last stream that refers to it.
    """

    def __init__(self, rows, k, columns=0):
        # views of one allocation: six separate ones took two to three times
        # the minor page faults per sweep execution (thm1 and reserve-4k)
        memory = np.empty((4 + columns + k) * rows)
        self.uniforms, self.values, self.stack, ints = np.split(memory, np.cumsum([1, columns, k]) * rows)
        self.coins, self.index, self.rows = np.split(ints.view(np.int64), 3)
        self.rows[:] = np.arange(rows)


def _values_given_coins(components, active, coin, u, work):
    """Each value is its coin's component's quantile of its uniform, written over `u`.

    `active` lists the two or more components of weight > 0, the only ones
    a coin names.  Each one's quantile of the whole of `u` fills its row t
    of the (k, B) stack in `work`, and one `np.take` at flat index
    coin * B + row picks each value.  Quantiles are elementwise, so each
    value keeps the bits of its own component's quantile.  Stream uniforms
    lie in [0, 1), so no level check is needed.
    """
    size = u.shape[0]
    stack = work.stack[: len(components) * size].reshape(len(components), size)
    for t in active:
        components[t]._quantile_into(u, stack[t])
    index = np.multiply(coin, size, out=work.index[:size])
    np.add(index, work.rows[:size], out=index)
    # "clip" never buffers `out`, as the default "raise" would; no index is out of range
    return np.take(work.stack, index, out=u, mode="clip")


class MixtureDistribution(Distribution):
    """Convex combination of component distributions for one bidder.

    A mixture with one component of positive weight is that component: its
    coin is fixed, so `_lone` names the component and the law primitives of
    `_LONE_PRIMITIVES` are the component's own, bit for bit.  `_pdf` stays
    the mixture's, which raises on an atom.
    """

    _LONE_PRIMITIVES = (
        "_cdf", "_cdf_left", "_survival", "_mills",
        "_quantile", "_quantile_into", "_survival_quantile", "_virtual_inverse",
    )

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
        self._lone = self.components[self._active[0][0]] if len(self._active) == 1 else None
        if self._lone is not None:
            for name in self._LONE_PRIMITIVES:
                setattr(self, name, getattr(self._lone, name))

    @property
    def support(self):
        los = [self.components[t].support.lo for t, _ in self._active]
        his = [self.components[t].support.hi for t, _ in self._active]
        return SupportInterval(min(los), max(his))

    @property
    def tail_index(self):
        return min(self.components[t].tail_index for t, _ in self._active)

    def _blend(self, method, x):
        """A pointwise law primitive as the weighted sum of the active components'."""
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
        return self._invert("_survival_quantile", q, lambda mid: self._survival(mid) > q)

    def _quantile(self, q):
        return self._invert("_quantile", q, lambda mid: self._cdf(mid) < q)

    def sample(self, stream, size=None):
        """Two-stage draw; marginal law equals the mixture cdf."""
        _, values = self.sample_with_coin(stream, size)
        return values

    def sample_with_coin(self, stream, size=None):
        """Return (component-index, value); the coin stays observable.

        Draws `size` coin uniforms, then `size` value uniforms; each value is
        its coin's component's quantile of its value uniform.  The coin rule
        stops at the last active component, so no coin names a zero weight
        even where the cumulative weights fall short of 1.

        A block stream (one with a `workspace`) lends its buffers, and the
        arrays returned live there until the next draw.  It also skips the
        coin column of a lone active component, whose coin is fixed.  Any
        other stream, such as a plain Generator, is read in full, coins
        included, into fresh buffers.
        """
        active = [t for t, _ in self._active]
        cum = np.cumsum(self.weights[: active[-1] + 1])
        if size is None:
            coin = int(_coin_rule(cum, stream.random()))
            return coin, self.components[coin].quantile(stream.random())
        work = getattr(stream, "workspace", None)
        if self._lone is not None:
            if work is None:
                stream.random(size)  # drawn and dropped, as the stream's order has it
            else:
                stream.skip()
            u = stream.random(size)
            return np.broadcast_to(np.int64(active[0]), (size,)), self._lone._quantile_into(u, u)
        if work is None:
            work = _Workspace(size, len(self.components))
        coin = _coin_rule(cum, stream.random(size), out=work.coins[:size])
        return coin, _values_given_coins(self.components, active, coin, stream.random(size), work)

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


@dataclass(frozen=True)
class IndexProfile:
    """One outcome of the n mixture coins with its probability."""

    q: tuple
    weight: float


def enumerate_profiles(market: MarketModel):
    """All k**n index profiles with exact weights (sum to 1 up to 1e-12)."""
    total = market.k**market.n
    if total > PROFILE_CAP:
        raise ProfileSpaceTooLarge(
            f"k**n = {market.k}**{market.n} = {total} exceeds cap {PROFILE_CAP}"
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
