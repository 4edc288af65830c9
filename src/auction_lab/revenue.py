"""Expected-revenue computation and the benchmark machinery.

Three estimation routes:

* Monte Carlo over seeded streams, by one evaluator (`_run_streams`).  It
  partitions the samples across n_streams independent streams, draws each
  stream once, runs every requested mechanism on the draws (mechanisms
  draw nothing), and reduces the sample arrays of a per-draw measure.  A
  stream is drawn, priced and measured `_BLOCK_ROWS` rows at a time, each
  uniform column read from its own generator (`_BlockStream`), so the
  blocks give the bits of the whole stream in a few MB of memory.  Each
  worker draws every block into one workspace (`mixtures._Workspace`),
  built once per estimate: the uniforms, the value matrix and the stack
  of component quantiles, which the sweep families write in place.  A
  mixture bidder's values are one `np.take` from that stack at its coins,
  and a bidder pinned to one component skips its coin column, since each
  column's generator starts at that column's own first draw.
  `estimate_mc` measures prices, `virtual_surplus_gap` price minus the
  winner's virtual value and `commensurateness_check` the two
  commensurateness inequalities plus the price of M'.  The two virtual
  value measures compute each stream's phi matrix once and share it with
  every MyersonRegular over the column laws (`_column_laws`, where a pinned
  bidder's column has its component's law), which then skips building its
  own.  A stream reduces to (n, mean, M2) by a shifted two-pass, and
  streams merge in index order with the Chan-Golub-LeVeque pairwise
  update, so a result is bit-identical for a fixed (seed, n_samples,
  n_streams) whatever else shares the draws.  The streams run at once on
  one thread per CPU the process may use, which changes the time and no bit
  of the result.
* Exact formulas for posted prices (`posted_sequence_revenue_exact`,
  `best_posted_ladder_two_point`).
* Quadrature (`expected_revenue_quadrature`) of P(second-highest > z), the
  one route to second-price revenue.  The law of the second-highest value
  comes from one O(m) pass over the bidders (`_second_highest_law`) with no
  cap on their number, and one integration helper (`_integrate`) integrates
  it: composite 16/32-node Gauss-Legendre on panels split at atoms and
  support ends plus geometric tail panels, every node of a round in one
  vectorized integrand call, and bisection of the panels that miss their
  share of `tol`.

`discriminating_benchmark` prices the seller who observes the mixture coins
before choosing the auction: sum over index profiles q of p(q) * OPT(G(q)).
For regular components Myerson gives OPT(G(q)) as an integral of
P(max_i phi_i(v_i) > y); the coins are independent across bidders, so the
sum over q passes inside the product and the whole benchmark is one
`_integrate` call, with no profile enumeration.  Supplied per-profile
posted-price policies are valued exactly over all k**n profiles instead.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .distributions import PointMass, TwoPoint, _require_regular
from .errors import (
    AtomicDistribution,
    DivergentTail,
    IndexOutOfRange,
    InsufficientDivergenceSamples,
    SupremumNotAttained,
    ToleranceNotMet,
    ZeroDenominator,
)
from .mechanisms import (
    MyersonRegular,
    PostedSequence,
    _check_indices,
    _myerson_batch,
    _virtual_matrix,
    allocate,
)
from .mixtures import (
    MarketModel,
    MixtureDistribution,
    _Workspace,
    enumerate_profiles,
)
from .streams import substream

__all__ = [
    "RevenueEstimate",
    "RatioEstimate",
    "EstimatorConfig",
    "ComponentExtra",
    "DeterministicExtra",
    "estimate_mc",
    "expected_revenue_quadrature",
    "posted_sequence_revenue_exact",
    "best_posted_ladder_two_point",
    "discriminating_benchmark",
    "approximation_ratio",
    "commensurateness_check",
    "CommensuratenessReport",
    "virtual_surplus_gap",
]


@dataclass(frozen=True)
class RevenueEstimate:
    """Expected revenue with its uncertainty and provenance."""

    mean: float
    std_err: float
    n_samples: int
    method: str  # "mc" | "exact" | "quadrature"

    def __post_init__(self):
        if self.std_err < 0.0:
            raise ValueError("std_err must be non-negative")


@dataclass(frozen=True)
class RatioEstimate:
    """opt/simple with first-order (delta method) error propagation."""

    ratio: float
    std_err: float


@dataclass(frozen=True)
class EstimatorConfig:
    seed: int
    n_samples: int = 100_000
    n_streams: int = 8

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.n_streams < 1:
            raise ValueError("n_streams must be >= 1")


@dataclass(frozen=True)
class ComponentExtra:
    """Extra bidder drawn fresh from component `index` on every sample."""

    index: int


@dataclass(frozen=True)
class DeterministicExtra:
    """Extra bidder with a fixed value."""

    value: float


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------


def _check_extras(market: MarketModel, extras):
    """Refuse an unknown extra spec or a component index outside [0, k)."""
    for spec in extras:
        if not isinstance(spec, (ComponentExtra, DeterministicExtra)):
            raise TypeError(f"unknown extra spec {spec!r}")
        if isinstance(spec, ComponentExtra) and not 0 <= spec.index < market.k:
            raise IndexOutOfRange(f"component index {spec.index} out of range for k={market.k}")


def _column_laws(market: MarketModel, extras):
    """The law of each value column; `extras` are checked first.

    The coins are independent across bidders, so bidder i's column has its
    marginal mixture as its law, or the one active component of a row with a
    single positive weight.  An extra's column has its component's law, a
    DeterministicExtra's a PointMass.
    """
    _check_extras(market, extras)
    mixtures = [market.bidder_mixture(i) for i in range(market.n)]
    return [m._lone or m for m in mixtures] + [
        market.components[s.index] if isinstance(s, ComponentExtra) else PointMass(s.value)
        for s in extras
    ]


def _draw_market(market: MarketModel, stream, size: int, extras):
    """Values (size, n + len(extras)) for one stream.

    `extras` are not checked here: `_run_streams` checks them first.

    Each bidder draws in turn through its own mixture's `sample_with_coin`
    (`size` coin uniforms, then `size` value uniforms), and the extra
    bidders' uniforms come after the originals.  The matrix is column-major,
    so each bidder's column is written, and later swept by the mechanism
    kernels, contiguously.  A block stream's matrix is its workspace's.
    """
    n = market.n
    shape = (size, n + len(extras))
    work = getattr(stream, "workspace", None)
    if work is None:
        values = np.empty(shape, order="F")
    else:
        values = work.values[: size * shape[1]].reshape(shape, order="F")
    for i in range(n):
        _, values[:, i] = market.bidder_mixture(i).sample_with_coin(stream, size)
    for j, spec in enumerate(extras, start=n):
        if isinstance(spec, ComponentExtra):
            market.components[spec.index]._quantile_into(stream.random(size), values[:, j])
        else:
            values[:, j] = float(spec.value)
    return values


# rows a stream is evaluated in at a time: its draws, kernels and measure
# temporaries stay a few MB whatever the stream's size
_BLOCK_ROWS = 32768


class _BlockStream:
    """A stream of `size` rows, read by `_draw_market` a block of rows at a time.

    `_draw_market` reads a stream's uniforms a column at a time, `size` per
    column: per bidder its coins, then its values; then each ComponentExtra.
    A float64 uniform takes one 64-bit draw, so column c starts at draw
    c * size: its generator is `rng`'s state advanced that far, built on its
    first read.  After `rewind`, the c-th `random(rows)` or `skip()` call
    reads or passes over the next `rows` uniforms of column c, so each block
    gets its rows of every column, and a column only ever skipped builds no
    generator.  `random` writes into the uniform buffer of `workspace` (a
    `_Workspace` that this stream's worker reuses for every block), so what
    it returns is overwritten by the next read.
    """

    def __init__(self, rng, size, workspace):
        self._state = rng.bit_generator.state
        self._size = size
        self._columns = {}  # column index -> its generator
        self._next = 0
        self.workspace = workspace

    def rewind(self):
        self._next = 0

    def skip(self):
        self._next += 1

    def random(self, rows):
        c = self._next
        if c not in self._columns:
            bits = np.random.PCG64(0)
            bits.state = self._state
            self._columns[c] = np.random.Generator(bits.advance(c * self._size))
        self._next = c + 1
        return self._columns[c].random(out=self.workspace.uniforms[:rows])


def _stream_stats(x):
    """(n, mean, M2) of one stream's samples by a shifted two-pass.

    Shifting by the first sample keeps a large common offset out of both
    sums, so constant samples give M2 == 0 exactly.
    """
    n = x.shape[0]
    if n == 0:
        return 0, 0.0, 0.0
    d = x - x[0]
    d_mean = np.add.reduce(d) / n
    d -= d_mean
    return n, float(x[0] + d_mean), float(np.add.reduce(np.multiply(d, d, out=d)))


def _merge_stats(a, b):
    """Chan-Golub-LeVeque pairwise update of two (n, mean, M2) triples."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    if nb == 0:
        return a
    if na == 0:
        return b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * (nb / n), m2_a + m2_b + delta * delta * (na * nb / n)


def _as_estimate(stats) -> RevenueEstimate:
    n, mean, m2 = stats
    var = m2 / (n - 1) if n > 1 else 0.0
    return RevenueEstimate(mean=mean, std_err=math.sqrt(var / max(n, 1)), n_samples=n, method="mc")


def _prices_on_laws(mech, laws):
    """True when `mech` is a MyersonRegular over exactly these column laws,
    so the phi matrix of the laws is the one it would build itself."""
    return isinstance(mech, MyersonRegular) and tuple(mech.dists) == tuple(laws)


def _cpu_count() -> int:
    """CPUs this process may run on, which bounds `_run_streams`' workers."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_streams(market: MarketModel, extras, cfg, mechs, measure, virtual=False):
    """One "mc" RevenueEstimate per output of `measure` over cfg.n_samples draws.

    Stream s draws its share of the bidders, then the extras, once from
    substream(cfg.seed, s), in blocks of `_BLOCK_ROWS` rows: a block draws
    its rows of each uniform column from that column's generator, so
    `_draw_market` fills it with the rows a whole-stream draw would.  A
    worker's blocks all draw into one `_Workspace`, so what a measure
    returns must not be a view of `values`.  On each block, each (mechanism,
    columns) pair of `mechs` runs through `allocate` on the first `columns`
    value columns (None: all).
    With `virtual`, each block's phi matrix over the column laws
    (`_column_laws`) is computed once: every MyersonRegular over those laws
    is priced on it, and the measure reads it; a column with atoms then
    raises AtomicDistribution before any draw.
    `measure(values, outcomes, phi)` maps the block's draws, every (winner,
    price) and phi (None without `virtual`) to sample arrays; a stream
    joins its blocks' arrays in row order and reduces them, and the streams
    merge.

    The non-empty streams run on w workers, one per CPU this process may
    use but no more than there are streams: the calling thread plus w - 1
    helper threads, each under a copy of the caller's context (so
    `np.errstate` holds there too), all joined before this returns or
    raises.  Stream s goes to worker s mod w.  A worker's streams use its
    workspace one after another and share nothing else, and their (n, mean,
    M2) triples merge in stream order, so the result does not depend on w.
    An error is annotated with the sample range and the stream being
    evaluated, and the one raised is that of the lowest failing stream, as
    a sequential loop would raise it.
    """
    if cfg is None:
        raise ValueError("an EstimatorConfig with an explicit seed is required")
    laws = _column_laws(market, extras)
    if virtual:
        for j, d in enumerate(laws):
            if not d.is_continuous:
                raise AtomicDistribution(f"column {j} ({d}) has atoms; virtual values need a density")
    shares = [virtual and _prices_on_laws(m, laws[:columns]) for m, columns in mechs]
    base, rem = divmod(cfg.n_samples, cfg.n_streams)
    nonempty = min(cfg.n_streams, cfg.n_samples)  # streams 0 .. nonempty - 1 have samples
    w = min(_cpu_count(), nonempty)
    stats = [None] * nonempty  # per stream, the (n, mean, M2) of each output
    errors = [None] * nonempty  # per stream, the exception it raised

    def evaluate(s, size, workspace):
        # each output of stream s, drawn and measured a block at a time and
        # joined in row order
        stream = _BlockStream(substream(cfg.seed, s), size, workspace)
        starts = range(0, size, _BLOCK_ROWS)
        blocks = [block(stream, min(_BLOCK_ROWS, size - start)) for start in starts]
        return [np.concatenate(pieces) for pieces in zip(*blocks)]

    def block(stream, rows):
        # the measure's outputs on the next `rows` draws of a stream; the
        # block's values live in the workspace, and its outcomes and phi are
        # freed before the next block draws
        stream.rewind()
        values = _draw_market(market, stream, rows, extras)
        phi = _virtual_matrix(values, laws) if virtual else None
        outcomes = []
        for (mech, columns), shared in zip(mechs, shares):
            if shared:
                outcomes.append(_myerson_batch(values[:, :columns], mech.dists, phi[:, :columns]))
            else:
                outcomes.append(allocate(mech, values[:, :columns]))
        return measure(values, outcomes, phi)

    def work(k):
        # the sequential loop over worker k's streams, which share one
        # workspace; each stream's outputs are freed once reduced
        rows = min(_BLOCK_ROWS, base + (rem > 0))  # the largest block of any stream
        workspace = _Workspace(rows, market.k, market.n + len(extras))
        for s in range(k, nonempty, w):
            if any(e is not None for e in errors[:s]):
                return  # a lower stream failed; the sequential loop stops there
            size = base + (1 if s < rem else 0)
            offset = s * base + min(s, rem)
            try:
                stats[s] = [_stream_stats(x) for x in evaluate(s, size, workspace)]
            except BaseException as exc:  # raised again below, by the calling thread
                if isinstance(exc, Exception):
                    exc.sample_range = (offset, offset + size)
                    exc.stream_index = s
                    if hasattr(exc, "add_note"):  # 3.11+
                        exc.add_note(f"while evaluating samples [{offset}, {offset + size}) on stream {s}")
                errors[s] = exc
                return

    helpers = []
    try:
        for k in range(1, w):
            helper = threading.Thread(target=contextvars.copy_context().run, args=(work, k))
            helper.start()
            helpers.append(helper)
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    for exc in errors:
        if exc is not None:
            raise exc
    merged = stats[0]
    for st in stats[1:]:
        merged = list(map(_merge_stats, merged, st))
    return [_as_estimate(st) for st in merged]


def estimate_mc(
    market: MarketModel,
    mech,
    extras=(),
    cfg: EstimatorConfig = None,
) -> RevenueEstimate:
    """Mean revenue over n_samples joint draws of bidders and extras.

    Mechanism errors abort the whole estimate, annotated with the sample
    range (stream and offsets) that was being evaluated.
    """

    def prices(values, outcomes, phi):
        return [price for _, price in outcomes]

    return _run_streams(market, extras, cfg, [(mech, None)], prices)[0]


def _winner_virtual(phi, winner, rows):
    """phi[rows[i], winner[i]], or 0 where winner[i] is -1 (no sale).

    phi is column-major, so entry (r, j) is flat entry j * size + r.
    """
    flat = np.maximum(winner, 0) * phi.shape[0] + rows
    return np.where(winner >= 0, np.take(phi.ravel(order="F"), flat), 0.0)


def virtual_surplus_gap(
    market: MarketModel, mechs, extras=(), cfg: EstimatorConfig = None
) -> list[RevenueEstimate]:
    """Paired MC estimate of E[revenue - phi_winner(v_winner)] per mechanism.

    All mechanisms share one set of draws and one phi matrix per stream, a
    MyersonRegular over the column laws included, and each gap is
    bit-identical to a call with that mechanism alone.  A
    standard error is that of the per-draw difference; a truthful mechanism
    gives a mean within noise of zero.  A column with atoms (a
    DeterministicExtra included) raises AtomicDistribution before any draw.
    """

    def measure(values, outcomes, phi):
        rows = np.arange(values.shape[0])
        return [price - _winner_virtual(phi, winner, rows) for winner, price in outcomes]

    return _run_streams(market, extras, cfg, [(m, None) for m in mechs], measure, virtual=True)


# ---------------------------------------------------------------------------
# Exact order-statistic formulas
# ---------------------------------------------------------------------------


def _second_highest_law(dists, z):
    """(P(second-highest <= z), P(second-highest > z)), vectorized over z.

    One pass over the bidders carries P(none / exactly one / at least two
    above z) from the array primitives F = _cdf(z) and S = _survival(z),
    with no per-call argument handling.  No term is subtracted, so
    the upper tail keeps its precision where 1 - prod(F) would round away.
    """
    zv = np.asarray(z, dtype=float)
    none, one, two = 1.0, 0.0, 0.0
    for d in dists:
        F, S = d._cdf(zv), d._survival(zv)
        none, one, two = none * F, one * F + none * S, two * (F + S) + one * S
    return none + one, two


def posted_sequence_revenue_exact(dists, prices, order) -> RevenueEstimate:
    """Exact expected revenue of a sequential posted-price mechanism.

    Bidders are independent; `prices` and `order` must form a valid
    PostedSequence over `dists`.  Acceptance at equality follows the atom
    convention P(v >= p) = 1 - F(p-).
    """
    spec = PostedSequence(tuple(prices), tuple(int(i) for i in order))
    _check_indices(spec.order, len(dists), "bidder")
    survive = 1.0
    total = 0.0
    for price, i in zip(spec.prices, spec.order):
        accept = float(dists[i].survival_at_or_above(price))
        total += price * survive * accept
        survive *= 1.0 - accept
    return RevenueEstimate(mean=total, std_err=0.0, n_samples=0, method="exact")


def best_posted_ladder_two_point(n_bidders: int, dist: TwoPoint):
    """Optimal sequential posted-price revenue for i.i.d. two-point bidders.

    Searches ladders that offer the high price to the first j bidders and
    optionally the low price to one more; with two support points this
    family attains the optimal (virtual-surplus) revenue.

    Returns (RevenueEstimate, ladder) where ladder is (prices, order).
    """
    q = 1.0 - dist.p_hi
    best = None
    for j in range(n_bidders + 1):
        high_part = dist.v_hi * (1.0 - q**j)
        candidates = [(high_part, j, False)]
        if j < n_bidders:
            candidates.append((high_part + q**j * dist.v_lo, j, True))
        for value, j_high, low_offer in candidates:
            if best is None or value > best[0]:
                best = (value, j_high, low_offer)
    value, j_high, low_offer = best
    prices = [dist.v_hi] * j_high + ([dist.v_lo] if low_offer else [])
    order = list(range(j_high + (1 if low_offer else 0)))
    est = RevenueEstimate(mean=value, std_err=0.0, n_samples=0, method="exact")
    return est, (tuple(prices), tuple(order))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


_GAUSS = tuple(np.polynomial.legendre.leggauss(n) for n in (16, 32))
_TAIL_DOUBLINGS = 60
_MAX_ROUNDS = 40
# open panels a round may bisect into; every Tier-1 and benchmark call stays
# below 70, and 4096 panels are 196 608 nodes, a few MB per integrand array
_MAX_PANELS = 4096
_ROUNDING = 64 * np.finfo(float).eps


def _integrate(f, breaks, tol):
    """Integral of f over [min(breaks), inf) by composite Gauss-Legendre.

    Panels run between the sorted breakpoints, then over [c*2^j, c*2^(j+1)]
    for j < 60 from the last breakpoint c (1 when it is 0).  Each round
    evaluates the 16- and 32-node rules on every open panel in one call
    f(array of nodes) and keeps the 32-node value of each panel where the
    two agree within its share of tol (or to rounding); the others are
    bisected, each half taking half the share.  Raises DivergentTail when the
    geometric continuation of the last two tail panels leaves more than tol
    beyond the last one, and ToleranceNotMet when a round's panel sums are
    not finite, when bisection would open more than `_MAX_PANELS` panels or
    when panels still disagree after the last round, so memory stays
    bounded.  Sums use np.add.reduce, so the result does not depend on BLAS
    threading.
    """
    edges = sorted(set(breaks))
    if edges[-1] <= 0.0:
        edges.append(1.0)
    edges += [edges[-1] * 2.0**j for j in range(1, _TAIL_DOUBLINGS + 1)]
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    share = np.full(a.size, tol / a.size)
    (x16, w16), (x32, w32) = _GAUSS
    unit = np.concatenate([x16, x32])
    kept = []
    for rounds in range(_MAX_ROUNDS):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        vals = f((mid[:, None] + half[:, None] * unit).ravel()).reshape(a.size, unit.size)
        coarse = half * np.add.reduce(vals[:, :16] * w16, axis=1)
        fine = half * np.add.reduce(vals[:, 16:] * w32, axis=1)
        if rounds == 0:
            prev, last = fine[-2:]
            ratio = last / prev if prev > 0.0 else math.inf
            if last > 0.0 and (ratio >= 1.0 or last * ratio / (1.0 - ratio) > tol):
                raise DivergentTail("integrand tail is not integrable at this tolerance")
        if not (np.isfinite(fine).all() and np.isfinite(coarse).all()):
            raise ToleranceNotMet(f"integrand is not finite on a panel in round {rounds}")
        ok = np.abs(fine - coarse) <= np.maximum(share, _ROUNDING * np.abs(fine))
        kept.append(fine[ok])
        if ok.all():
            break
        a, b, share = a[~ok], b[~ok], share[~ok]
        if 2 * a.size > _MAX_PANELS:
            raise ToleranceNotMet(
                f"{a.size} quadrature panels still miss tol {tol:g}; halving them passes {_MAX_PANELS}"
            )
        mid = 0.5 * (a + b)
        a, b, share = np.concatenate([a, mid]), np.concatenate([mid, b]), np.tile(0.5 * share, 2)
    else:
        raise ToleranceNotMet(f"{a.size} quadrature panels still miss tol {tol:g}")
    return float(np.add.reduce(np.concatenate(kept)))


def _atom_breakpoints(dists):
    """Support ends of every law, recursing into mixture components, whose
    ends include every atom."""
    pts = set()
    for d in dists:
        if isinstance(d, MixtureDistribution):
            pts |= _atom_breakpoints([d.components[t] for t, _ in d._active])
            continue
        pts.add(d.support.lo)
        if d.support.bounded:
            pts.add(d.support.hi)
    return pts


def expected_revenue_quadrature(dists, reserve: float | None = None, tol: float = 1e-6) -> RevenueEstimate:
    """E[second-price revenue] = reserve * P(sale) + integral of P(second-highest > z).

    The integrand comes from `_second_highest_law`, so any number of bidders
    is allowed; `_integrate` splits at atoms and support ends.  The
    second-highest of independent values has tail index a_(1) + a_(2), the
    two smallest bidder tail indices, so the revenue has no finite mean
    when that sum is at most 1: DivergentTail names them before any
    integration.  `_integrate` raises it too where the tail outlasts tol.
    """
    if len(dists) >= 2:
        (a1, i1), (a2, i2) = sorted((d.tail_index, i) for i, d in enumerate(dists))[:2]
        if a1 + a2 <= 1.0:
            raise DivergentTail(
                f"bidders {i1} and {i2} have tail indices {a1:g} and {a2:g}, summing to "
                f"{a1 + a2:g} <= 1: the second-highest value has no finite mean"
            )
    lo = float(reserve) if reserve is not None else 0.0
    head = 0.0
    if reserve is not None:
        sold = 1.0 - math.prod(float(d.cdf_left(reserve)) for d in dists)
        head = reserve * sold
    breaks = [lo] + [p for p in _atom_breakpoints(dists) if p > lo]
    body = _integrate(lambda z: _second_highest_law(dists, z)[1], breaks, tol)
    return RevenueEstimate(mean=head + body, std_err=0.0, n_samples=0, method="quadrature")


# ---------------------------------------------------------------------------
# Discriminating benchmark and ratios
# ---------------------------------------------------------------------------

_BENCHMARK_TOL = 1e-9


def discriminating_benchmark(market: MarketModel, policies=None) -> RevenueEstimate:
    """sum_q p(q) * OPT(G(q)): optimal revenue given the coins are observed.

    With `policies` (a callable from a profile tuple to a PostedSequence),
    each of the k**n profiles is valued exactly by the supplied policy;
    this is how equal-revenue or atomic components are benchmarked.
    Without policies every component must be regular with a tail index
    above 1, and the benchmark is Myerson's expected virtual surplus, the
    integral over y >= 0 of P(max_i phi_i(v_i) > y), as one `_integrate`
    call: method "quadrature" for any n and k.
    """
    if policies is None:
        _require_regular(market.components)
        for t, c in enumerate(market.components):
            if c.tail_index <= 1.0:
                raise SupremumNotAttained(
                    f"component {t} ({c}) has tail index {c.tail_index:g} <= 1, so its "
                    "optimal revenue is a supremum Myerson does not price; supply policies"
                )
        breaks = [0.0]
        for c in market.components:
            breaks.append(max(0.0, c._virtual_unchecked(c.support.lo)))
            if c.support.bounded:
                breaks.append(c.support.hi)
        weights = market.weights[:, :, None]

        def any_phi_above(y):
            # independent coins average inside the product:
            # 1 - prod_i (1 - sum_t p_it S_t(phi_t^-1(y))), formed as -expm1 of
            # a sum of log1p so the tail keeps its precision
            surv = np.stack([c._survival(c._virtual_inverse(y)) for c in market.components])
            above = np.minimum(np.add.reduce(weights * surv, axis=1), 1.0)
            with np.errstate(divide="ignore"):
                return -np.expm1(np.add.reduce(np.log1p(-above), axis=0))

        mean = _integrate(any_phi_above, breaks, _BENCHMARK_TOL)
        return RevenueEstimate(mean=mean, std_err=0.0, n_samples=0, method="quadrature")

    mean = 0.0
    for prof in enumerate_profiles(market):
        if prof.weight == 0.0:
            continue
        policy = policies(prof.q)
        if policy is None:
            raise ValueError(f"no policy supplied for profile {prof.q}")
        dists = [market.components[t] for t in prof.q]
        mean += prof.weight * posted_sequence_revenue_exact(dists, policy.prices, policy.order).mean
    return RevenueEstimate(mean=mean, std_err=0.0, n_samples=0, method="exact")


def approximation_ratio(opt: RevenueEstimate, simple: RevenueEstimate) -> RatioEstimate:
    """opt.mean / simple.mean with delta-method uncertainty."""
    if not simple.mean > 0.0:
        raise ZeroDenominator("denominator estimate must be strictly positive")
    ratio = opt.mean / simple.mean
    se = math.sqrt(
        (opt.std_err / simple.mean) ** 2
        + (opt.mean * simple.std_err / simple.mean**2) ** 2
    )
    return RatioEstimate(ratio=ratio, std_err=se)


# ---------------------------------------------------------------------------
# Commensurateness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommensuratenessReport:
    """MC evidence for the two commensurateness inequalities.

    eq5: E[phi_{W'}(v_{W'}) | W' != W] >= 0, estimated with its standard
         error over the divergence samples.
    eq6: on every divergence sample the price paid by W' must be at least
         phi_W(v_W); the report carries the pointwise pass rate (the
         inequality holds sample by sample, not just in expectation).
    estimate: the revenue of M' over every draw, equal to estimate_mc of M' on
         the same market, extras and cfg.
    """

    n_samples: int
    divergence_count: int
    eq5_mean: float | None
    eq5_std_err: float | None
    eq6_pass_count: int
    no_divergence: bool
    estimate: RevenueEstimate

    @property
    def eq5_within_noise(self) -> bool:
        if self.no_divergence:
            return True
        return self.eq5_mean >= -4.0 * self.eq5_std_err

    @property
    def eq6_pass_rate(self) -> float:
        if self.divergence_count == 0:
            return 1.0
        return self.eq6_pass_count / self.divergence_count

    @property
    def eq6_pointwise(self) -> bool:
        return self.eq6_pass_count == self.divergence_count


_EQ6_TOL = 1e-9
_MIN_DIVERGENCE = 100


def commensurateness_check(
    market: MarketModel,
    mech_m,
    mech_m_prime,
    extras_for_m_prime=(),
    cfg: EstimatorConfig = None,
) -> CommensuratenessReport:
    """Measure whether M' is commensurate with M on this market.

    One `_run_streams` pass runs M on the n original columns and M' on
    those plus the extras: common random numbers, because the inequalities
    are per-draw couplings.  On the samples whose winners diverge
    (conditioning by rejection) the measure keeps phi of W' (eq5) and
    whether eq6 holds; fewer than 100 of them, but more than zero, raises
    InsufficientDivergenceSamples.  `estimate` is the price of M' over
    every draw, bit-identical to estimate_mc(market, mech_m_prime, extras,
    cfg).  A column with atoms raises AtomicDistribution before any draw.
    """

    def measure(values, outcomes, phi):
        (w_m, _), (w_p, price_p) = outcomes
        d = np.flatnonzero(w_p != w_m)
        price_d = price_p[d]
        holds = price_d >= _winner_virtual(phi, w_m[d], d) - _EQ6_TOL
        # eq6 is a count: its output has one sample per divergence where it holds
        return _winner_virtual(phi, w_p[d], d), price_d[holds], price_p

    mechs = [(mech_m, market.n), (mech_m_prime, None)]
    eq5, eq6, estimate = _run_streams(market, extras_for_m_prime, cfg, mechs, measure, virtual=True)
    div_count = eq5.n_samples
    if 0 < div_count < _MIN_DIVERGENCE:
        raise InsufficientDivergenceSamples(
            f"only {div_count} divergence samples; need {_MIN_DIVERGENCE}"
        )
    diverged = div_count > 0
    return CommensuratenessReport(
        n_samples=cfg.n_samples,
        divergence_count=div_count,
        eq5_mean=eq5.mean if diverged else None,
        eq5_std_err=eq5.std_err if diverged else None,
        eq6_pass_count=eq6.n_samples,
        no_divergence=not diverged,
        estimate=estimate,
    )
