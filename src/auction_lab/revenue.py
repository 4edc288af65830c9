"""Expected-revenue computation and the benchmark machinery.

Three estimation routes:

* Monte Carlo (`estimate_mc`) over seeded streams.  Sampling is partitioned
  across n_streams independent streams by one routine (`_run_streams`) that
  draws each stream once and evaluates every requested output on it.  A
  stream reduces to (n, mean, M2) by a shifted two-pass, and streams merge
  in index order with the Chan-Golub-LeVeque pairwise update, so a result
  is bit-identical for a fixed (seed, n_samples, n_streams) no matter how
  the work would be scheduled.
* Exact order-statistic formulas (`vickrey_revenue_cdf`,
  `posted_sequence_revenue_exact`, the two-point evaluators).  The law of
  the second-highest value comes from one O(m) pass over the bidders
  (`_second_highest_law`) with no cap on their number.
* Quantile/tail quadrature (`expected_revenue_quadrature`): adaptive Simpson
  on P(second-highest > z) with the substitution u = z/(1+z) on the
  unbounded tail.

`discriminating_benchmark` prices the seller who observes the mixture coins
before choosing the auction: sum over index profiles q of p(q) * OPT(G(q)),
by exact profile enumeration when k**n fits the cap and by unbiased coin
sampling otherwise.  `commensurateness_check` measures the two conditional
inequalities that make a simple auction commensurate with an optimal one,
with common random numbers feeding both mechanisms because the underlying
inequalities are per-draw couplings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import TwoPoint, _match, _require_regular
from .errors import (
    DivergentTail,
    InsufficientDivergenceSamples,
    ProfileSpaceTooLarge,
    ZeroDenominator,
)
from .mechanisms import _myerson_batch, _virtual_matrix, allocate
from .mixtures import (
    MarketModel,
    _coin_rule,
    _values_given_coins,
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
    "vickrey_revenue_cdf",
    "expected_revenue_quadrature",
    "posted_sequence_revenue_exact",
    "second_price_two_point_exact",
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
    profile_cap: int = 10**6

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


def _draw_market(market: MarketModel, rng, size: int, extras=()):
    """Coins (size, n) and values (size, n + len(extras)) for one stream.

    The stream is consumed bidder by bidder, `size` coin uniforms then
    `size` value uniforms (the order of MixtureDistribution.sample_with_coin),
    and the extra bidders' uniforms come after the originals.
    """
    n = market.n
    coins = np.empty((size, n), dtype=np.int64)
    values = np.empty((size, n + len(extras)))
    u = np.empty(size)
    for i in range(n):
        rng.random(out=u)
        coins[:, i] = _coin_rule(np.cumsum(market.weights[i]), u)
        rng.random(out=u)
        values[:, i] = _values_given_coins(market.components, coins[:, i], u)
    for j, spec in enumerate(extras, start=n):
        if isinstance(spec, ComponentExtra):
            rng.random(out=u)
            values[:, j] = market.components[spec.index]._quantile(u)
        elif isinstance(spec, DeterministicExtra):
            values[:, j] = float(spec.value)
        else:
            raise TypeError(f"unknown extra spec {spec!r}")
    return coins, values


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
    return n, float(x[0] + d_mean), float(np.add.reduce(d * d))


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
    return RevenueEstimate(mean=mean, std_err=math.sqrt(var / n), n_samples=n, method="mc")


def _run_streams(cfg, n_samples, path, draw, kernel):
    """Merged (n, mean, M2) per output of `kernel` over n_samples draws.

    Stream s draws its share of the samples from substream(cfg.seed, *path,
    s) with `draw(rng, size) -> (coins, values)`; `kernel(rng, coins,
    values)` returns one sample array per output.  Kernel errors are
    annotated with the sample range and stream being evaluated.
    """
    merged = None
    offset = 0
    base, rem = divmod(n_samples, cfg.n_streams)
    for s in range(cfg.n_streams):
        size = base + (1 if s < rem else 0)
        if size == 0:
            continue
        rng = substream(cfg.seed, *path, s)
        coins, values = draw(rng, size)
        try:
            outputs = kernel(rng, coins, values)
        except Exception as exc:
            exc.sample_range = (offset, offset + size)
            exc.stream_index = s
            if hasattr(exc, "add_note"):  # 3.11+
                exc.add_note(
                    f"while evaluating samples [{offset}, {offset + size}) "
                    f"on stream {s}"
                )
            raise
        stats = [_stream_stats(x) for x in outputs]
        merged = stats if merged is None else list(map(_merge_stats, merged, stats))
        offset += size
    return merged


def _market_streams(market, extras, cfg, kernel):
    """_run_streams over cfg.n_samples draws of the bidders, then the extras."""
    draw = partial(_draw_market, market, extras=extras)
    return _run_streams(cfg, cfg.n_samples, (), draw, kernel)


def _estimate_each(market: MarketModel, mechs, extras, cfg: EstimatorConfig):
    """estimate_mc of every mechanism in `mechs`, all on one set of draws.

    Each mechanism starts from the generator state right after the draws,
    so each result is bit-identical to its own estimate_mc call.
    """

    def kernel(rng, coins, values):
        after_draws = rng.bit_generator.state
        prices = []
        for mech in mechs:
            rng.bit_generator.state = after_draws
            prices.append(allocate(mech, values, rng, market=market)[1])
        return prices

    stats = _market_streams(market, extras, cfg, kernel)
    return [_as_estimate(st) for st in stats]


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
    if cfg is None:
        raise ValueError("an EstimatorConfig with an explicit seed is required")
    return _estimate_each(market, (mech,), extras, cfg)[0]


def _column_dists(market, extras):
    """The distribution behind each value column; extras must be components."""
    if not all(isinstance(spec, ComponentExtra) for spec in extras):
        raise ValueError("virtual values need a distribution per column")
    return [market.bidder_mixture(i) for i in range(market.n)] + [
        market.components[spec.index] for spec in extras
    ]


def _winner_virtual(phi, winner):
    """phi of each row's winner; 0 where nothing sells."""
    rows = np.arange(phi.shape[0])
    return np.where(winner >= 0, phi[rows, np.maximum(winner, 0)], 0.0)


def virtual_surplus_gap(
    market: MarketModel,
    mech,
    extras=(),
    cfg: EstimatorConfig = None,
) -> RevenueEstimate:
    """Paired MC estimate of E[revenue - phi_winner(v_winner)].

    Both sides use the same draws, so the standard error is that of the
    per-draw difference; a truthful mechanism should give a mean within
    noise of zero.  Every column needs a continuous distribution (extras
    must be component draws, not deterministic values).
    """
    col_dists = _column_dists(market, extras)

    def kernel(rng, coins, values):
        winner, price = allocate(mech, values, rng, market=market)
        return (price - _winner_virtual(_virtual_matrix(values, col_dists), winner),)

    (stats,) = _market_streams(market, extras, cfg, kernel)
    return _as_estimate(stats)


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


def vickrey_revenue_cdf(dists, z):
    """P(second-highest of independent draws <= z): nobody or exactly one
    bidder exceeds z."""
    if len(dists) < 2:
        raise ValueError("second-highest needs at least two bidders")
    return _match(z, _second_highest_law(dists, z)[0])


def posted_sequence_revenue_exact(dists, prices, order) -> RevenueEstimate:
    """Exact expected revenue of a sequential posted-price mechanism.

    Bidders are independent and each appears at most once in `order`;
    acceptance at equality follows the atom convention P(v >= p) = 1 - F(p-).
    """
    order = tuple(int(i) for i in order)
    if len(set(order)) != len(order):
        raise ValueError("posted order must not repeat a bidder")
    if len(prices) != len(order):
        raise ValueError("prices and order must have equal length")
    survive = 1.0
    total = 0.0
    for price, i in zip(prices, order):
        accept = float(dists[i].survival_at_or_above(price))
        total += price * survive * accept
        survive *= 1.0 - accept
    return RevenueEstimate(mean=total, std_err=0.0, n_samples=0, method="exact")


def second_price_two_point_exact(
    n_bidders: int, dist: TwoPoint, extra_values=()
) -> RevenueEstimate:
    """Exact Vickrey revenue for i.i.d. two-point bidders plus fixed extras.

    Sums the binomial law of the high-value count; the second-order statistic
    of the pooled profile is a deterministic function of that count.
    """
    extras = sorted(float(v) for v in extra_values)
    total_bidders = n_bidders + len(extras)
    if total_bidders < 2:
        raise ValueError("need at least two bidders overall")
    p = dist.p_hi
    mean = 0.0
    for h in range(n_bidders + 1):
        pmf = math.comb(n_bidders, h) * p**h * (1.0 - p) ** (n_bidders - h)
        pool = [dist.v_hi] * h + [dist.v_lo] * (n_bidders - h) + extras
        pool.sort()
        mean += pmf * pool[-2]
    return RevenueEstimate(mean=mean, std_err=0.0, n_samples=0, method="exact")


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


def _adaptive_simpson(f, a, b, tol, depth=50):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, depth)


def _simpson_recurse(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _simpson_recurse(
        f, a, m, fa, flm, fm, left, half, depth - 1
    ) + _simpson_recurse(f, m, b, fm, frm, fb, right, half, depth - 1)


def _atom_breakpoints(dists):
    pts = set()
    for d in dists:
        sup = d.support
        pts.add(sup.lo)
        if math.isfinite(sup.hi):
            pts.add(sup.hi)
        if isinstance(d, TwoPoint):
            pts.update((d.v_lo, d.v_hi))
    return pts


def expected_revenue_quadrature(dists, reserve: float | None = None, tol: float = 1e-6) -> RevenueEstimate:
    """E[second-price revenue] = integral of P(second-highest > z).

    The integrand comes from `_second_highest_law`, so any number of bidders
    is allowed.  Splits at atoms and support endpoints so each Simpson
    segment is smooth, then substitutes z = u/(1-u) on the unbounded tail.
    Raises DivergentTail when the transformed tail integrand keeps growing
    toward u = 1.
    """
    lo = float(reserve) if reserve is not None else 0.0

    def survival(z):
        return float(_second_highest_law(dists, z)[1])

    head = 0.0
    if reserve is not None:
        sold = 1.0 - math.prod(float(d.cdf_left(reserve)) for d in dists)
        head = reserve * sold

    pts = sorted(p for p in _atom_breakpoints(dists) if p > lo + 1e-300)
    cut = max([lo] + pts) + 1.0  # tail starts past every breakpoint
    segments = []
    prev = lo
    for p in pts + [cut]:
        if p > prev:
            segments.append((prev, p))
            prev = p

    seg_tol = tol / (2.0 * max(len(segments), 1))
    nudge = 1e-13
    bounded = 0.0
    for a, b in segments:
        eps_a = nudge * (1.0 + abs(a))
        eps_b = nudge * (1.0 + abs(b))
        bounded += _adaptive_simpson(survival, a + eps_a, b - eps_b, seg_tol)

    # tail: z = u/(1-u), dz = du/(1-u)^2
    def g(u):
        z = u / (1.0 - u)
        return survival(z) / ((1.0 - u) ** 2)

    probes = [g(1.0 - 10.0**-e) for e in (6, 8, 10)]
    if probes[0] < probes[1] < probes[2] and probes[2] > max(probes[0] * 25.0, 1.0 / tol):
        raise DivergentTail("revenue survival tail is not integrable at this tolerance")
    u_start = cut / (1.0 + cut)
    tail = _adaptive_simpson(g, u_start, 1.0 - 1e-12, tol / 2.0)

    return RevenueEstimate(
        mean=head + bounded + tail, std_err=0.0, n_samples=0, method="quadrature"
    )


# ---------------------------------------------------------------------------
# Discriminating benchmark and ratios
# ---------------------------------------------------------------------------

_MIN_PROFILE_SAMPLES = 64


def _profile_draw(dists):
    """Draws for a fixed index profile: one uniform column per bidder."""

    def draw(rng, size):
        values = np.empty((size, len(dists)))
        for j, d in enumerate(dists):
            values[:, j] = d._quantile(rng.random(size))
        return None, values

    return draw


def discriminating_benchmark(
    market: MarketModel, cfg: EstimatorConfig, policies=None
) -> RevenueEstimate:
    """sum_q p(q) * OPT(G(q)): optimal revenue given the coins are observed.

    With `policies` (a mapping or callable from a profile tuple to a
    PostedSequence), each profile is valued exactly by the supplied policy;
    this is how equal-revenue or atomic components are benchmarked.  Without
    policies every component must be regular and each profile's optimum is
    a per-profile Myerson Monte Carlo estimate.
    """
    total = market.k**market.n
    if policies is None:
        # each profile's optimum is Myerson per component, so equal-revenue
        # or atomic components need explicit policies instead
        _require_regular(market.components)
    if total <= cfg.profile_cap:
        profiles = enumerate_profiles(market, cfg.profile_cap)
        if policies is not None:
            lookup = policies if callable(policies) else policies.get
            mean = 0.0
            for prof in profiles:
                if prof.weight == 0.0:
                    continue
                policy = lookup(prof.q)
                if policy is None:
                    raise ValueError(f"no policy supplied for profile {prof.q}")
                dists = [market.components[t] for t in prof.q]
                val = posted_sequence_revenue_exact(dists, policy.prices, policy.order)
                mean += prof.weight * val.mean
            return RevenueEstimate(mean=mean, std_err=0.0, n_samples=0, method="exact")

        mean = 0.0
        var = 0.0
        n_total = 0
        for idx, prof in enumerate(profiles):
            if prof.weight == 0.0:
                continue
            dists = [market.components[t] for t in prof.q]
            n_q = max(int(round(cfg.n_samples * prof.weight)), _MIN_PROFILE_SAMPLES)

            def kernel(rng, coins, values):
                return (_myerson_batch(values, dists)[1],)

            (stats,) = _run_streams(cfg, n_q, (idx,), _profile_draw(dists), kernel)
            est = _as_estimate(stats)
            mean += prof.weight * est.mean
            var += (prof.weight * est.std_err) ** 2
            n_total += est.n_samples
        return RevenueEstimate(
            mean=mean, std_err=math.sqrt(var), n_samples=n_total, method="mc"
        )

    if policies is not None:
        raise ProfileSpaceTooLarge(
            f"k**n = {total} exceeds the cap and policies cannot be sampled"
        )
    # unbiased coin sampling: draw (q, v) jointly, run the realized-profile
    # optimal auction per draw
    def kernel(rng, coins, values):
        return (_myerson_batch(values, market.components, coins)[1],)

    (stats,) = _market_streams(market, (), cfg, kernel)
    return _as_estimate(stats)


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

    M runs on the original bidders; M' runs on the originals plus the extra
    bidders.  Common random numbers: the same original draws feed both
    mechanisms, because the inequalities being tested are per-draw
    couplings.  Conditioning is by rejection: only samples whose winners
    diverge contribute, and fewer than 100 such samples (but more than
    zero) raises InsufficientDivergenceSamples.  M' starts from the
    generator state right after the draws, so the report's `estimate` is
    bit-identical to estimate_mc(market, mech_m_prime, extras, cfg).
    """
    col_dists = _column_dists(market, extras_for_m_prime)
    for d in col_dists:
        if not d.is_continuous:
            raise ValueError("commensurateness needs continuous distributions")

    n = market.n
    eq6_pass = 0

    def kernel(rng, coins, full):
        nonlocal eq6_pass
        after_draws = rng.bit_generator.state
        w_m, _ = allocate(mech_m, full[:, :n], rng, market=market)
        rng.bit_generator.state = after_draws
        w_p, price_p = allocate(mech_m_prime, full, rng, market=market)
        phi = _virtual_matrix(full, col_dists)
        diverged = w_p != w_m
        phi_wm = _winner_virtual(phi, w_m)[diverged]
        eq6_pass += int(np.count_nonzero(price_p[diverged] >= phi_wm - _EQ6_TOL))
        return _winner_virtual(phi, w_p)[diverged], price_p

    stats, price_stats = _market_streams(market, extras_for_m_prime, cfg, kernel)
    div_count, mean, m2 = stats
    if 0 < div_count < _MIN_DIVERGENCE:
        raise InsufficientDivergenceSamples(
            f"only {div_count} divergence samples; need {_MIN_DIVERGENCE}"
        )
    diverged = div_count > 0
    return CommensuratenessReport(
        n_samples=cfg.n_samples,
        divergence_count=div_count,
        eq5_mean=mean if diverged else None,
        eq5_std_err=math.sqrt(m2 / max(div_count - 1, 1) / div_count) if diverged else None,
        eq6_pass_count=eq6_pass,
        no_divergence=not diverged,
        estimate=_as_estimate(price_stats),
    )
