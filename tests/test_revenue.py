"""Revenue estimation: MC, exact formulas, quadrature, benchmark, commensurateness."""

import functools
import gc
import math
import sys
import threading
import time
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from auction_lab import (
    CommensuratenessReport,
    ComponentExtra,
    DeterministicExtra,
    EqualRevenue,
    EstimatorConfig,
    Exponential,
    MixtureDistribution,
    MyersonIroned,
    MyersonRegular,
    PointMass,
    PostedSequence,
    PowerLaw,
    RevenueEstimate,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceBidderReserves,
    SecondPriceSubsetReserve,
    TruncatedNormal,
    TwoPoint,
    Uniform,
    allocate,
    appendix_market,
    approximation_ratio,
    best_posted_ladder_two_point,
    build_market,
    commensurateness_check,
    discriminating_benchmark,
    enumerate_profiles,
    estimate_mc,
    expected_revenue_quadrature,
    hr_ordered_markets,
    iron,
    plan_hr_dominant,
    plan_targeted,
    posted_sequence_revenue_exact,
    random_mixture_markets,
    virtual_surplus_gap,
    substream,
)
import auction_lab.mechanisms as mechanisms_mod
import auction_lab.revenue as revenue_mod
from auction_lab.errors import (
    AtomicDistribution,
    DivergentTail,
    IndexOutOfRange,
    InsufficientDivergenceSamples,
    IrregularComponent,
    IrregularComponentWarning,
    NegativeReserve,
    NoVirtualInverse,
    SupremumNotAttained,
    ToleranceNotMet,
    ZeroDenominator,
)
from auction_lab.experiments import DEFAULT_SEED
from auction_lab.mechanisms import _myerson_batch, _virtual_matrix
from auction_lab.mixtures import _Workspace, _coin_rule, _values_given_coins
from auction_lab.revenue import (
    _as_estimate,
    _atom_breakpoints,
    _column_laws,
    _draw_market,
    _integrate,
    _merge_stats,
    _second_highest_law,
    _stream_stats,
)
from test_mechanisms import myerson_reference

PM, ER = PointMass(1.0), EqualRevenue()


def two_uniform_market():
    return build_market((Uniform(0, 1),), [[1.0], [1.0]])


class TestEstimateMC:
    def test_second_price_two_uniforms(self):
        # oracle: E[min of two U(0,1)] = 1/3
        cfg = EstimatorConfig(seed=5, n_samples=400_000)
        est = estimate_mc(two_uniform_market(), SecondPrice(), (), cfg)
        assert abs(est.mean - 1 / 3) <= 4 * est.std_err
        assert est.method == "mc" and est.n_samples == 400_000

    def test_myerson_two_uniforms_against_quadrature_oracle(self):
        # oracle: E[revenue] = E[virtual surplus] = integral of max(0, 2*max-1)
        oracle, _ = integrate.dblquad(
            lambda v2, v1: max(0.0, 2.0 * max(v1, v2) - 1.0), 0, 1, 0, 1
        )
        assert oracle == pytest.approx(5 / 12, abs=1e-6)
        cfg = EstimatorConfig(seed=6, n_samples=400_000)
        mech = MyersonRegular((Uniform(0, 1), Uniform(0, 1)))
        est = estimate_mc(two_uniform_market(), mech, (), cfg)
        assert abs(est.mean - oracle) <= 4 * est.std_err

    def test_bit_identical_reruns(self):
        cfg = EstimatorConfig(seed=11, n_samples=50_000, n_streams=8)
        market = build_market((Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 2)
        a = estimate_mc(market, SecondPrice(), (ComponentExtra(0),), cfg)
        b = estimate_mc(market, SecondPrice(), (ComponentExtra(0),), cfg)
        assert a == b

    @pytest.mark.parametrize("index", [-1, 2])
    def test_component_index_checked_before_any_draw(self, index):
        market = build_market((Uniform(0, 1), Exponential(1.0)), [[0.5, 0.5]] * 2)
        cfg = EstimatorConfig(seed=11, n_samples=1_000)
        extras = (ComponentExtra(index),)
        calls = [
            lambda: estimate_mc(market, SecondPrice(), extras, cfg),
            lambda: virtual_surplus_gap(market, [SecondPrice()], extras, cfg),
            # the extras are checked before M refuses these mixed bidders
            lambda: commensurateness_check(market, SecondPrice(), extras, cfg),
        ]
        for call in calls:
            with pytest.raises(IndexOutOfRange, match=f"component index {index} ") as err:
                call()
            assert not hasattr(err.value, "stream_index")

    def test_deterministic_extras_column(self):
        market = two_uniform_market()
        cfg = EstimatorConfig(seed=3, n_samples=10_000)
        est = estimate_mc(market, SecondPrice(), (DeterministicExtra(5.0),), cfg)
        # the extra always wins; price = max of the two uniforms, mean 2/3
        assert abs(est.mean - 2 / 3) <= 4 * est.std_err

    def test_mechanism_errors_propagate_with_sample_range(self):
        market = two_uniform_market()
        cfg = EstimatorConfig(seed=3, n_samples=100)
        with pytest.raises(TypeError) as err:
            estimate_mc(market, "not a mechanism", (), cfg)
        assert err.value.sample_range == (0, 13)  # first non-empty chunk
        assert err.value.stream_index == 0


def _masked_quantiles(components, coin, u):
    """Independent oracle: gather each coin's uniforms by mask, transform, scatter back."""
    values = np.empty(u.shape)
    for t, comp in enumerate(components):
        mask = coin == t
        if np.any(mask):
            values[mask] = comp._quantile(u[mask])
    return values


def _reference_draw_market(market, rng, size):
    """Independent oracle: per bidder, searchsorted coins then masked transforms."""
    coins = np.empty((size, market.n), dtype=np.int64)
    values = np.empty((size, market.n))
    for i in range(market.n):
        cum = np.cumsum(market.weights[i])
        coin = np.minimum(np.searchsorted(cum, rng.random(size), side="right"), market.k - 1)
        values[:, i] = _masked_quantiles(market.components, coin, rng.random(size))
        coins[:, i] = coin
    return coins, values


NESTED = MixtureDistribution((TruncatedNormal(-0.5, 1.0), Exponential(1.0)), (0.5, 0.5))

DRAW_MARKETS = {
    "mixtures": random_mixture_markets(seed=20130, count=6),
    "pinned": hr_ordered_markets(seed=20130, count=4),
    "k1": [build_market((Exponential(1.3),), [[1.0]] * 3)],
    "zero_weight_column": [
        build_market(
            (Uniform(0, 1), Exponential(1.0), PowerLaw(2.5)),
            [[0.5, 0.0, 0.5], [0.25, 0.0, 0.75], [0.0, 0.0, 1.0]],
        ),
        build_market(
            (TruncatedNormal(1.0, 0.5), TwoPoint(1.0, 3.0, 0.4), ER),
            [[0.3, 0.0, 0.7], [0.6, 0.0, 0.4]],
        ),
    ],
    # 0.7 + 0.2 + 0.1 accumulates to 0.9999999999999999
    "cum_below_one": [
        build_market((Uniform(0, 2), Exponential(0.8), PowerLaw(3.0)), [[0.7, 0.2, 0.1]] * 2)
    ],
    # mu <= 0 takes the Newton polish below the median, mu > 0 does not
    "truncated_normal": [
        build_market((TruncatedNormal(-0.5, 1.0), Uniform(0, 2)), [[0.6, 0.4], [0.3, 0.7]]),
        build_market((TruncatedNormal(1.0, 0.5), Exponential(1.0)), [[0.5, 0.5]] * 2),
    ],
    "equal_revenue": [build_market((ER, Exponential(1.0)), [[0.5, 0.5], [0.2, 0.8]])],
    "atomic": [
        appendix_market(),
        build_market((TwoPoint(1.0, 3.0, 0.4), Uniform(0, 1)), [[0.5, 0.5], [0.7, 0.3]]),
    ],
    "nested_mixture": [build_market((NESTED, PowerLaw(2.5)), [[0.5, 0.5], [0.3, 0.7]])],
}

# one component of each family; it shares the draw with a uniform
DRAW_FAMILIES = {
    "uniform": Uniform(0.5, 2.0),
    "exponential": Exponential(1.3),
    "power_law": PowerLaw(0.4),
    "equal_revenue": ER,
    "truncated_normal_mu_le_0": TruncatedNormal(-3.0, 1.0),
    "truncated_normal_mu_gt_0": TruncatedNormal(1.0, 0.5),
    "point_mass": PM,
    "two_point": TwoPoint(1.0, 3.0, 0.4),
    "mixture": NESTED,
}

# closed-form quantiles as allocating expressions, in the same operation order
CLOSED_FORM_QUANTILES = {
    "uniform": lambda d, q: d.a + q * (d.b - d.a),
    "exponential": lambda d, q: -np.log1p(-q) / d.lam,
    "power_law": lambda d, q: (1.0 - q) ** (-1.0 / d.alpha),
    "equal_revenue": lambda d, q: q / (1.0 - q),
    "point_mass": lambda d, q: np.full(q.shape, d.v),
    "two_point": lambda d, q: np.where(q > 1.0 - d.p_hi, d.v_hi, d.v_lo),
}


DRAW_BIDDERS = [
    pytest.param(case, j, i, id=f"{case}-{j}-{i}")
    for case in sorted(DRAW_MARKETS)
    for j, market in enumerate(DRAW_MARKETS[case])
    for i in range(market.n)
]


# each quantile sees the uniforms of the other components too: none may warn
@pytest.mark.filterwarnings("error")
class TestDrawMarket:
    @pytest.mark.parametrize("case", sorted(DRAW_MARKETS))
    def test_bit_identical_to_per_bidder_oracle(self, case):
        for j, market in enumerate(DRAW_MARKETS[case]):
            rng, ref_rng = substream(101, j), substream(101, j)
            values = _draw_market(market, rng, 4_000, ())
            _, ref_values = _reference_draw_market(market, ref_rng, 4_000)
            assert values.flags.f_contiguous, "the kernels sweep contiguous columns"
            assert values.tobytes() == ref_values.tobytes(), f"market {j}"
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("case, j, i", DRAW_BIDDERS)
    def test_sample_with_coin_matches_oracle(self, case, j, i):
        market = DRAW_MARKETS[case][j]
        rng, ref_rng = substream(5, i), substream(5, i)
        coin, value = market.bidder_mixture(i).sample_with_coin(rng, 1_000)
        ref_coins, ref_values = _reference_draw_market(
            build_market(market.components, market.weights[i : i + 1]), ref_rng, 1_000
        )
        assert np.array_equal(coin, ref_coins[:, 0])
        assert value.tobytes() == ref_values[:, 0].tobytes()

    def test_no_coin_names_a_zero_weight(self):
        # 0.7 + 0.2 + 0.1 stops below 1, so the top uniform passes every sum
        top = np.nextafter(1.0, 0.0)

        class TopUniform:
            def random(self, size=None):
                return top if size is None else np.full(size, top)

        comps = (Uniform(0, 2), Exponential(0.8), PowerLaw(3.0), PM)
        mixture = MixtureDistribution(comps, (0.7, 0.2, 0.1, 0.0))
        coin, value = mixture.sample_with_coin(TopUniform(), 3)
        assert np.all(coin == 2)
        assert value.tobytes() == comps[2]._quantile(np.full(3, top)).tobytes()
        assert mixture.sample_with_coin(TopUniform()) == (2, comps[2].quantile(top))

    @pytest.mark.parametrize("family", sorted(DRAW_FAMILIES))
    def test_quantile_into_keeps_the_bits_of_quantile(self, family):
        # a full and a partial block of a stale buffer, and the uniforms
        # themselves, which a lone component's draw writes over
        dist = DRAW_FAMILIES[family]
        u = np.array([0.0, np.nextafter(1.0, 0.0), *substream(3, 0).random(62)])
        for rows in (u.size, 37):
            expect = np.asarray(dist._quantile(u[:rows]), dtype=float).tobytes()
            if family in CLOSED_FORM_QUANTILES:
                assert CLOSED_FORM_QUANTILES[family](dist, u[:rows]).tobytes() == expect
            buffer = np.full(u.size, np.nan)
            assert dist._quantile_into(u[:rows], buffer[:rows]).tobytes() == expect
            assert buffer[:rows].tobytes() == expect
            own = u[:rows].copy()
            assert dist._quantile_into(own, own).tobytes() == expect

    @pytest.mark.parametrize("family", sorted(DRAW_FAMILIES))
    def test_values_given_coins_per_family(self, family):
        # both stream extremes reach both components, which take turns; a
        # partial block selects from the front of a larger, stale workspace
        u = np.repeat([0.0, np.nextafter(1.0, 0.0), *substream(3, 0).random(200)], 2)
        coin = np.tile([0, 1], u.size // 2)
        dist = DRAW_FAMILIES[family]
        work = _Workspace(u.size, 3)
        work.stack.fill(np.nan)
        for components in ((dist, Uniform(0, 1)), (Uniform(0, 1), dist)):
            for rows in (u.size, 301):
                expect = _masked_quantiles(components, coin[:rows], u[:rows]).tobytes()
                values = _values_given_coins(components, [0, 1], coin[:rows], u[:rows].copy(), work)
                assert values.tobytes() == expect

    def test_coin_rule_at_cumulative_edges(self):
        for row in ([0.7, 0.2, 0.1], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [1.0]):
            cum = np.cumsum(row)
            u = np.concatenate(
                [[0.0, 1.0 - 2.0**-53], cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)]
            )
            u = u[(u >= 0.0) & (u < 1.0)]
            expect = np.minimum(np.searchsorted(cum, u, side="right"), len(row) - 1)
            assert np.array_equal(_coin_rule(cum, u), expect), row

    def test_extras_drawn_after_the_originals(self):
        market = DRAW_MARKETS["mixtures"][1]
        extras = (ComponentExtra(0), DeterministicExtra(2.5))
        rng, ref_rng = substream(9, 0), substream(9, 0)
        values = _draw_market(market, rng, 500, extras)
        _, ref_values = _reference_draw_market(market, ref_rng, 500)
        extra = market.components[0]._quantile(ref_rng.random(500))
        assert values[:, : market.n].tobytes() == ref_values.tobytes()
        assert values[:, market.n].tobytes() == extra.tobytes()
        assert np.all(values[:, market.n + 1] == 2.5)


def _outcome(primitive, *args):
    """The bits a law primitive returns, or the type of error it raises."""
    try:
        return np.asarray(primitive(*args), dtype=float).tobytes()
    except (AtomicDistribution, NotImplementedError, ValueError) as exc:
        return type(exc)


# Exponential(10) has S and f underflow to 0 before x = 76
ONE_HOT_FAMILIES = {**DRAW_FAMILIES, "exponential_underflow": Exponential(10.0)}
ONE_HOT_LEVELS = np.array([2.0**-53, 1e-12, 0.3, 0.5, 0.7, 1.0 - 1e-12, 1.0 - 2.0**-53])


@pytest.mark.filterwarnings("error")
class TestPinnedMixture:
    """A mixture with one component of positive weight is that component."""

    @pytest.mark.parametrize("family", sorted(ONE_HOT_FAMILIES))
    def test_one_hot_mixture_keeps_the_bits_of_its_component(self, family):
        dist = ONE_HOT_FAMILIES[family]
        mix = MixtureDistribution((Uniform(0, 1), dist, Exponential(2.0)), (0.0, 1.0, 0.0))
        x = np.concatenate([dist._quantile(ONE_HOT_LEVELS), [0.0, 0.5, 1.0, 2.0, 76.0]])
        lo, hi = dist.support.lo, dist.support.hi
        inside = x[(x > lo) & (x < hi)]
        y = np.array([-2.0, -0.5, 0.0, 0.3, 1.0, 5.0, 20.0])
        checks = [
            ("_cdf", x), ("_cdf_left", x), ("_survival", x), ("_mills", inside),
            ("_quantile", ONE_HOT_LEVELS), ("_survival_quantile", ONE_HOT_LEVELS),
            ("_virtual_inverse", y),
        ]
        for name, args in checks:
            want = _outcome(getattr(dist, name), args)
            assert _outcome(getattr(mix, name), args) == want, name
        own = ONE_HOT_LEVELS.copy()
        assert mix._quantile_into(own, own).tobytes() == _outcome(dist._quantile, ONE_HOT_LEVELS)
        if dist.is_continuous:
            stale = np.full(inside.size, np.nan)
            assert mix._mills_into(inside, stale).tobytes() == _outcome(dist._mills, inside)
        if family == "exponential_underflow":
            assert dist._survival(np.array(76.0)) == 0.0 and mix._mills(np.array(76.0)) == 0.1

    def test_one_hot_point_mass_keeps_the_mixtures_density_error(self):
        mix = MixtureDistribution((Uniform(0, 1), PM), (0.0, 1.0))
        with pytest.raises(AtomicDistribution, match="mixture carries an atom"):
            mix.pdf(1.0)

    @pytest.mark.parametrize(
        "market",
        [
            pytest.param(
                build_market((Uniform(0, 1), Exponential(1.0)), [[1.0, 0.0], [0.0, 1.0]]),
                id="uniform_exponential",
            ),
            *(pytest.param(m, id=f"hr{j}") for j, m in enumerate(DRAW_MARKETS["pinned"])),
        ],
    )
    def test_myerson_prices_a_pinned_bidders_own_mixture(self, market):
        laws = MyersonRegular(tuple(market.components[int(np.argmax(row))] for row in market.weights))
        mixtures = MyersonRegular(tuple(market.bidder_mixture(i) for i in range(market.n)))
        cfg = EstimatorConfig(seed=17, n_samples=20_000, n_streams=2)
        assert estimate_mc(market, mixtures, (), cfg) == estimate_mc(market, laws, (), cfg)
        values = _draw_market(market, substream(17, 0), 5_000, ())
        for got, want in zip(allocate(mixtures, values), allocate(laws, values)):
            assert got.tobytes() == want.tobytes()

    def test_myerson_refuses_a_mixed_bidders_mixture(self):
        # the mixture is regular but has no virtual inverse to price a winner
        # with: both routes refuse it by name before anything is drawn
        market = build_market((Exponential(1.0), Exponential(1.1)), [[1.0, 0.0], [0.5, 0.5]])
        dists = (market.bidder_mixture(0), market.bidder_mixture(1))
        cfg = EstimatorConfig(seed=17, n_samples=1_000)
        values = np.full((4, 2), 0.5)
        for call in (
            lambda: estimate_mc(market, MyersonRegular(dists), (), cfg),
            lambda: allocate(MyersonRegular(dists), values),
        ):
            with pytest.raises(NoVirtualInverse, match=r"column 1 \(Mixture\(0.5\*Exponential"):
                call()


def _mills_oracle(dist, x):
    """Independent oracle for the inverse hazard: S/f from the family's own
    survival and density, or 1/lam for an Exponential where S or f is not a
    normal float."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s, f = dist._survival(x), dist._pdf(x)
        ratio = s / f
    if isinstance(dist, Exponential):
        normal = (s >= np.finfo(float).tiny) & (f >= np.finfo(float).tiny)
        ratio = np.where(normal, ratio, 1.0 / dist.lam)
    return ratio


# every continuous draw family, plus an Exponential whose S and f underflow at 76
MILLS_FAMILIES = {
    **{name: d for name, d in DRAW_FAMILIES.items() if d.is_continuous},
    "exponential_underflow": Exponential(10.0),
}


class TestVirtualInto:
    """`_mills_into`, `_virtual_into` and `_virtual_unchecked` against x - S/f."""

    @pytest.mark.parametrize("family", sorted(MILLS_FAMILIES))
    def test_in_place_phi_keeps_the_oracles_bits(self, family):
        dist = MILLS_FAMILIES[family]
        lo, hi = dist.support.lo, dist.support.hi
        inside = np.asarray(dist._quantile(substream(3, 0).random(61)))
        # the truncated normal's Mills ratio, through erfcx, agrees with S/f
        # to rounding inside the support, where S/f keeps its digits
        exact = not isinstance(dist, TruncatedNormal)
        ends = [lo, hi if math.isfinite(hi) else 76.0, lo - 0.5] if exact else []
        x = np.concatenate([inside, ends])
        mills = _mills_oracle(dist, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = x - mills
            # partial F-order columns of a stale buffer, as `_virtual_matrix` writes them
            stale = np.full((x.size + 5, 3), np.nan, order="F")
            got_mills = dist._mills_into(x, stale[: x.size, 1]).copy()
            got_phi = dist._virtual_into(x, stale[: x.size, 2])
            unchecked = dist._virtual_unchecked(x)
            points = [dist._virtual_unchecked(float(v)) for v in x]
            zero_d = [dist._virtual_into(np.array(v), np.empty(())) for v in x]
        assert np.isnan(stale[x.size :]).all() and np.isnan(stale[:, 0]).all()
        assert np.array_equal(got_phi, stale[: x.size, 2], equal_nan=True)
        # a 0-d point is a float within rounding of the same value in an
        # array: numpy's scalar `**`, which a 0-d argument of `_survival` or
        # `_pdf` reaches, may round the last bit unlike the array loop
        assert all(type(v) is float for v in points)
        assert np.array_equal(points, zero_d, equal_nan=True)
        assert points == pytest.approx(unchecked, rel=4 * np.finfo(float).eps, nan_ok=True)
        for got, want in ((got_mills, mills), (got_phi, phi), (unchecked, phi)):
            if exact:
                assert got.tobytes() == np.asarray(want).tobytes()
            else:
                assert np.asarray(got) == pytest.approx(want, rel=1e-12, abs=1e-12)
        if family == "exponential_underflow":
            assert dist._survival(np.array(76.0)) == 0.0 and got_phi[-2] == 76.0 - 0.1


# prices on a revenue-like scale; shifts up to 1e8 round each price by at most
# half an ulp of 1e8 + 10, which moves the standard error by no more than that
_PRICES = st.lists(st.floats(0.0, 10.0), min_size=2, max_size=300).map(np.array)
_SHIFT_TOL = 4.0 * np.finfo(float).eps * (1e8 + 10.0)


class TestStreamReduction:
    @given(value=st.floats(0.0, 1e8), n=st.integers(1, 500), cuts=st.lists(st.integers(0, 500)))
    @settings(max_examples=200, deadline=None)
    def test_constant_prices_give_zero_std_err(self, value, n, cuts):
        parts = np.split(np.full(n, value), sorted(min(c, n) for c in cuts))
        est = _as_estimate(functools.reduce(_merge_stats, map(_stream_stats, parts)))
        assert est.std_err == 0.0 and est.mean == value and est.n_samples == n

    @pytest.mark.parametrize(
        "stats", [(4000, 9.9e206, math.inf), (1, math.nan, 0.0), (2, math.inf, 0.0)], ids=str
    )
    def test_a_mean_or_std_err_not_finite_is_a_divergent_tail(self, stats):
        with pytest.raises(DivergentTail, match="is not finite"):
            _as_estimate(stats)

    def test_constant_prices_end_to_end(self):
        market = build_market((PointMass(0.1),), [[1.0], [1.0]])
        est = estimate_mc(market, SecondPrice(), (), EstimatorConfig(seed=1, n_samples=10**6))
        assert est.std_err == 0.0 and est.mean == 0.1

    @given(x=_PRICES, shift=st.floats(-1e8, 1e8))
    @settings(max_examples=200, deadline=None)
    def test_std_err_invariant_under_shift(self, x, shift):
        base = _as_estimate(_stream_stats(x)).std_err
        moved = _as_estimate(_stream_stats(x + shift)).std_err
        assert abs(moved - base) <= _SHIFT_TOL

    @given(x=_PRICES, cuts=st.lists(st.integers(0, 300), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_index_order_merge_matches_one_pass(self, x, cuts):
        parts = np.split(x, sorted(min(c, len(x)) for c in cuts))
        n, mean, m2 = functools.reduce(_merge_stats, map(_stream_stats, parts))
        n_all, mean_all, m2_all = _stream_stats(x)
        assert n == n_all
        assert mean == pytest.approx(mean_all, rel=1e-12, abs=1e-12)
        assert m2 == pytest.approx(m2_all, rel=1e-10, abs=1e-10)

    @given(x=_PRICES)
    @settings(max_examples=100, deadline=None)
    def test_empty_stream_leaves_merge_unchanged(self, x):
        stats = _stream_stats(x)
        empty = _stream_stats(np.empty(0))
        assert empty == (0, 0.0, 0.0)
        assert _merge_stats(stats, empty) == stats
        assert _merge_stats(empty, stats) == stats
        assert _merge_stats(empty, empty) == empty


def second_price_reference(values, reserves):
    """(winner, price) of Vickrey with per-bidder reserves on one row."""
    qualifying = sorted((v, -i) for i, v in enumerate(values) if v >= reserves[i])
    if not qualifying:
        return -1, 0.0
    winner = -qualifying[-1][1]  # highest value, then lowest index
    runner_up = qualifying[-2][0] if len(qualifying) >= 2 else -math.inf
    return winner, max(runner_up, reserves[winner])


def row_reference(mech, values):
    """Independent per-row (winner, price) for the mechanisms under test."""
    m = len(values)
    if isinstance(mech, SecondPrice):
        return second_price_reference(values, [0.0] * m)
    if isinstance(mech, SecondPriceAnonymousReserve):
        return second_price_reference(values, [mech.reserve] * m)
    if isinstance(mech, SecondPriceBidderReserves):
        return second_price_reference(values, list(mech.reserves))
    if isinstance(mech, SecondPriceSubsetReserve):
        rest = [i for i in range(m) if i not in mech.subset]
        reserve = max(values[i] for i in mech.subset)
        w, price = second_price_reference([values[i] for i in rest], [reserve] * len(rest))
        return (rest[w], price) if w >= 0 else (-1, 0.0)
    if isinstance(mech, PostedSequence):
        for price, i in zip(mech.prices, mech.order):
            if values[i] >= price:
                return i, price
        return -1, 0.0
    if isinstance(mech, MyersonRegular):
        return myerson_reference(values, mech.dists)
    return myerson_reference(values, mech.curves)


COLUMNS = (Uniform(0, 1), Uniform(0, 2), Exponential(1.0))
WIDE = COLUMNS + (PowerLaw(2.5), TruncatedNormal(1.0, 0.5))


def _case(mech, columns=COLUMNS):
    label = type(mech).__name__ + ("" if columns is COLUMNS else "-wide")
    return pytest.param(mech, columns, id=label)


class TestBatchScalarEquivalence:
    """Every row of `allocate` matches an independent per-row reference:
    sorted values for second price, subset and posted prices; public
    virtual values and the bisection oracle for Myerson."""

    @pytest.mark.parametrize(
        "mech, columns",
        [
            _case(SecondPrice()),
            _case(SecondPriceAnonymousReserve(0.4)),
            _case(SecondPriceBidderReserves((0.1, 0.6, 0.3))),
            _case(SecondPriceSubsetReserve((0,))),
            _case(MyersonRegular(COLUMNS)),
            _case(PostedSequence((0.8, 0.2), (1, 0))),
            _case(SecondPriceBidderReserves((0.1, 0.6, 0.3, 1.5, 0.8)), WIDE),
            _case(SecondPriceSubsetReserve((3, 1)), WIDE),
            _case(MyersonRegular(WIDE), WIDE),
            _case(PostedSequence((2.0, 1.2, 0.5), (3, 4, 0)), WIDE),
        ],
    )
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_winner_and_price_match(self, mech, columns, layout):
        rng = substream(123, 0)
        n = 500
        values = np.asarray(np.column_stack([d.sample(rng, n) for d in columns]), order=layout)
        winner, price = allocate(mech, values)
        for i in range(n):
            expect_w, expect_p = row_reference(mech, values[i].tolist())
            assert winner[i] == expect_w, f"row {i}"
            assert price[i] == pytest.approx(expect_p, abs=1e-7), f"row {i}"

    @given(m=st.integers(1, 6), data=st.data(), fortran=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_tied_values_match_row_reference(self, m, data, fortran):
        # integer levels make ties, and values at a reserve, frequent: one
        # reserve per row sweeps the raw values, per-bidder reserves a copy;
        # a subset reserve gathers the other columns, none for the whole row
        levels = st.sampled_from([0.0, 1.0, 2.0, 3.0])
        rows = data.draw(st.lists(st.lists(levels, min_size=m, max_size=m), min_size=1, max_size=30))
        values = np.asarray(rows, order="F" if fortran else "C")
        subset = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
        mechs = [
            SecondPrice(),
            SecondPriceAnonymousReserve(data.draw(st.sampled_from([0.0, 1.0, 1.5, 3.0]))),
            SecondPriceBidderReserves(tuple(data.draw(st.lists(levels, min_size=m, max_size=m)))),
            SecondPriceSubsetReserve(tuple(subset)),
        ]
        for mech in mechs:
            winner, price = allocate(mech, values)
            for i, row in enumerate(rows):
                assert (winner[i], price[i]) == row_reference(mech, row), (mech, row)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_ironed_batch_matches_scalar(self, layout):
        mix = build_market(
            (Uniform(0, 1), Uniform(0, 3)), [[0.6, 0.4], [0.6, 0.4]]
        )
        curves = (iron(mix, 0), iron(mix, 1))
        mech = MyersonIroned(curves)
        rng = substream(77, 0)
        n = 300
        values = np.asarray(np.column_stack([3 * rng.random(n), 3 * rng.random(n)]), order=layout)
        winner, price = allocate(mech, values)
        for i in range(n):
            expect_w, expect_p = row_reference(mech, values[i].tolist())
            assert winner[i] == expect_w, f"row {i}"
            assert price[i] == pytest.approx(expect_p, abs=1e-6), f"row {i}"


    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_given_phi_keeps_every_bit(self, layout):
        # the inputs of the tests above: regular columns, the wide set with a
        # truncated normal (bisected prices), and ironed curves
        rng = substream(123, 0)
        mix = build_market((Uniform(0, 1), Uniform(0, 3)), [[0.6, 0.4], [0.6, 0.4]])
        cases = [
            (COLUMNS, np.column_stack([d.sample(rng, 500) for d in COLUMNS])),
            (WIDE, np.column_stack([d.sample(rng, 500) for d in WIDE])),
            ((iron(mix, 0), iron(mix, 1)), 3 * substream(77, 0).random((300, 2))),
        ]
        for rules, values in cases:
            values = np.asarray(values, order=layout)
            own = _myerson_batch(values, rules)
            given_phi = _myerson_batch(values, rules, _virtual_matrix(values, rules))
            for a, b in zip(own, given_phi):
                assert a.dtype == b.dtype and np.array_equal(a, b), rules


class TestSecondHighestCdf:
    """P(second-highest <= z), the first half of `_second_highest_law`."""

    def test_appendix_formula_above_one(self):
        for z in (1.0, 2.0, 7.5):
            got = _second_highest_law([ER, ER, ER, PM], z)[0]
            assert got == pytest.approx((z**3 + 3 * z**2) / (z + 1) ** 3, abs=1e-12)

    def test_appendix_formula_below_one(self):
        for z in (0.1, 0.5, 0.99):
            got = _second_highest_law([ER, ER, ER, PM], z)[0]
            assert got == pytest.approx(z**3 / (z + 1) ** 3, abs=1e-12)

    def test_two_uniforms_order_statistic_oracle(self):
        # P(second <= z) = F^2 + 2F(1-F) = 2z - z^2 for U(0,1)
        z = 0.5
        assert _second_highest_law([Uniform(0, 1), Uniform(0, 1)], z)[0] == pytest.approx(
            0.75, abs=1e-12
        )

    def test_valid_cdf_in_z(self):
        z = np.linspace(0.0, 50.0, 400)
        F = _second_highest_law([ER, Exponential(0.7), Uniform(0, 2)], z)[0]
        assert np.all(np.diff(F) >= -1e-12)
        assert F[-1] > 0.99


def subset_sum_survival(dists, z):
    """Oracle for P(second-highest > z), vectorized over z: a positive subset sum.

    Sums P(exactly the bidders in T exceed z) over |T| >= 2; O(2^m * m), so
    only small bidder counts are practical, but no term can cancel.
    """
    m = len(dists)
    S = [np.asarray(d.survival(z), dtype=float) for d in dists]
    F = [np.asarray(d.cdf(z), dtype=float) for d in dists]
    total = 0.0
    for mask in range(1, 1 << m):
        if mask.bit_count() < 2:
            continue
        term = 1.0
        for i in range(m):
            term = term * (S[i] if (mask >> i) & 1 else F[i])
        total = total + term
    return total


def sweep_family_bidders(m, seed=5):
    """m regular bidders cycling through the sweep families."""
    rng = np.random.default_rng(seed)
    dists = []
    for i in range(m):
        if i % 3 == 0:
            a = float(rng.uniform(0.0, 1.0))
            dists.append(Uniform(a, a + float(rng.uniform(0.5, 2.5))))
        elif i % 3 == 1:
            dists.append(Exponential(float(rng.uniform(0.5, 2.0))))
        else:
            dists.append(PowerLaw(float(rng.uniform(2.2, 3.5))))
    return dists


class TestSecondHighestLaw:
    def test_agrees_with_subset_sum_oracle(self):
        z = np.concatenate([np.linspace(0.0, 5.0, 21), [1e3, 1e6]])
        for m in range(2, 17):
            dists = sweep_family_bidders(m)
            below, above = _second_highest_law(dists, z)
            oracle = subset_sum_survival(dists, z)
            assert np.max(np.abs(above - oracle)) <= 1e-12, f"m={m}"
            assert np.max(np.abs(below - (1.0 - oracle))) <= 1e-12, f"m={m}"
            # the tail keeps its precision where 1 - cdf would not
            assert above == pytest.approx(oracle, rel=1e-12, abs=0.0), f"m={m}"


def quad_oracle(dists, breaks):
    """scipy.integrate.quad at 1e-13 of P(second-highest > z) over [0, inf),
    split at the given atoms and support ends."""
    def survival(z):
        return float(_second_highest_law(dists, z)[1])

    edges = sorted(set(breaks) | {0.0})
    total = integrate.quad(survival, edges[-1], math.inf, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
    for a, b in zip(edges[:-1], edges[1:]):
        total += integrate.quad(survival, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
    return total


def support_ends(dists):
    return {x for d in dists for x in (d.support.lo, d.support.hi) if math.isfinite(x)}


def thm1_profile_sets():
    """Each distinct bidder multiset of the thm1-sweep profiles, one extra per component."""
    seen = {}
    for market in random_mixture_markets(seed=20130, count=20):
        for prof in enumerate_profiles(market):
            dists = [market.components[t] for t in sorted(prof.q)] + list(market.components)
            seen.setdefault(tuple(map(str, dists)), dists)
    return list(seen.values())


class TestQuadrature:
    def test_matches_quad_oracle_on_thm1_profiles(self):
        tol = 1e-6
        for dists in thm1_profile_sets():
            got = expected_revenue_quadrature(dists, tol=tol).mean
            assert abs(got - quad_oracle(dists, support_ends(dists))) <= tol, [str(d) for d in dists]

    def test_mixture_atoms_are_breakpoints(self):
        # an interior atom at 0.37 inside each bidder's U(0, 1) component
        dists = [
            MixtureDistribution((PointMass(0.37), Uniform(0, 1)), (w, 1.0 - w))
            for w in (0.3, 0.5, 0.8)
        ]
        assert _atom_breakpoints(dists) == {0.0, 0.37, 1.0}
        tol = 1e-8
        got = expected_revenue_quadrature(dists, tol=tol).mean
        assert abs(got - quad_oracle(dists, {0.37, 1.0})) <= tol

    def test_sixty_four_bidders_agree_with_mc(self):
        m = 64
        components = (Uniform(0.2, 1.7), Exponential(1.3), PowerLaw(2.8))
        weights = np.zeros((m, len(components)))
        weights[np.arange(m), np.arange(m) % len(components)] = 1.0
        market = build_market(components, weights)
        dists = [components[i % len(components)] for i in range(m)]
        quad = expected_revenue_quadrature(dists)
        assert quad.method == "quadrature" and quad.std_err == 0.0
        mc = estimate_mc(market, SecondPrice(), (), EstimatorConfig(seed=61, n_samples=200_000))
        assert abs(mc.mean - quad.mean) <= 4 * mc.std_err

    def test_appendix_conditional_value(self):
        tol = 1e-6
        est = expected_revenue_quadrature([ER, ER, PM, ER], tol=tol)
        assert abs(est.mean - (0.125 + math.log(8.0))) <= tol
        assert est.method == "quadrature" and est.std_err == 0.0

    def test_cross_distribution_duplicates(self):
        tol = 1e-6
        est = expected_revenue_quadrature([PM, ER, PM, ER], tol=tol)
        assert abs(est.mean - 1.5) <= tol

    def test_both_deterministic(self):
        est = expected_revenue_quadrature([PM, PM, PM, ER], tol=1e-4)
        assert est.mean == pytest.approx(1.0, abs=1e-6)

    def test_agrees_with_mc(self):
        market = build_market((PM, ER), [[1.0, 0.0], [0.0, 1.0]])
        cfg = EstimatorConfig(seed=19, n_samples=400_000)
        mc = estimate_mc(
            market, SecondPrice(), (ComponentExtra(0), ComponentExtra(1)), cfg
        )
        quad = expected_revenue_quadrature([PM, ER, PM, ER], tol=1e-6)
        assert abs(mc.mean - quad.mean) <= 4 * mc.std_err

    def test_with_reserve_against_closed_form(self):
        # two U(0,1) with reserve 1/2: 5/12 (the monopoly-reserve optimum)
        est = expected_revenue_quadrature(
            [Uniform(0, 1), Uniform(0, 1)], reserve=0.5, tol=1e-8
        )
        assert est.mean == pytest.approx(5 / 12, abs=1e-8)

    def test_divergent_tail(self):
        with pytest.raises(DivergentTail):
            expected_revenue_quadrature([PowerLaw(0.4), PowerLaw(0.4)], tol=1e-6)

    @given(
        a=st.floats(0.01, 0.99),
        frac=st.floats(0.01, 1.0),
        others=st.lists(st.floats(1.0, 5.0), max_size=3),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_tail_index_guard_before_integration(self, a, frac, others, data):
        # the two thinnest-tailed of any bidders sum to beta = a + b <= 1
        b = (1.0 - a) * frac
        assume(a + b <= 1.0)
        dists = data.draw(st.permutations([PowerLaw(a), PowerLaw(b)] + [PowerLaw(c) for c in others]))
        with mock.patch.object(revenue_mod, "_integrate", side_effect=AssertionError("integrated")):
            with pytest.raises(DivergentTail, match="tail indices") as err:
                expected_revenue_quadrature(dists, reserve=data.draw(st.sampled_from([None, 2.0])))
        low, high = sorted((a, b))
        assert f"{low:g} and {high:g}" in str(err.value)

    @given(tails=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_tail_index_guard_passes_finite_means(self, tails):
        low, second = sorted(tails)[:2]
        assume(low + second > 1.0)
        with mock.patch.object(revenue_mod, "_integrate", return_value=0.0) as integrate:
            expected_revenue_quadrature([PowerLaw(c) for c in tails])
        integrate.assert_called_once()

    def test_tolerance_is_enforced(self):
        def step(z):
            return np.where(z < 0.3, 1.0, 0.0)

        # a jump is resolved when it is a breakpoint and refused when it is not
        assert _integrate(step, [0.0, 0.3], 1e-12) == pytest.approx(0.3, abs=1e-12)
        with pytest.raises(ToleranceNotMet):
            _integrate(step, [0.0], 1e-6)
        # a z**-1.5 tail leaves about 2e-9 beyond 2**60: within 1e-6, not 1e-10
        assert _integrate(lambda z: (1.0 + z) ** -1.5, [0.0], 1e-6) == pytest.approx(2.0, abs=1e-6)
        with pytest.raises(DivergentTail):
            _integrate(lambda z: (1.0 + z) ** -1.5, [0.0], 1e-10)

    def test_non_finite_integrand_is_refused_in_round_zero(self):
        calls = []

        def nan(z):
            calls.append(z.size)
            return np.full(z.shape, np.nan)

        with pytest.raises(ToleranceNotMet, match="not finite"):
            _integrate(nan, [0.0], 1e-6)
        assert len(calls) == 1

    def test_unresolved_integrand_stops_at_the_panel_budget(self):
        # a million radians on [0, 1] needs about 2**15 panels; the budget is 4096
        def fast(z):
            return np.where(z <= 1.0, np.sin(1e6 * z), 0.0)

        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotMet, match="passes 4096"):
                _integrate(fast, [0.0, 1.0], 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32_000_000


class TestPostedAndTwoPointExact:
    def test_posted_exact_matches_mc(self):
        market = build_market((PM, ER), [[1.0, 0.0], [0.0, 1.0]])
        mech = PostedSequence((4.0, 1.0), (1, 0))
        cfg = EstimatorConfig(seed=23, n_samples=300_000)
        mc = estimate_mc(market, mech, (), cfg)
        exact = posted_sequence_revenue_exact([PM, ER], (4.0, 1.0), (1, 0))
        assert exact.mean == pytest.approx(4.0 / 5.0 + (4.0 / 5.0) * 1.0, abs=1e-12)
        assert abs(mc.mean - exact.mean) <= 4 * mc.std_err

    def test_posted_order_must_not_repeat(self):
        with pytest.raises(ValueError):
            posted_sequence_revenue_exact([PM, ER], (1.0, 1.0), (0, 0))

    def test_posted_price_must_not_be_negative(self):
        with pytest.raises(NegativeReserve):
            posted_sequence_revenue_exact([PM, ER], (-2.0,), (0,))

    @pytest.mark.parametrize("index", [-1, 2])
    def test_posted_order_index_checked(self, index):
        # as `allocate` checks a PostedSequence: no wrap-around, no raw IndexError
        with pytest.raises(IndexOutOfRange):
            posted_sequence_revenue_exact([PM, ER], (4.0,), (index,))
        policy = PostedSequence((4.0,), (index,))
        with pytest.raises(IndexOutOfRange):
            discriminating_benchmark(appendix_market(), policies=lambda q: policy)

    def test_two_point_exact_against_full_enumeration(self):
        # oracle: enumerate all 2^n outcomes explicitly; n = 10 with extras
        # (1, 100) is the tvsnt experiment's targeted shape
        import itertools

        for n in (6, 10):
            dist = TwoPoint(1.0, float(n * n), 1.0 / (n * n))
            extras = (1.0, float(n * n))
            oracle = 0.0
            for outcome in itertools.product((0, 1), repeat=n):
                prob = math.prod(
                    dist.p_hi if o else 1 - dist.p_hi for o in outcome
                )
                pool = sorted([dist.v_hi if o else 1.0 for o in outcome] + list(extras))
                oracle += prob * pool[-2]
            got = expected_revenue_quadrature([dist] * n + [PointMass(v) for v in extras])
            assert got.mean == pytest.approx(oracle, rel=1e-12), n

    def test_two_point_exact_against_mc(self):
        dist = TwoPoint(1.0, 25.0, 0.04)
        market = build_market((dist,), [[1.0]] * 5)
        cfg = EstimatorConfig(seed=29, n_samples=400_000)
        mc = estimate_mc(market, SecondPrice(), (), cfg)
        exact = expected_revenue_quadrature([dist] * 5)
        assert abs(mc.mean - exact.mean) <= 4 * mc.std_err

    def test_best_posted_ladder(self):
        n, dist = 10, TwoPoint(1.0, 100.0, 0.01)
        est, (prices, order) = best_posted_ladder_two_point(n, dist)
        # closed form: 100 - 99 * 0.99^9 == 100 - 100 * 0.99^10
        assert est.mean == pytest.approx(100.0 - 99.0 * 0.99**9, rel=1e-12)
        assert est.mean == pytest.approx(100.0 * (1.0 - 0.99**10), rel=1e-10)
        assert len(prices) == len(order) <= n
        # the ladder value is achievable by the posted evaluator
        dists = [dist] * n
        again = posted_sequence_revenue_exact(dists, prices, order)
        assert again.mean == pytest.approx(est.mean, rel=1e-12)


class TestDiscriminatingBenchmark:
    def test_single_component_equals_plain_myerson(self):
        market = two_uniform_market()
        cfg = EstimatorConfig(seed=31, n_samples=200_000)
        bench = discriminating_benchmark(market)
        mech = MyersonRegular((Uniform(0, 1), Uniform(0, 1)))
        direct = estimate_mc(market, mech, (), cfg)
        se = math.hypot(bench.std_err, direct.std_err)
        assert abs(bench.mean - direct.mean) <= 4 * se

    def test_appendix_policies_value(self):
        from auction_lab.experiments import appendix_market, _appendix_policies

        market = appendix_market()
        bench = discriminating_benchmark(market, policies=_appendix_policies(1e6))
        assert 1.74 <= bench.mean <= 1.7501
        assert bench.method == "exact"

    @pytest.mark.parametrize(
        "market",
        random_mixture_markets(seed=20130, count=4)
        + hr_ordered_markets(seed=20130, count=4)
        + [
            # the benchmark's inverse of phi reaches far past mu + 12 sigma
            build_market((TruncatedNormal(1, 1),), [[1.0]] * 2),
            build_market((Uniform(0, 1), TruncatedNormal(0.5, 1)), [[0.5, 0.5], [0.3, 0.7]]),
            build_market((TruncatedNormal(-0.5, 1), Exponential(1.0)), [[0.6, 0.4]] * 2),
        ],
        ids=[f"mixture{j}" for j in range(4)] + [f"hr{j}" for j in range(4)]
        + [f"truncated_normal{j}" for j in range(3)],
    )
    def test_agrees_with_pinned_profile_mc(self, market):
        bench = discriminating_benchmark(market)
        assert bench.method == "quadrature" and bench.std_err == 0.0
        mean, se = pinned_profile_benchmark(market, seed=83, n_samples=200_000)
        assert abs(bench.mean - mean) <= 4 * se

    def test_any_market_size_is_one_integral(self):
        rng = np.random.default_rng(89)
        components = (
            Uniform(0.2, 1.7), Exponential(1.3), PowerLaw(2.8), Uniform(0.0, 1.0), Exponential(0.7)
        )
        weights = rng.random((60, 5)) + 0.1
        market = build_market(components, weights / weights.sum(axis=1, keepdims=True))
        bench = discriminating_benchmark(market)
        assert bench.method == "quadrature"
        assert bench.std_err == 0.0 and bench.n_samples == 0
        # sixty bidders push the top virtual value near the largest supports
        assert 1.7 < bench.mean < 10.0

    @pytest.mark.parametrize("heavy", [EqualRevenue(), PowerLaw(1.0)], ids=str)
    def test_tail_index_one_needs_policies(self, heavy):
        # Myerson values these at zero virtual surplus, far below the supremum
        market = build_market((heavy, Uniform(0, 1)), [[0.5, 0.5]] * 2)
        with pytest.raises(SupremumNotAttained, match="supply policies"):
            discriminating_benchmark(market)

    def test_irregular_component_needs_policy(self):
        market = build_market((PM, ER), [[0.5, 0.5]] * 2)
        with pytest.raises(IrregularComponent):
            discriminating_benchmark(market)

    def test_benchmark_dominates_ironed_myerson(self):
        # the coin-observing optimum can only beat the non-discriminating one
        from auction_lab import random_mixture_markets

        markets = [
            build_market((Uniform(0, 1), Uniform(0, 3)), [[0.7, 0.3]] * 2)
        ] + random_mixture_markets(seed=97, count=3)
        for j, market in enumerate(markets):
            cfg = EstimatorConfig(seed=41 + j, n_samples=150_000)
            bench = discriminating_benchmark(market)
            mech = MyersonIroned(tuple(iron(market, i) for i in range(market.n)))
            ironed = estimate_mc(market, mech, (), cfg)
            se = math.hypot(bench.std_err, ironed.std_err)
            assert bench.mean >= ironed.mean - 4 * se, f"market {j}"


def pinned_profile_benchmark(market, seed, n_samples):
    """MC oracle: estimate_mc of MyersonRegular on each coin profile pinned as
    its own market, weighted by p(q); returns (mean, standard error)."""
    mean, var = 0.0, 0.0
    for j, prof in enumerate(enumerate_profiles(market)):
        if prof.weight == 0.0:
            continue
        pinned = build_market(market.components, np.eye(market.k)[list(prof.q)])
        mech = MyersonRegular(tuple(market.components[t] for t in prof.q))
        cfg = EstimatorConfig(seed=seed + j, n_samples=max(round(n_samples * prof.weight), 2_000))
        est = estimate_mc(pinned, mech, (), cfg)
        mean += prof.weight * est.mean
        var += (prof.weight * est.std_err) ** 2
    return mean, math.sqrt(var)


class TestApproximationRatio:
    def test_appendix_values(self):
        opt = RevenueEstimate(1.75, 0.0, 0, "exact")
        simple = RevenueEstimate(1.55, 0.0, 0, "quadrature")
        r = approximation_ratio(opt, simple)
        assert r.ratio == pytest.approx(1.75 / 1.55)
        assert r.ratio <= 2.0

    def test_equal_inputs(self):
        e = RevenueEstimate(1.3, 0.01, 1000, "mc")
        assert approximation_ratio(e, e).ratio == pytest.approx(1.0)

    def test_delta_method_against_simulation_oracle(self):
        m1, se1, m2, se2 = 2.0, 0.03, 1.0, 0.02
        rng = substream(43, 0)
        x = m1 + se1 * rng.standard_normal(400_000)
        y = m2 + se2 * rng.standard_normal(400_000)
        empirical_sd = np.std(x / y)
        formula = (m1 / m2) * math.sqrt((se1 / m1) ** 2 + (se2 / m2) ** 2)
        assert empirical_sd == pytest.approx(formula, rel=0.05)
        got = approximation_ratio(
            RevenueEstimate(m1, se1, 10, "mc"), RevenueEstimate(m2, se2, 10, "mc")
        )
        assert got.std_err == pytest.approx(formula, rel=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            approximation_ratio(
                RevenueEstimate(1.0, 0.0, 0, "mc"), RevenueEstimate(0.0, 0.0, 0, "mc")
            )


class TestCommensurateness:
    def lemma_market(self):
        # non-i.i.d. regular: bidders pinned to U(0,1) and U(0,2)
        return build_market(
            (Uniform(0, 2), Uniform(0, 1)), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        )

    def test_lemma_instance_verdicts(self):
        market = self.lemma_market()
        extras = (ComponentExtra(0), ComponentExtra(1))
        cfg = EstimatorConfig(seed=47, n_samples=200_000)
        rep = commensurateness_check(market, SecondPrice(), extras, cfg)
        assert rep.divergence_count >= 100
        assert rep.eq5_within_noise
        assert rep.eq6_pointwise and rep.eq6_pass_rate == 1.0

    def test_hr_variant_single_extra(self):
        market = self.lemma_market()
        extras = (ComponentExtra(0),)  # U(0,2) hazard-rate dominates U(0,1)
        cfg = EstimatorConfig(seed=53, n_samples=200_000)
        rep = commensurateness_check(market, SecondPrice(), extras, cfg)
        assert rep.eq5_within_noise
        assert rep.eq6_pointwise

    def test_identical_mechanisms_no_divergence(self):
        # M' is M itself: Myerson's auction over the bidders' laws, no extras
        market = self.lemma_market()
        cfg = EstimatorConfig(seed=59, n_samples=20_000)
        rep = commensurateness_check(market, MyersonRegular(tuple(_column_laws(market, ()))), (), cfg)
        assert rep.no_divergence
        assert rep.divergence_count == 0
        assert rep.eq5_within_noise and rep.eq6_pointwise
        assert rep.estimate.mean > 0.0

    def test_report_estimate_equals_estimate_mc(self):
        market = hr_ordered_markets(seed=20130, count=1)[0]
        extras = (ComponentExtra(0),)
        cfg = EstimatorConfig(seed=71, n_samples=30_000, n_streams=3)
        rep = commensurateness_check(market, SecondPrice(), extras, cfg)
        assert rep.estimate == estimate_mc(market, SecondPrice(), extras, cfg)

    def test_atomic_column_rejected_before_any_draw(self):
        market = self.lemma_market()
        cfg = EstimatorConfig(seed=1, n_samples=100)
        atomic_mixture = build_market((Uniform(0, 1), TwoPoint(1.0, 3.0, 0.4)), [[0.5, 0.5]] * 2)
        cases = [
            (market, (DeterministicExtra(1.0),), AtomicDistribution),
            # an atomic bidder is also one M refuses, and M's error comes first
            (atomic_mixture, (), IrregularComponent),
        ]
        for mkt, extras, error in cases:
            with pytest.raises(error) as err:
                commensurateness_check(mkt, SecondPrice(), extras, cfg)
            assert not hasattr(err.value, "stream_index")

    @pytest.mark.parametrize(
        "components, weights, error, match",
        [
            pytest.param(
                (Uniform(0, 1), PowerLaw(0.4)), [[1.0, 0.0], [0.0, 1.0]],
                IrregularComponent, r"component 1 \(PowerLaw\(0.4\)\) is not regular", id="irregular",
            ),
            pytest.param(
                (Exponential(1.0), Exponential(1.5)), [[0.5, 0.5], [1.0, 0.0]],
                NoVirtualInverse, "column 0 ", id="mixed-row",
            ),
        ],
    )
    def test_laws_myerson_refuses_are_refused_before_any_draw(
        self, monkeypatch, components, weights, error, match
    ):
        # the same error as MyersonRegular over the bidders' laws, and no draw
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IrregularComponentWarning)
            market = build_market(components, weights)
        with pytest.raises(error, match=match):
            MyersonRegular(tuple(_column_laws(market, ())))
        monkeypatch.setattr(revenue_mod, "_draw_market", mock.Mock(side_effect=AssertionError("drew")))
        with pytest.raises(error, match=match):
            commensurateness_check(market, SecondPrice(), (ComponentExtra(0),), EstimatorConfig(seed=1))

    def test_insufficient_divergence(self):
        # M sells above 0.5, M' above 0.49: P(max of two U(0,1) in [0.49, 0.5))
        # is 0.0099, so about 30 of 3000 samples diverge
        cfg = EstimatorConfig(seed=61, n_samples=3_000)
        with pytest.raises(InsufficientDivergenceSamples, match=r"only \d\d divergence samples"):
            commensurateness_check(two_uniform_market(), SecondPriceAnonymousReserve(0.49), (), cfg)

    def test_no_myerson_price_is_computed(self, monkeypatch):
        # M's winner comes off phi; only M' is priced
        refuse = mock.Mock(side_effect=AssertionError("a Myerson price was computed"))
        monkeypatch.setattr(revenue_mod, "_myerson_batch", refuse)
        monkeypatch.setattr(mechanisms_mod, "_myerson_batch", refuse)
        cfg = EstimatorConfig(seed=47, n_samples=20_000)
        rep = commensurateness_check(self.lemma_market(), SecondPrice(), (ComponentExtra(0),), cfg)
        assert rep.divergence_count >= 100

    def test_hr_lemma_markets_equal_the_whole_streams_oracle(self):
        for idx, market in enumerate(hr_ordered_markets(DEFAULT_SEED, 3)):
            plan = plan_hr_dominant(market)
            cfg = EstimatorConfig(seed=101 + idx, n_samples=30_000)
            expect = whole_streams_commensurateness(market, plan.mechanism, plan.extras, cfg)
            assert commensurateness_check(market, plan.mechanism, plan.extras, cfg) == expect, idx
            assert expect.divergence_count >= 100


class TestVirtualSurplusGap:
    def test_second_price_gap_within_noise(self):
        cfg = EstimatorConfig(seed=67, n_samples=300_000)
        (gap,) = virtual_surplus_gap(two_uniform_market(), [SecondPrice()], (), cfg)
        assert abs(gap.mean) <= 4 * gap.std_err

    def test_shared_draws_equal_single_calls(self):
        market = build_market((Uniform(0, 1), Exponential(1.0)), [[0.4, 0.6]] * 3)
        cfg = EstimatorConfig(seed=19, n_samples=30_000, n_streams=3)
        extras = (ComponentExtra(1), ComponentExtra(0))
        # the last two mechanisms read a sample reserve off the extras
        mechs = [
            SecondPrice(),
            SecondPriceAnonymousReserve(0.6),
            SecondPriceSubsetReserve((3, 4)),
            SecondPriceSubsetReserve((3,)),
        ]
        shared = virtual_surplus_gap(market, mechs, extras, cfg)
        for j, mech in enumerate(mechs):
            assert shared[j] == virtual_surplus_gap(market, [mech], extras, cfg)[0], j

    def test_atomic_mixture_rejected_before_any_draw(self):
        market = build_market((Uniform(0, 1), PointMass(0.5)), [[0.5, 0.5]] * 2)
        with pytest.raises(AtomicDistribution) as err:
            virtual_surplus_gap(market, [SecondPrice()], (), EstimatorConfig(seed=1, n_samples=100))
        assert not hasattr(err.value, "stream_index")

    def test_deterministic_extra_rejected_before_any_draw(self):
        cfg = EstimatorConfig(seed=1, n_samples=100)
        with pytest.raises(AtomicDistribution) as err:
            virtual_surplus_gap(two_uniform_market(), [SecondPrice()], (DeterministicExtra(2.0),), cfg)
        assert not hasattr(err.value, "stream_index")

    def test_sample_reserve_mechanism_runs(self):
        market = two_uniform_market()
        cfg = EstimatorConfig(seed=71, n_samples=50_000)
        # the reserve is a third bidder's draw from component 0 that never wins
        mech = SecondPriceSubsetReserve((market.n,))
        est = estimate_mc(market, mech, (ComponentExtra(0),), cfg)
        # reserve ~ a third uniform: revenue strictly above plain SP
        plain = estimate_mc(market, SecondPrice(), (), cfg)
        assert est.mean > plain.mean


@pytest.fixture
def phi_calls(monkeypatch):
    """The rules of every `_virtual_matrix` call, by a measure or a mechanism."""
    calls = []

    def counted(values, rules):
        calls.append(tuple(rules))
        return _virtual_matrix(values, rules)

    monkeypatch.setattr(revenue_mod, "_virtual_matrix", counted)
    monkeypatch.setattr(mechanisms_mod, "_virtual_matrix", counted)
    return calls


class TestSharedPhi:
    """Each stream's phi matrix is computed once for the measure and every
    MyersonRegular over the column laws, with the bits of separate ones."""

    CFG = EstimatorConfig(seed=71, n_samples=30_000, n_streams=3)
    LAWS = (Uniform(0, 1), Uniform(0, 2), Uniform(0, 1))

    def pinned_market(self):
        # bidders pinned (lone-component mixtures) to U(0,1), U(0,2), U(0,1)
        return build_market((Uniform(0, 2), Uniform(0, 1)), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])

    def test_commensurateness_check_once_per_stream(self, phi_calls):
        market = self.pinned_market()
        # M' is a MyersonRegular over every column's law, so it shares phi too
        mech_p = MyersonRegular(self.LAWS + (Uniform(0, 2),))
        commensurateness_check(market, mech_p, (ComponentExtra(0),), self.CFG)
        assert len(phi_calls) == self.CFG.n_streams

    def test_virtual_surplus_gap_once_per_stream(self, phi_calls):
        mechs = [SecondPrice(), MyersonRegular(self.LAWS), SecondPriceAnonymousReserve(0.5)]
        virtual_surplus_gap(self.pinned_market(), mechs, (), self.CFG)
        assert len(phi_calls) == self.CFG.n_streams

    def test_other_myerson_builds_its_own(self, phi_calls):
        market = self.pinned_market()
        other = (Uniform(0, 2), Uniform(0, 2), Uniform(0, 1))
        virtual_surplus_gap(market, [MyersonRegular(self.LAWS), MyersonRegular(other)], (), self.CFG)
        assert phi_calls.count(other) == self.CFG.n_streams
        measured = [c for c in phi_calls if c != other]
        assert len(measured) == self.CFG.n_streams
        for rules in measured:  # the market's laws, not the mechanism's
            assert rules == self.LAWS

    @pytest.mark.parametrize(
        "components",
        [
            (Uniform(0, 2), Uniform(0, 1)),
            (Exponential(0.7), Exponential(1.9)),
            (PowerLaw(2.4), PowerLaw(3.1)),
            (TruncatedNormal(1.0, 1.0), TruncatedNormal(-0.5, 0.5)),
        ],
        ids=lambda c: type(c[0]).__name__,
    )
    def test_sharing_keeps_every_bit(self, monkeypatch, components):
        market = build_market(components, [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        mech_m = MyersonRegular((components[1], components[0], components[1]))
        # over the bidders and the extra, so the check's M' shares phi
        mech_p = MyersonRegular(mech_m.dists + (components[0],))
        extras = (ComponentExtra(0),)
        cfg = EstimatorConfig(seed=83, n_samples=30_000, n_streams=3)
        args = (market, [mech_m, SecondPrice()], (), cfg)
        gaps = virtual_surplus_gap(*args)
        rep = commensurateness_check(market, mech_p, extras, cfg)
        monkeypatch.setattr(revenue_mod, "_prices_on_laws", lambda mech, laws: False)
        assert virtual_surplus_gap(*args) == gaps
        assert commensurateness_check(market, mech_p, extras, cfg) == rep


class TestParallelStreams:
    """Streams run on one worker per CPU, and nothing but time depends on it."""

    MARKET = build_market((Uniform(0, 2), Uniform(0, 1)), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    MYERSON = MyersonRegular((Uniform(0, 1), Uniform(0, 2), Uniform(0, 1)))
    EXTRAS = (ComponentExtra(0), ComponentExtra(1))

    def results(self, cfg):
        return (
            estimate_mc(self.MARKET, SecondPrice(), self.EXTRAS, cfg),
            virtual_surplus_gap(self.MARKET, [self.MYERSON, SecondPrice()], (), cfg),
            commensurateness_check(self.MARKET, SecondPrice(), self.EXTRAS, cfg),
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            EstimatorConfig(seed=71, n_samples=30_000, n_streams=8),
            # fewer samples than streams: streams 300..399 are empty
            EstimatorConfig(seed=72, n_samples=300, n_streams=400),
            EstimatorConfig(seed=73, n_samples=2_000, n_streams=1),
        ],
        ids=["8-streams", "empty-streams", "1-stream"],
    )
    def test_every_worker_count_gives_the_same_bits(self, monkeypatch, cfg):
        monkeypatch.setattr(revenue_mod, "_cpu_count", lambda: 1)
        sequential = self.results(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a race would show
        try:
            for workers in (2, 3, cfg.n_streams + 1):
                monkeypatch.setattr(revenue_mod, "_cpu_count", lambda: workers)
                assert self.results(cfg) == sequential, workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_stream_sees_the_callers_errstate(self, monkeypatch, workers):
        monkeypatch.setattr(revenue_mod, "_cpu_count", lambda: workers)
        cfg = EstimatorConfig(seed=5, n_samples=8_000, n_streams=8)
        seen = []

        def measure(values, outcomes, phi):
            seen.append((threading.get_ident(), np.geterr()["divide"]))
            return [outcomes[0][1]]

        with np.errstate(divide="raise"):
            revenue_mod._run_streams(self.MARKET, (), cfg, [SecondPrice()], measure)
        assert len(seen) == cfg.n_streams
        assert {divide for _, divide in seen} == {"raise"}
        assert len({thread for thread, _ in seen}) == workers

    # 8 streams on 2 workers (the caller runs 0, 2, 4, 6) of these sizes
    FAIL_CFG = EstimatorConfig(seed=5, n_samples=803, n_streams=8)
    SIZES = [101, 101, 101, 100, 100, 100, 100, 100]

    @pytest.fixture
    def running(self, monkeypatch):
        """Two workers, and a thread-local whose `stream` is the stream its
        thread is evaluating."""
        monkeypatch.setattr(revenue_mod, "_cpu_count", lambda: 2)
        running = threading.local()
        substream = revenue_mod.substream

        def recorded(seed, s):
            running.stream = s
            return substream(seed, s)

        monkeypatch.setattr(revenue_mod, "substream", recorded)
        return running

    @pytest.mark.parametrize("low, high", [(3, 6), (2, 5)], ids=["helper-low", "caller-low"])
    def test_lowest_failing_stream_raises(self, running, low, high):
        """Streams `low` and `high` fail on different workers; `low` fails
        last in time but is the one a sequential loop would raise."""

        def measure(values, outcomes, phi):
            if running.stream == low:
                time.sleep(0.2)
            if running.stream in (low, high):
                raise ValueError(f"stream {running.stream}")
            return [outcomes[0][1]]

        mechs = [SecondPrice()]
        baseline = threading.active_count()
        revenue_mod._run_streams(self.MARKET, (), self.FAIL_CFG, mechs, lambda v, o, p: [o[0][1]])
        assert threading.active_count() == baseline
        with pytest.raises(ValueError) as err:
            revenue_mod._run_streams(self.MARKET, (), self.FAIL_CFG, mechs, measure)
        assert threading.active_count() == baseline
        start, stop = sum(self.SIZES[:low]), sum(self.SIZES[: low + 1])
        assert str(err.value) == f"stream {low}"
        assert err.value.stream_index == low
        assert err.value.sample_range == (start, stop)
        assert err.value.__notes__ == [f"while evaluating samples [{start}, {stop}) on stream {low}"]

    def test_streams_above_a_failure_are_skipped(self, running):
        """Stream 1 fails on the helper while the caller is still on stream
        0, so the caller stops there, as the sequential loop would."""
        measured = []

        def measure(values, outcomes, phi):
            measured.append(running.stream)
            if running.stream == 0:
                time.sleep(0.2)
            if running.stream == 1:
                raise ValueError("stream 1")
            return [outcomes[0][1]]

        with pytest.raises(ValueError, match="stream 1"):
            revenue_mod._run_streams(self.MARKET, (), self.FAIL_CFG, [SecondPrice()], measure)
        assert sorted(measured) == [0, 1]


def whole_streams(market, extras, cfg, mechs, measure, virtual=False):
    """`_run_streams` evaluated a stream at a time, each stream whole from
    substream(seed, s), every mechanism through `allocate`."""
    base, rem = divmod(cfg.n_samples, cfg.n_streams)
    merged = None
    for s in range(min(cfg.n_streams, cfg.n_samples)):
        values = _draw_market(market, substream(cfg.seed, s), base + (s < rem), extras)
        phi = _virtual_matrix(values, _column_laws(market, extras)) if virtual else None
        outcomes = [allocate(mech, values) for mech in mechs]
        stats = [_stream_stats(x) for x in measure(values, outcomes, phi)]
        merged = stats if merged is None else list(map(_merge_stats, merged, stats))
    return [_as_estimate(st) for st in merged]


def whole_streams_commensurateness(market, mech_p, extras, cfg):
    """`commensurateness_check`'s report from `whole_streams`, with M's
    winner W from `allocate` of Myerson's auction over the bidders' laws."""
    n = market.n
    myerson = MyersonRegular(tuple(_column_laws(market, ())))

    def virtual_of(phi, winner, rows):
        return np.where(winner >= 0, phi[rows, np.maximum(winner, 0)], 0.0)

    def measure(values, outcomes, phi):
        ((w_p, price_p),) = outcomes
        w_m, _ = allocate(myerson, values[:, :n])
        d = np.flatnonzero(w_p != w_m)
        holds = price_p[d] >= virtual_of(phi, w_m[d], d) - revenue_mod._EQ6_TOL
        return virtual_of(phi, w_p[d], d), price_p[d][holds], price_p

    eq5, eq6, estimate = whole_streams(market, extras, cfg, [mech_p], measure, virtual=True)
    diverged = eq5.n_samples > 0
    return CommensuratenessReport(
        n_samples=cfg.n_samples,
        divergence_count=eq5.n_samples,
        eq5_mean=eq5.mean if diverged else None,
        eq5_std_err=eq5.std_err if diverged else None,
        eq6_pass_count=eq6.n_samples,
        no_divergence=not diverged,
        estimate=estimate,
    )


class TestBlocks:
    """A stream evaluated `_BLOCK_ROWS` rows at a time keeps the bits of the
    stream evaluated whole."""

    # bidder 0 draws a coin between two components; bidders 1 and 2 are pinned
    MIXED = build_market((Uniform(0, 2), Exponential(1.3)), [[0.4, 0.6], [1.0, 0.0], [0.0, 1.0]])
    PINNED = build_market((Uniform(0, 2), Uniform(0, 1)), [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    LAWS = (Uniform(0, 1), Uniform(0, 2), Uniform(0, 1))
    # the deterministic extra takes a value column but no uniform column
    MIXED_EXTRAS = (ComponentExtra(1), DeterministicExtra(2.0), ComponentExtra(0))
    PINNED_EXTRAS = (ComponentExtra(1), ComponentExtra(0))

    def results(self, cfg):
        # over the laws of every column, extras included, so it shares phi
        myerson_all = MyersonRegular(self.LAWS + (Uniform(0, 1), Uniform(0, 2)))
        return (
            estimate_mc(self.MIXED, SecondPrice(), self.MIXED_EXTRAS, cfg),
            virtual_surplus_gap(self.PINNED, [myerson_all, SecondPrice()], self.PINNED_EXTRAS, cfg),
            commensurateness_check(self.PINNED, SecondPrice(), self.PINNED_EXTRAS, cfg),
        )

    @pytest.mark.parametrize("size", [1, 6, 7, 8, 15, 50])
    def test_blocks_keep_every_bit(self, monkeypatch, size):
        # blocks of 7 rows: a stream of 8 or 15 rows ends in a partial
        # block, and a divergence can fall on either side of a block edge
        streams = -(-300 // size)  # enough samples for 100 divergences
        cfg = EstimatorConfig(seed=97, n_samples=size * streams, n_streams=streams)
        monkeypatch.setattr(revenue_mod, "_BLOCK_ROWS", 7)
        blocked = self.results(cfg)
        monkeypatch.setattr(revenue_mod, "_run_streams", whole_streams)
        whole = self.results(cfg)
        assert blocked == whole
        assert whole[2].divergence_count >= 100

    def test_column_c_reads_the_streams_draws_from_c_times_size(self):
        size, count = 11, 5
        draws = substream(3, 2).random(size * count)
        stream = revenue_mod._BlockStream(substream(3, 2), size, _Workspace(size, 1))
        blocks = []
        for rows in (4, size - 4):  # two blocks, as `_run_streams` reads them
            stream.rewind()
            # each read reuses the workspace's uniform buffer
            blocks.append([stream.random(rows).copy() for _ in range(count)])
        for c, pieces in enumerate(zip(*blocks)):
            assert np.concatenate(pieces).tobytes() == draws[c * size : (c + 1) * size].tobytes()

    @pytest.mark.parametrize("case", sorted(DRAW_MARKETS))
    def test_block_draws_keep_the_oracles_bits(self, case):
        # one workspace serves a block of 64 rows, then one of 36 that leaves
        # the first block's entries behind it
        size = 100
        for j, market in enumerate(DRAW_MARKETS[case]):
            _, expect = _reference_draw_market(market, substream(101, j), size)
            work = _Workspace(64, market.k, market.n)
            stream = revenue_mod._BlockStream(substream(101, j), size, work)
            pieces = []
            for rows in (64, size - 64):
                stream.rewind()
                pieces.append(_draw_market(market, stream, rows, ()).copy())
            assert np.concatenate(pieces).tobytes() == expect.tobytes(), f"market {j}"

    def test_an_estimate_builds_no_mixture(self, monkeypatch):
        # every block of every stream draws through the market's own mixtures
        built = []
        init = MixtureDistribution.__init__
        monkeypatch.setattr(MixtureDistribution, "__init__", lambda m, *a: built.append(m) or init(m, *a))
        monkeypatch.setattr(revenue_mod, "_BLOCK_ROWS", 7)
        # estimate_mc, virtual_surplus_gap and commensurateness_check, as in
        # test_blocks_keep_every_bit's 6 streams of 50 rows
        self.results(EstimatorConfig(seed=97, n_samples=300, n_streams=6))
        assert built == []

    def test_a_pinned_bidders_coin_column_builds_no_generator(self):
        # uniform columns: bidder 0's coins (0) and values (1), the pinned
        # bidders' coins (2, 4) and values (3, 5), then the two ComponentExtras
        market, extras = self.MIXED, self.MIXED_EXTRAS
        work = _Workspace(7, market.k, market.n + len(extras))
        stream = revenue_mod._BlockStream(substream(5, 0), 20, work)
        for rows in (7, 7, 6):
            stream.rewind()
            _draw_market(market, stream, rows, extras)
        assert sorted(stream._columns) == [0, 1, 3, 5, 6, 7]


def test_no_workspace_outlives_its_estimate(monkeypatch):
    """Each worker's workspace is freed by reference counting when the
    estimate returns: nothing it holds refers back to a stream."""
    refs = []

    class Recorded(revenue_mod._Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    monkeypatch.setattr(revenue_mod, "_Workspace", Recorded)
    monkeypatch.setattr(revenue_mod, "_cpu_count", lambda: 2)
    market = TestBlocks.MIXED
    cfg = EstimatorConfig(seed=3, n_samples=5_000, n_streams=4)
    gc.disable()
    try:
        estimate_mc(market, SecondPrice(), TestBlocks.MIXED_EXTRAS, cfg)
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


def test_estimate_memory_stays_below_one_streams_matrix(monkeypatch):
    """One 10**6-sample estimate over 8 streams on thm1-sweep's market 0 (4
    bidders, 2 extras) allocates less at its peak than one stream's value
    matrix, since a stream is evaluated a block at a time."""
    monkeypatch.setattr(revenue_mod, "_cpu_count", lambda: 1)
    (market,) = random_mixture_markets(DEFAULT_SEED, 1)
    plan = plan_targeted(market)
    cfg = EstimatorConfig(seed=DEFAULT_SEED, n_samples=10**6, n_streams=8)
    matrix_bytes = cfg.n_samples // cfg.n_streams * (market.n + len(plan.extras)) * 8
    assert matrix_bytes == 6_000_000
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        estimate_mc(market, plan.mechanism, plan.extras, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < matrix_bytes


def test_commensurateness_memory_stays_below_one_streams_values_and_phi(monkeypatch):
    """One 10**6-sample commensurateness check over 8 streams on
    hr-lemma-sweep's market 0 (4 pinned bidders, 1 extra) allocates less at
    its peak than one stream's value and phi matrices together, since both
    exist a block at a time."""
    monkeypatch.setattr(revenue_mod, "_cpu_count", lambda: 1)
    (market,) = hr_ordered_markets(DEFAULT_SEED, 1)
    plan = plan_hr_dominant(market)
    cfg = EstimatorConfig(seed=DEFAULT_SEED, n_samples=10**6, n_streams=8)
    matrix_bytes = cfg.n_samples // cfg.n_streams * (market.n + len(plan.extras)) * 8
    assert matrix_bytes == 5_000_000
    tracemalloc.start()
    try:
        commensurateness_check(market, plan.mechanism, plan.extras, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix_bytes
