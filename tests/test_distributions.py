"""Distribution families: example values, derived quantities, grid certificates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import auction_lab
from auction_lab import (
    EqualRevenue,
    Exponential,
    MixtureDistribution,
    PointMass,
    PowerLaw,
    TruncatedNormal,
    TwoPoint,
    Uniform,
    hr_crossing,
    regularity_check,
    substream,
)
from auction_lab.errors import (
    AtomicDistribution,
    DisjointSupports,
    OutsideSupport,
    SupremumNotAttained,
    UnboundedQuantile,
)

CONTINUOUS_FAMILIES = [
    Uniform(0.0, 1.0),
    Uniform(0.5, 2.5),
    Exponential(1.0),
    Exponential(0.3),
    PowerLaw(2.5),
    EqualRevenue(),
    TruncatedNormal(1.0, 1.0),
    TruncatedNormal(0.5, 2.0),
]

# every family once, plus a bounded and an unbounded mixture
EVERY_LAW = [
    Uniform(0.5, 2.0),
    Exponential(1.0),
    PowerLaw(2.5),
    EqualRevenue(),
    TruncatedNormal(1.0, 1.0),
    PointMass(1.0),
    TwoPoint(1.0, 3.0, 0.4),
    MixtureDistribution((Uniform(0, 1), Uniform(0, 2)), (0.5, 0.5)),
    MixtureDistribution((Uniform(0, 1), Exponential(1.0)), (0.5, 0.5)),
]


def bisect_quantile_oracle(cdf, q, lo, hi, iters=200):
    """Independent bisection used to freeze quantile expectations."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCdf:
    def test_uniform_midpoint(self):
        assert Uniform(0, 2).cdf(1.0) == 0.5

    def test_equal_revenue_at_one(self):
        assert EqualRevenue().cdf(1.0) == 0.5

    def test_two_point_right_continuous_at_atom(self):
        assert TwoPoint(1, 100, 0.01).cdf(1.0) == pytest.approx(0.99)

    @pytest.mark.parametrize("d", CONTINUOUS_FAMILIES, ids=str)
    def test_bounds_and_monotonicity(self, d):
        lo = d.support.lo
        xs = np.linspace(lo - 1.0, lo + 50.0, 801)
        F = np.asarray(d.cdf(xs))
        assert np.all(F >= 0.0) and np.all(F <= 1.0)
        assert np.all(np.diff(F) >= -1e-12)
        assert d.cdf(lo - 0.5) == 0.0


class TestQuantile:
    def test_uniform_identity(self):
        assert Uniform(0, 1).quantile(0.25) == 0.25

    def test_equal_revenue_against_bisection_oracle(self):
        oracle = bisect_quantile_oracle(lambda x: 1 - 1 / (x + 1), 0.9, 0.0, 100.0)
        assert oracle == pytest.approx(9.0, abs=1e-9)
        assert EqualRevenue().quantile(0.9) == pytest.approx(9.0, abs=1e-9)

    def test_two_point_generalized_inverse_at_atom(self):
        assert TwoPoint(1, 100, 0.01).quantile(0.5) == 1.0

    def test_unbounded_top_raises(self):
        with pytest.raises(UnboundedQuantile):
            Exponential(1.0).quantile(1.0)
        with pytest.raises(UnboundedQuantile):
            EqualRevenue().quantile(1.0)

    def test_bounded_endpoints_allowed(self):
        assert Uniform(0.5, 2.0).quantile(0.0) == 0.5
        assert Uniform(0.5, 2.0).quantile(1.0) == 2.0

    @pytest.mark.parametrize("d", CONTINUOUS_FAMILIES, ids=str)
    def test_roundtrip_on_interior(self, d):
        q = np.linspace(1e-6, 1 - 1e-6, 501)
        assert np.asarray(d.cdf(d.quantile(q))) == pytest.approx(q, abs=1e-8)

    def test_truncated_normal_bisection_tolerance(self):
        d = TruncatedNormal(1.0, 1.0)
        for q in (0.1, 0.5, 0.9, 0.999):
            assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-10)

    @pytest.mark.parametrize(
        "d", [TruncatedNormal(1.0, 1.0), TruncatedNormal(-1.0, 0.5), TruncatedNormal(-5.0, 1.0)], ids=str
    )
    def test_truncated_normal_closed_form_against_bisection(self, d):
        # the survival side keeps its digits for every mu, so it is the oracle
        def oracle(level):
            return bisect_quantile_oracle(lambda x: -d.survival(x), -level, 0.0, d.mu + 40.0 * d.sigma)

        for q in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9):
            assert d.survival_quantile(q) == pytest.approx(oracle(q), rel=1e-12)
            assert d.quantile(q) == pytest.approx(oracle(1.0 - q), rel=1e-12)

    @pytest.mark.parametrize("mu", [-5.0, -2.0, 0.0])
    @pytest.mark.parametrize("q", [1e-9, 1e-6, 1e-3, 0.3])
    def test_truncated_normal_cdf_keeps_lower_tail_digits(self, mu, q):
        # for mu <= 0 the lower tail is a difference of two upper tails; as a
        # difference of two cdfs near 1 it read 16% off at mu=-5, q=1e-9.  That
        # difference still loses digits there, so the round trip holds to
        # ~2e-6, not to rounding.
        d = TruncatedNormal(mu, 1.0)
        assert d.cdf(d.quantile(q)) == pytest.approx(q, rel=1e-5)

    @pytest.mark.parametrize("mu", [-5.0, -2.0, 0.0, 1.0])
    @pytest.mark.parametrize("q", [1e-9, 1e-6, 1e-3, 0.3, 0.9, 1.0 - 1e-9])
    def test_truncated_normal_quantile_against_mpmath(self, mu, q):
        # for mu <= 0 the closed form is mu minus a number near mu; unpolished
        # it read 1.7e-6 (mu=-5) and 1.95e-6 (mu=-2) off at q=1e-9
        mp = pytest.importorskip("mpmath")
        x = TruncatedNormal(mu, 1.0).quantile(q)
        with mp.workdps(50):
            m, level = mp.mpf(mu), mp.mpf(q)
            mass = mp.ncdf(m)
            root = mp.findroot(lambda t: (mp.ncdf(t - m) - mp.ncdf(-m)) / mass - level, x)
            assert abs(x / root - 1) <= 1e-6

    @pytest.mark.parametrize("d", EVERY_LAW, ids=str)
    def test_survival_levels_checked(self, d):
        for bad in (-0.5, 2.0):
            with pytest.raises(ValueError):
                d.survival_quantile(bad)
            with pytest.raises(ValueError):
                d.survival_quantile(np.array([0.5, bad]))
        if d.support.bounded:
            assert d.survival_quantile(0.0) == pytest.approx(d.support.hi)
        else:
            with pytest.raises(UnboundedQuantile):
                d.survival_quantile(0.0)


class TestLawContract:
    @pytest.mark.parametrize("d", EVERY_LAW, ids=str)
    def test_law_contract(self, d):
        """float for a Python float, an array of the input's shape otherwise;
        quantile levels outside [0, 1] raise."""
        laws = ["cdf", "cdf_left", "survival"] + (["pdf"] if d.is_continuous else [])
        x = np.linspace(0.0, 4.0, 12).reshape(3, 4)
        for name in laws:
            law = getattr(d, name)
            assert type(law(1.25)) is float, name
            out = law(x)
            assert isinstance(out, np.ndarray) and out.shape == x.shape, name
        q = np.linspace(0.05, 0.95, 12).reshape(4, 3)
        for name in ("quantile", "survival_quantile"):
            law = getattr(d, name)
            assert type(law(0.3)) is float, name
            out = law(q)
            assert isinstance(out, np.ndarray) and out.shape == q.shape, name
        for bad in (-0.5, 2.0):
            with pytest.raises(ValueError):
                d.quantile(bad)
            with pytest.raises(ValueError):
                d.quantile(np.array([0.5, bad]))


class TestHazardVirtual:
    def test_uniform(self):
        h, phi = Uniform(0, 1).hazard_and_virtual(0.5)
        assert h == pytest.approx(2.0, abs=1e-12)
        assert phi == pytest.approx(0.0, abs=1e-12)

    def test_exponential_constant_hazard(self):
        d = Exponential(2.0)
        for x in (0.1, 0.5, 3.0):
            h, phi = d.hazard_and_virtual(x)
            assert h == pytest.approx(2.0, rel=1e-12)
            assert phi == pytest.approx(x - 0.5, rel=1e-12)

    def test_equal_revenue_constant_virtual(self):
        # symbolic: h = 1/(x+1), (1-F)/f = x+1, so phi is identically -1
        h, phi = EqualRevenue().hazard_and_virtual(3.0)
        assert h == pytest.approx(0.25, abs=1e-12)
        assert phi == pytest.approx(-1.0, abs=1e-12)

    def test_atoms_rejected(self):
        with pytest.raises(AtomicDistribution):
            PointMass(1.0).hazard_and_virtual(1.0)
        with pytest.raises(AtomicDistribution):
            TwoPoint(1, 2, 0.5).hazard_and_virtual(1.5)

    def test_outside_support(self):
        with pytest.raises(OutsideSupport):
            Uniform(0, 1).hazard_and_virtual(1.5)
        with pytest.raises(OutsideSupport):
            PowerLaw(2.0).hazard_and_virtual(0.5)

    def test_uniform_closed_form_on_grid(self):
        d = Uniform(0.5, 2.5)
        x = np.asarray(d.quantile(np.linspace(0.001, 0.999, 400)))
        _, phi = d.hazard_and_virtual(x)
        assert np.max(np.abs(phi - (2 * x - 2.5))) < 1e-10

    def test_virtual_inverse_consistency(self):
        # closed-interval evaluation: the inverse may sit on a support edge
        for d in (Uniform(0, 1), Exponential(1.3), PowerLaw(2.5), TruncatedNormal(1, 1)):
            for y in (0.0, 0.2, 0.7):
                x = d.virtual_inverse(y)
                assert d._virtual_unchecked(x) >= y - 1e-7

    @pytest.mark.parametrize(
        "d", [TruncatedNormal(1, 1), TruncatedNormal(-0.5, 1), TruncatedNormal(0.5, 2)], ids=str
    )
    @pytest.mark.parametrize("y", [20.0, 1e3, 1e6])
    def test_truncated_normal_virtual_inverse_far_tail(self, d, y):
        # a bracket ending at mu + 12 sigma returned 13.0 for TN(1, 1) at every
        # y here, and phi as x - S/f is 0/0 beyond z ~ 37
        assert d.virtual(d.virtual_inverse(y)) == pytest.approx(y, rel=1e-12)

    @pytest.mark.parametrize(
        "d", CONTINUOUS_FAMILIES + [TruncatedNormal(-5.0, 1.0), TruncatedNormal(0.0, 0.3)], ids=str
    )
    def test_lone_component_mixture_phi_bits(self, d):
        # a shared phi matrix is read for a pinned bidder's mixture and for
        # its component interchangeably, so the two must agree bit for bit
        x = np.asarray(d.quantile(np.linspace(1e-9, 1.0 - 1e-12, 2001)))
        lone = MixtureDistribution((Uniform(0, 1), d, Exponential(2.0)), (0.0, 1.0, 0.0))
        nested = MixtureDistribution((lone,), (1.0,))
        with np.errstate(all="ignore"):
            want = d._virtual_unchecked(x)
            for mix in (lone, nested):
                assert np.array_equal(mix._virtual_unchecked(x), want, equal_nan=True)
                assert np.array_equal(mix._mills(x), d._mills(x), equal_nan=True)

    @pytest.mark.parametrize("x", [20.0, 40.0, 1e3])
    def test_truncated_normal_hazard_far_tail(self, x):
        # f/S is 0/0 beyond z ~ 37; 1/mills through erfcx stays exact
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            z = mpmath.mpf(x) - 1
            exact = mpmath.npdf(z) / mpmath.ncdf(-z)
        assert TruncatedNormal(1, 1).hazard(x) == pytest.approx(float(exact), rel=1e-14)
        h, phi = TruncatedNormal(1, 1).hazard_and_virtual(x)
        assert h == TruncatedNormal(1, 1).hazard(x)
        assert phi == TruncatedNormal(1, 1).virtual(x)


class TestSampling:
    def test_same_seed_same_sequence(self):
        d = Exponential(1.0)
        a = d.sample(substream(42, 3), size=100)
        b = d.sample(substream(42, 3), size=100)
        assert np.array_equal(a, b)
        c = d.sample(substream(42, 4), size=100)
        assert not np.array_equal(a, c)

    def test_inverse_transform_uniform(self):
        class FakeStream:
            def random(self, size=None):
                return 0.3

        assert Uniform(0, 1).sample(FakeStream()) == pytest.approx(0.3)

    def test_two_point_high_atom(self):
        class FakeStream:
            def random(self, size=None):
                return 0.995

        assert TwoPoint(1, 100, 0.01).sample(FakeStream()) == 100

    @pytest.mark.parametrize("d", CONTINUOUS_FAMILIES, ids=str)
    def test_empirical_cdf_matches_within_ks(self, d):
        x = d.sample(substream(7, 0), size=1_000_000)
        ks = stats.kstest(x, lambda v: np.asarray(d.cdf(v))).statistic
        assert ks < 0.003


class TestRevenueCurveAndReserve:
    def test_revenue_curve_points(self):
        assert Uniform(0, 1).revenue_curve_point(0.5) == pytest.approx(0.25)
        # symbolic cross-check: R(q) = q*(1/q - 1) = 1 - q
        assert EqualRevenue().revenue_curve_point(0.25) == pytest.approx(0.75, abs=1e-12)
        assert PointMass(1.0).revenue_curve_point(0.3) == pytest.approx(0.3)

    def test_monopoly_reserve_uniform_by_grid_oracle(self):
        r_grid = np.linspace(1e-6, 1 - 1e-6, 400_001)
        oracle = r_grid[np.argmax(r_grid * (1 - r_grid))]
        assert oracle == pytest.approx(0.5, abs=1e-5)
        assert Uniform(0, 1).monopoly_reserve() == pytest.approx(0.5, rel=1e-7)

    def test_monopoly_reserve_exponential_by_grid_oracle(self):
        r_grid = np.linspace(1e-6, 20, 400_001)
        oracle = r_grid[np.argmax(r_grid * np.exp(-r_grid))]
        assert oracle == pytest.approx(1.0, abs=1e-4)
        assert Exponential(1.0).monopoly_reserve() == pytest.approx(1.0, rel=1e-7)

    def test_equal_revenue_supremum_not_attained(self):
        # r * (1 - F(r)) = r/(r+1), strictly increasing
        with pytest.raises(SupremumNotAttained):
            EqualRevenue().monopoly_reserve()

    def test_power_law_boundary_reserve(self):
        assert PowerLaw(2.5).monopoly_reserve() == pytest.approx(1.0, rel=1e-6)

    def test_two_point_atom_maximization(self):
        assert TwoPoint(1, 100, 0.05).monopoly_reserve() == 100  # 5 > 1
        assert TwoPoint(1, 100, 0.002).monopoly_reserve() == 1  # 0.2 < 1

    @pytest.mark.parametrize(
        "d", [Uniform(0, 1), Uniform(0.5, 2.5), Exponential(1.0), TruncatedNormal(1, 1)], ids=str
    )
    def test_first_order_stationarity_at_interior_reserve(self, d):
        r = d.monopoly_reserve()
        assert d.virtual(r) == pytest.approx(0.0, abs=1e-6)


def test_tail_index():
    assert Uniform(0, 1).tail_index == math.inf
    assert Exponential(1.0).tail_index == math.inf
    assert TruncatedNormal(1.0, 1.0).tail_index == math.inf
    assert PointMass(1.0).tail_index == math.inf
    assert PowerLaw(2.5).tail_index == 2.5
    assert EqualRevenue().tail_index == 1.0
    mix = MixtureDistribution((PowerLaw(3.0), Exponential(1.0), PowerLaw(1.5)), (0.5, 0.5, 0.0))
    assert mix.tail_index == 3.0  # zero-weight components do not count
    assert MixtureDistribution((PowerLaw(3.0), EqualRevenue()), (0.9, 0.1)).tail_index == 1.0


class TestRegularity:
    def test_uniform_regular(self):
        assert regularity_check(Uniform(0, 1)) is True

    def test_equal_revenue_regular(self):
        # phi is constant (-1): nondecreasing
        assert regularity_check(EqualRevenue()) is True

    def test_exponential_mixture_irregular(self):
        mix = MixtureDistribution((Exponential(10.0), Exponential(0.1)), (0.9, 0.1))
        # independent oracle: phi on an explicit grid has a decrease
        x = np.linspace(0.01, 5.0, 2000)
        sf = 0.9 * np.exp(-10 * x) + 0.1 * np.exp(-0.1 * x)
        pdf = 9.0 * np.exp(-10 * x) + 0.01 * np.exp(-0.1 * x)
        phi = x - sf / pdf
        assert np.min(np.diff(phi)) < -1e-6
        assert regularity_check(mix) is False

    def test_power_law_below_one_irregular(self):
        assert regularity_check(PowerLaw(0.8)) is False

    def test_atoms_rejected(self):
        with pytest.raises(AtomicDistribution):
            regularity_check(TwoPoint(1, 2, 0.5))

    def test_grid_size_floor(self):
        with pytest.raises(ValueError):
            regularity_check(Uniform(0, 1), grid_size=50)


class TestHazardRateDominance:
    def test_uniform_larger_top_dominates(self):
        assert hr_crossing(Uniform(0, 2), Uniform(0, 1)) is None
        assert hr_crossing(Uniform(0, 1), Uniform(0, 2)) is not None

    def test_exponential_smaller_rate_dominates(self):
        assert hr_crossing(Exponential(1.0), Exponential(2.0)) is None
        assert hr_crossing(Exponential(2.0), Exponential(1.0)) is not None

    def test_power_law_smaller_alpha_dominates(self):
        assert hr_crossing(PowerLaw(1.5), PowerLaw(3.0)) is None

    def test_theta_condition_direction(self):
        # 1 - G_i = (1 - G_j)**theta with theta <= 1 means G_i dominates
        assert hr_crossing(Exponential(0.7), Exponential(1.0)) is None  # theta = 0.7
        assert hr_crossing(PowerLaw(2.0), PowerLaw(2.6)) is None  # theta = 2.0/2.6

    def test_exponential_hazard_past_tail_underflow(self):
        # on Exp(0.1)'s grid Exp(10)'s density and tail underflow together
        # past x ~ 75, where its hazard is still exactly 10
        assert Exponential(10.0).hazard(80.0) == 10.0
        assert hr_crossing(Exponential(0.1), Exponential(10.0)) is None
        x, h1, h2 = hr_crossing(Exponential(10.0), Exponential(0.1))
        assert (h1, h2) == (pytest.approx(10.0), pytest.approx(0.1))

    def test_uniform_crosses_exponential_near_its_top(self):
        # 1/(80 - x) exceeds 10 on (79.9, 80), past Exp(10)'s tail underflow
        assert hr_crossing(Uniform(0, 80), Exponential(10.0)) is not None
        x, h1, h2 = hr_crossing(Uniform(0, 80), Exponential(10.0))
        assert 79.9 < x < 80.0 and h1 > h2 == 10.0

    def test_lone_component_mixture_keeps_its_tail(self):
        # S/f of a lone Exp(10) mixture is 0/0 past x ~ 75; its own ratio is 0.1
        lone = MixtureDistribution((Exponential(10.0),), (1.0,))
        assert hr_crossing(Exponential(0.1), lone) is None

    def test_nan_hazard_counts_as_crossing(self):
        # the mixture's density and tail are 0/0 past x ~ 75: no evidence
        mix = MixtureDistribution((Exponential(10.0), Exponential(20.0)), (0.5, 0.5))
        x, h1, h2 = hr_crossing(Exponential(0.1), mix)
        assert 70.0 < x < 80.0 and h1 == pytest.approx(0.1) and math.isnan(h2)

    def test_crossing_location(self):
        crossing = hr_crossing(Uniform(0, 1), Exponential(2.0))
        assert crossing is not None
        x, h1, h2 = crossing
        # hazards 1/(1-x) and 2 cross at exactly x = 0.5
        assert x == pytest.approx(0.5, abs=1e-3)
        assert h1 > h2

    def test_disjoint_supports(self):
        with pytest.raises(DisjointSupports):
            hr_crossing(Uniform(0, 1), PowerLaw(2.0))

    def test_atoms_rejected(self):
        with pytest.raises(AtomicDistribution):
            hr_crossing(PointMass(1.0), Uniform(0, 1))


class TestInvariantsPropertyBased:
    @given(
        a=st.floats(0.0, 5.0),
        width=st.floats(0.1, 10.0),
        q=st.floats(1e-6, 1.0 - 1e-6),
    )
    @settings(max_examples=200, deadline=None)
    def test_uniform_quantile_cdf_identity(self, a, width, q):
        d = Uniform(a, a + width)
        assert d.cdf(d.quantile(q)) == pytest.approx(q, abs=1e-8)

    @given(lam=st.floats(0.05, 20.0), x=st.floats(0.0, 50.0), y=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_exponential_cdf_monotone(self, lam, x, y):
        d = Exponential(lam)
        lo, hi = sorted((x, y))
        assert d.cdf(lo) <= d.cdf(hi) + 1e-12

    @given(st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_equal_revenue_curve_is_one_minus_q(self, q):
        assert EqualRevenue().revenue_curve_point(q) == pytest.approx(1 - q, abs=1e-10)


def test_parameter_validation():
    with pytest.raises(ValueError):
        Uniform(1.0, 0.5)
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        PowerLaw(-1.0)
    with pytest.raises(ValueError):
        TruncatedNormal(0.0, 0.0)
    with pytest.raises(ValueError):
        TwoPoint(2.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        TwoPoint(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        Uniform(-1.0, 1.0)


def test_scipy_special_loads_only_for_a_truncated_normal():
    code = (
        "import sys, auction_lab\n"
        "assert 'scipy.special' not in sys.modules\n"
        "d = auction_lab.TruncatedNormal(1.0, 2.0)\n"
        "assert 'scipy.special' not in sys.modules\n"
        "d.cdf(0.5)\n"
        "assert 'scipy.special' in sys.modules\n"
    )
    src = str(Path(auction_lab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
