"""Market construction, two-stage sampling, profile enumeration, ironing."""

import numpy as np
import pytest
from scipy import stats

from auction_lab import (
    EqualRevenue,
    Exponential,
    MixtureDistribution,
    PointMass,
    TwoPoint,
    Uniform,
    build_market,
    enumerate_profiles,
    iron,
    iron_distribution,
    substream,
)
from auction_lab.errors import (
    AtomicDistribution,
    IrregularComponentWarning,
    NegativeWeight,
    ProfileSpaceTooLarge,
    WeightRowSum,
)

UU = (Uniform(0, 1), Uniform(0, 2))


class TestBuildMarket:
    def test_iid_flag_and_delta(self):
        m = build_market(UU, [[0.5, 0.5], [0.5, 0.5]])
        assert m.iid is True
        assert m.delta == 0.5

    def test_non_iid_delta_is_min_entry(self):
        m = build_market(UU, [[0.9, 0.1], [0.8, 0.2]])
        assert m.iid is False
        assert m.delta == pytest.approx(0.1)

    def test_row_sum_error(self):
        with pytest.raises(WeightRowSum):
            build_market(UU, [[0.6, 0.5]])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            build_market(UU, [[1.2, -0.2]])

    def test_irregular_component_warns_not_fatal(self):
        irregular = MixtureDistribution((Exponential(10.0), Exponential(0.1)), (0.9, 0.1))
        with pytest.warns(IrregularComponentWarning):
            m = build_market((irregular,), [[1.0]])
        assert m.k == 1

    def test_atomic_component_allowed_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = build_market((TwoPoint(1, 100, 0.01), PointMass(1.0)), [[0.5, 0.5]])
        assert m.k == 2

    def test_weights_frozen(self):
        m = build_market(UU, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            m.weights[0, 0] = 0.9


class TestMixtureCdf:
    def test_convex_combination(self):
        m = build_market(UU, [[0.5, 0.5]])
        assert m.bidder_mixture(0).cdf(1.0) == pytest.approx(0.75)

    def test_atom_counted_right_continuously(self):
        m = build_market((PointMass(1.0), EqualRevenue()), [[0.5, 0.5]])
        # 0.5 * 1 + 0.5 * 0.5
        assert m.bidder_mixture(0).cdf(1.0) == pytest.approx(0.75)

    def test_degenerate_weights_reduce_to_component(self):
        m = build_market(UU, [[1.0, 0.0]])
        x = np.linspace(-0.5, 2.5, 101)
        assert np.asarray(m.bidder_mixture(0).cdf(x)) == pytest.approx(
            np.asarray(UU[0].cdf(x)), abs=0
        )

    def test_mixture_is_valid_cdf(self):
        mix = MixtureDistribution((Uniform(0, 1), Exponential(0.5)), (0.3, 0.7))
        x = np.linspace(-1, 40, 2001)
        F = np.asarray(mix.cdf(x))
        assert np.all(np.diff(F) >= -1e-12)
        assert F[0] == 0.0 and F[-1] > 0.999

    def test_mixture_pdf_needs_continuity(self):
        mix = MixtureDistribution((PointMass(1.0), Uniform(0, 1)), (0.5, 0.5))
        with pytest.raises(AtomicDistribution):
            mix.pdf(0.5)


class TestTwoStageSampling:
    def test_deterministic(self):
        m = build_market(UU, [[0.3, 0.7], [0.5, 0.5]])
        t1, v1 = m.bidder_mixture(0).sample_with_coin(substream(5, 1), size=50)
        t2, v2 = m.bidder_mixture(0).sample_with_coin(substream(5, 1), size=50)
        assert np.array_equal(t1, t2) and np.array_equal(v1, v2)

    def test_coin_frequencies_chi_square(self):
        weights = [0.2, 0.3, 0.5]
        m = build_market(
            (Uniform(0, 1), Uniform(0, 2), Exponential(1.0)), [weights]
        )
        n = 1_000_000
        t, _ = m.bidder_mixture(0).sample_with_coin(substream(11, 0), size=n)
        counts = np.bincount(t, minlength=3)
        for j, p in enumerate(weights):
            se = np.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) < 4 * se

    def test_conditional_values_match_component(self):
        m = build_market(UU, [[0.5, 0.5]])
        t, v = m.bidder_mixture(0).sample_with_coin(substream(13, 0), size=100_000)
        sel = v[t == 1]
        ks = stats.kstest(sel, lambda x: np.asarray(UU[1].cdf(x))).statistic
        assert ks < 0.005

    def test_marginal_law_is_the_mixture(self):
        m = build_market((Uniform(0, 1), Exponential(1.0)), [[0.4, 0.6]])
        mix = m.bidder_mixture(0)
        _, v = mix.sample_with_coin(substream(17, 0), size=1_000_000)
        ks = stats.kstest(v, lambda x: np.asarray(mix.cdf(x))).statistic
        assert ks < 0.003

    def test_scalar_draw(self):
        m = build_market(UU, [[0.5, 0.5]])
        t, v = m.bidder_mixture(0).sample_with_coin(substream(1, 0))
        assert t in (0, 1) and v >= 0.0


class TestEnumerateProfiles:
    def test_two_by_two(self):
        m = build_market(UU, [[0.5, 0.5], [0.5, 0.5]])
        profs = enumerate_profiles(m)
        assert len(profs) == 4
        assert all(p.weight == pytest.approx(0.25) for p in profs)
        assert sum(p.weight for p in profs) == pytest.approx(1.0, abs=1e-12)

    def test_profiles_are_the_coin_product(self):
        m = build_market(UU, [[0.5, 0.5], [0.5, 0.5]])
        assert [p.q for p in enumerate_profiles(m)] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_weights_match_product(self):
        m = build_market(UU, [[0.9, 0.1], [0.2, 0.8]])
        by_q = {p.q: p for p in enumerate_profiles(m)}
        assert by_q[(0, 1)].weight == pytest.approx(0.9 * 0.8, abs=1e-15)

    def test_cap(self):
        m = build_market(
            (Uniform(0, 1), Uniform(0, 2), Exponential(1.0)),
            [[1 / 3, 1 / 3, 1 / 3]] * 30,
        )
        with pytest.raises(ProfileSpaceTooLarge):
            enumerate_profiles(m)

    def test_expected_profile_mixture_matches_marginal(self):
        m = build_market(UU, [[0.3, 0.7], [0.6, 0.4]])
        profs = enumerate_profiles(m)
        x = 0.8
        mixed = sum(
            p.weight * float(m.components[p.q[0]].cdf(x)) for p in profs
        )
        assert mixed == pytest.approx(float(m.bidder_mixture(0).cdf(x)), abs=1e-12)


class TestIroning:
    def test_regular_component_hull_equals_raw(self):
        curve = iron_distribution(Uniform(0, 1), 1025)
        assert np.max(curve.hull_R - curve.raw_R) < 1e-8
        # ironed phi equals phi at cell midpoints on the interior band
        q_mid = 0.5 * (curve.grid[:-1] + curve.grid[1:])
        band = (q_mid >= 0.01) & (q_mid <= 0.99)
        v_mid = np.asarray(Uniform(0, 1).quantile(1.0 - q_mid[band]))
        phi = 2 * v_mid - 1
        assert np.max(np.abs(curve.ironed_phi[band] - phi)) < 1e-3

    def test_irregular_mixture_has_strict_gap(self):
        mix = MixtureDistribution((Exponential(10.0), Exponential(0.1)), (0.9, 0.1))
        curve = iron_distribution(mix, 2049)
        assert np.max(curve.hull_R - curve.raw_R) > 1e-3
        assert np.all(curve.hull_R >= curve.raw_R - 1e-12)

    def test_hull_concavity(self):
        mix = MixtureDistribution((Exponential(10.0), Exponential(0.1)), (0.9, 0.1))
        curve = iron_distribution(mix, 2049)
        second = np.diff(curve.hull_R, 2)
        assert np.max(second) <= 1e-9

    def test_ironed_phi_monotone(self):
        mix = MixtureDistribution((Uniform(0, 1), Uniform(0, 3)), (0.7, 0.3))
        curve = iron_distribution(mix, 1025)
        assert np.all(np.diff(curve.ironed_phi) <= 1e-9)  # nonincreasing in q

    def test_hull_matches_raw_at_grid_ends(self):
        curve = iron_distribution(Exponential(1.0), 513)
        assert curve.hull_R[0] == pytest.approx(curve.raw_R[0], abs=1e-12)
        assert curve.hull_R[-1] == pytest.approx(curve.raw_R[-1], abs=1e-12)

    def test_market_entry_point_and_guards(self):
        m = build_market((PointMass(1.0), EqualRevenue()), [[0.5, 0.5]])
        with pytest.raises(AtomicDistribution):
            iron(m, 0)
        m2 = build_market(UU, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            iron(m2, 0, grid_size=100)
        curve = iron(m2, 0, 513)
        assert curve.grid.shape == (513,)

    def test_ironed_virtual_step_lookup(self):
        d = Uniform(0, 1)
        curve = iron_distribution(d, 4097)
        for v in (0.1, 0.4, 0.9):
            assert curve.ironed_virtual(v) == pytest.approx(2 * v - 1, abs=2e-3)
        # below support -> lowest cell; above -> highest
        assert curve.ironed_virtual(0.0) == pytest.approx(curve.ironed_phi[-1])
        assert curve.ironed_virtual(1.0) == pytest.approx(curve.ironed_phi[0])


def test_extended_market_requires_iid():
    m = build_market(UU, [[0.9, 0.1], [0.5, 0.5]])
    with pytest.raises(ValueError):
        m.extended(2)
    m2 = build_market(UU, [[0.5, 0.5]])
    assert m2.extended(3).n == 4
    assert m2.extended(3).iid
