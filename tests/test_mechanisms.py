"""Mechanism semantics: winners, critical payments, invariants.

`critical_payment` here is the bisection oracle the vectorized Myerson
prices are checked against; the package itself prices in closed form.
`top_two_reference` is the row-wise argmax and partition the kernels'
column sweep is checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from auction_lab import (
    AuctionOutcome,
    IronedCurve,
    MyersonIroned,
    MyersonRegular,
    PointMass,
    PostedSequence,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceBidderReserves,
    SecondPriceSubsetReserve,
    Uniform,
    ValuationProfile,
    allocate,
    iron_distribution,
    run,
)
from auction_lab.errors import (
    IndexOutOfRange,
    IrregularComponent,
    NegativeReserve,
    ValueOutsideSupport,
)
from auction_lab.mechanisms import _top_two


BISECTION_TOL = 1e-9
_BISECTION_MAX_ITER = 200


def _bisect_allocation(allocation, lo: float, hi: float) -> float:
    """Infimum winning bid in [lo, hi]; allocation(hi) must hold."""
    if allocation(lo):
        return lo
    a, b = lo, hi
    for _ in range(_BISECTION_MAX_ITER):
        if b - a <= BISECTION_TOL:
            break
        mid = 0.5 * (a + b)
        if allocation(mid):
            b = mid
        else:
            a = mid
    return b


class NonMonotoneAllocation(AssertionError):
    """Allocation probe found a win that turns into a loss at a higher bid.

    This signals an implementation bug in the allocation rule, not bad data.
    """


def critical_payment(profile: ValuationProfile, winner: int, allocation, lo: float = 0.0) -> float:
    """Infimum bid keeping `winner` winning, to BISECTION_TOL.

    `allocation(bid)` reports whether the winner wins when bidding `bid`
    with all other values fixed.  Monotonicity is asserted by probing; a
    win that disappears at a higher bid raises NonMonotoneAllocation.
    """
    if not 0 <= winner < len(profile):
        raise IndexOutOfRange(f"winner index {winner} out of range")
    hi = profile.values[winner]
    probes = [allocation(b) for b in np.linspace(lo, hi, 9)]
    for earlier, later in zip(probes, probes[1:]):
        if earlier and not later:
            raise NonMonotoneAllocation("allocation rule lost a win at a higher bid")
    if not probes[-1]:
        raise NonMonotoneAllocation("winner does not win at their own value")
    return _bisect_allocation(allocation, lo, hi)


def public_virtual(rule, v: float) -> float:
    """phi through the public API; support edges are nudged inward."""
    if isinstance(rule, IronedCurve):
        return float(rule.ironed_virtual(v))
    lo, hi = rule.support.lo, rule.support.hi
    return float(rule.virtual(np.clip(v, np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf))))


def myerson_reference(values, rules):
    """(winner, price) of Myerson on one row: winner by the public virtual
    values, price by bisecting the induced allocation rule."""
    phi = [public_virtual(rule, v) for rule, v in zip(rules, values)]
    winner = max(range(len(phi)), key=lambda i: (phi[i], -i))
    if phi[winner] < 0.0:
        return -1, 0.0
    rivals = [j for j in range(len(phi)) if j != winner]
    thr = max([0.0] + [phi[j] for j in rivals])
    # at the threshold the tie goes to a lower-indexed rival sitting there
    loses_ties = any(j < winner and phi[j] == thr for j in rivals)
    rule = rules[winner]

    def allocation(bid: float) -> bool:
        phi_b = public_virtual(rule, bid)
        return phi_b > thr or (phi_b == thr and not loses_ties)

    lo = (rule.source if isinstance(rule, IronedCurve) else rule).support.lo
    return winner, critical_payment(ValuationProfile(tuple(values)), winner, allocation, lo)


def top_two_reference(x):
    """(winner, top, second) per row by argmax and a partition at m - 2."""
    m = x.shape[1]
    winner = np.argmax(x, axis=1)
    top = x[np.arange(x.shape[0]), winner]
    if m >= 2:
        second = np.partition(x, m - 2, axis=1)[:, m - 2]
    else:
        second = np.full(x.shape[0], -np.inf)
    return winner, top, second


def brute_force_critical_bid(wins, lo, hi, grid=2_000_001):
    """Independent infimum-winning-bid oracle: dense scan."""
    bids = np.linspace(lo, hi, grid)
    for b in bids:
        if wins(float(b)):
            return float(b)
    return None


class TestSecondPrice:
    def test_plain(self):
        o = run(SecondPrice(), ValuationProfile((0.8, 0.3)))
        assert o.winner == 0 and o.revenue == pytest.approx(0.3)
        assert o.payments == (0.3, 0.0)

    def test_anonymous_reserve_binds(self):
        o = run(SecondPriceAnonymousReserve(0.5), ValuationProfile((0.8, 0.3)))
        assert o.winner == 0 and o.revenue == pytest.approx(0.5)

    def test_no_sale(self):
        o = run(SecondPriceAnonymousReserve(0.5), ValuationProfile((0.4, 0.3)))
        assert o.winner is None and o.revenue == 0.0

    def test_tie_goes_to_lowest_index(self):
        o = run(SecondPrice(), ValuationProfile((0.7, 0.7, 0.1)))
        assert o.winner == 0 and o.revenue == pytest.approx(0.7)

    def test_reserve_equality_qualifies(self):
        o = run(SecondPriceAnonymousReserve(0.5), ValuationProfile((0.5,)))
        assert o.winner == 0 and o.revenue == pytest.approx(0.5)

    def test_bidder_reserves(self):
        o = run(SecondPriceBidderReserves((0.1, 0.95)), ValuationProfile((0.8, 0.9)))
        # bidder 1 fails their own reserve; bidder 0 wins at own reserve
        assert o.winner == 0 and o.revenue == pytest.approx(0.1)

    def test_negative_reserve(self):
        with pytest.raises(NegativeReserve):
            SecondPriceAnonymousReserve(-1.0)
        with pytest.raises(NegativeReserve):
            SecondPriceBidderReserves((0.1, -0.1))
        with pytest.raises(NegativeReserve):
            PostedSequence((1.0, -0.1), (0, 1))

    def test_one_reserve_per_bidder(self):
        with pytest.raises(ValueError):
            run(SecondPriceBidderReserves((0.1,)), ValuationProfile((1.0, 2.0)))


class TestMyerson:
    def test_iid_uniform_pair(self):
        # oracle: winner needs phi(b) = 2b-1 >= max(0, phi_1(0.3) = -0.4)
        wins = lambda b: 2 * b - 1 >= 0
        oracle = brute_force_critical_bid(wins, 0.0, 0.8)
        assert oracle == pytest.approx(0.5, abs=1e-6)
        o = run(MyersonRegular((Uniform(0, 1), Uniform(0, 1))), ValuationProfile((0.8, 0.3)))
        assert o.winner == 0
        assert o.revenue == pytest.approx(0.5, abs=1e-8)

    def test_non_iid_virtual_comparison(self):
        # phi_0(0.6) = 0.2 beats phi_1(0.9) = -0.2 despite the lower value
        o = run(MyersonRegular((Uniform(0, 1), Uniform(0, 2))), ValuationProfile((0.6, 0.9)))
        assert o.winner == 0
        assert o.revenue == pytest.approx(0.5, abs=1e-8)

    def test_all_negative_virtuals_no_sale(self):
        o = run(MyersonRegular((Uniform(0, 1), Uniform(0, 1))), ValuationProfile((0.2, 0.3)))
        assert o.winner is None and o.revenue == 0.0

    def test_value_outside_support(self):
        with pytest.raises(ValueOutsideSupport):
            run(MyersonRegular((Uniform(0, 1), Uniform(0, 1))), ValuationProfile((1.5, 0.3)))
        curves = (iron_distribution(Uniform(0, 1)), iron_distribution(Uniform(0, 1)))
        with pytest.raises(ValueOutsideSupport):
            run(MyersonIroned(curves), ValuationProfile((0.3, 1.5)))

    def test_regularity_enforced_by_spec(self):
        with pytest.raises(IrregularComponent):
            MyersonRegular((PowerLawIrregular(),))

    def test_atomic_entry_is_irregular(self):
        with pytest.raises(IrregularComponent, match="component 0"):
            MyersonRegular((PointMass(1.0), Uniform(0, 1)))

    def test_ironed_curves_accepted(self):
        curves = (iron_distribution(Uniform(0, 1)), iron_distribution(Uniform(0, 1)))
        o = run(MyersonIroned(curves), ValuationProfile((0.8, 0.3)))
        assert o.winner == 0
        assert o.revenue == pytest.approx(0.5, abs=1e-3)


def PowerLawIrregular():
    from auction_lab import PowerLaw

    return PowerLaw(0.8)


class TestPostedSequence:
    def test_second_offer_accepted(self):
        o = run(PostedSequence((10, 1), (0, 1)), ValuationProfile((5.0, 1.0)))
        assert o.winner == 1 and o.revenue == pytest.approx(1.0)

    def test_first_offer_accepted(self):
        o = run(PostedSequence((10, 1), (0, 1)), ValuationProfile((20.0, 1.0)))
        assert o.winner == 0 and o.revenue == pytest.approx(10.0)

    def test_empty_order(self):
        o = run(PostedSequence((), ()), ValuationProfile((20.0, 1.0)))
        assert o.winner is None and o.revenue == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            run(PostedSequence((1.0,), (3,)), ValuationProfile((1.0,)))

    def test_acceptance_at_equality(self):
        o = run(PostedSequence((1.0,), (0,)), ValuationProfile((1.0,)))
        assert o.winner == 0

    def test_repeated_bidder_refused(self):
        with pytest.raises(ValueError, match="repeat a bidder"):
            PostedSequence((5.0, 1.0), (0, 0))


class TestCriticalPayment:
    def test_second_price_runner_up(self):
        profile = ValuationProfile((0.8, 0.3))
        wins = lambda b: b >= 0.3
        assert critical_payment(profile, 0, wins) == pytest.approx(0.3, abs=1e-8)

    def test_second_price_with_reserve(self):
        profile = ValuationProfile((0.8, 0.3))
        wins = lambda b: b >= 0.5
        assert critical_payment(profile, 0, wins) == pytest.approx(0.5, abs=1e-8)

    def test_matches_run_myerson(self):
        profile = ValuationProfile((0.6, 0.9))
        dists = (Uniform(0, 1), Uniform(0, 2))
        outcome = run(MyersonRegular(dists), profile)
        wins = lambda b: 2 * b - 1 >= max(0.0, 2 * 0.9 - 2)
        assert critical_payment(profile, 0, wins) == pytest.approx(
            outcome.revenue, abs=1e-7
        )

    def test_non_monotone_probe(self):
        profile = ValuationProfile((0.8, 0.3))
        broken = lambda b: b < 0.4  # wins low, loses high
        with pytest.raises(NonMonotoneAllocation):
            critical_payment(profile, 0, broken)


class TestInvariants:
    @given(
        values=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=6),
        reserve=st.one_of(st.none(), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=300, deadline=None)
    def test_individual_rationality_second_price(self, values, reserve):
        mech = SecondPrice() if reserve is None else SecondPriceAnonymousReserve(reserve)
        o = run(mech, ValuationProfile(tuple(values)))
        if o.winner is not None:
            assert o.revenue <= values[o.winner] + 1e-9
            assert all(p == 0.0 for i, p in enumerate(o.payments) if i != o.winner)

    @given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_individual_rationality_myerson(self, values):
        dists = tuple(Uniform(0, 1) for _ in values)
        o = run(MyersonRegular(dists), ValuationProfile(tuple(values)))
        if o.winner is not None:
            assert o.revenue <= values[o.winner] + 1e-9

    @given(
        values=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5),
        extra=st.floats(0.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_appending_bidder_never_lowers_sp_revenue(self, values, extra):
        base = run(SecondPrice(), ValuationProfile(tuple(values)))
        grown = run(SecondPrice(), ValuationProfile(tuple(values) + (extra,)))
        assert grown.revenue >= base.revenue - 1e-12

    @given(values=st.lists(st.floats(0.0, 0.999), min_size=2, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_raising_winner_value_keeps_winner_and_payment(self, values):
        o = run(SecondPrice(), ValuationProfile(tuple(values)))
        bumped = list(values)
        bumped[o.winner] = min(bumped[o.winner] + 0.5, 1.5)
        o2 = run(SecondPrice(), ValuationProfile(tuple(bumped)))
        assert o2.winner == o.winner
        assert o2.revenue == pytest.approx(o.revenue, abs=1e-12)

    def test_raising_loser_above_critical_makes_them_win(self):
        o = run(SecondPrice(), ValuationProfile((0.8, 0.3)))
        assert o.winner == 0
        o2 = run(SecondPrice(), ValuationProfile((0.8, 0.9)))
        assert o2.winner == 1


# few distinct levels, so ties and -inf (a failed reserve) are frequent
_TIED_CELLS = st.sampled_from([-np.inf, 0.0, 1.0, 2.0, 3.0])


class TestTopTwo:
    @given(m=st.integers(1, 9), data=st.data(), fortran=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_argmax_and_partition(self, m, data, fortran):
        x = data.draw(arrays(float, (data.draw(st.integers(1, 40)), m), elements=_TIED_CELLS))
        x = np.vstack([x, np.full((1, m), -np.inf)])  # one row that sells nothing
        x = np.asfortranarray(x) if fortran else np.ascontiguousarray(x)
        winner, top, second = _top_two(x)
        ref_winner, ref_top, ref_second = top_two_reference(x)
        assert np.array_equal(winner, ref_winner)
        assert top.tobytes() == ref_top.tobytes()
        assert second.tobytes() == ref_second.tobytes()


class TestSubsetReserve:
    def test_subset_sets_price_but_cannot_win(self):
        o = run(SecondPriceSubsetReserve((0,)), ValuationProfile((0.9, 0.4, 0.6)))
        # remaining bidders {1, 2} face reserve 0.9: no sale
        assert o.winner is None and o.revenue == 0.0
        o = run(SecondPriceSubsetReserve((0,)), ValuationProfile((0.5, 0.4, 0.6)))
        assert o.winner == 2 and o.revenue == pytest.approx(0.5)

    def test_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            run(SecondPriceSubsetReserve((4,)), ValuationProfile((1.0,)))


class TestAllocateChecks:
    """Index checks guard the vectorized path that every estimate uses."""

    VALUES = np.array([[0.2, 0.5, 0.9], [0.7, 0.1, 0.3]])

    @pytest.mark.parametrize(
        "mech",
        [
            SecondPriceSubsetReserve((-1,)),
            SecondPriceSubsetReserve((3,)),
            PostedSequence((0.5,), (-1,)),
            PostedSequence((0.5, 0.5), (0, 3)),
        ],
        ids=repr,
    )
    def test_bad_indices_rejected(self, mech):
        with pytest.raises(IndexOutOfRange):
            allocate(mech, self.VALUES)

    def test_more_offers_than_bidders(self):
        with pytest.raises(ValueError):
            allocate(PostedSequence((0.1,) * 4, (0, 1, 2, 0)), self.VALUES)
        with pytest.raises(ValueError):
            PostedSequence((0.1, 0.2), (0,))

    def test_empty_order_sells_nothing(self):
        winner, price = allocate(PostedSequence((), ()), self.VALUES)
        assert winner.tolist() == [-1, -1] and price.tolist() == [0.0, 0.0]

    def test_one_rule_per_column(self):
        with pytest.raises(ValueError):
            allocate(MyersonRegular((Uniform(0, 1),) * 2), self.VALUES)


class TestDispatcherAndProfiles:
    def test_dispatcher_matches_direct_calls(self):
        p = ValuationProfile((0.8, 0.3))
        assert run(SecondPrice(), p) == AuctionOutcome(0, (0.3, 0.0), 0.3)
        assert run(SecondPriceAnonymousReserve(0.5), p) == AuctionOutcome(0, (0.5, 0.0), 0.5)
        assert run(PostedSequence((0.7,), (1,)), p) == AuctionOutcome(None, (0.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            run(SecondPrice(), ValuationProfile(()))
        with pytest.raises(TypeError):
            run("not a mechanism", p)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            ValuationProfile((-0.1,))

    def test_symmetric_myerson_equals_sp_with_monopoly_reserve_per_draw(self):
        rng = np.random.default_rng(0)
        dists = (Uniform(0, 1), Uniform(0, 1), Uniform(0, 1))
        for _ in range(200):
            values = tuple(rng.random(3))
            my = run(MyersonRegular(dists), ValuationProfile(values))
            sp = run(SecondPriceAnonymousReserve(0.5), ValuationProfile(values))
            assert my.winner == sp.winner
            assert my.revenue == pytest.approx(sp.revenue, abs=1e-8)
