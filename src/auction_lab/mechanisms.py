"""Executable single-item mechanisms.

Every mechanism has one implementation: `allocate` evaluates a spec on each
row of a (size, m) value matrix at once, and `run` is a one-row call of it.
Ties are broken by lowest bidder index everywhere; this is measure-zero for
continuous value draws and is the documented convention for atomic inputs.

Payments are critical values: the infimum bid at which the winner still
wins.  Under Myerson that is the winner's `virtual_inverse` of the
threshold max(0, highest rival virtual value), or its inverse on the
ironing grid (`_ironed_inverse`) for ironed rules.  Reserve semantics at
equality: a value equal to the reserve qualifies, matching the
right-continuous-cdf atom convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _require_regular
from .errors import (
    IndexOutOfRange,
    NegativeReserve,
    ValueOutsideSupport,
)
from .mixtures import IronedCurve

__all__ = [
    "ValuationProfile",
    "AuctionOutcome",
    "SecondPrice",
    "SecondPriceAnonymousReserve",
    "SecondPriceBidderReserves",
    "SecondPriceSubsetReserve",
    "SecondPriceSampleReserve",
    "MyersonRegular",
    "MyersonIroned",
    "PostedSequence",
    "allocate",
    "run",
]


@dataclass(frozen=True)
class ValuationProfile:
    """Non-negative values, one per bidder."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if any(v < 0.0 for v in vals):
            raise ValueError("valuations must be non-negative")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of one run: at most one winner, losers pay zero."""

    winner: int | None
    payments: tuple
    revenue: float


# ---------------------------------------------------------------------------
# Mechanism specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecondPrice:
    """Vickrey auction, no reserve."""


@dataclass(frozen=True)
class SecondPriceAnonymousReserve:
    reserve: float

    def __post_init__(self):
        if self.reserve < 0.0:
            raise NegativeReserve(f"reserve {self.reserve} < 0")


@dataclass(frozen=True)
class SecondPriceBidderReserves:
    reserves: tuple

    def __post_init__(self):
        if any(r < 0.0 for r in self.reserves):
            raise NegativeReserve("bidder reserves must be non-negative")


@dataclass(frozen=True)
class SecondPriceSubsetReserve:
    """Vickrey among the non-subset bidders with reserve = max subset value.

    The subset members only set the price; they never win.  This is the
    sample-based single-reserve auction whose halving inequality against
    the augmented Vickrey auction is directly testable.
    """

    subset: tuple


@dataclass(frozen=True)
class SecondPriceSampleReserve:
    """Vickrey with a random anonymous reserve drawn per run.

    The reserve is the maximum of one fresh draw from each listed component.
    The draw needs a stream and the market's components, so this spec is
    evaluated by the revenue estimator rather than by `run`.
    """

    component_indices: tuple


@dataclass(frozen=True)
class MyersonRegular:
    """Highest-virtual-value auction for per-bidder regular distributions."""

    dists: tuple

    def __post_init__(self):
        _require_regular(self.dists)


@dataclass(frozen=True)
class MyersonIroned:
    """Myerson auction on ironed virtual values (one curve per bidder)."""

    curves: tuple


@dataclass(frozen=True)
class PostedSequence:
    """Sequential posted prices: first bidder in `order` meeting their price buys."""

    prices: tuple
    order: tuple

    def __post_init__(self):
        if len(self.prices) != len(self.order):
            raise ValueError("prices and order must have equal length")


MechanismSpec = (
    SecondPrice
    | SecondPriceAnonymousReserve
    | SecondPriceBidderReserves
    | SecondPriceSubsetReserve
    | SecondPriceSampleReserve
    | MyersonRegular
    | MyersonIroned
    | PostedSequence
)


# ---------------------------------------------------------------------------
# Kernels over a (size, m) value matrix; winner == -1 means no sale
# ---------------------------------------------------------------------------


def _sp_batch(values, reserves=0.0):
    """Second-price winners and prices.

    The winner is the highest value meeting its reserve (ties to the lowest
    index) and pays max(second-highest qualifying value, own reserve).
    `reserves` broadcasts against values: a scalar, one per bidder, a
    (size, 1) column of per-row reserves, or one per cell.
    """
    size, m = values.shape
    reserves = np.broadcast_to(np.asarray(reserves, dtype=float), (size, m))
    qual = values >= reserves
    masked = np.where(qual, values, -np.inf)
    winner = np.argmax(masked, axis=1)
    sale = qual.any(axis=1)
    rows = np.arange(size)
    if m >= 2:
        second = np.partition(masked, m - 2, axis=1)[:, m - 2]
    else:
        second = np.full(size, -np.inf)
    price = np.maximum(second, reserves[rows, winner])
    price = np.where(sale, price, 0.0)
    return np.where(sale, winner, -1), price


def _virtual_matrix(values, rules):
    """phi per column under a Distribution or IronedCurve per column."""
    phi = np.empty_like(values)
    for j, rule in enumerate(rules):
        if isinstance(rule, IronedCurve):
            phi[:, j] = rule.ironed_virtual(values[:, j])
        else:
            phi[:, j] = rule._virtual_unchecked(values[:, j])
    return phi


def _ironed_inverse(curve: IronedCurve, y, strict):
    """Lowest value whose ironed phi meets y (> y where strict)."""
    s_rev = curve.ironed_phi[::-1]  # ascending slopes
    p_incl = np.searchsorted(s_rev, y, side="left")
    p_strict = np.searchsorted(s_rev, y, side="right")
    p = np.where(strict, p_strict, p_incl)
    idx = np.clip(len(curve.values) - 1 - p, 0, len(curve.values) - 1)
    return curve.values[idx]


def _myerson_batch(values, rules):
    """Myerson winners and critical prices.

    The winner has the highest (ironed) virtual value if it is non-negative
    and pays the lowest value whose virtual value still meets
    max(0, highest rival virtual value).  rules[j] prices column j (a
    Distribution or IronedCurve).
    """
    size, m = values.shape
    rows = np.arange(size)
    phi = _virtual_matrix(values, rules)
    winner = np.argmax(phi, axis=1)
    sale = phi[rows, winner] >= 0.0
    strict = np.zeros(size, dtype=bool)
    if m >= 2:
        max_others = np.partition(phi, m - 2, axis=1)[:, m - 2]
        if any(isinstance(rule, IronedCurve) for rule in rules):
            phi_masked = phi.copy()
            phi_masked[rows, winner] = -np.inf
            rival = np.argmax(phi_masked, axis=1)
            # a tie at the threshold goes to the rival only when the rival has
            # the lower index and actually sits at the threshold (not when the
            # phi >= 0 gate is what binds)
            strict = (rival < winner) & (max_others >= 0.0)
    else:
        max_others = np.full(size, -np.inf)
    thr = np.maximum(max_others, 0.0)
    w_value = values[rows, winner]
    price = np.zeros(size)
    for j, rule in enumerate(rules):
        mask = sale & (winner == j)
        if not np.any(mask):
            continue
        if isinstance(rule, IronedCurve):
            crit = _ironed_inverse(rule, thr[mask], strict[mask])
        else:
            # exact float ties are measure-zero for continuous families
            crit = rule.virtual_inverse(thr[mask])
        price[mask] = np.minimum(np.asarray(crit, dtype=float), w_value[mask])
    return np.where(sale, winner, -1), price


def _posted_batch(values, prices, order):
    size = values.shape[0]
    if len(order) == 0:
        return np.full(size, -1), np.zeros(size)
    prices = np.asarray(prices, dtype=float)
    order = np.asarray(order, dtype=np.int64)
    accept = values[:, order] >= prices[None, :]
    any_accept = accept.any(axis=1)
    first = np.argmax(accept, axis=1)
    winner = np.where(any_accept, order[first], -1)
    price = np.where(any_accept, prices[first], 0.0)
    return winner, price


def _check_indices(indices, m, what):
    for i in indices:
        if not 0 <= i < m:
            raise IndexOutOfRange(f"{what} {i} out of range for m={m}")


def _one_per_column(rules, m, what):
    if len(rules) != m:
        raise ValueError(f"one {what} per bidder required ({len(rules)} for m={m})")
    return rules


def allocate(mech: MechanismSpec, values, rng=None, market=None):
    """Winners and prices of `mech` on every row of a (size, m) value matrix.

    Returns (winner, price) arrays of length size; winner == -1 means no
    sale at price 0.  SecondPriceSampleReserve draws its reserves from `rng`
    through `market`'s components.
    """
    size, m = values.shape
    if isinstance(mech, SecondPrice):
        return _sp_batch(values)
    if isinstance(mech, SecondPriceAnonymousReserve):
        return _sp_batch(values, mech.reserve)
    if isinstance(mech, SecondPriceBidderReserves):
        return _sp_batch(values, _one_per_column(mech.reserves, m, "reserve"))
    if isinstance(mech, SecondPriceSubsetReserve):
        subset = list(mech.subset)
        _check_indices(subset, m, "subset index")
        if not subset:
            return _sp_batch(values)
        # the subset sets everyone's reserve and never qualifies itself
        reserves = np.repeat(values[:, subset].max(axis=1, keepdims=True), m, axis=1)
        reserves[:, subset] = np.inf
        return _sp_batch(values, reserves)
    if isinstance(mech, SecondPriceSampleReserve):
        if market is None:
            raise ValueError("SecondPriceSampleReserve needs the market for its draws")
        _check_indices(mech.component_indices, market.k, "component index")
        draws = np.column_stack(
            [
                market.components[t]._quantile(rng.random(size))
                for t in mech.component_indices
            ]
        )
        return _sp_batch(values, draws.max(axis=1, keepdims=True))
    if isinstance(mech, MyersonRegular):
        return _myerson_batch(values, _one_per_column(mech.dists, m, "distribution"))
    if isinstance(mech, MyersonIroned):
        return _myerson_batch(values, _one_per_column(mech.curves, m, "ironed curve"))
    if isinstance(mech, PostedSequence):
        _check_indices(mech.order, m, "bidder")
        if len(mech.order) > m:
            raise ValueError("cannot make more offers than there are bidders")
        return _posted_batch(values, mech.prices, mech.order)
    raise TypeError(f"unknown mechanism spec {mech!r}")


def run(mech: MechanismSpec, profile: ValuationProfile) -> AuctionOutcome:
    """Run a mechanism spec on one valuation profile (a one-row `allocate`).

    Under Myerson every value must lie in its rule's support, else
    ValueOutsideSupport; SecondPriceSampleReserve needs a market and a
    stream, so it raises ValueError here.
    """
    n = len(profile)
    if n == 0:
        raise ValueError("profile must be non-empty")
    if isinstance(mech, (MyersonRegular, MyersonIroned)):
        rules = mech.dists if isinstance(mech, MyersonRegular) else mech.curves
        for rule, v in zip(rules, profile.values):
            dist = rule.source if isinstance(rule, IronedCurve) else rule
            if not dist.support.lo <= v <= dist.support.hi:
                raise ValueOutsideSupport(f"value {v} outside support of {dist}")
    (winner,), (price,) = allocate(mech, np.array([profile.values]))
    payments = tuple(float(price) if i == winner else 0.0 for i in range(n))
    return AuctionOutcome(int(winner) if winner >= 0 else None, payments, float(price))
