"""Executable single-item mechanisms.

Every mechanism has one implementation: `allocate` evaluates a spec on each
row of a (size, m) value matrix at once, and `run` is a one-row call of it.
Mechanisms draw nothing; every random input is a value column.  A reserve
set by fresh draws, such as the sample-based reserve, is a subset of extra
columns under `SecondPriceSubsetReserve`.
Ties are broken by lowest bidder index everywhere; this is measure-zero for
continuous value draws and is the documented convention for atomic inputs.

The second-price and Myerson kernels find each row's winner and
second-highest entry in one sweep over the contiguous columns of a
column-major matrix (`_top_two`), whatever layout `allocate` receives.

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

    The subset members only set the price; they never win.  A subset of
    market bidders is the random-subset reserve; a subset of extra columns,
    one drawn from each component, is the sample-based reserve.
    """

    subset: tuple


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
    """Sequential posted prices: first bidder in `order` meeting their price buys.

    Each bidder is offered at most once, at a non-negative price.
    """

    prices: tuple
    order: tuple

    def __post_init__(self):
        if len(self.prices) != len(self.order):
            raise ValueError("prices and order must have equal length")
        if len(set(self.order)) != len(self.order):
            raise ValueError("posted order must not repeat a bidder")
        if any(p < 0.0 for p in self.prices):
            raise NegativeReserve("posted prices must be non-negative")


MechanismSpec = (
    SecondPrice
    | SecondPriceAnonymousReserve
    | SecondPriceBidderReserves
    | SecondPriceSubsetReserve
    | MyersonRegular
    | MyersonIroned
    | PostedSequence
)


# ---------------------------------------------------------------------------
# Kernels over a (size, m) value matrix; winner == -1 means no sale
# ---------------------------------------------------------------------------


# rows per block when a kernel copies a matrix into column-major order: a
# block of a row-major input stays in cache while it is transposed
_ROW_BLOCK = 2048


def _top_two(x):
    """(winner, top, second) of each row of a (size, m) matrix.

    One sweep over the columns, so a column-major `x` is read contiguously:
    `second` is the second-highest entry counting ties (-inf when m == 1)
    and `winner` the lowest index holding `top`.  Max and min are exact, so
    this equals argmax plus a partition at m - 2 bit for bit.
    """
    top = x[:, 0].copy()
    second = np.full(x.shape[0], -np.inf)
    winner = np.zeros(x.shape[0], dtype=np.int32)  # half the memory traffic of intp
    for j in range(1, x.shape[1]):
        col = x[:, j]
        np.maximum(second, np.minimum(top, col), out=second)
        # j exceeds every index so far, so max() moves the winner exactly
        # where col > top, without the branches of a masked write
        np.maximum(winner, np.multiply(col > top, j, dtype=np.int32), out=winner)
        np.maximum(top, col, out=top)
    return winner.astype(np.intp), top, second


def _sp_batch(values, reserves=0.0):
    """Second-price winners and prices.

    The winner is the highest value meeting its reserve (ties to the lowest
    index) and pays max(second-highest qualifying value, own reserve).
    `reserves` is a scalar, a (size, 1) column of per-row reserves, one per
    bidder, or one per cell.

    `_top_two` sweeps a column-major matrix.  Where a row's bidders face
    different reserves it is a copy with -inf for each value below its own
    reserve.  Where one reserve serves the whole row no value needs
    masking: the top value qualifies iff any does, and a runner-up below
    the reserve prices like a missing one, at the reserve.  So column-major
    values are swept as they are.  Copies go a row block at a time.
    """
    size, m = values.shape
    reserves = np.asarray(reserves, dtype=float)
    shared = reserves.ndim == 0 or reserves.shape[-1] == 1
    if not shared:
        reserves = np.broadcast_to(reserves, (size, m))
    x = values
    if not (shared and values.flags.f_contiguous):
        x = np.empty((size, m), order="F")
        for start in range(0, size, _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            v = values[block]
            x[block] = v if shared else np.where(v >= reserves[block], v, -np.inf)
    winner, top, second = _top_two(x)
    if shared:
        own = reserves[:, 0] if reserves.ndim == 2 else reserves
    else:
        own = reserves[np.arange(size), winner]
    sale = top >= own
    return np.where(sale, winner, -1), np.where(sale, np.maximum(second, own), 0.0)


def _virtual_matrix(values, rules):
    """phi per column under a Distribution or IronedCurve per column, laid
    out column-major whatever the layout of `values`."""
    phi = np.empty(values.shape, order="F")
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


def _myerson_batch(values, rules, phi=None):
    """Myerson winners and critical prices.

    The winner has the highest (ironed) virtual value if it is non-negative
    and pays the lowest value whose virtual value still meets
    max(0, highest rival virtual value).  rules[j] prices column j (a
    Distribution or IronedCurve).  The winner and that rival value come
    from one `_top_two` sweep over the columns of the column-major phi,
    which is `_virtual_matrix(values, rules)` unless the caller passes the
    stream's shared one.  Each column's winners are priced by row index,
    so a bisecting `virtual_inverse` runs on that column's winners only.
    """
    if phi is None:
        phi = _virtual_matrix(values, rules)
    best, top, max_others = _top_two(phi)
    if any(isinstance(rule, IronedCurve) for rule in rules):
        phi_masked = phi.copy()
        phi_masked[np.arange(values.shape[0]), best] = -np.inf
        rival = np.argmax(phi_masked, axis=1)
        # a tie at the threshold goes to the rival only when the rival has
        # the lower index and actually sits at the threshold (not when the
        # phi >= 0 gate is what binds)
        strict = (rival < best) & (max_others >= 0.0)
    winner = np.where(top >= 0.0, best, -1)
    thr = np.maximum(max_others, 0.0)
    price = np.zeros(values.shape[0])
    for j, rule in enumerate(rules):
        idx = np.flatnonzero(winner == j)
        if isinstance(rule, IronedCurve):
            crit = _ironed_inverse(rule, thr[idx], strict[idx])
        else:
            # exact float ties are measure-zero for continuous families
            crit = rule.virtual_inverse(thr[idx])
        price[idx] = np.minimum(np.asarray(crit, dtype=float), values[idx, j])
    return winner, price


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


def allocate(mech: MechanismSpec, values):
    """Winners and prices of `mech` on every row of a (size, m) value matrix.

    Returns (winner, price) arrays of length size; winner == -1 means no
    sale at price 0.
    """
    size, m = values.shape
    if isinstance(mech, SecondPrice):
        return _sp_batch(values)
    if isinstance(mech, SecondPriceAnonymousReserve):
        return _sp_batch(values, mech.reserve)
    if isinstance(mech, SecondPriceBidderReserves):
        return _sp_batch(values, _one_per_column(mech.reserves, m, "reserve"))
    if isinstance(mech, SecondPriceSubsetReserve):
        _check_indices(mech.subset, m, "subset index")
        if not mech.subset:
            return _sp_batch(values)
        # the others face one shared reserve, the subset's max
        others = np.setdiff1d(np.arange(m), mech.subset)
        if others.size == 0:
            return np.full(size, -1), np.zeros(size)
        reserve = values[:, list(mech.subset)].max(axis=1, keepdims=True)
        winner, price = _sp_batch(values[:, others], reserve)
        return np.where(winner >= 0, others[winner], -1), price
    if isinstance(mech, MyersonRegular):
        return _myerson_batch(values, _one_per_column(mech.dists, m, "distribution"))
    if isinstance(mech, MyersonIroned):
        return _myerson_batch(values, _one_per_column(mech.curves, m, "ironed curve"))
    if isinstance(mech, PostedSequence):
        _check_indices(mech.order, m, "bidder")
        return _posted_batch(values, mech.prices, mech.order)
    raise TypeError(f"unknown mechanism spec {mech!r}")


def run(mech: MechanismSpec, profile: ValuationProfile) -> AuctionOutcome:
    """Run a mechanism spec on one valuation profile (a one-row `allocate`).

    Under Myerson every value must lie in its rule's support, else
    ValueOutsideSupport.
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
