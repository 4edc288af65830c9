"""Semantic exception hierarchy shared by all auction_lab modules.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad inputs) from numerical verdicts
(e.g. an unattained supremum) without string matching.
"""


class AuctionLabError(Exception):
    """Base class for every error raised by this package."""


# --- distributions ---------------------------------------------------------

class UnboundedQuantile(AuctionLabError):
    """Requested quantile maps to an infinite support endpoint."""


class AtomicDistribution(AuctionLabError):
    """Operation needs a density but the distribution has atoms."""


class OutsideSupport(AuctionLabError):
    """Evaluation point lies outside the distribution's support interior."""


class SupremumNotAttained(AuctionLabError):
    """Posted-price revenue is still increasing at the search cap.

    Flags equal-revenue-type tails where the monopoly price is a supremum
    rather than a maximum.
    """


class DisjointSupports(AuctionLabError):
    """Support intersection is empty or a single point."""


# --- mixtures --------------------------------------------------------------

class WeightRowSum(AuctionLabError):
    """A mixture weight row does not sum to one."""


class NegativeWeight(AuctionLabError):
    """A mixture weight is negative."""


class ProfileSpaceTooLarge(AuctionLabError):
    """k**n exceeds the enumeration cap (the `policies` benchmark enumerates every profile)."""


class IrregularComponentWarning(UserWarning):
    """A mixture component failed the regularity check (allowed, but noted)."""


# --- mechanisms ------------------------------------------------------------

class NegativeReserve(AuctionLabError):
    """Reserve prices must be non-negative."""


class ValueOutsideSupport(AuctionLabError):
    """A submitted value lies outside the bidder's distribution support."""


class IndexOutOfRange(AuctionLabError):
    """A bidder, subset or component index does not exist."""


class NoVirtualInverse(AuctionLabError):
    """A Myerson rule's distribution has no virtual inverse to price its winner."""


# --- revenue estimation ----------------------------------------------------

class DivergentTail(AuctionLabError):
    """An integral's tail outlasts tol past its last panel, or an MC mean or std_err is not finite."""


class ToleranceNotMet(AuctionLabError):
    """Quadrature panels still disagree beyond tol after the last bisection round."""


class InsufficientDivergenceSamples(AuctionLabError):
    """Fewer than the required number of samples hit the divergence event."""


class ZeroDenominator(AuctionLabError):
    """Ratio denominator estimate is not strictly positive."""


# --- planner ---------------------------------------------------------------

class IrregularComponent(AuctionLabError):
    """A planner recipe requires regular components and one is not."""


class NoDominantComponent(AuctionLabError):
    """No component hazard-rate dominates all others."""

    def __init__(self, message, crossing=None):
        super().__init__(message)
        #: (candidate_index, other_index, x, h_candidate, h_other) at the
        #: first grid point witnessing the failed dominance, if located.
        self.crossing = crossing


class InvalidDelta(AuctionLabError):
    """Minimum mixture probability outside (0, 1/k]."""


class GroupTooSmall(AuctionLabError):
    """A sample-based recipe needs a larger minimum group size."""


class AssumptionUnverified(AuctionLabError):
    """A plan's guarantee was requested while a precondition is unverified."""


# --- scenario / cli --------------------------------------------------------

class SchemaError(AuctionLabError):
    """Scenario text or a command line violates the schema; names the field path or flag."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


class UnknownExperiment(AuctionLabError):
    """Requested built-in experiment name does not exist."""


class IOFailure(AuctionLabError):
    """Report emission could not write its output."""
