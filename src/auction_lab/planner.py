"""Prescriptive augmentation recipes with their guarantee factors.

Each planning function returns an AugmentationPlan: the auction to run (a
mechanism plus extra bidders, which `evaluate_plan` prices as it stands),
the worst-case factor by which the optimal revenue can exceed its revenue,
and the preconditions that were checked.  Factors are stated exactly as
the corresponding theorem proves them; asymptotic Theta(.) counts are
reported as the explicit formula with the constant from the proof,
ceilinged to an integer.

Hazard-rate dominance between components is certified numerically on a
10 001-point grid; a NoDominantComponent verdict carries the first crossing
point found, since the theory assumes dominance rather than testing it.
The anonymous-reserve recipe ranks its candidate reserves by their exact
(quadrature) revenue, so planning draws nothing: only `evaluate_plan`, the
Monte Carlo price of a plan, takes an EstimatorConfig.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .distributions import _require_regular, hr_crossing
from .errors import (
    AssumptionUnverified,
    GroupTooSmall,
    InvalidDelta,
    IrregularComponent,
    NoDominantComponent,
    SupremumNotAttained,
)
from .mechanisms import (
    MechanismSpec,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceSubsetReserve,
)
from .mixtures import MarketModel
from .revenue import (
    ComponentExtra,
    EstimatorConfig,
    RevenueEstimate,
    _column_laws,
    estimate_mc,
    expected_revenue_quadrature,
)

__all__ = [
    "Assumption",
    "AugmentationPlan",
    "plan_targeted",
    "plan_hr_dominant",
    "nontargeted_counts",
    "plan_nontargeted",
    "plan_nontargeted_hr",
    "select_anonymous_reserve",
    "plan_sample_reserve",
    "plan_random_subset",
    "plan_no_reserve",
    "guarantee_factor",
    "coverage_probability",
    "evaluate_plan",
    "TARGETED",
    "HR_DOMINANT",
    "NONTARGETED",
    "NONTARGETED_HR",
    "ANON_RESERVE",
    "SAMPLE_RESERVE",
    "RANDOM_SUBSET",
    "NO_RESERVE",
    "RECIPES",
]

TARGETED = "targeted_per_component"
HR_DOMINANT = "single_hr_dominant"
NONTARGETED = "nontargeted_count"
NONTARGETED_HR = "nontargeted_hr_count"
ANON_RESERVE = "anonymous_reserve"
SAMPLE_RESERVE = "sample_reserve"
RANDOM_SUBSET = "random_subset_reserve"
NO_RESERVE = "no_reserve"


@dataclass(frozen=True)
class Assumption:
    name: str
    verified: bool
    detail: str = ""


@dataclass(frozen=True)
class AugmentationPlan:
    strategy: str
    guarantee_factor: float
    mechanism: MechanismSpec = SecondPrice()
    extras: tuple = ()
    reserve_component: int | None = None
    count: int | None = None  # bidders added from the marginal mixture
    assumptions: tuple = ()

    def __post_init__(self):
        if self.guarantee_factor < 1.0:
            raise ValueError("a guarantee factor below 1 is meaningless")


def plan_targeted(market: MarketModel) -> AugmentationPlan:
    """One extra bidder per component; factor 2."""
    _require_regular(market.components)
    return AugmentationPlan(
        strategy=TARGETED,
        guarantee_factor=2.0,
        extras=tuple(ComponentExtra(t) for t in range(market.k)),
        assumptions=(Assumption("components_regular", True),),
    )


def plan_hr_dominant(market: MarketModel) -> AugmentationPlan:
    """A single extra bidder from the hazard-rate dominant component; factor 2."""
    _require_regular(market.components)
    first_crossing = None
    for cand in range(market.k):
        crossing = None
        for other in range(market.k):
            if other == cand:
                continue
            crossing = hr_crossing(
                market.components[cand], market.components[other]
            )
            if crossing is not None:
                break
        if crossing is None:
            return AugmentationPlan(
                strategy=HR_DOMINANT,
                guarantee_factor=2.0,
                extras=(ComponentExtra(cand),),
                reserve_component=cand,
                assumptions=(
                    Assumption("components_regular", True),
                    Assumption("hr_dominant_exists", True, f"component {cand}"),
                ),
            )
        if first_crossing is None:
            first_crossing = (cand, other, *crossing)
    raise NoDominantComponent(
        f"no component hazard-rate dominates all others; first crossing at "
        f"x={first_crossing[2]:.6g} (component {first_crossing[0]} vs "
        f"{first_crossing[1]})",
        crossing=first_crossing,
    )


def nontargeted_counts(k: int, delta: float, p1: float | None = None):
    """Extra-bidder counts for the i.i.d. recipes.

    n*_general = ceil((ln k + ln(k+1)) / delta) extras from the marginal
    mixture guarantee factor 2(k+1)/k; with a hazard-rate dominant component
    of mixture probability p1, n*_hr = ceil(1/p1) extras give 2e/(e-1).

    Returns (n_general, factor_general, n_hr, factor_hr); the hr pair is
    None when p1 is not supplied.
    """
    if k < 1:
        raise InvalidDelta("k must be at least 1")
    if not 0.0 < delta <= 1.0 / k:
        raise InvalidDelta(f"delta must lie in (0, 1/k]; got {delta} for k={k}")
    n_general = math.ceil((math.log(k) + math.log(k + 1)) / delta)
    factor_general = 2.0 * (k + 1) / k
    n_hr = factor_hr = None
    if p1 is not None:
        if not 0.0 < p1 <= 1.0:
            raise InvalidDelta(f"p1 must lie in (0, 1]; got {p1}")
        n_hr = math.ceil(1.0 / p1)
        factor_hr = 2.0 * math.e / (math.e - 1.0)
    return n_general, factor_general, n_hr, factor_hr


def _iid_assumption(market: MarketModel) -> Assumption:
    detail = "identical mixture rows" if market.iid else "rows differ"
    return Assumption("iid_weights", market.iid, detail)


def _require_iid(market: MarketModel):
    if not market.iid:
        raise InvalidDelta("the marginal-mixture recipes need identical mixture rows")


def plan_nontargeted(market: MarketModel) -> AugmentationPlan:
    """n* extra bidders from the marginal mixture itself (i.i.d. recipe).

    At k = 1 the formula still reports ceil(ln 2) = 1 even though the
    setting is then regular; the count is stated verbatim.
    """
    _require_regular(market.components)
    _require_iid(market)
    n_star, factor, _, _ = nontargeted_counts(market.k, market.delta)
    return AugmentationPlan(
        strategy=NONTARGETED,
        guarantee_factor=factor,
        count=n_star,
        assumptions=(
            Assumption("components_regular", True),
            _iid_assumption(market),
            Assumption("delta_positive", True, f"delta={market.delta:g}"),
        ),
    )


def plan_nontargeted_hr(market: MarketModel) -> AugmentationPlan:
    """ceil(1/p1) mixture extras when a hazard-rate dominant component exists."""
    dom = plan_hr_dominant(market).reserve_component  # raises NoDominantComponent
    _require_iid(market)
    p1 = float(market.weights[0, dom])
    if p1 <= 0.0:
        raise InvalidDelta(f"dominant component {dom} has zero mixture probability")
    _, _, n_hr, factor_hr = nontargeted_counts(market.k, market.delta, p1=p1)
    return AugmentationPlan(
        strategy=NONTARGETED_HR,
        guarantee_factor=factor_hr,
        count=n_hr,
        reserve_component=dom,
        assumptions=(
            Assumption("components_regular", True),
            Assumption("hr_dominant_exists", True, f"component {dom}"),
            _iid_assumption(market),
        ),
    )


def select_anonymous_reserve(market: MarketModel) -> AugmentationPlan:
    """Best of the k component monopoly reserves, by exact revenue; factor 4k.

    The coins are independent across bidders, so second price with an
    anonymous reserve earns the same on the market as on its column laws,
    and each candidate is ranked by the quadrature revenue of those; the
    first maximum wins.  A candidate whose monopoly price is an unattained
    supremum is skipped, and the all_candidates_attained detail names it.
    The factor's premise, a mixture of regular components, is verified by
    the grid check of every component.
    """
    candidates, unattained = [], []
    for t, comp in enumerate(market.components):
        try:
            candidates.append((t, SecondPriceAnonymousReserve(comp.monopoly_reserve())))
        except SupremumNotAttained:
            unattained.append(f"component {t} ({comp}) unattained")
    if not candidates:
        raise SupremumNotAttained("no component has an attainable monopoly price")
    laws = _column_laws(market, ())
    t, mech = max(candidates, key=lambda c: expected_revenue_quadrature(laws, c[1].reserve).mean)
    try:
        _require_regular(market.components)
        regular = Assumption("components_regular_mixture", True)
    except IrregularComponent as exc:
        regular = Assumption("components_regular_mixture", False, str(exc))
    return AugmentationPlan(
        strategy=ANON_RESERVE,
        guarantee_factor=4.0 * market.k,
        mechanism=mech,
        reserve_component=t,
        assumptions=(
            regular,
            Assumption(
                "all_candidates_attained",
                not unattained,
                "; ".join([f"{len(candidates)}/{market.k} candidates"] + unattained),
            ),
        ),
    )


def _group_sizes(market: MarketModel, group_sizes):
    """(sizes, assumption): the supplied group sizes, else the heuristic
    n_t = floor(n * min_i p_{i,t}); the theory assumes known groups."""
    heuristic = group_sizes is None
    if heuristic:
        group_sizes = [int(market.n * float(market.weights[:, t].min())) for t in range(market.k)]
    sizes = [int(g) for g in group_sizes]
    if len(sizes) != market.k:
        raise ValueError("one group size per component required")
    known = Assumption(
        "group_sizes_known",
        not heuristic,
        "supplied" if not heuristic else "heuristic floor(n * min_i p_it)",
    )
    return sizes, known


def plan_sample_reserve(market: MarketModel, group_sizes=None) -> AugmentationPlan:
    """Vickrey with a random reserve, the max of one fresh draw per component.

    The draws are k component extras that form the reserve subset: they set
    the price and never win.  With k distinct components and at least t
    bidders per group it keeps a 1/2 * t/(t+1) fraction of the optimal
    revenue: factor 2(t+1)/t.
    """
    sizes, known = _group_sizes(market, group_sizes)
    t_min = min(sizes)
    if t_min < 1:
        raise GroupTooSmall(f"sample reserve needs t >= 1; group sizes {sizes}")
    return AugmentationPlan(
        strategy=SAMPLE_RESERVE,
        guarantee_factor=2.0 * (t_min + 1) / t_min,
        mechanism=SecondPriceSubsetReserve(tuple(range(market.n, market.n + market.k))),
        extras=tuple(ComponentExtra(t) for t in range(market.k)),
        assumptions=(known,),
    )


def plan_random_subset(market: MarketModel) -> AugmentationPlan:
    """Price the other bidders by the max of k of them; factor 2(k+1)/k * n/(n-k).

    The n/(n-k) term is the loss from benchmarking against the n-k priced
    bidders only.  Its premise `subset_covers_components` asks for k >= n*,
    and delta <= 1/k gives n* >= ceil(k(ln k + ln(k+1))) > k for every
    k >= 2, so the recipe certifies only when k = 1.
    """
    s = market.k
    if s >= market.n:
        raise GroupTooSmall(
            f"subset reserve needs more bidders than components (n={market.n}, k={market.k})"
        )
    try:
        n_star, _, _, _ = nontargeted_counts(market.k, market.delta)
        covers = s >= n_star
        detail = f"subset {s} vs n*={n_star}"
    except InvalidDelta:
        covers = False
        detail = "delta outside (0, 1/k]"
    return AugmentationPlan(
        strategy=RANDOM_SUBSET,
        guarantee_factor=2.0 * (market.k + 1) / market.k * market.n / (market.n - s),
        mechanism=SecondPriceSubsetReserve(tuple(range(s))),
        assumptions=(
            _iid_assumption(market),
            Assumption("subset_covers_components", covers, detail),
        ),
    )


def plan_no_reserve(market: MarketModel, group_sizes=None) -> AugmentationPlan:
    """The bare Vickrey auction keeps 1/2 * (t-1)/t of the optimum for t >= 2: factor 2t/(t-1)."""
    sizes, known = _group_sizes(market, group_sizes)
    t_min = min(sizes)
    if t_min < 2:
        raise GroupTooSmall(f"no-reserve guarantee needs t >= 2; got t={t_min}")
    return AugmentationPlan(
        strategy=NO_RESERVE,
        guarantee_factor=2.0 * t_min / (t_min - 1),
        assumptions=(known,),
    )


# (strategy, builder) of every recipe, in the order `auction-lab plan` reports them
RECIPES = (
    (TARGETED, plan_targeted),
    (HR_DOMINANT, plan_hr_dominant),
    (NONTARGETED, plan_nontargeted),
    (NONTARGETED_HR, plan_nontargeted_hr),
    (ANON_RESERVE, select_anonymous_reserve),
    (SAMPLE_RESERVE, plan_sample_reserve),
    (RANDOM_SUBSET, plan_random_subset),
    (NO_RESERVE, plan_no_reserve),
)


def guarantee_factor(plan: AugmentationPlan) -> float:
    """The plan's theorem factor, provided every assumption is verified."""
    for a in plan.assumptions:
        if not a.verified:
            raise AssumptionUnverified(f"{plan.strategy}: assumption {a.name} ({a.detail})")
    return plan.guarantee_factor


def coverage_probability(probs, n_draws: int) -> float:
    """Probability that n_draws mixture coins hit every component.

    This is the coupon-collector event behind the non-targeted count n*,
    exact by inclusion-exclusion over the sets S of components missed:
    sum_S (-1)^|S| (1 - sum_{t in S} p_t)^n_draws.  `math.fsum` cancels the
    terms of a zero-weight component, which pair off bit for bit, to 0; the
    rounded powers can still move the sum by about 1e-15, so it is clamped
    to [0, 1].
    """
    total = math.fsum(
        (-1) ** size * (1.0 - sum(missed)) ** n_draws
        for size in range(len(probs) + 1)
        for missed in itertools.combinations(probs, size)
    )
    return min(max(total, 0.0), 1.0)


def evaluate_plan(
    market: MarketModel, plan: AugmentationPlan, cfg: EstimatorConfig
) -> RevenueEstimate:
    """MC revenue of the auction a plan prescribes, on the market it extends."""
    return estimate_mc(
        market.extended(plan.count) if plan.count else market, plan.mechanism, plan.extras, cfg
    )
