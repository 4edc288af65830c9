"""Prescriptive augmentation recipes with their guarantee factors.

Each planning function returns an AugmentationPlan: what to add to the
auction (extra bidders, a reserve, or nothing) together with the worst-case
factor by which the optimal revenue can exceed the plan's revenue, and the
list of preconditions that were checked.  Factors are stated exactly as the
corresponding theorem proves them; asymptotic Theta(.) counts are reported
as the explicit formula with the constant from the proof, ceilinged to an
integer.

Hazard-rate dominance between components is certified numerically on a
10 001-point grid; a NoDominantComponent verdict carries the first crossing
point found, since the theory assumes dominance rather than testing it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _require_regular, hr_crossing
from .errors import (
    AssumptionUnverified,
    GroupTooSmall,
    InvalidDelta,
    NoDominantComponent,
    SupremumNotAttained,
)
from .mechanisms import (
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceSampleReserve,
    SecondPriceSubsetReserve,
)
from .mixtures import MarketModel, _coin_rule
from .revenue import ComponentExtra, EstimatorConfig, RevenueEstimate, _estimate_each, estimate_mc
from .streams import substream

__all__ = [
    "Assumption",
    "AugmentationPlan",
    "plan_targeted",
    "plan_hr_dominant",
    "nontargeted_counts",
    "plan_nontargeted",
    "plan_nontargeted_hr",
    "select_anonymous_reserve",
    "sample_based_plans",
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
    extras: tuple = ()
    reserve: float | None = None
    reserve_component: int | None = None
    count: int | None = None
    subset: tuple | None = None
    assumptions: tuple = ()
    notes: str = ""
    estimate: RevenueEstimate | None = None  # MC evidence the plan was chosen on

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
    n_hr = None
    factor_hr = None
    if p1 is not None:
        if not 0.0 < p1 <= 1.0:
            raise InvalidDelta(f"p1 must lie in (0, 1]; got {p1}")
        n_hr = math.ceil(1.0 / p1)
        factor_hr = 2.0 * math.e / (math.e - 1.0)
    return n_general, factor_general, n_hr, factor_hr


def _iid_assumption(market: MarketModel) -> Assumption:
    return Assumption(
        "iid_weights",
        market.iid,
        "identical mixture rows" if market.iid else "rows differ",
    )


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
        notes="extras drawn from the marginal mixture, not from a component",
    )


def plan_nontargeted_hr(market: MarketModel) -> AugmentationPlan:
    """ceil(1/p1) mixture extras when a hazard-rate dominant component exists."""
    dominant_plan = plan_hr_dominant(market)  # raises NoDominantComponent
    dom = dominant_plan.reserve_component
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
        notes="extras drawn from the marginal mixture",
    )


def select_anonymous_reserve(market: MarketModel, cfg: EstimatorConfig) -> AugmentationPlan:
    """Best of the k component monopoly reserves, by MC comparison; factor 4k.

    Candidates whose monopoly price is an unattained supremum are skipped
    with a warning.  All candidates are evaluated on one set of draws, so the
    argmax is deterministic; the winner's estimate rides on the plan.
    """
    candidates = []
    for t, comp in enumerate(market.components):
        try:
            candidates.append((t, comp.monopoly_reserve()))
        except SupremumNotAttained:
            warnings.warn(
                f"component {t} ({comp}): monopoly price unattained; skipped",
                stacklevel=2,
            )
    if not candidates:
        raise SupremumNotAttained("no component has an attainable monopoly price")
    mechs = tuple(SecondPriceAnonymousReserve(r) for _, r in candidates)
    ests = _estimate_each(market, mechs, (), cfg)
    best = max(range(len(candidates)), key=lambda j: ests[j].mean)
    t, r = candidates[best]
    return AugmentationPlan(
        strategy=ANON_RESERVE,
        guarantee_factor=4.0 * market.k,
        reserve=r,
        reserve_component=t,
        assumptions=(
            Assumption("components_regular_mixture", True),
            Assumption(
                "all_candidates_attained",
                len(candidates) == market.k,
                f"{len(candidates)}/{market.k} candidates",
            ),
        ),
        notes=f"candidate means compared at seed {cfg.seed}",
        estimate=ests[best],
    )


def _group_sizes_from_weights(market: MarketModel):
    """Heuristic n_t = floor(n * min_i p_{i,t}); the theory assumes known groups."""
    return [int(market.n * float(market.weights[:, t].min())) for t in range(market.k)]


def sample_based_plans(
    market: MarketModel,
    group_sizes=None,
    include=(SAMPLE_RESERVE, RANDOM_SUBSET, NO_RESERVE),
):
    """Sample-reserve, random-subset-reserve and no-reserve plans.

    With k distinct components and at least t bidders per group, a random
    reserve distributed as the max of one fresh draw per component keeps a
    1/2 * t/(t+1) fraction of the optimal revenue (factor 2(t+1)/t), and the
    bare Vickrey auction keeps 1/2 * (t-1)/t for t >= 2 (factor 2t/(t-1)).
    The subset variant prices the remaining n-s bidders by the max of s
    randomly chosen ones; its factor multiplies 2(k+1)/k by the n/(n-s)
    loss from benchmarking against n-s bidders only.
    """
    heuristic = group_sizes is None
    if heuristic:
        group_sizes = _group_sizes_from_weights(market)
    group_sizes = [int(g) for g in group_sizes]
    if len(group_sizes) != market.k:
        raise ValueError("one group size per component required")
    t_min = min(group_sizes)
    group_assumption = Assumption(
        "group_sizes_known",
        not heuristic,
        "supplied" if not heuristic else "heuristic floor(n * min_i p_it)",
    )

    plans = []
    if SAMPLE_RESERVE in include:
        if t_min < 1:
            raise GroupTooSmall(f"sample reserve needs t >= 1; group sizes {group_sizes}")
        plans.append(
            AugmentationPlan(
                strategy=SAMPLE_RESERVE,
                guarantee_factor=2.0 * (t_min + 1) / t_min,
                assumptions=(group_assumption,),
                notes="reserve = max of one fresh draw per distinct component",
            )
        )
    if RANDOM_SUBSET in include:
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
        plans.append(
            AugmentationPlan(
                strategy=RANDOM_SUBSET,
                guarantee_factor=2.0 * (market.k + 1) / market.k * market.n / (market.n - s),
                subset=tuple(range(s)),
                assumptions=(
                    _iid_assumption(market),
                    Assumption("subset_covers_components", covers, detail),
                ),
                notes="reserve = max value of the subset, applied to the others",
            )
        )
    if NO_RESERVE in include:
        if t_min < 2:
            raise GroupTooSmall(f"no-reserve guarantee needs t >= 2; got t={t_min}")
        plans.append(
            AugmentationPlan(
                strategy=NO_RESERVE,
                guarantee_factor=2.0 * t_min / (t_min - 1),
                assumptions=(group_assumption,),
            )
        )
    return plans


def guarantee_factor(plan: AugmentationPlan) -> float:
    """The plan's theorem factor, provided every assumption is verified."""
    for a in plan.assumptions:
        if not a.verified:
            raise AssumptionUnverified(f"{plan.strategy}: assumption {a.name} ({a.detail})")
    return plan.guarantee_factor


def coverage_probability(probs, n_draws: int, n_trials: int, seed: int):
    """MC estimate that n_draws mixture coins hit every component.

    Returns (p_hat, std_err).  This is the coupon-collector event behind the
    non-targeted count n*.
    """
    probs = np.asarray(probs, dtype=float)
    rng = substream(seed, 0)
    coins = _coin_rule(np.cumsum(probs), rng.random((n_trials, n_draws)))
    covered = np.ones(n_trials, dtype=bool)
    for t in range(len(probs)):
        covered &= (coins == t).any(axis=1)
    p_hat = float(covered.mean())
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_trials)
    return p_hat, se


def evaluate_plan(
    market: MarketModel, plan: AugmentationPlan, cfg: EstimatorConfig
) -> RevenueEstimate:
    """MC revenue of the mechanism a plan prescribes."""
    if plan.strategy in (TARGETED, HR_DOMINANT):
        return estimate_mc(market, SecondPrice(), plan.extras, cfg)
    if plan.strategy in (NONTARGETED, NONTARGETED_HR):
        return estimate_mc(market.extended(plan.count), SecondPrice(), (), cfg)
    if plan.strategy == ANON_RESERVE:
        return estimate_mc(market, SecondPriceAnonymousReserve(plan.reserve), (), cfg)
    if plan.strategy == SAMPLE_RESERVE:
        mech = SecondPriceSampleReserve(tuple(range(market.k)))
        return estimate_mc(market, mech, (), cfg)
    if plan.strategy == RANDOM_SUBSET:
        return estimate_mc(market, SecondPriceSubsetReserve(plan.subset), (), cfg)
    if plan.strategy == NO_RESERVE:
        return estimate_mc(market, SecondPrice(), (), cfg)
    raise ValueError(f"unknown strategy {plan.strategy!r}")
