"""auction_lab: revenue simulation and certification for single-item auctions
whose bidders draw values from mixtures of regular distributions.

The package covers value distributions with their auction-theoretic derived
quantities (hazard rates, virtual values, revenue curves, monopoly
reserves), per-bidder mixture markets with two-stage sampling and ironing,
executable mechanisms (second price with reserves, Myerson regular and
ironed, posted-price sequences), three revenue-estimation routes (Monte
Carlo, exact order statistics, quadrature), the coin-observing optimal
benchmark, commensurateness diagnostics, and augmentation planning with
the proven guarantee factor attached to each recipe.
"""

from . import errors
from .distributions import (
    EqualRevenue,
    Exponential,
    PointMass,
    PowerLaw,
    SupportInterval,
    TruncatedNormal,
    TwoPoint,
    Uniform,
    hr_crossing,
    hr_dominates,
    regularity_check,
)
from .experiments import (
    BUILTIN_EXPERIMENTS,
    appendix_market,
    hr_ordered_markets,
    random_mixture_markets,
    run_experiment,
)
from .mechanisms import (
    AuctionOutcome,
    MyersonIroned,
    MyersonRegular,
    PostedSequence,
    SecondPrice,
    SecondPriceAnonymousReserve,
    SecondPriceBidderReserves,
    SecondPriceSubsetReserve,
    ValuationProfile,
    allocate,
    run,
)
from .mixtures import (
    IndexProfile,
    IronedCurve,
    MarketModel,
    MixtureDistribution,
    build_market,
    enumerate_profiles,
    iron,
    iron_distribution,
)
from .planner import (
    Assumption,
    AugmentationPlan,
    coverage_probability,
    evaluate_plan,
    guarantee_factor,
    nontargeted_counts,
    plan_hr_dominant,
    plan_no_reserve,
    plan_nontargeted,
    plan_nontargeted_hr,
    plan_random_subset,
    plan_sample_reserve,
    plan_targeted,
    select_anonymous_reserve,
)
from .reports import ExperimentReport, ReportRow, emit_report, parse_report_jsonl
from .revenue import (
    CommensuratenessReport,
    ComponentExtra,
    DeterministicExtra,
    EstimatorConfig,
    RatioEstimate,
    RevenueEstimate,
    approximation_ratio,
    best_posted_ladder_two_point,
    commensurateness_check,
    discriminating_benchmark,
    estimate_mc,
    expected_revenue_quadrature,
    posted_sequence_revenue_exact,
    virtual_surplus_gap,
)
from .scenario import ScenarioConfig, parse_scenario
from .streams import substream

__version__ = "0.1.0"
