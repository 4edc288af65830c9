"""The four benchmark workloads, run inside a worker process.

Nothing here imports auction_lab at module level: the worker passes the
imported package in, and the parent process imports this module only for
the constants.

Timed executions always run the acceptance inputs (seed 20130).  The market
mix a seed draws moves a sweep's cost by about 15% and exact-routes' cost by
2x (237 to 488 profiles), which would swamp any code change; so the timed
inputs stay fixed and the `--seed` of a run draws a held-out replicate that is
checked for correctness but not timed.
"""

from __future__ import annotations

ACCEPTANCE_SEED = 20130
N_SAMPLES = 10**6
N_STREAMS = 8
HORIZON = 1e6

# Markets per timed execution: a fixed prefix of the sweep's own market list,
# sized so one execution takes 4.5-7 s on a 2-core Xeon and a 30 s run holds
# three or four of them.
SWEEP_PREFIX = {"thm1-sweep": 5, "reserve-4k-sweep": 3, "hr-lemma-sweep": 3}
REPLICATE_MARKETS = 1

EXACT_MARKETS = 20  # all of thm1-sweep's markets
EXACT_BUILTINS = ("appendix-lb", "hr09-lb", "tvsnt")
QUAD_TOL = 1e-6
WIDE_BIDDERS = 12
WIDE_RESERVE = 1.0

WORKLOADS = ("thm1-sweep", "reserve-4k-sweep", "hr-lemma-sweep", "exact-routes")


def run_sweep(al, name, seed, count):
    """The first `count` markets of a built-in sweep at its default settings.

    `run_experiment` has no market count, so this calls the sweep function it
    dispatches to and wraps the rows the same way.
    """
    rows = al.BUILTIN_EXPERIMENTS[name](seed, N_SAMPLES, N_STREAMS, HORIZON, count=count)
    return al.ExperimentReport(scenario_id=name, rows=tuple(rows), seed=seed)


def wide_dists(al):
    """Twelve regular bidders cycling through the sweep families."""
    rng = al.substream(ACCEPTANCE_SEED, 90003)
    dists = []
    for i in range(WIDE_BIDDERS):
        if i % 3 == 0:
            a = float(rng.uniform(0.0, 1.0))
            dists.append(al.Uniform(a, a + float(rng.uniform(0.5, 2.5))))
        elif i % 3 == 1:
            dists.append(al.Exponential(float(rng.uniform(0.5, 2.0))))
        else:
            dists.append(al.PowerLaw(float(rng.uniform(2.2, 3.5))))
    return dists


def _quad_row(al, mechanism, dists, reserve=None):
    est = al.expected_revenue_quadrature(dists, reserve=reserve, tol=QUAD_TOL)
    return al.ReportRow(mechanism, est.mean, est.std_err, est.n_samples, est.method)


def thm1_quadrature_rows(al, seed, count):
    """Exact counterpart of thm1-sweep's recipe rows.

    For each market, sum over index profiles q of p(q) times the quadrature
    revenue of second price on G(q) plus one extra bidder per component.
    """
    rows = []
    for idx, market in enumerate(al.random_mixture_markets(seed, count)):
        extras = list(market.components)
        mean = 0.0
        for prof in al.enumerate_profiles(market):
            dists = [market.components[t] for t in prof.q] + extras
            est = al.expected_revenue_quadrature(dists, tol=QUAD_TOL)
            mean += prof.weight * est.mean
        rows.append(
            al.ReportRow(f"m{idx:02d}:sp_plus_{market.k}_extras", mean, 0.0, 0, "quadrature")
        )
    return rows


def run_exact_routes(al):
    """Built-in exact experiments, thm1's exact counterpart and one wide call."""
    seed = ACCEPTANCE_SEED
    reports = [al.run_experiment(name, seed=seed) for name in EXACT_BUILTINS]
    rows = thm1_quadrature_rows(al, seed, EXACT_MARKETS)
    dists = wide_dists(al)
    rows.append(_quad_row(al, f"wide{WIDE_BIDDERS}:sp", dists))
    rows.append(_quad_row(al, f"wide{WIDE_BIDDERS}:sp_reserve", dists, WIDE_RESERVE))
    reports.append(al.ExperimentReport(scenario_id="exact-routes", rows=tuple(rows), seed=seed))
    return reports


def run_timed(al, workload):
    """One timed execution on the acceptance inputs; returns its reports."""
    if workload == "exact-routes":
        return run_exact_routes(al)
    return [run_sweep(al, workload, ACCEPTANCE_SEED, SWEEP_PREFIX[workload])]


def run_replicate(al, workload, seed):
    """The held-out replicate drawn from `seed`; untimed, checked only."""
    if workload == "exact-routes":
        exact = al.ExperimentReport(
            scenario_id="exact-routes",
            rows=tuple(thm1_quadrature_rows(al, seed, REPLICATE_MARKETS)),
            seed=seed,
        )
        # the Monte Carlo reference for a held-out seed is computed, not stored
        return [exact, run_sweep(al, "thm1-sweep", seed, REPLICATE_MARKETS)]
    return [run_sweep(al, workload, seed, REPLICATE_MARKETS)]
