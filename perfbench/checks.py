"""Correctness gates on the report rows a worker returns.

Every check function returns `(verdicts, problems)`: `verdicts` is a list of
`(label, ok)` pairs, one per certified inequality or stated constant, and
`problems` lists structural mismatches (row count, names) that make the run
incorrect without being a verdict.  Inequalities are recomputed here from the
rows' means and standard errors rather than read off the verdict column.
"""

from __future__ import annotations

import math
import re

import workloads as wl

# Per market, in row order: (name pattern after "mNN:", carries a verdict)
SWEEP_ROWS = {
    "thm1-sweep": (("benchmark", False), (r"sp_plus_\d+_extras", True)),
    "reserve-4k-sweep": (("benchmark", False), (r"sp_reserve_\S+", True)),
    "hr-lemma-sweep": (
        ("benchmark", False),
        ("sp_plus_dominant_extra", True),
        ("eq5_virtual_of_diverging_winner", True),
        ("eq6_pointwise_price_dominance", True),
    ),
}
_FACTOR_BOUND = re.compile(r"benchmark <= ([0-9.]+)\*mean \+ 4se")

APPENDIX_CONDITIONAL = 0.125 + math.log(8.0)  # 1/8 + ln 8
# scenario -> row -> test on (row mean, means of the scenario's rows)
EXACT_CONSTANTS = {
    "appendix-lb": {
        "vickrey_plus_2_extras": lambda v, by: 1.54 <= v <= 1.56,  # 1.55
        "both_equal_revenue_conditional": lambda v, by: abs(v - APPENDIX_CONDITIONAL) <= 1e-3,
        "discriminating_benchmark": lambda v, by: 1.74 <= v <= 1.7501,  # 1.75
        "benchmark_over_vickrey": lambda v, by: v <= 2.0,
    },
    "hr09-lb": {
        "duplicated_vickrey": lambda v, by: abs(v - 1.5) <= 1e-3,  # 3/2
        "optimal_with_discrimination": None,
        "optimal_over_duplicated": lambda v, by: 4.0 / 3.0 - 1e-3 <= v <= 2.0,
    },
    "tvsnt": {
        "optimal_original": None,
        "targeted_two_extras": lambda v, by: v >= 0.99 * by["optimal_original"],
        "nontargeted_10_extras": lambda v, by: v < 0.35 * by["optimal_original"],
    },
}


def _by_scenario(rows, scenario):
    return [r for r in rows if r["scenario_id"] == scenario]


def _within_4se(value, reference):
    mean, std_err = reference
    return abs(value - mean) <= 4.0 * std_err


def check_sweep(name, rows, count):
    """A sweep prefix: row layout, every verdict `pass`, every bound recomputed."""
    rows = _by_scenario(rows, name)
    layout = SWEEP_ROWS[name]
    if len(rows) != len(layout) * count:
        return [], [f"{name}: {len(rows)} rows, expected {len(layout) * count}"]
    verdicts, problems = [], []
    for idx in range(count):
        market = rows[idx * len(layout) : (idx + 1) * len(layout)]
        bench = market[0]
        for row, (pattern, has_verdict) in zip(market, layout):
            label = f"{name}:{row['mechanism']}"
            if not re.fullmatch(rf"m{idx:02d}:{pattern}", row["mechanism"]):
                problems.append(f"{label}: expected m{idx:02d}:{pattern}")
                continue
            if bool(row["verdict"]) != has_verdict:
                problems.append(f"{label}: verdict column {row['verdict']!r}")
                continue
            if has_verdict:
                verdicts.append((label, row["verdict"] == "pass" and _bound_holds(row, bench)))
    return verdicts, problems


def _bound_holds(row, bench):
    bound = row["bound_tested"]
    mean, se = row["mean"], row["std_err"]
    factor = _FACTOR_BOUND.fullmatch(bound)
    if factor:
        f = float(factor.group(1))
        combined = math.sqrt(bench["std_err"] ** 2 + (f * se) ** 2)
        return bench["mean"] <= f * mean + 4.0 * combined
    if bound == "mean >= -4se":
        return mean is None or mean >= -4.0 * se
    if bound == "pass rate == 1.0":
        return mean == 1.0
    return False


def check_exact_routes(rows, references):
    """Stated constants of the exact built-ins; quadrature rows vs stored MC."""
    verdicts, problems = [], []
    for scenario, tests in EXACT_CONSTANTS.items():
        got = _by_scenario(rows, scenario)
        if [r["mechanism"] for r in got] != list(tests):
            problems.append(f"{scenario}: rows {[r['mechanism'] for r in got]}")
            continue
        by = {r["mechanism"]: r["mean"] for r in got}
        for row in got:
            test = tests[row["mechanism"]]
            if test is not None:
                ok = row["verdict"] == "pass" and test(row["mean"], by)
                verdicts.append((f"{scenario}:{row['mechanism']}", ok))
    verdicts_q, problems_q = _check_quadrature(_by_scenario(rows, "exact-routes"), references)
    return verdicts + verdicts_q, problems + problems_q


def _check_quadrature(rows, references):
    names = [r["mechanism"] for r in rows]
    if names != list(references):
        return [], [f"exact-routes: rows {names}, expected {list(references)}"]
    return [
        (f"exact-routes:{r['mechanism']}", _within_4se(r["mean"], references[r["mechanism"]]))
        for r in rows
    ], []


def check_replicate(workload, rows):
    """The held-out replicate: same gates, references computed in the run."""
    if workload != "exact-routes":
        return check_sweep(workload, rows, wl.REPLICATE_MARKETS)
    verdicts, problems = check_sweep("thm1-sweep", rows, wl.REPLICATE_MARKETS)
    references = {
        r["mechanism"]: (r["mean"], r["std_err"])
        for r in _by_scenario(rows, "thm1-sweep")
        if ":sp_plus_" in r["mechanism"]
    }
    verdicts_q, problems_q = _check_quadrature(_by_scenario(rows, "exact-routes"), references)
    return verdicts + verdicts_q, problems + problems_q


def check_timed(workload, rows, references):
    if workload == "exact-routes":
        return check_exact_routes(rows, references)
    return check_sweep(workload, rows, wl.SWEEP_PREFIX[workload])


def rel_se_max(rows):
    """Largest relative uncertainty over the estimate rows.

    A Monte Carlo row counts std_err/|mean|.  A quadrature row the benchmark
    requested counts QUAD_TOL/|mean|, the absolute tolerance it asked for
    (a p(q)-weighted sum over profiles keeps that bound).  Exact rows, and
    quadrature rows of the built-ins, whose tolerance is internal, count 0.
    """
    worst = 0.0
    for r in rows:
        if r["mean"] is None or r["mean"] == 0.0:
            continue
        if r["method"] == "mc":
            worst = max(worst, r["std_err"] / abs(r["mean"]))
        elif r["method"] == "quadrature" and r["scenario_id"] == "exact-routes":
            worst = max(worst, wl.QUAD_TOL / abs(r["mean"]))
    return worst
