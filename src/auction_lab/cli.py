"""Command-line front end.

Subcommands:

    simulate <scenario>   MC-estimate the scenario's mechanism revenue
    plan <scenario>       run every recipe of planner.RECIPES on the scenario market
    check-hr <scenario>   pairwise hazard-rate dominance certificate
    ratio <scenario>      coin-observing benchmark vs the scenario mechanism
    reproduce <name>      run a built-in experiment

Flags: --out PATH; all but check-hr add --seed, --samples and --streams;
simulate, ratio and reproduce add --format {csv,json-lines,text-table},
reproduce --horizon.  The seed comes from --seed, then the scenario file,
then the AUCTION_LAB_SEED environment variable; there is no wall-clock
fallback.  check-hr draws nothing and needs no seed.
A negative seed, a count below 1 or a horizon that is not a finite
positive number is an error, as is a command line that does not parse.
A warning prints as one `warning: <category>: <message>` line.

Exit codes: 0 when every verdict passes, 2 when a verdict fails, 1 on any
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import replace

from .distributions import hr_crossing
from .errors import AuctionLabError, NoDominantComponent, SchemaError
from .experiments import DEFAULT_HORIZON, run_experiment
from .planner import RECIPES, evaluate_plan, plan_hr_dominant
from .reports import ExperimentReport, ReportRow, emit_report, estimate_row, write_output
from .revenue import approximation_ratio, discriminating_benchmark, estimate_mc
from .scenario import parse_scenario

__all__ = ["main"]

SEED_ENV_VAR = "AUCTION_LAB_SEED"


class _Parser(argparse.ArgumentParser):
    """Raises SchemaError where argparse would exit 2, the failed-verdict code."""

    def error(self, message):
        raise SchemaError(self.prog, message)


def _build_parser():
    parser = _Parser(
        prog="auction-lab",
        description="revenue simulation for auctions with mixture-of-regular bidders",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "plan", "check-hr", "ratio", "reproduce"):
        p = sub.add_parser(name)
        if name == "reproduce":
            p.add_argument("name", help="built-in experiment name")
            p.add_argument("--horizon", type=float, default=DEFAULT_HORIZON)
        else:
            p.add_argument("scenario", help="path to a scenario JSON file")
        if name != "check-hr":
            for flag in ("--seed", "--samples", "--streams"):
                p.add_argument(flag, type=int, default=None)
        p.add_argument("--out", default=None)
        if name in ("simulate", "ratio", "reproduce"):
            p.add_argument("--format", choices=("csv", "json-lines", "text-table"), default="csv")
    return parser


def _check_flags(args):
    for flag, minimum in (("seed", 0), ("samples", 1), ("streams", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < minimum:
            raise SchemaError(f"--{flag}", f"expected an integer >= {minimum}")


def _env_seed():
    raw = os.environ.get(SEED_ENV_VAR)
    # str.isdigit accepts non-ASCII digits such as "²", which int() refuses
    if raw and not (raw.isascii() and raw.isdigit()):
        raise SchemaError(SEED_ENV_VAR, "expected an integer >= 0")
    return int(raw) if raw else None


def _read_scenario(args):
    with open(args.scenario, encoding="utf-8") as fh:
        return fh.read()


def _load_scenario(args):
    default_seed = args.seed if args.seed is not None else _env_seed()
    config = parse_scenario(_read_scenario(args), default_seed=default_seed)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["n_samples"] = args.samples
    if args.streams is not None:
        overrides["n_streams"] = args.streams
    if overrides:
        config = replace(config, estimator=replace(config.estimator, **overrides))
    return config


def _emit(args, report: ExperimentReport) -> int:
    write_output(emit_report(report, args.format), args.out)
    return 0 if report.passed else 2


def _emit_scenario(args, config, rows) -> int:
    report = ExperimentReport(
        scenario_id=config.scenario_id, rows=tuple(rows), seed=config.estimator.seed
    )
    return _emit(args, report)


def _mechanism_estimate(config):
    """MC estimate of the scenario's mechanism and its row, labelled by kind."""
    est = estimate_mc(config.market, config.mechanism, config.extras, config.estimator)
    return est, estimate_row(config.kind, est)


def _cmd_simulate(args) -> int:
    config = _load_scenario(args)
    _, row = _mechanism_estimate(config)
    return _emit_scenario(args, config, (row,))


def _cmd_ratio(args) -> int:
    config = _load_scenario(args)
    bench = discriminating_benchmark(config.market)
    simple, row = _mechanism_estimate(config)
    ratio = approximation_ratio(bench, simple)
    rows = (
        estimate_row("benchmark", bench),
        row,
        ReportRow("benchmark_over_mechanism", ratio.ratio, ratio.std_err, 0, "ratio"),
    )
    return _emit_scenario(args, config, rows)


def _cmd_plan(args) -> int:
    config = _load_scenario(args)
    market = config.market
    cfg = config.estimator
    records = []
    # each recipe is skipped on its own preconditions only
    plans = []
    for strategy, fn in RECIPES:
        try:
            plans.append(fn(market))
        except AuctionLabError as exc:
            records.append({"strategy": strategy, "skipped": f"{type(exc).__name__}: {exc}"})
    for plan in plans:
        evidence = evaluate_plan(market, plan, cfg)
        subset = getattr(plan.mechanism, "subset", None)
        records.append(
            {
                "strategy": plan.strategy,
                "guarantee_factor": plan.guarantee_factor,
                "extras": [
                    getattr(e, "index", getattr(e, "value", None)) for e in plan.extras
                ],
                "reserve": getattr(plan.mechanism, "reserve", None),
                "reserve_component": plan.reserve_component,
                "count": plan.count,
                "subset": list(subset) if subset else None,
                "assumptions": [
                    {"name": a.name, "verified": a.verified, "detail": a.detail}
                    for a in plan.assumptions
                ],
                "evidence_mean": evidence.mean,
                "evidence_std_err": evidence.std_err,
                "evidence_n_samples": evidence.n_samples,
                "seed": cfg.seed,
            }
        )
    payload = "\n".join(json.dumps(r, sort_keys=False) for r in records) + "\n"
    write_output(payload.encode(), args.out)
    return 0


def _cmd_check_hr(args) -> int:
    # the certificate draws nothing, so a missing seed is no error: 0 stands in
    config = parse_scenario(_read_scenario(args), default_seed=0)
    comps = config.market.components
    matrix = []
    for i in range(len(comps)):
        row = []
        for j in range(len(comps)):
            if i == j:
                row.append(True)
            else:
                row.append(hr_crossing(comps[i], comps[j]) is None)
        matrix.append(row)
    record = {
        "components": [str(c) for c in comps],
        "dominates": matrix,
    }
    try:
        plan = plan_hr_dominant(config.market)
        record["dominant_component"] = plan.reserve_component
    except NoDominantComponent as exc:
        record["dominant_component"] = None
        record["first_crossing"] = list(exc.crossing) if exc.crossing else None
    write_output((json.dumps(record, indent=2) + "\n").encode(), args.out)
    return 0


def _cmd_reproduce(args) -> int:
    if not (math.isfinite(args.horizon) and args.horizon > 0.0):
        raise SchemaError("--horizon", "expected a finite number > 0")
    seed = args.seed if args.seed is not None else _env_seed()
    report = run_experiment(
        args.name,
        seed=seed,
        n_samples=args.samples,
        n_streams=args.streams,
        horizon=args.horizon,
    )
    return _emit(args, report)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "plan": _cmd_plan,
    "check-hr": _cmd_check_hr,
    "ratio": _cmd_ratio,
    "reproduce": _cmd_reproduce,
}


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            args = _build_parser().parse_args(argv)
            _check_flags(args)
            return _COMMANDS[args.command](args)
        except AuctionLabError as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
