"""auction-lab benchmark: end-to-end metrics per workload, or a traced run.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  Workloads are listed in BENCHMARK.json and
defined in workloads.py.  Every execution runs in a fresh worker process with
BLAS pinned to one thread.

`--trace 0` repeats timed executions of the acceptance inputs while they fit
in `--seconds`; it reports the median over them of the wall time rescaled to
a reference host speed (`wall_ref_s`, see probe.py), of set-up time and of
peak memory.
`--trace 1` makes one untraced and one traced execution and reports the
per-layer metrics, the trace coverage and the tracing overhead.  Both then
run the held-out replicate drawn from `--seed`.

Every run checks correctness: each verdict and stated constant holds (see
checks.py), every execution's report bytes are identical (so tracing is
neutral), traced functions are restored, and the trace covers at least 95% of
the workload span.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; provenance is printed on the
line before it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import checks
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
RUN_DEADLINE_S = 170.0
MIN_COVERAGE = 0.95


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative integers")
    return value


def _worker_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, mode, env, root, deadline):
    """One worker; returns (result, error message)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--mode", mode]
    cmd += ["--seed", str(args.seed)]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(deadline - start, 1.0)
        )
    except subprocess.TimeoutExpired:
        return None, f"{mode} worker timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"{mode} worker exited {proc.returncode}: {' | '.join(tail)}"
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["package_file"].startswith(os.path.join(root, "src") + os.sep):
        return None, f"{mode} worker imported {result['package_file']}"
    result["setup_s"] = result["setup_done"] - start
    return result, None


def _executions(args, env, root, deadline):
    """Timed executions while they fit in --seconds, or untraced then traced."""
    began = time.monotonic()
    runs = []
    for mode in ("timed", "traced") if args.trace else itertools.repeat("timed"):
        result, error = _spawn(args, mode, env, root, deadline)
        if error:
            return runs, error
        runs.append(result)
        per_run = (time.monotonic() - began) / len(runs)
        if not args.trace and (len(runs) + 1) * per_run > args.seconds:
            break
    return runs, None


def _git_commit(root):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _provenance(args, root, versions):
    cpu_model = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "commit": _git_commit(root),
        **versions,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "workload": args.workload,
        "seed": args.seed,
        "timed_inputs_seed": wl.ACCEPTANCE_SEED,
        "src_lines": src_lines,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=wl.ACCEPTANCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "auction_lab", "__init__.py")):
        print("error: src/auction_lab not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)[str(wl.ACCEPTANCE_SEED)]["rows"]

    env = _worker_env(root)
    deadline = time.monotonic() + RUN_DEADLINE_S
    runs, error = _executions(args, env, root, deadline)
    if len(runs) < (2 if args.trace else 1):
        print(f"error: {error}", file=sys.stderr)
        return 1
    errors = [error] if error else []
    replicate, error = _spawn(args, "replicate", env, root, deadline)
    if error:
        errors.append(error)

    verdicts, problems = [], list(errors)
    for run in runs:
        v, p = checks.check_timed(args.workload, run["rows"], references)
        verdicts += v
        problems += p
        if not run["restored"]:
            problems.append("a traced function was not restored")
    if replicate:
        v, p = checks.check_replicate(args.workload, replicate["rows"])
        verdicts += [(f"seed {args.seed}: {label}", ok) for label, ok in v]
        problems += [f"seed {args.seed}: {text}" for text in p]
    if len({run["report_sha256"] for run in runs}) != 1:
        problems.append("report bytes differ between executions (traced vs untraced)")
    if args.trace and runs[1]["trace"]["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"trace coverage {runs[1]['trace']['trace.coverage']:.4f} < {MIN_COVERAGE}")
    # an errored execution or a failed gate counts as one failed verdict
    attempted = len(verdicts) + len(problems)
    failed = sum(not ok for _, ok in verdicts) + len(problems)
    problems += [f"verdict failed: {label}" for label, ok in verdicts if not ok]

    if args.trace:
        untraced, traced = runs
        values = dict(traced["trace"])
        values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
        metric_specs = spec["per_layer"]
    else:
        spawns = runs + ([replicate] if replicate else [])
        values = {
            "wall_ref_s": statistics.median(r["wall_ref_s"] for r in runs),
            "setup_s": statistics.median(r["setup_s"] for r in spawns),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "rel_se_max": checks.rel_se_max(runs[0]["rows"]),
            "verdicts_passed_frac": 1.0 - failed / attempted,
        }
        metric_specs = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}

    for text in problems:
        print(f"FAIL {text}")
    print(f"executions {len(runs)}, verdicts attempted {attempted}, failed {failed}")
    if not args.trace:
        raw = statistics.median(r["wall_s"] for r in runs)
        probe_s = statistics.median(r["probe"]["probe_median_s"] for r in runs)
        print(f"raw wall_s median {raw:.6g} s, probe kernel median {probe_s * 1e6:.1f} us")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"provenance": _provenance(args, root, runs[0]["versions"])}))
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
