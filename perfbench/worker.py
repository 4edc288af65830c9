"""One benchmark execution in a process of its own; prints one JSON line.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --mode MODE --seed N

MODE is `timed` (tracing off, speed probe on; see probe.py), `traced` (spans
around each module's public functions) or `replicate` (the held-out inputs
drawn from --seed, untimed).
The first statements import the package, so the parent can take set-up time
as spawn-to-import on the shared monotonic clock.
"""

import time

import auction_lab as al

SETUP_DONE = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import ROOT, Tracer  # noqa: E402


def _rows(reports):
    return [
        {
            "scenario_id": rep.scenario_id,
            "mechanism": row.mechanism,
            "mean": row.mean,
            "std_err": row.std_err,
            "n_samples": row.n_samples,
            "method": row.method,
            "bound_tested": row.bound_tested,
            "verdict": row.verdict,
        }
        for rep in reports
        for row in rep.rows
    ]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--mode", required=True, choices=("timed", "traced", "replicate"))
    parser.add_argument("--seed", type=int, default=workloads.ACCEPTANCE_SEED)
    args = parser.parse_args()

    tracer = Tracer() if args.mode == "traced" else None
    probe = SpeedProbe() if args.mode == "timed" else None
    if tracer is not None:
        tracer.install()
        root = tracer.open(ROOT)
    if probe is not None:
        probe.start()
    start = time.perf_counter()
    if args.mode == "replicate":
        reports = workloads.run_replicate(al, args.workload, args.seed)
    else:
        reports = workloads.run_timed(al, args.workload)
    data = b"".join(al.emit_report(rep) for rep in reports)
    wall_s = time.perf_counter() - start
    result = {"restored": True, "trace": None, "wall_ref_s": None, "probe": None}
    if probe is not None:
        probe.stop()
        wall_s = probe.wall_s()  # without the probe kernels' own time
        result.update(wall_ref_s=probe.rescaled_s(), probe=probe.summary())
    if tracer is not None:
        tracer.close(root)
        result["restored"] = tracer.restore()
        result["trace"] = tracer.metrics()

    result.update(
        setup_done=SETUP_DONE,
        wall_s=wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        report_sha256=hashlib.sha256(data).hexdigest(),
        report_bytes=len(data),
        rows=_rows(reports),
        package_file=al.__file__,
        versions={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
