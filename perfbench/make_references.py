"""Regenerate references.json: Monte Carlo values for exact-routes' rows.

    PYTHONPATH=src python3 perfbench/make_references.py

Each exact-routes quadrature row is checked against a Monte Carlo estimate of
the same quantity at 4 standard errors: thm1-sweep's recipe rows for the
market rows, and `estimate_mc` on the twelve pinned bidders for the wide rows.
Run it on the commit whose values should serve as the reference; it takes
about 25 s on a 2-core Xeon.
"""

import json
import os
import subprocess

import auction_lab as al
import numpy as np

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    seed = wl.ACCEPTANCE_SEED
    sweep = wl.run_sweep(al, "thm1-sweep", seed, wl.EXACT_MARKETS)
    rows = {
        r.mechanism: [r.mean, r.std_err] for r in sweep.rows if ":sp_plus_" in r.mechanism
    }
    dists = wl.wide_dists(al)
    market = al.build_market(dists, np.eye(len(dists)))
    cfg = al.EstimatorConfig(seed=seed, n_samples=wl.N_SAMPLES, n_streams=wl.N_STREAMS)
    mechs = {
        f"wide{wl.WIDE_BIDDERS}:sp": al.SecondPrice(),
        f"wide{wl.WIDE_BIDDERS}:sp_reserve": al.SecondPriceAnonymousReserve(wl.WIDE_RESERVE),
    }
    for name, mech in mechs.items():
        est = al.estimate_mc(market, mech, (), cfg)
        rows[name] = [est.mean, est.std_err]
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=HERE
    ).stdout.strip()
    payload = {
        str(seed): {
            "commit": commit or None,
            "n_samples": wl.N_SAMPLES,
            "n_streams": wl.N_STREAMS,
            "rows": rows,
        }
    }
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
