#!/usr/bin/env python3
"""Summarize the random-state ensembles against their target densities.

For each requested measure the script samples states, reports moment
statistics (purity, radius, determinant), bins the eigenvalue
distribution, and re-runs the closed-form identity checks on fresh
draws.  Output is a JSON report plus one eigenvalue-histogram CSV per
measure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from qutrit_bloch import ensembles


IDENTITY_COUNT = 2_000  # fresh draws for the closed-form identity checks


def measure_report(args: argparse.Namespace, measure: str) -> dict:
    batch = ensembles.sample_batch(measure, args.count, args.seed)
    eigs = batch.eigs.ravel()
    min_eig = batch.eigs.min(axis=1)

    edges = np.linspace(0.0, 1.0, args.bins + 1)
    hist, _ = np.histogram(eigs, bins=edges)
    csv_path = args.out_dir / f"eig_hist_{measure}.csv"
    with csv_path.open("w") as stream:
        stream.write("bin_lo,bin_hi,count,density\n")
        width = 1.0 / args.bins
        for k in range(args.bins):
            dens = hist[k] / (eigs.size * width)
            stream.write(f"{edges[k]:.17g},{edges[k+1]:.17g},{hist[k]},{dens:.17g}\n")
    print(f"wrote {csv_path}")

    return {
        "measure": measure,
        "count": args.count,
        "seed": args.seed,
        "mean_purity": float(batch.purity.mean()),
        "std_purity": float(batch.purity.std()),
        "mean_radius": float(batch.r.mean()),
        "mean_det": float(batch.det.mean()),
        "min_eig_quantiles": {
            "q05": float(np.quantile(min_eig, 0.05)),
            "q50": float(np.quantile(min_eig, 0.50)),
            "q95": float(np.quantile(min_eig, 0.95)),
        },
        "eig_histogram_csv": csv_path.name,
    }


def run(args: argparse.Namespace) -> dict:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    measures = args.measures.split(",")
    report = {
        "config": {
            "count": args.count,
            "bins": args.bins,
            "seed": args.seed,
            "measures": measures,
        },
        "measures": [measure_report(args, m) for m in measures],
        "identity_checks": ensembles.identity_checks(IDENTITY_COUNT, args.seed),
    }
    out = args.out_dir / "ensemble_stats.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("figures"))
    ap.add_argument("--count", type=int, default=20_000)
    ap.add_argument("--bins", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0xB10C)
    ap.add_argument("--measures", default="hs,bures",
                    help="comma-separated subset of {hs,bures}")
    report = run(ap.parse_args(argv))
    for m in report["measures"]:
        print(f"{m['measure']}: mean purity {m['mean_purity']:.4f}, "
              f"mean radius {m['mean_radius']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
