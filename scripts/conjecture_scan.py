#!/usr/bin/env python3
"""Probe how orthonormal-basis kets relate in weight space.

Two experiments:
  1. Haar-random bases: classify every ket pair as same weight point,
     antipodal, or neither, and count pairs with equal unsigned weights.
  2. The closed four-basis construction over a (delta, gamma) grid:
     verify every basis keeps all three kets on one weight point, and
     report the worst unbiasedness / weight-cycle deviations seen.

The contrast is the point: random bases essentially never share weight
points, while the closed construction always does.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from qutrit_bloch import geometry, mub


def haar_experiment(trials: int, seed: int, tol: float) -> dict:
    report = geometry.conjecture1_explore(trials, seed, tol=tol)
    report["fraction_neither"] = report["neither"] / (3 * trials)
    return report


def closed_family_experiment(side: int) -> dict:
    grid = np.linspace(0.0, 2.0 * np.pi, side, endpoint=False)
    worst_overlap = 0.0
    worst_cycle = 0.0
    worst_weight_spread = 0.0
    cycle = [3, 1, 0, 2]
    for delta in grid:
        for gamma in grid:
            fam = mub.four_mubs(float(delta), float(gamma))
            kets = [np.array([k.amplitudes for k in basis]) for basis in fam.bases]
            for a in range(4):
                for b in range(a + 1, 4):
                    ov = np.abs(kets[a] @ kets[b].conj().T) ** 2
                    worst_overlap = max(
                        worst_overlap, float(np.max(np.abs(ov - 1.0 / 3.0)))
                    )
            wp = np.array(fam.weight_points)
            for src, dst in ((1, 2), (2, 3), (3, 1)):
                worst_cycle = max(
                    worst_cycle, float(np.max(np.abs(wp[dst] - wp[src][cycle])))
                )
            for basis, point in zip(fam.bases, fam.weight_points):
                for ket in basis:
                    dev = np.abs(np.abs(np.array(ket.bloch.n)) - np.array(point))
                    worst_weight_spread = max(worst_weight_spread, float(dev.max()))
    return {
        "grid": side,
        "families": side * side,
        "worst_unbiasedness_deviation": worst_overlap,
        "worst_weight_cycle_deviation": worst_cycle,
        "worst_within_basis_weight_spread": worst_weight_spread,
    }


def run(args: argparse.Namespace) -> dict:
    report = {
        "haar_random_bases": haar_experiment(args.trials, args.seed, args.tol),
        "closed_four_basis_construction": closed_family_experiment(args.grid),
    }
    text = json.dumps(report, indent=2, default=float)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=2_000,
                    help="Haar-random bases to classify (default 2000)")
    ap.add_argument("--grid", type=int, default=24,
                    help="(delta, gamma) grid side for the closed families")
    ap.add_argument("--seed", type=int, default=0xB10C)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--out", type=Path, default=None, help="write JSON here")
    run(ap.parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
