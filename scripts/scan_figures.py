#!/usr/bin/env python3
"""Rasterize the section-geometry figures into CSV files.

Produces, for a chosen resolution:
  * one_axis_grid.csv      - joint (n, theta) feasibility raster on one axis
  * one_axis_windows.csv   - closed-form feasible-angle windows per weight
  * two_axis_map.csv       - angle-maximized feasibility over two weights
  * three_axis_<k>.csv     - the four three-weight sections, angles maximized

Each CSV round-trips losslessly (17 significant digits) and carries a
`feasible` indicator column, so plotting is a straight pivot.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from qutrit_bloch import sections


WINDOW_SAMPLES = 451  # weights n in [-1, 1] at which the windows are tabulated


def write_scan(out_dir: Path, name: str, spec: sections.SectionSpec) -> Path:
    header, rows = sections.scan(spec)
    path = out_dir / name
    with path.open("w") as stream:
        sections.write_csv(header, rows, stream)
    print(f"wrote {path} ({len(rows)} rows)")
    return path


def write_windows(out_dir: Path) -> Path:
    """Tabulate the closed-form feasible-angle windows on a single axis."""
    path = out_dir / "one_axis_windows.csv"
    with path.open("w") as stream:
        stream.write("n,window_index,theta_lo,theta_hi\n")
        for n in np.linspace(-1.0, 1.0, WINDOW_SAMPLES):
            if n == 0.0:
                continue
            for k, (lo, hi) in enumerate(sections.one_section_window(float(n))):
                stream.write(
                    f"{float(n):.17g},{k},{lo:.17g},{hi:.17g}\n"
                )
    print(f"wrote {path}")
    return path


def run(out_dir: Path, resolution: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)

    write_scan(
        out_dir,
        "one_axis_grid.csv",
        sections.SectionSpec(
            kind="one", axes=(1,), resolution=resolution, theta_policy="grid"
        ),
    )
    write_windows(out_dir)
    write_scan(
        out_dir,
        "two_axis_map.csv",
        sections.SectionSpec(
            kind="two",
            axes=(1, 2),
            resolution=resolution,
            theta_policy="maximize",
        ),
    )
    for which, (axes, _sign, _phase) in sections.THREE_SECTION_AXES.items():
        write_scan(
            out_dir,
            f"three_axis_{which}.csv",
            sections.SectionSpec(
                kind="three",
                axes=axes,
                resolution=max(41, resolution // 4),
                theta_policy="maximize",
            ),
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("figures"))
    ap.add_argument("--resolution", type=int, default=201,
                    help="grid points per weight axis (default 201)")
    args = ap.parse_args(argv)
    run(args.out_dir, args.resolution)
    return 0


if __name__ == "__main__":
    sys.exit(main())
