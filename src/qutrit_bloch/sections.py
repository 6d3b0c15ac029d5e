"""Origin-centered coordinate sections of the qutrit state body.

Fixing all but one, two, or three of the four weights at zero cuts the
feasible region with a coordinate subspace.  Section values are on the
6 * a3 scale, i.e. (2/9) * (bracket), and every one is the bracket's
wave form (`positivity._wave_value`) on zero-padded weights and angles:

    one:    (2/9) (1 - 3 n^2 + 2 n^3 cos 3t)         -- same on all axes
    two:    (2/9) (1 - 3 ni^2 - 3 nj^2
                     + 2 ni^3 cos 3ti + 2 nj^3 cos 3tj)  -- same on all pairs
    three:  four distinct expressions, one per retained axis triple,
            differing in the sign and phase of the single cross term.

The three-axis selectors, and the sign and phase of each one's cross
term, are read off the bracket's one table of cross terms,
`positivity._CROSS_TERMS`: selectors 1-4 are its weight triples in
sorted order.

`scan` rasterizes a section into a columnar `SectionRaster`, either at
fixed angles, on an (n, theta) grid (one-axis sections), or maximizing
over the section's own angles with one `positivity.max_a3_batch` call
over every in-ball point; `write_csv` formats it.  `one_section_window`
gives the one-axis section's feasible angles in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from . import positivity
from .errors import OutsideSphere

__all__ = [
    "SectionSpec",
    "one_section_window",
    "THREE_SECTION_AXES",
    "SectionRaster",
    "scan",
    "write_csv",
]

_FEASIBLE_TOL = 1e-12
_BALL_SLACK = 1e-12  # |n|^2 up to 1 + this counts as inside the unit ball

# which retained-axis triple (1-based) each three-section selector means,
# with the sign and phase of its cross term: the bracket's cross terms in
# sorted order, so selectors 1-4 drop axis 4, 3, 2, 1 in turn
THREE_SECTION_AXES = {
    which: (tuple(i + 1 for i in axes), sign, phase)
    for which, (axes, sign, _tsign, phase) in enumerate(sorted(positivity._CROSS_TERMS), start=1)
}


def one_section_window(n: float) -> list[tuple[float, float]]:
    """Angles theta in [0, pi] keeping the one-axis section nonnegative.

    The whole range for |n| <= 1/2; otherwise intervals of half-width
    zeta = arccos(-1/(2|n|)) - 2 pi / 3 around the cube-term optima.
    """
    if not math.isfinite(n):
        raise ValueError(f"section weight must be finite, got {n!r}")
    if abs(n) > 1.0 + _BALL_SLACK:
        raise OutsideSphere(f"|n| = {abs(n):.6f} exceeds 1")
    if abs(n) <= 0.5:
        return [(0.0, math.pi)]
    zeta = math.acos(-1.0 / (2.0 * abs(n))) - 2.0 * math.pi / 3.0
    third = math.pi / 3.0
    if n > 0:
        return [(0.0, zeta), (2.0 * third - zeta, 2.0 * third + zeta)]
    return [(third - zeta, third + zeta), (math.pi - zeta, math.pi)]


# --- grid scans ----------------------------------------------------------


@dataclass(frozen=True)
class SectionSpec:
    """A rasterization request for one section.

    kind: "one" | "two" | "three"; axes: the retained weight axes
    (1-based, distinct); resolution: grid points per weight axis;
    theta_policy: "grid" (one-axis only: raster (n, theta) jointly),
    "fixed" (evaluate at theta_values), or "maximize" (search the
    section's angles per weight point).
    """

    kind: str
    axes: tuple[int, ...]
    resolution: int = 101
    theta_policy: str = "maximize"
    theta_values: tuple[float, ...] = ()

    def __post_init__(self):
        kinds = {"one": 1, "two": 2, "three": 3}
        if self.kind not in kinds:
            raise ValueError(f"kind must be one|two|three, got {self.kind!r}")
        if len(self.axes) != kinds[self.kind]:
            raise ValueError(f"{self.kind}-section needs {kinds[self.kind]} axes")
        if len(set(self.axes)) != len(self.axes) or not all(a in (1, 2, 3, 4) for a in self.axes):
            raise ValueError("axes must be distinct values from 1..4")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2")
        if self.theta_policy not in ("grid", "fixed", "maximize"):
            raise ValueError(f"theta_policy must be grid|fixed|maximize, got {self.theta_policy!r}")
        if self.theta_policy == "grid" and self.kind != "one":
            raise ValueError("theta_policy 'grid' only applies to one-axis sections")
        if self.theta_policy == "fixed" and len(self.theta_values) != len(self.axes):
            raise ValueError("fixed policy needs one theta per axis")
        if self.theta_values and self.theta_policy != "fixed":
            raise ValueError(
                f"theta values only apply to the fixed policy, not {self.theta_policy!r}")
        if not all(math.isfinite(t) for t in self.theta_values):
            raise ValueError(f"theta values must be finite, got {self.theta_values!r}")


@dataclass(frozen=True, eq=False)
class SectionRaster:
    """A rasterized section as columns, rows in row-major order over the
    weight axes (then theta for the "grid" policy).

    coords: one (grid values (R,), int index (N,)) pair per coordinate
    column, in header order; feasible: (N,) bools; a3_max: (N,) floats,
    NaN outside the unit ball; certified: (N,) bools, the angle search's
    certificate for "maximize" rows inside the ball and True elsewhere
    (the default).  len() is the row count, and iterating or indexing
    yields row tuples: the coordinates and a3_max as floats, the flag as
    0 or 1.
    """

    coords: tuple[tuple[np.ndarray, np.ndarray], ...]
    feasible: np.ndarray
    a3_max: np.ndarray
    certified: np.ndarray | None = None

    def __post_init__(self):
        if self.certified is None:
            object.__setattr__(self, "certified", np.ones(len(self.feasible), dtype=bool))

    def __len__(self) -> int:
        return len(self.feasible)

    def __getitem__(self, i: int) -> tuple:
        cells = tuple(float(grid[idx[i]]) for grid, idx in self.coords)
        return cells + (int(self.feasible[i]), float(self.a3_max[i]))

    def __iter__(self):
        cols = [grid[idx].tolist() for grid, idx in self.coords]
        return zip(*cols, self.feasible.astype(int).tolist(), self.a3_max.tolist())


def scan(spec: SectionSpec) -> tuple[list[str], SectionRaster]:
    """Rasterize the section; returns (header, raster).

    Every policy is one array pass: "maximize" is one
    `positivity.max_a3_batch` call over the in-ball points, "fixed" and
    "grid" one evaluation of the bracket's wave form on zero-padded
    weights and angles."""
    res = spec.resolution
    grids = [np.linspace(-1.0, 1.0, res)] * len(spec.axes)
    header = [f"n{a}" for a in spec.axes]
    if spec.theta_policy == "grid":
        grids.append(np.linspace(0.0, math.pi, res))
        header.append(f"theta{spec.axes[0]}")
    header += ["feasible", "a3_max"]
    coords = tuple(zip(grids, np.indices((res,) * len(grids)).reshape(len(grids), -1)))

    cols = [a - 1 for a in spec.axes]
    # |n|^2 column by column in ascending weight order, the order of
    # numpy's row sum over zero-padded (N, 4) weights, so the same bits
    r2 = 0.0
    for _col, (g, i) in sorted(zip(cols, coords), key=lambda pair: pair[0]):
        r2 = r2 + (g * g)[i]
    inside = np.flatnonzero(r2 <= 1.0 + _BALL_SLACK)
    weights = np.zeros((len(inside), 4))
    for col, (g, i) in zip(cols, coords):
        weights[:, col] = g[i[inside]]
    a3 = np.full(len(r2), math.nan)
    certified = np.ones(len(r2), dtype=bool)
    if spec.theta_policy == "maximize":  # over the section's own angles
        found = positivity.max_a3_batch(weights, tol=_FEASIBLE_TOL / 6.0)
        a3[inside] = 6.0 * found.a3
        certified[inside] = found.certified
    else:
        theta = np.zeros_like(weights)
        if spec.theta_policy == "grid":
            g, i = coords[-1]
            theta[:, cols[0]] = g[i[inside]]
        else:
            theta[:, cols] = spec.theta_values
        a3[inside] = (2.0 / 9.0) * positivity._wave_value(*positivity._wave_coefs(weights), theta)
    return header, SectionRaster(coords, a3 >= -_FEASIBLE_TOL, a3, certified)


def write_csv(header: Iterable[str], raster: SectionRaster, stream: IO[str]) -> None:
    """CSV with 17-significant-digit floats (lossless round trip): one
    object table of cells that carry their separators, joined and
    written once.  Each coordinate grid is formatted once and its cells
    picked by index; `a3_max` is formatted once per distinct float64 bit
    pattern, so -0.0 and nan keep their own text."""
    table = np.empty((len(raster), len(raster.coords) + 2), dtype=object)
    for j, (grid, idx) in enumerate(raster.coords):
        table[:, j] = np.array(["%.17g," % v for v in grid.tolist()], dtype=object)[idx]
    table[:, -2] = np.array(["0,", "1,"], dtype=object)[raster.feasible.astype(np.intp)]
    bits, cell = np.unique(np.asarray(raster.a3_max, dtype=np.float64).view(np.int64),
                           return_inverse=True)
    cells = ["%.17g\n" % v for v in bits.view(np.float64).tolist()]
    table[:, -1] = np.array(cells, dtype=object)[cell]
    stream.write(",".join(header) + "\n" + "".join(table.ravel().tolist()))
