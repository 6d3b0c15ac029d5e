"""Origin-centered coordinate sections of the qutrit state body.

Fixing all but one, two, or three of the four weights at zero cuts the
feasible region with a coordinate subspace.  Every function here returns
the section value on the 6 * a3 scale, i.e. (2/9) * (reduced bracket):

    one:    (2/9) (1 - 3 n^2 + 2 n^3 cos 3t)         -- same on all axes
    two:    (2/9) (1 - 3 ni^2 - 3 nj^2
                     + 2 ni^3 cos 3ti + 2 nj^3 cos 3tj)  -- same on all pairs
    three:  four distinct expressions, one per retained axis triple,
            differing in the sign and phase of the single cross term.

`scan` rasterizes a section into CSV-ready rows, either at fixed angles,
on an (n, theta) grid (one-axis sections), or maximizing over the
section's own angles with one `positivity.max_a3_batch` call over every
in-ball point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from . import positivity
from .errors import BadSelector, OutsideSphere

__all__ = [
    "SectionSpec",
    "one_section_a3",
    "one_section_window",
    "two_section_a3",
    "two_section_point_ok",
    "three_section_a3",
    "THREE_SECTION_AXES",
    "scan",
    "write_csv",
]

_FEASIBLE_TOL = 1e-12

# which retained-axis triple (1-based) each three-section selector means,
# with the sign and phase of its cross term
THREE_SECTION_AXES = {
    1: ((1, 2, 3), +1.0, -math.pi / 3.0),
    2: ((1, 2, 4), +1.0, +math.pi / 3.0),
    3: ((1, 3, 4), -1.0, 0.0),
    4: ((2, 3, 4), +1.0, +math.pi / 3.0),
}

# how the cross-term angle combines the three thetas, per selector
_THREE_SECTION_THETA_SIGNS = {
    1: (+1.0, -1.0, +1.0),
    2: (+1.0, +1.0, +1.0),
    3: (+1.0, -1.0, -1.0),
    4: (+1.0, +1.0, -1.0),
}


def one_section_a3(n: float, theta: float) -> float:
    """Section value with a single nonzero weight."""
    if abs(n) > 1.0 + 1e-12:
        raise OutsideSphere(f"|n| = {abs(n):.6f} exceeds 1")
    return (2.0 / 9.0) * (1.0 - 3.0 * n * n + 2.0 * n ** 3 * math.cos(3.0 * theta))


def one_section_window(n: float) -> list[tuple[float, float]]:
    """Angles theta in [0, pi] keeping the one-axis section nonnegative.

    The whole range for |n| <= 1/2; otherwise intervals of half-width
    zeta = arccos(-1/(2|n|)) - 2 pi / 3 around the cube-term optima.
    """
    if abs(n) > 1.0 + 1e-12:
        raise OutsideSphere(f"|n| = {abs(n):.6f} exceeds 1")
    if abs(n) <= 0.5:
        return [(0.0, math.pi)]
    zeta = math.acos(-1.0 / (2.0 * abs(n))) - 2.0 * math.pi / 3.0
    third = math.pi / 3.0
    if n > 0:
        return [(0.0, zeta), (2.0 * third - zeta, 2.0 * third + zeta)]
    return [(third - zeta, third + zeta), (math.pi - zeta, math.pi)]


def two_section_a3(ni: float, nj: float, thetai: float, thetaj: float) -> float:
    """Section value with two nonzero weights (cross terms all vanish)."""
    if ni * ni + nj * nj > 1.0 + 1e-12:
        raise OutsideSphere(f"ni^2 + nj^2 = {ni * ni + nj * nj:.6f} exceeds 1")
    return (2.0 / 9.0) * (
        1.0
        - 3.0 * (ni * ni + nj * nj)
        + 2.0 * ni ** 3 * math.cos(3.0 * thetai)
        + 2.0 * nj ** 3 * math.cos(3.0 * thetaj)
    )


def two_section_point_ok(ni: float, nj: float) -> bool:
    """Feasibility of a two-axis weight point: the angle maximum of the
    section (`positivity.closed_form_max`) must be nonnegative."""
    if ni * ni + nj * nj > 1.0 + 1e-12:
        raise OutsideSphere(f"ni^2 + nj^2 = {ni * ni + nj * nj:.6f} exceeds 1")
    a3, _theta = positivity.closed_form_max((ni, nj, 0.0, 0.0))
    return 27.0 * float(a3[0]) >= -_FEASIBLE_TOL


def three_section_a3(which: int, n: Sequence[float], theta: Sequence[float]) -> float:
    """Section value on the selected three-axis subspace (selector 1-4,
    ordered by the omitted axis: 4, 3, 2, 1 respectively)."""
    if which not in THREE_SECTION_AXES:
        raise BadSelector(f"three-section selector must be 1..4, got {which!r}")
    n = tuple(float(v) for v in n)
    theta = tuple(float(t) for t in theta)
    if len(n) != 3 or len(theta) != 3:
        raise ValueError("three-section takes three weights and three angles")
    if sum(v * v for v in n) > 1.0 + 1e-12:
        raise OutsideSphere("weight point outside the unit sphere")
    _axes, sign, phase = THREE_SECTION_AXES[which]
    tsign = _THREE_SECTION_THETA_SIGNS[which]
    cubes = sum(2.0 * v ** 3 * math.cos(3.0 * t) for v, t in zip(n, theta))
    cross_angle = sum(s * t for s, t in zip(tsign, theta)) + phase
    cross = 6.0 * sign * n[0] * n[1] * n[2] * math.cos(cross_angle)
    return (2.0 / 9.0) * (1.0 - 3.0 * sum(v * v for v in n) + cubes + cross)


# --- grid scans ----------------------------------------------------------


@dataclass(frozen=True)
class SectionSpec:
    """A rasterization request for one section.

    kind: "one" | "two" | "three"; axes: the retained weight axes
    (1-based, distinct); resolution: grid points per weight axis;
    theta_policy: "grid" (one-axis only: raster (n, theta) jointly),
    "fixed" (evaluate at theta_values), or "maximize" (search the
    section's angles per weight point); grid_steps/refine tune the
    maximize search.
    """

    kind: str
    axes: tuple[int, ...]
    resolution: int = 101
    theta_policy: str = "maximize"
    theta_values: tuple[float, ...] = ()
    grid_steps: int = 8
    refine: bool = True

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
        if self.grid_steps < 1:
            raise ValueError("grid_steps must be at least 1")
        if self.theta_policy not in ("grid", "fixed", "maximize"):
            raise ValueError(f"theta_policy must be grid|fixed|maximize, got {self.theta_policy!r}")
        if self.theta_policy == "grid" and self.kind != "one":
            raise ValueError("theta_policy 'grid' only applies to one-axis sections")
        if self.theta_policy == "fixed" and len(self.theta_values) != len(self.axes):
            raise ValueError("fixed policy needs one theta per axis")


def _section_value(spec: SectionSpec, nvals: Sequence[float], tvals: Sequence[float]) -> float:
    if spec.kind == "one":
        return one_section_a3(nvals[0], tvals[0])
    if spec.kind == "two":
        return two_section_a3(nvals[0], nvals[1], tvals[0], tvals[1])
    which = next(w for w, (axes, _s, _p) in THREE_SECTION_AXES.items() if axes == tuple(sorted(spec.axes)))
    order = np.argsort(spec.axes)
    ns = [nvals[i] for i in order]
    ts = [tvals[i] for i in order]
    return three_section_a3(which, ns, ts)


def scan(spec: SectionSpec) -> tuple[list[str], list[tuple]]:
    """Rasterize the section; returns (header, rows) with rows in
    row-major order over the weight axes (then theta for "grid")."""
    grid = np.linspace(-1.0, 1.0, spec.resolution)
    names = [f"n{a}" for a in spec.axes]
    rows: list[tuple] = []

    if spec.theta_policy == "grid":
        header = [names[0], f"theta{spec.axes[0]}", "feasible", "a3_max"]
        tgrid = np.linspace(0.0, math.pi, spec.resolution)
        for n in grid:
            for t in tgrid:
                val = one_section_a3(float(n), float(t))
                rows.append((float(n), float(t), int(val >= -_FEASIBLE_TOL), val))
        return header, rows

    header = names + ["feasible", "a3_max"]
    meshes = np.meshgrid(*([grid] * len(spec.axes)), indexing="ij")
    points = np.stack([m.ravel() for m in meshes], axis=-1)
    inside = np.sum(points * points, axis=1) <= 1.0 + 1e-12
    if spec.theta_policy == "maximize":  # over the section's own angles
        padded = np.zeros((int(inside.sum()), 4))
        padded[:, [a - 1 for a in spec.axes]] = points[inside]
        found = positivity.max_a3_batch(padded, grid_steps=spec.grid_steps, refine=spec.refine,
                                        tol=_FEASIBLE_TOL / 6.0)
        maxima = iter(6.0 * found.a3)
    for point, ok in zip(points, inside):
        if not ok:
            rows.append(tuple(float(v) for v in point) + (0, math.nan))
            continue
        if spec.theta_policy == "fixed":
            val = _section_value(spec, point, spec.theta_values)
        else:
            val = next(maxima)
        rows.append(tuple(float(v) for v in point) + (int(val >= -_FEASIBLE_TOL), float(val)))
    return header, rows


def write_csv(header: Iterable[str], rows: Iterable[tuple], stream: IO[str]) -> None:
    """CSV with 17-significant-digit floats (lossless round trip)."""
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(v) for v in row) + "\n")


def _format_cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".17g")
