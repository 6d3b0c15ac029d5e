"""Coordinate sections: the rasterizer's values against the independent
bracket and determinant, feasible-angle windows against brute scans,
and the CSV writer."""

import io
import itertools
import math

import numpy as np
import pytest

from conftest import oracle_bracket, oracle_det
from qutrit_bloch import positivity, sections
from qutrit_bloch.bloch import BlochParams, to_density
from qutrit_bloch.errors import OutsideSphere


def section_value(axes, nvals, tvals) -> float:
    """(2/9) * `oracle_bracket` with the weights and angles on the 1-based
    `axes` and zeros elsewhere: the section value on the 6*a3 scale."""
    n4, t4 = [0.0] * 4, [0.0] * 4
    for axis, n, t in zip(axes, nvals, tvals):
        n4[axis - 1], t4[axis - 1] = float(n), float(t)
    return (2.0 / 9.0) * float(oracle_bracket(n4, *t4))


# --- section values -------------------------------------------------------------


def test_three_section_selectors_match_the_determinant(rng):
    """Selector k drops axis 5 - k and carries the sign and phase of the
    bracket's cross term on its triple, and each three-axis section
    scanned at fixed angles is 6 det rho, with det from a permutation
    expansion of the hand-expanded matrix (neither reads the bracket's
    cross-term table)."""
    third = math.pi / 3.0
    assert sections.THREE_SECTION_AXES == {1: ((1, 2, 3), 1.0, -third),
                                           2: ((1, 2, 4), 1.0, third),
                                           3: ((1, 3, 4), -1.0, 0.0),
                                           4: ((2, 3, 4), 1.0, third)}
    for retained, _sign, _phase in sections.THREE_SECTION_AXES.values():
        for _ in range(2):
            ts = tuple(rng.uniform(0.0, 2.0 * math.pi, 3))
            spec = sections.SectionSpec(kind="three", axes=retained, resolution=7,
                                        theta_policy="fixed", theta_values=ts)
            _header, raster = sections.scan(spec)
            checked = 0
            for *ns, _feasible, val in raster:
                if math.isnan(val):
                    continue
                n4, t4 = [0.0] * 4, [0.0] * 4
                for k, axis in enumerate(retained):
                    n4[axis - 1], t4[axis - 1] = ns[k], ts[k]
                det = oracle_det(to_density(BlochParams.canonical(n4, t4)))
                assert abs(val - 6.0 * det.real) < 1e-14
                checked += all(ns)
            assert checked >= 32  # rows where the cross term is live


def test_sections_reject_outside_sphere():
    with pytest.raises(OutsideSphere):
        sections.one_section_window(-1.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scalar_sections_reject_non_finite_input(bad):
    """A non-finite weight raises ValueError rather than giving NaN
    windows."""
    with pytest.raises(ValueError):
        sections.one_section_window(bad)


def test_section_evenness():
    """(n, theta) and (-n, theta - pi) describe the same section value:
    a one-axis scan at theta - pi is the scan at theta read backwards."""
    for t in (0.4, 2.0, 1.0):
        rasters = [sections.scan(sections.SectionSpec(
            kind="one", axes=(2,), resolution=21, theta_policy="fixed", theta_values=(a,)))[1]
            for a in (t, t - math.pi)]
        a, b = (r.a3_max for r in rasters)
        assert np.abs(a - b[::-1]).max() < 1e-14


# --- feasible windows --------------------------------------------------------


@pytest.mark.parametrize("n", [0.2, 0.5, 0.55, 0.6, 0.8, 0.95, 1.0, -0.55, -0.7, -1.0])
def test_window_matches_brute_scan(n):
    windows = sections.one_section_window(n)
    thetas = np.linspace(0.0, math.pi, 20001)
    vals = (2.0 / 9.0) * (1.0 - 3.0 * n * n + 2.0 * n**3 * np.cos(3.0 * thetas))
    cell = thetas[1] - thetas[0]

    def in_window(t):
        return any(lo - 1e-12 <= t <= hi + 1e-12 for lo, hi in windows)

    boundary = [e for w in windows for e in w]
    for t, v in zip(thetas, vals):
        if min((abs(t - e) for e in boundary), default=math.inf) <= cell:
            continue  # adjacent to an endpoint: verdict may go either way
        assert (v >= 0.0) == in_window(t), f"n={n}, theta={t}"


def test_window_structure():
    # below the critical radius the whole angle range is feasible
    assert sections.one_section_window(0.3) == [(0.0, math.pi)]
    assert sections.one_section_window(-0.5) == [(0.0, math.pi)]
    # the half-width at n = 0.6
    zeta = math.acos(-1.0 / 1.2) - 2.0 * math.pi / 3.0
    w = sections.one_section_window(0.6)
    assert len(w) == 2
    assert abs(w[0][0] - 0.0) < 1e-15 and abs(w[0][1] - zeta) < 1e-15
    assert abs(w[1][0] - (2.0 * math.pi / 3.0 - zeta)) < 1e-15
    assert abs(w[1][1] - (2.0 * math.pi / 3.0 + zeta)) < 1e-15
    assert abs(zeta - 0.4615120077394472) < 1e-15
    # degenerate pure-limit windows collapse to points
    w1 = sections.one_section_window(1.0)
    assert abs(w1[0][0]) < 1e-15 and abs(w1[0][1]) < 1e-12
    assert abs(w1[1][0] - 2.0 * math.pi / 3.0) < 1e-12
    assert abs(w1[1][1] - 2.0 * math.pi / 3.0) < 1e-12


def test_two_section_point_matches_angle_maximum(rng):
    """Membership is the sign of the angle-maximized section value."""
    tgrid = np.linspace(0.0, 2.0 * math.pi, 1441, endpoint=False)
    ti, tj = np.meshgrid(tgrid, tgrid, indexing="ij")
    for _ in range(25):
        ni, nj = rng.uniform(-0.7, 0.7, 2)
        if ni * ni + nj * nj > 1.0:
            continue
        vals = (
            1.0
            - 3.0 * (ni * ni + nj * nj)
            + 2.0 * ni**3 * np.cos(3.0 * ti)
            + 2.0 * nj**3 * np.cos(3.0 * tj)
        )
        peak = float(np.max(vals))
        if abs(peak) < 1e-6:
            continue  # boundary: grid may not resolve the sign
        assert positivity.is_point_physical((ni, nj, 0.0, 0.0)) == (peak > 0)


def test_two_section_witness_points():
    assert positivity.is_point_physical((0.5, 0.5, 0.0, 0.0))
    assert not positivity.is_point_physical((0.6, 0.6, 0.0, 0.0))
    assert positivity.is_point_physical((0.3, 0.3, 0.0, 0.0))
    assert not positivity.is_point_physical((-0.6, 0.6, 0.0, 0.0))  # sign-independent


# --- rasterizer ----------------------------------------------------------------


def test_scan_grid_policy_shape_and_flags():
    spec = sections.SectionSpec(kind="one", axes=(2,), resolution=21, theta_policy="grid")
    header, rows = sections.scan(spec)
    assert header == ["n2", "theta2", "feasible", "a3_max"]
    assert len(rows) == 21 * 21
    for n, t, feasible, val in rows:
        assert feasible == int(val >= -1e-12)
        assert abs(val - section_value((2,), (n,), (t,))) < 1e-14


def test_scan_fixed_policy_matches_direct_eval():
    spec = sections.SectionSpec(
        kind="two", axes=(1, 3), resolution=11, theta_policy="fixed",
        theta_values=(0.2, 1.0),
    )
    header, rows = sections.scan(spec)
    assert header == ["n1", "n3", "feasible", "a3_max"]
    assert len(rows) == 121
    for n1, n3, feasible, val in rows:
        if n1 * n1 + n3 * n3 > 1.0 + 1e-12:
            assert feasible == 0 and math.isnan(val)
            continue
        assert abs(val - section_value((1, 3), (n1, n3), (0.2, 1.0))) < 1e-14


def test_scan_maximize_policy_uses_search():
    spec = sections.SectionSpec(
        kind="one", axes=(1,), resolution=9, theta_policy="maximize",
    )
    _header, rows = sections.scan(spec)
    for n1, feasible, val in rows:
        want = (2.0 / 9.0) * (1.0 - 3.0 * n1 * n1 + 2.0 * abs(n1) ** 3)
        assert abs(val - want) < 1e-10
        assert feasible == int(val >= -1e-12)


def test_scan_row_major_order():
    spec = sections.SectionSpec(
        kind="two", axes=(1, 2), resolution=3, theta_policy="fixed", theta_values=(0.0, 0.0),
    )
    _header, rows = sections.scan(spec)
    firsts = [row[0] for row in rows]
    assert firsts == [-1.0] * 3 + [0.0] * 3 + [1.0] * 3


def test_scan_three_section_axis_reordering():
    """Unsorted axes give the same values as sorted ones, tagged by the
    requested order."""
    a = sections.scan(sections.SectionSpec(
        kind="three", axes=(4, 1, 2), resolution=5, theta_policy="fixed",
        theta_values=(0.3, 0.1, 0.2),
    ))
    b = sections.scan(sections.SectionSpec(
        kind="three", axes=(1, 2, 4), resolution=5, theta_policy="fixed",
        theta_values=(0.1, 0.2, 0.3),
    ))
    assert a[0] == ["n4", "n1", "n2", "feasible", "a3_max"]
    vals_a = {}
    for n4, n1, n2, _f, v in a[1]:
        vals_a[(n1, n2, n4)] = v
    for n1, n2, n4, _f, v in b[1]:
        ref = vals_a[(n1, n2, n4)]
        assert (math.isnan(v) and math.isnan(ref)) or abs(v - ref) < 1e-14


def test_write_csv_lossless():
    spec = sections.SectionSpec(kind="one", axes=(1,), resolution=5, theta_policy="grid")
    header, rows = sections.scan(spec)
    buf = io.StringIO()
    sections.write_csv(header, rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n1,theta1,feasible,a3_max"
    assert len(lines) == 1 + len(rows)
    cells = lines[3].split(",")
    row = rows[2]
    assert float(cells[0]) == row[0]
    assert float(cells[1]) == row[1]
    assert int(cells[2]) == row[2]
    assert float(cells[3]) == row[3]


def test_section_spec_validation():
    with pytest.raises(ValueError):
        sections.SectionSpec(kind="five", axes=(1,))
    with pytest.raises(ValueError):
        sections.SectionSpec(kind="two", axes=(1,))
    with pytest.raises(ValueError):
        sections.SectionSpec(kind="two", axes=(1, 1))
    with pytest.raises(ValueError):
        sections.SectionSpec(kind="two", axes=(1, 5))
    with pytest.raises(ValueError):
        sections.SectionSpec(kind="two", axes=(1, 2), theta_policy="grid")
    with pytest.raises(ValueError):
        sections.SectionSpec(kind="two", axes=(1, 2), theta_policy="fixed", theta_values=(0.0,))
    with pytest.raises(ValueError):
        sections.SectionSpec(kind="one", axes=(1,), resolution=1)
    with pytest.raises(ValueError, match=r"grid\|fixed\|maximize"):
        sections.SectionSpec(kind="one", axes=(1,), theta_policy="random")
    for policy in ("maximize", "grid"):
        with pytest.raises(ValueError, match="only apply to the fixed policy"):
            sections.SectionSpec(kind="one", axes=(1,), theta_policy=policy, theta_values=(0.3,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_section_spec_rejects_non_finite_theta(bad):
    with pytest.raises(ValueError, match="finite"):
        sections.SectionSpec(kind="two", axes=(1, 2), theta_policy="fixed",
                             theta_values=(bad, 0.0))


# --- columnar rasters against the row-loop reference ---------------------------

_FEASIBLE_TOL = 1e-12


def reference_scan(spec):
    """The row-by-row rasterizer, kept as the oracle: one tuple of Python
    numbers per row, `section_value` for "fixed" and "grid",
    and one `max_a3_batch` call over the in-ball points for "maximize"."""
    grid = np.linspace(-1.0, 1.0, spec.resolution)
    names = [f"n{a}" for a in spec.axes]
    rows = []
    if spec.theta_policy == "grid":
        header = [names[0], f"theta{spec.axes[0]}", "feasible", "a3_max"]
        for n in grid:
            for t in np.linspace(0.0, math.pi, spec.resolution):
                val = section_value(spec.axes, (n,), (t,))
                rows.append((float(n), float(t), int(val >= -_FEASIBLE_TOL), val))
        return header, rows
    header = names + ["feasible", "a3_max"]
    meshes = np.meshgrid(*([grid] * len(spec.axes)), indexing="ij")
    points = np.stack([m.ravel() for m in meshes], axis=-1)
    inside = np.sum(points * points, axis=1) <= 1.0 + 1e-12
    if spec.theta_policy == "maximize":
        padded = np.zeros((int(inside.sum()), 4))
        padded[:, [a - 1 for a in spec.axes]] = points[inside]
        found = positivity.max_a3_batch(padded, tol=_FEASIBLE_TOL / 6.0)
        maxima = iter(6.0 * found.a3)
    for point, ok in zip(points, inside):
        if not ok:
            rows.append(tuple(float(v) for v in point) + (0, math.nan))
            continue
        if spec.theta_policy == "fixed":
            val = section_value(spec.axes, point, spec.theta_values)
        else:
            val = next(maxima)
        rows.append(tuple(float(v) for v in point) + (int(val >= -_FEASIBLE_TOL), float(val)))
    return header, rows


def reference_csv(header, rows) -> str:
    """One `format(v, ".17g")` per float cell, `str` per int cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(int(v)) if isinstance(v, (int, np.integer))
                              else format(float(v), ".17g") for v in row))
    return "\n".join(lines) + "\n"


def _csv(spec) -> str:
    header, raster = sections.scan(spec)
    buf = io.StringIO()
    sections.write_csv(header, raster, buf)
    return buf.getvalue()


_MAXIMIZE_SHAPES = (
    [("two", (1, 2), 41)]
    + [("three", axes, 6) for axes, _sign, _phase in sections.THREE_SECTION_AXES.values()]
    + [("three", (4, 1, 2), 6)]
)


@pytest.mark.parametrize("kind,axes,resolution", _MAXIMIZE_SHAPES)
def test_maximize_csv_bytes_match_row_loop_reference(kind, axes, resolution):
    spec = sections.SectionSpec(kind=kind, axes=axes, resolution=resolution)
    assert _csv(spec) == reference_csv(*reference_scan(spec))


def test_three_axis_scan_searches_each_orbit_once(monkeypatch):
    """The 160 in-ball rows of a resolution-8 three-axis raster fall into
    7 orbits of sorted |n|.  linspace(-1, 1, 8) is not exactly symmetric
    under sign, so their exact keys are 40, but keys that agree up to
    rounding share one search: only 7 keys reach `_search_block`."""
    searched = []
    search = positivity._search_block

    def spy(n, tol):
        searched.append(len(n))
        return search(n, tol)

    monkeypatch.setattr(positivity, "_search_block", spy)
    spec = sections.SectionSpec(kind="three", axes=(1, 2, 3), resolution=8)
    csv = _csv(spec)
    assert searched == [7]
    _header, raster = sections.scan(spec)
    assert int(np.sum(~np.isnan(raster.a3_max))) == 160
    assert csv == reference_csv(*reference_scan(spec))


@pytest.mark.parametrize("kind,axes,theta", [
    ("two", (4, 2), (0.7, 5.9)),
    ("three", (2, 4, 1), (0.4, 2.2, 4.1)),
])
def test_fixed_csv_bytes_match_row_formatting(kind, axes, theta):
    """`write_csv` writes each row as `format(v, ".17g")` cells and a 0/1
    flag, out-of-ball rows as "0,nan", for a raster with both."""
    spec = sections.SectionSpec(kind=kind, axes=axes, resolution=9, theta_policy="fixed",
                                theta_values=theta)
    header, raster = sections.scan(spec)
    csv = _csv(spec)
    assert csv == reference_csv(header, list(raster))
    assert csv.count(",0,nan\n") == int(np.sum(np.isnan(raster.a3_max))) > 0
    assert 0 < int(raster.feasible.sum()) < len(raster)


def test_write_csv_formats_each_cell_as_its_own_float():
    """A hand-built raster with -0.0, 0.0, nan and repeated values: every
    a3_max cell is `format(v, ".17g")` of its own value, so -0.0 keeps
    its sign, and the coordinates and flags follow the row loop."""
    a3 = np.array([-0.0, 0.0, math.nan, 0.1, -0.0, 0.1, 1e-300, math.nan, -2.5, 0.0])
    grid = np.array([-0.0, 0.3, 1.0 / 3.0])
    idx = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
    raster = sections.SectionRaster(((grid, idx), (grid[::-1], idx[::-1])), a3 >= 0.0, a3)
    buf = io.StringIO()
    sections.write_csv(["x", "y", "feasible", "a3_max"], raster, buf)
    assert buf.getvalue() == reference_csv(["x", "y", "feasible", "a3_max"], list(raster))
    cells = [line.split(",")[-1] for line in buf.getvalue().splitlines()[1:]]
    assert cells == [format(v, ".17g") for v in a3.tolist()]
    assert cells[:3] == ["-0", "0", "nan"]


def test_raster_certified_flags(monkeypatch):
    """`certified` keeps the search's flags on in-ball maximize rows and
    is True outside the ball, under the fixed and grid policies, and by
    default."""
    search = positivity.max_a3_batch

    def doubtful(n, **kwargs):
        found = search(n, **kwargs)
        return found._replace(certified=np.arange(len(n)) % 3 != 0)

    monkeypatch.setattr(positivity, "max_a3_batch", doubtful)
    _header, raster = sections.scan(sections.SectionSpec(kind="three", axes=(1, 2, 4),
                                                         resolution=6))
    inside = ~np.isnan(raster.a3_max)
    assert np.array_equal(raster.certified[inside], np.arange(int(inside.sum())) % 3 != 0)
    assert raster.certified[~inside].all() and (~inside).any()
    for spec in (sections.SectionSpec(kind="two", axes=(1, 3), resolution=7,
                                      theta_policy="fixed", theta_values=(0.2, 0.9)),
                 sections.SectionSpec(kind="one", axes=(2,), resolution=7, theta_policy="grid")):
        _header, raster = sections.scan(spec)
        assert raster.certified.dtype == bool and raster.certified.shape == (len(raster),)
        assert raster.certified.all()
    bare = sections.SectionRaster(raster.coords, raster.feasible, raster.a3_max)
    assert bare.certified.dtype == bool and bare.certified.all()
    assert len(bare.certified) == len(bare)


_ANGLE_SHAPES = (
    [("one", (3,), 21, "grid", ()),
     ("one", (2,), 11, "fixed", (2.5,)),
     ("two", (4, 2), 21, "fixed", (0.7, 5.9))]
    + [("three", axes, 9, "fixed", (0.4, 2.2, 4.1))
       for axes, _sign, _phase in sections.THREE_SECTION_AXES.values()]
    + [("three", (4, 1, 2), 9, "fixed", (0.4, 2.2, 4.1))]
)


@pytest.mark.parametrize("kind,axes,resolution,policy,theta", _ANGLE_SHAPES)
def test_fixed_and_grid_values_match_scalar_formulas(kind, axes, resolution, policy, theta):
    spec = sections.SectionSpec(kind=kind, axes=axes, resolution=resolution,
                                theta_policy=policy, theta_values=theta)
    header, raster = sections.scan(spec)
    ref_header, ref_rows = reference_scan(spec)
    assert header == ref_header and len(raster) == len(ref_rows)
    for row, ref in zip(raster, ref_rows):
        assert row[:-1] == ref[:-1]  # coordinates and flag
        if math.isnan(ref[-1]):
            assert math.isnan(row[-1])
        else:
            assert abs(row[-1] - ref[-1]) < 1e-14


@pytest.mark.parametrize("policy,theta", [("maximize", ()), ("fixed", (0.0, 0.0))])
def test_resolution_two_raster_has_no_in_ball_point(policy, theta, monkeypatch):
    searched = []
    search = positivity.max_a3_batch

    def spy(n, **kwargs):
        searched.append(np.shape(n))
        return search(n, **kwargs)

    monkeypatch.setattr(positivity, "max_a3_batch", spy)
    spec = sections.SectionSpec(kind="two", axes=(1, 3), resolution=2, theta_policy=policy,
                                theta_values=theta)
    lines = _csv(spec).splitlines()
    assert lines == ["n1,n3,feasible,a3_max", "-1,-1,0,nan", "-1,1,0,nan", "1,-1,0,nan",
                     "1,1,0,nan"]
    assert searched == ([(0, 4)] if policy == "maximize" else [])


@pytest.mark.parametrize("kind,axes,policy,theta", [
    ("three", (2, 4, 1), "fixed", (0.1, 0.2, 0.3)),
    ("one", (4,), "grid", ()),
])
def test_raster_length_row_major_order_and_row_views(kind, axes, policy, theta):
    spec = sections.SectionSpec(kind=kind, axes=axes, resolution=5, theta_policy=policy,
                                theta_values=theta)
    _header, raster = sections.scan(spec)
    rows = list(raster)
    grid = np.linspace(-1.0, 1.0, 5).tolist()
    if policy == "grid":
        expect = list(itertools.product(grid, np.linspace(0.0, math.pi, 5).tolist()))
    else:
        expect = list(itertools.product(grid, repeat=len(axes)))
    assert len(raster) == len(rows) == len(expect)
    assert [row[:-2] for row in rows] == expect
    # rows hold Python numbers, and indexing agrees with iteration
    assert all(type(v) is float for row in rows for v in row[:-2] + row[-1:])
    assert all(type(row[-2]) is int for row in rows)
    assert [repr(raster[i]) for i in range(len(rows))] == [repr(row) for row in rows]
    assert repr(raster[-1]) == repr(rows[-1])
