"""Independent output checks for the benchmark.

Nothing here imports the package.  States are rebuilt from the chart with
this module's own displacement operators, spectra come from LAPACK
(`numpy.linalg.eigvalsh`), and Choi matrices are assembled directly from
the channel eigenvalues.  Every check takes the text a CLI invocation wrote
to stdout and returns None when it is right, or a one-line reason.

Verdicts (physical, cp, feasible) are judged only where the oracle's own
margin exceeds `MARGIN`; closer to the boundary either answer is accepted.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

MARGIN = 1e-8
VALUE_TOL = 1e-9  # absolute, on eigenvalues and on 6 * det values
CLOUD_SIZE = 64  # seeded random angle triples per three-axis maximize row
POLISH_STARTS = 4  # best cloud points per row polished by coordinate ascent
POLISH_SWEEPS = 16  # coordinate-ascent sweeps over the active angles

_OMEGA = np.exp(2j * np.pi / 3.0)


def weyl(p: int, q: int) -> np.ndarray:
    """U_pq = w^{-pq/2} Z^p X^q with X|k> = |k-1 mod 3>."""
    clock = np.diag(_OMEGA ** np.arange(3))
    shift = np.roll(np.eye(3), 1, axis=1)
    return (np.exp(-1j * np.pi * p * q / 3.0)
            * np.linalg.matrix_power(clock, p) @ np.linalg.matrix_power(shift, q))


# operator index, weight slot, sign of the angle, constant phase: the
# conjugate pairing of the chart, and of a diagonal unital channel's
# eigenvalues (which ignore the constant phase)
_PAIRING = (
    ((0, 1), 0, +1.0, 0.0), ((0, 2), 0, -1.0, 0.0),
    ((1, 0), 1, +1.0, 0.0), ((2, 0), 1, -1.0, 0.0),
    ((1, 2), 2, +1.0, 0.0), ((2, 1), 2, -1.0, 2.0 * np.pi / 3.0),
    ((2, 2), 3, +1.0, 0.0), ((1, 1), 3, -1.0, np.pi / 3.0),
)
_U = {key: weyl(*key) for key, _slot, _sign, _phase in _PAIRING}


def chart_rho(n, theta) -> np.ndarray:
    """(N, 3, 3) density matrices of N chart points (N, 4) x (N, 4)."""
    n = np.atleast_2d(np.asarray(n, dtype=float))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    rho = np.tile(np.eye(3, dtype=complex), (len(n), 1, 1))
    for key, slot, sign, phase in _PAIRING:
        coef = n[:, slot] * np.exp(1j * (sign * theta[:, slot] + phase))
        rho += coef[:, None, None] * _U[key]
    return rho / 3.0


def polar_weights(r: float, zeta) -> np.ndarray:
    z1, z2, z3 = zeta
    s1, s2 = math.sin(z1), math.sin(z2)
    return r * np.array([math.cos(z1), s1 * math.cos(z2), s1 * s2 * math.cos(z3),
                         s1 * s2 * math.sin(z3)])


def gell_mann() -> np.ndarray:
    """(8, 3, 3) Gell-Mann matrices, Tr(L_i L_j) = 2 delta_ij."""
    out = []
    for j, k in ((0, 1), (0, 2), (1, 2)):
        sym = np.zeros((3, 3), dtype=complex)
        sym[j, k] = sym[k, j] = 1.0
        anti = np.zeros((3, 3), dtype=complex)
        anti[j, k], anti[k, j] = -1j, 1j
        out += [sym, anti]
    out.append(np.diag([1.0, -1.0, 0.0]).astype(complex))
    out.append(np.diag([1.0, 1.0, -2.0]).astype(complex) / math.sqrt(3.0))
    order = (0, 1, 6, 2, 3, 4, 5, 7)  # l1 l2 l3 l4 l5 l6 l7 l8
    return np.array([out[i] for i in order])


_GM = gell_mann()


def choi(lam, phi) -> np.ndarray:
    """9x9 Choi matrix (1/3) sum_a lambda_a conj(U_a) (x) U_a."""
    c = np.eye(9, dtype=complex)
    for key, slot, sign, _phase in _PAIRING:
        u = _U[key]
        c += lam[slot] * np.exp(1j * sign * phi[slot]) * np.kron(u.conj(), u)
    return c / 3.0


def _matrix(doc) -> np.ndarray:
    a = np.asarray(doc, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _json(out: str):
    try:
        return json.loads(out), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


def _csv(out: str, header: list[str]):
    """The header line, then the rows as one float array, parsed without
    a Python object per cell."""
    head = ",".join(header)
    if not out.startswith(head + "\n"):
        return None, f"header is not {head}"
    try:
        data = np.loadtxt(io.BytesIO(out.encode()), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        return None, f"bad CSV cell: {exc}"
    if data.ndim != 2 or data.shape[1] != len(header):
        return None, "CSV rows have the wrong width"
    return data, None


def _canonical(n, theta) -> str | None:
    n, theta = np.asarray(n, dtype=float), np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta >= np.pi):
        return "chart angle outside [0, pi)"
    if np.any((n == 0.0) & (theta != 0.0)):
        return "zero weight carries a nonzero angle"
    return None


def _dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


# --- states -----------------------------------------------------------------


def check_to_bloch(out: str, matrix) -> str | None:
    doc, err = _json(out)
    if err:
        return err
    rho = _matrix(matrix)
    bloch = doc["bloch"]
    if _dev(_matrix(doc["matrix"]), rho) > 1e-12:
        return "state to-bloch: matrix block differs from the input"
    if _dev(chart_rho(bloch["n"], bloch["theta"])[0], rho) > 1e-10:
        return "state to-bloch: chart does not rebuild the input matrix"
    return _canonical(bloch["n"], bloch["theta"])


def check_from_bloch(out: str, n, theta) -> str | None:
    doc, err = _json(out)
    if err:
        return err
    rho = chart_rho(n, theta)[0]
    bloch = doc["bloch"]
    if _dev(_matrix(doc["matrix"]), rho) > 1e-12:
        return "state from-bloch: matrix differs from the chart's state"
    if _dev(chart_rho(bloch["n"], bloch["theta"])[0], rho) > 1e-12:
        return "state from-bloch: canonical chart describes another state"
    return _canonical(bloch["n"], bloch["theta"])


def check_check(out: str, rho) -> str | None:
    """Physicality report against the LAPACK spectrum of the input state."""
    doc, err = _json(out)
    if err:
        return err
    lam = np.linalg.eigvalsh(rho)
    if abs(lam[0]) > MARGIN and doc["physical"] != bool(lam[0] > 0.0):
        return f"check: physical={doc['physical']} but the smallest eigenvalue is {lam[0]:.3e}"
    purity = float(np.sum(lam * lam))
    if abs(doc["purity"] - purity) > VALUE_TOL:
        return "check: purity differs from Tr rho^2"
    if abs(doc["char_coeffs"]["a2"] - (1.0 - purity) / 2.0) > VALUE_TOL:
        return "check: a2 differs from (1 - Tr rho^2) / 2"
    if abs(doc["char_coeffs"]["a3"] - float(np.prod(lam))) > VALUE_TOL:
        return "check: a3 differs from the product of the eigenvalues"
    if doc["physical"] and np.all(np.abs(lam) > MARGIN):
        if doc["rank"] != int(np.sum(lam > 0.0)):
            return f"check: rank {doc['rank']} for eigenvalues {lam}"
    return None


# --- sections ---------------------------------------------------------------


def _six_det(n, theta) -> np.ndarray:
    return 6.0 * np.linalg.det(chart_rho(n, theta)).real


def check_scan(out: str, axes, resolution: int, policy: str, theta=(),
               cloud_seed: int = 0) -> str | None:
    """Raster layout, the out-of-ball rows, the feasible flag, and a3_max:
    6 det rho at fixed angles; the closed-form peak on two-axis maximize
    rows; on every three-axis maximize row, at least the value at the angles
    `best_angles` finds and at most the analytic ceiling."""
    k = len(axes)
    header = [f"n{a}" for a in axes]
    if policy == "grid":
        header.append(f"theta{axes[0]}")
    data, err = _csv(out, header + ["feasible", "a3_max"])
    if err:
        return err
    grid = np.linspace(-1.0, 1.0, resolution)
    if policy == "grid":
        mesh = np.meshgrid(grid, np.linspace(0.0, np.pi, resolution), indexing="ij")
    else:
        mesh = np.meshgrid(*([grid] * k), indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    if data.shape[0] != len(coords) or not np.array_equal(data[:, : coords.shape[1]], coords):
        return "scan: raster coordinates differ from the grid"
    cols = [a - 1 for a in axes]
    n = np.zeros((len(data), 4))
    n[:, cols] = data[:, :k]
    feasible, a3 = data[:, -2], data[:, -1]
    inside = np.sum(n * n, axis=1) <= 1.0 + 1e-12
    if np.any(feasible[~inside] != 0.0) or not np.all(np.isnan(a3[~inside])):
        return "scan: a point outside the ball is not reported as infeasible with NaN"
    if np.any(np.isnan(a3[inside])) or not np.all(np.isin(feasible, (0.0, 1.0))):
        return "scan: missing value or non-boolean flag inside the ball"
    n, feasible, a3 = n[inside], feasible[inside], a3[inside]
    clear = np.abs(a3) > MARGIN
    if np.any(feasible[clear] != (a3[clear] > 0.0)):
        return "scan: feasible flag disagrees with the sign of a3_max"

    if policy in ("fixed", "grid"):
        th = np.zeros_like(n)
        if policy == "grid":
            th[:, cols[0]] = data[inside, 1]
        else:
            th[:, cols] = theta
        expect = _six_det(n, th)
    elif k <= 2:
        r2 = np.sum(n * n, axis=1)
        expect = (2.0 / 9.0) * (1.0 - 3.0 * r2 + 2.0 * np.sum(np.abs(n) ** 3, axis=1))
    else:
        return _check_three_max(n, a3, cols, cloud_seed)
    if _dev(a3, expect) > VALUE_TOL:
        return f"scan: a3_max off by {_dev(a3, expect):.3e}"
    clear = np.abs(expect) > MARGIN
    if np.any(feasible[clear] != (expect[clear] > 0.0)):
        return "scan: feasible flag disagrees with the oracle's sign"
    return None


_LINE = 2.0 * np.pi * np.arange(8) / 8.0
_FINE = 2.0 * np.pi * np.arange(256) / 256.0
_FREQ = np.arange(1, 4)


def _line_max(n, theta, col: int) -> np.ndarray:
    """For each row, the angle in column `col` that maximizes 6 det rho
    with the other angles held.  rho is affine in exp(+-i theta), so along
    one angle 6 det rho is a trigonometric polynomial of degree 3; eight
    samples give its coefficients exactly.  Its peak is taken on a fine
    grid and polished by two Newton steps."""
    trial = np.repeat(theta[:, None, :], len(_LINE), axis=1)
    trial[:, :, col] = _LINE
    f = _six_det(np.repeat(n, len(_LINE), axis=0), trial.reshape(-1, 4)).reshape(len(n), -1)
    c = 2.0 * np.fft.rfft(f, axis=1)[:, 1:4] / len(_LINE)  # f(t) = c0 + Re sum c_k e^{ikt}
    wave = c[:, None, :] * np.exp(1j * _FREQ * _FINE[:, None])
    t = _FINE[np.argmax(wave.sum(axis=2).real, axis=1)]
    for _ in range(2):
        wave = c * np.exp(1j * _FREQ * t[:, None])
        slope, curve = (1j * _FREQ * wave).sum(axis=1).real, -(_FREQ ** 2 * wave).sum(axis=1).real
        step = np.where(curve < 0.0, -slope / np.where(curve < 0.0, curve, -1.0), 0.0)
        t = t + np.clip(step, -_FINE[1], _FINE[1])
    return t


def best_angles(n, cols, seed: int) -> np.ndarray:
    """A lower bound, per row, on the largest 6 det rho over the angles in
    `cols`: the best of a seeded random angle cloud, polished from its
    best points by exact coordinate ascent.  Every value is attained at
    the angles found, so it never exceeds the true maximum."""
    rows = len(n)
    rng = np.random.default_rng(seed)
    theta = np.zeros((rows, CLOUD_SIZE, 4))
    theta[:, :, cols] = rng.uniform(0.0, 2.0 * np.pi, size=(rows, CLOUD_SIZE, len(cols)))
    n_cloud = np.repeat(n, CLOUD_SIZE, axis=0)
    f = _six_det(n_cloud, theta.reshape(-1, 4)).reshape(rows, CLOUD_SIZE)
    top = np.argsort(f, axis=1)[:, -POLISH_STARTS:]
    theta = np.take_along_axis(theta, top[:, :, None], axis=1).reshape(-1, 4)
    n_start = np.repeat(n, POLISH_STARTS, axis=0)
    for _ in range(POLISH_SWEEPS):
        for col in cols:
            theta[:, col] = _line_max(n_start, theta, col)
    polished = _six_det(n_start, theta).reshape(rows, POLISH_STARTS)
    return np.maximum(f.max(axis=1), polished.max(axis=1))


def _check_three_max(n, a3, cols, seed) -> str | None:
    best = best_angles(n, cols, seed)
    w = np.abs(n)
    ceiling = (2.0 / 9.0) * (1.0 - 3.0 * np.sum(w * w, axis=1) + 2.0 * np.sum(w ** 3, axis=1)
                             + 6.0 * np.prod(w[:, cols], axis=1))
    low = np.flatnonzero(a3 < best - VALUE_TOL)
    if len(low):
        i = low[0]
        return f"scan: a3_max {a3[i]:.12g} below the {best[i]:.12g} of attained angles"
    high = np.flatnonzero(a3 > ceiling + VALUE_TOL)
    if len(high):
        i = high[0]
        return f"scan: a3_max {a3[i]:.12g} above the ceiling {ceiling[i]:.12g}"
    return None


# --- ensembles --------------------------------------------------------------

SAMPLE_HEADER = ("seed,index,eig1,eig2,eig3,n1,n2,n3,n4,theta1,theta2,theta3,theta4,"
                 "r,det,purity").split(",")


def check_sample(out: str, seed: int, count: int) -> str | None:
    data, err = _csv(out, SAMPLE_HEADER)
    if err:
        return err
    if data.shape[0] != count:
        return f"sample: {data.shape[0]} rows for --count {count}"
    if np.any(data[:, 0] != seed) or not np.array_equal(data[:, 1], np.arange(count)):
        return "sample: seed or index column is wrong"
    eig, n, theta = data[:, 2:5], data[:, 5:9], data[:, 9:13]
    r, det, purity = data[:, 13], data[:, 14], data[:, 15]
    lam = np.linalg.eigvalsh(chart_rho(n, theta))
    if _dev(eig, lam) > VALUE_TOL:
        return f"sample: eigenvalues off LAPACK by {_dev(eig, lam):.3e}"
    if np.any(lam[:, 0] < -VALUE_TOL):
        return "sample: a sampled state is not positive"
    if _dev(det, np.prod(lam, axis=1)) > 1e-12:
        return "sample: det differs from the product of the eigenvalues"
    if _dev(r, np.linalg.norm(n, axis=1)) > 1e-12:
        return "sample: r differs from |n|"
    if _dev(purity, (1.0 + 2.0 * r * r) / 3.0) > 1e-12:
        return "sample: purity differs from (1 + 2 r^2) / 3"
    if _dev(purity, np.sum(lam * lam, axis=1)) > VALUE_TOL:
        return "sample: purity differs from Tr rho^2"
    err = _canonical(n, theta)
    return f"sample: {err}" if err else None


def _spectral_parts(rho):
    """Squared Vandermonde, prod (l_j + l_k) and prod l of a 3x3 state."""
    l1, l2, l3 = np.linalg.eigvalsh(rho)
    return (((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2,
            (l1 + l2) * (l1 + l3) * (l2 + l3), l1 * l2 * l3)


def check_density(out: str, which: str, at) -> str | None:
    """Both charts' densities reduce to eigenvalue expressions: the HS
    numerator equals the squared Vandermonde, (1 - r^2)/3 - det equals
    prod (l_j + l_k), and the Gell-Mann radius is sqrt(3) times the
    weight radius."""
    doc, err = _json(out)
    if err:
        return err
    if which in ("hs", "bures"):
        r = at[0]
        rho = chart_rho(polar_weights(r, at[1:4]), at[4:8])[0]
        scale = r ** 3
    else:
        rho = (np.eye(3) + np.tensordot(at, _GM, axes=1)) / 3.0
        scale = math.sqrt(sum(g * g for g in at)) ** 7
    v2, pairs, prod = _spectral_parts(rho)
    if which == "hs":
        expect = v2 / scale
    elif which == "bures":
        expect = v2 / (scale * pairs * math.sqrt(prod))
    elif which == "hs-gm":
        expect = v2 / scale
    else:
        expect = v2 / (scale * 9.0 * pairs * math.sqrt(prod))
    if abs(doc["value"] - expect) > 1e-7 * max(1.0, abs(expect)):
        return f"density {which}: {doc['value']!r} but the spectrum gives {expect!r}"
    return None


# --- channels and bases -----------------------------------------------------


def check_unital(out: str, lam, phi) -> str | None:
    doc, err = _json(out)
    if err:
        return err
    low = float(np.linalg.eigvalsh(choi(lam, phi))[0])
    if abs(doc["min_choi_eigenvalue"] - low) > VALUE_TOL:
        return "unital check: smallest Choi eigenvalue differs from LAPACK's"
    clear = abs(low) > MARGIN
    if clear and doc["cp"] != (low > 0.0):
        return f"unital check: cp={doc['cp']} but the smallest Choi eigenvalue is {low:.3e}"
    if any(phi):
        if doc["polytope"] is not None:
            return "unital check: polytope verdict given for a phased channel"
    elif clear and doc["polytope"] != (low > 0.0):
        return "unital check: polytope verdict disagrees with the Choi spectrum"
    return None


def check_mub(out: str) -> str | None:
    doc, err = _json(out)
    if err:
        return err
    bases = [[np.array([complex(re, im) for re, im in ket["amplitudes"]]) for ket in b["kets"]]
             for b in doc["bases"]]
    if len(bases) != 4 or any(len(b) != 3 for b in bases):
        return "mub: expected four bases of three kets"
    for b1, basis in enumerate(bases):
        gram = np.array([[np.vdot(x, y) for y in basis] for x in basis])
        if _dev(gram, np.eye(3)) > 1e-10:
            return f"mub: basis {b1} is not orthonormal"
        for other in bases[b1 + 1:]:
            overlaps = np.array([[abs(np.vdot(x, y)) ** 2 for y in other] for x in basis])
            if _dev(overlaps, 1.0 / 3.0) > 1e-10:
                return "mub: two bases are not unbiased"
    for b, basis in zip(doc["bases"], bases):
        for ket, amps in zip(b["kets"], basis):
            rho = chart_rho(ket["bloch"]["n"], ket["bloch"]["theta"])[0]
            if _dev(rho, np.outer(amps, amps.conj())) > 1e-10:
                return "mub: a ket's chart does not rebuild its projector"
    return None


def check_empty(out: str) -> str | None:
    return None if out == "" else "invalid input wrote to stdout"
