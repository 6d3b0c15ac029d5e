"""Physicality tests and rank classification in the weight/angle chart.

A unit-trace Hermitian 3x3 matrix is positive semidefinite iff the last
two coefficients of its characteristic polynomial are nonnegative:

    a2 = (1 - Tr rho^2) / 2 >= 0      (the unit 4-ball of weights)
    a3 = det rho >= 0.

The determinant has a closed trigonometric form in the Bloch chart;
27 * a3 equals the bracket

    1 - 3 |n|^2
      + 2 (n1^3 cos 3t1 + n2^3 cos 3t2 + n3^3 cos 3t3 + n4^3 cos 3t4)
      - 6 n1 n3 n4 cos(t1 - t3 - t4)
      + 6 n1 n2 n3 cos(t1 - t2 + t3 - pi/3)
      + 6 n2 n3 n4 cos(t2 + t3 - t4 + pi/3)
      + 6 n1 n2 n4 cos(t1 + t2 + t4 + pi/3).

Weight points (n alone) are classified by maximizing the bracket over
the angle torus (`max_a3_batch`): in closed form when at most two
weights are active, else by a coarse grid, Newton ascent and a curvature
bound that certifies the sign.  The bracket is invariant under the nine
shifts theta += (2 pi / 3) * (a + b, 2a + b, a, b) with a, b in
{0, 1, 2}, so a fundamental domain keeps two angles on [0, 2 pi/3) and -
when cross terms survive - lets the rest run over the full circle.

The largest a3 over the angles depends only on the sorted |n_i|: the
bracket is unchanged by n_i -> -n_i with theta_i += pi, and each of the
24 weight permutations is an angle map theta_i = +-phi_{p_i} + k_i 2 pi/3
(`_ORBIT_MAPS`).  So the search runs once per canonical key sort(|n|),
keys that agree up to rounding sharing one search, and each row takes
its key's angles through its permutation's map, plus pi where n_i < 0;
its value is the bracket at its own weights and angles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import matcore
from .bloch import BlochParams, polar_weights, purity, to_density
from .errors import NotAState, NotPhysical, OutsideSphere, Uncertified

__all__ = [
    "CharCoeffs",
    "char_coeffs",
    "a3_closed_form",
    "a3_polar",
    "in_ball",
    "is_physical",
    "ThetaSearch",
    "max_a3_batch",
    "max_a3_over_theta",
    "is_point_physical",
    "RankReport",
    "rank_classify",
    "rank_report",
]

_TWO_THIRD_PI = 2.0 * np.pi / 3.0

# cross terms of the bracket: (weight triple, sign of the 6-coefficient,
# theta signs, constant phase)
_CROSS_TERMS = (
    ((0, 2, 3), -1.0, (1.0, -1.0, -1.0), 0.0),
    ((0, 1, 2), +1.0, (1.0, -1.0, +1.0), -np.pi / 3.0),
    ((1, 2, 3), +1.0, (1.0, +1.0, -1.0), +np.pi / 3.0),
    ((0, 1, 3), +1.0, (1.0, +1.0, +1.0), +np.pi / 3.0),
)


def _wave_table() -> tuple[np.ndarray, np.ndarray]:
    """The bracket as eight cosine waves,

        27 a3 = 1 - 3 |n|^2 + sum_k c_k cos(D_k . theta + phase_k),

    rows 0-3 the cube terms (D_k = 3 e_k, c_k = 2 n_k^3) and rows 4-7 the
    cross terms of `_CROSS_TERMS` (c_k = 6 sign n_i n_j n_l)."""
    d, phase = np.zeros((8, 4)), np.zeros(8)
    d[:4] = 3.0 * np.eye(4)
    for k, ((i, j, l), _sign, tsign, ph) in enumerate(_CROSS_TERMS, start=4):
        d[k, [i, j, l]] = tsign
        phase[k] = ph
    return d, phase


_WAVE_D, _WAVE_PHASE = _wave_table()
# sum_k |c_k| |D_k|^2 bounds the spectral norm of the bracket's Hessian:
# 18 sum |n_i|^3 + 18 sum_T |n_i n_j n_l|
_WAVE_CURVATURE = np.sum(_WAVE_D ** 2, axis=1)


_CROSS_AXES = np.array([axes for axes, _s, _t, _p in _CROSS_TERMS])
_CROSS_COEF = np.array([6.0 * sign for _a, sign, _t, _p in _CROSS_TERMS])


def _wave_coefs(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For weights n (..., 4): the constant 1 - 3 |n|^2 and the eight wave
    amplitudes c (..., 8)."""
    cross = _CROSS_COEF * np.prod(n[..., _CROSS_AXES], axis=-1)
    return 1.0 - 3.0 * np.sum(n * n, axis=-1), np.concatenate([2.0 * n ** 3, cross], axis=-1)


def _wave_value(base, coef, theta) -> np.ndarray:
    """27 a3 at angles theta (..., 4) for the rows of `_wave_coefs`."""
    return base + np.sum(coef * np.cos(theta @ _WAVE_D.T + _WAVE_PHASE), axis=-1)


@dataclass(frozen=True)
class CharCoeffs:
    """Characteristic polynomial coefficients det(xI - rho) = sum (-1)^k a_k x^{3-k}."""

    a0: float
    a1: float
    a2: float
    a3: float


def char_coeffs(rho) -> CharCoeffs:
    """Newton-identity coefficients from power traces."""
    a = matcore.as_matrix(rho)
    if a.shape != (3, 3):
        raise NotAState(f"expected 3x3, got {a.shape}")
    t1 = np.trace(a).real
    a2m = a @ a
    t2 = np.trace(a2m).real
    t3 = np.trace(a2m @ a).real
    e2 = (t1 * t1 - t2) / 2.0
    e3 = (t1 ** 3 - 3.0 * t1 * t2 + 2.0 * t3) / 6.0
    return CharCoeffs(1.0, float(t1), float(e2), float(e3))


def a3_closed_form(p: BlochParams) -> float:
    """det rho straight from the trigonometric bracket (no matrix built):
    one row of `_wave_value`."""
    return float(_wave_value(*_wave_coefs(np.array(p.n)), np.array(p.theta))) / 27.0


def _radial_bracket(s: float, f: float) -> float:
    """27 a3 = 1 - 3 s^2 + 2 s^3 F at weight radius s and angular factor F."""
    return 1.0 - 3.0 * s * s + 2.0 * s ** 3 * f


def a3_polar(r: float, zeta: Sequence[float], theta: Sequence[float]) -> tuple[float, float]:
    """Radial form of the bracket: returns (value, F) with

        value = 27 * a3 = 1 - 3 r^2 + 2 r^3 F,   F in [-1, 1].

    F carries the whole angular dependence; as the wave amplitudes are
    cubic in the weights, it is half the wave sum at the unit direction
    polar_weights(1, zeta).  At the origin F is set to 0 by convention
    (the bracket is 1 there regardless).
    """
    r = float(r)
    if not np.isfinite([r, *zeta, *theta]).all():
        raise ValueError("non-finite polar point")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0.0:
        return 1.0, 0.0
    _base, coef = _wave_coefs(polar_weights(1.0, zeta))
    f = 0.5 * float(_wave_value(0.0, coef, np.asarray(theta, dtype=float)))
    return _radial_bracket(r, f), f


def in_ball(p: BlochParams, tol: float = 1e-10) -> bool:
    """|n|^2 <= 1 + tol: the a2 >= 0 half of physicality."""
    return sum(v * v for v in p.n) <= 1.0 + tol


def is_physical(p: BlochParams, tol: float = 1e-10) -> bool:
    """Positive semidefinite iff inside the unit ball and a3 >= 0."""
    return in_ball(p, tol) and a3_closed_form(p) >= -tol


# --- weight-point feasibility (search over angles) ----------------------

_ACTIVE_WEIGHT = 1e-14  # weights at or below this count as zero
_GRID_STEPS = 8  # first angle grid: steps per 2 pi / 3
_CHUNK_ELEMENTS = 1 << 18  # grid values (and grid wave entries) held at once
_ROW_BLOCK = 4096  # weight points searched together
_NEWTON_STARTS = 4  # best grid points per row that Newton ascends from
_NEWTON_ITERS = 30
_BACKTRACKS = 12  # step halvings before a Newton step is given up
_MAX_GRID_POINTS = 1 << 24  # re-gridding stops before a row's grid passes this
# a Newton step is tried whole, then - where that lowers the value - at
# all its halvings at once, and the first that does not is taken
_HALVINGS = (np.ones(1), 0.5 ** np.arange(1, _BACKTRACKS))
# keys sort(|n|) that agree in every component once each mantissa is
# rounded to this many bits share one search: a relative scale of 2^-44
# (about 6e-14), far above the few ulps by which a linspace grid misses
# sign symmetry and far below any spacing a raster resolves
_KEY_BITS = 44
# |dB/dn_i| <= 6 |n_i| + 6 n_i^2 + 6 sum |n_j n_l| <= 18 on the unit ball,
# so on one angle the bracket of two keys differs by at most this times
# their l1 distance: the slack a key's upper bound carries to a row
_KEY_LIPSCHITZ = 18.0

# The 24 weight permutations as angle maps (the extended Clifford group
# permutes the four MUB directions as S4).  An entry "p s k" says that
# weights n_i = K[p_i] at angles theta_i = s_i phi[p_i] + k_i 2 pi / 3
# give the bracket of weights K at angles phi.
_ORBIT_MAPS = """
    0123 ++++ 0000   0132 +-++ 0012   0213 -+++ 0011   0231 --++ 0020
    0312 -+-+ 0001   0321 ++-+ 0020   1023 ++-+ 0010   1032 -+-+ 0002
    1203 --++ 0002   1230 -+++ 0002   1302 +-++ 0010   1320 ++++ 0010
    2013 +--+ 0001   2031 +++- 0022   2103 +++- 0000   2130 -++- 0000
    2301 +--+ 0020   2310 +++- 0011   3012 +-++ 0011   3021 ++++ 0020
    3102 -+-+ 0000   3120 ++-+ 0000   3201 -+++ 0020   3210 ++-- 0001
"""


def _orbit_tables() -> tuple[np.ndarray, np.ndarray]:
    """`_ORBIT_MAPS` as sign and shift arrays (4, 4, 4, 4, 4), indexed by
    the permutation p and then by the angle."""
    sign, shift = np.zeros((2,) + (4,) * 5)
    for p, s, k in zip(*[iter(_ORBIT_MAPS.split())] * 3):
        at = tuple(int(c) for c in p)
        sign[at] = [1.0 if c == "+" else -1.0 for c in s]
        shift[at] = [_TWO_THIRD_PI * int(c) for c in k]
    return sign, shift


_ORBIT_SIGN, _ORBIT_SHIFT = _orbit_tables()


def _grid_lengths(active: int, steps: int) -> list[int]:
    """Axis lengths of the angle grid on `active` (three or four) active
    angles, `steps` steps per 2 pi / 3.  Grid point m (an integer vector)
    sits at angles m * 2 pi / (3 steps); zero-weight angles stay at 0.

    The lengths span a fundamental domain of the shift symmetry: the
    cross terms tie the active angles together, so the domain keeps the
    first one (three active weights) or two (four) of them on the full
    circle while the rest stay on [0, 2 pi / 3).
    """
    return [3 * steps] * (active - 2) + [steps, steps]


def _grid_top(base, coef, free, keep, steps: int, count: int):
    """The `count` largest bracket values on the grid for each row, in
    descending order (R, count), and their angles (R, count, 4).

    The grid is walked in blocks of consecutive flat indices.  At grid
    point m each wave angle D_k . theta + phase_k is
    2 pi / (3 steps) * (D_k . m) + phase_k, so the waves `keep` are read
    from a table of their values over one period (3 steps entries) of
    D_k . m, and each block of values is one matrix product over all
    rows.  A flat index is q steps^2 + r, with r the point on the last two
    axes, so D_k . m splits into a part of q and a part of r; each is
    reduced mod 3 steps on its own, and their sum is read from the table
    repeated once."""
    lengths = _grid_lengths(len(free), steps)
    total = int(np.prod(lengths))
    count = min(count, total)
    period, square = 3 * steps, steps * steps
    h = _TWO_THIRD_PI / steps
    table = np.tile(np.cos(h * np.arange(period) + _WAVE_PHASE[keep, None]), 2)
    d = _WAVE_D[np.ix_(keep, free)].astype(np.int64)
    inner = (d[:, -2:] @ np.array(np.unravel_index(np.arange(square), lengths[-2:]))) % period
    row = 2 * period * np.arange(len(keep))[:, None]  # where each wave's table starts
    best_val = np.full((len(base), count), -np.inf)
    best_idx = np.zeros((len(base), count), dtype=np.int64)
    block = _CHUNK_ELEMENTS // len(keep)
    for start in range(0, total, block):
        stop = min(start + block, total)
        q = np.arange(start // square, (stop - 1) // square + 1)
        outer = (d[:, :-2] @ np.array(np.unravel_index(q, lengths[:-2]))) % period + row
        idx = (outer[:, :, None] + inner[:, None, :]).reshape(len(keep), -1)
        skip = start - q[0] * square
        waves = table.take(idx[:, skip : skip + stop - start])
        flat = np.arange(start, stop)
        rows = max(1, _CHUNK_ELEMENTS // len(flat))
        for r0 in range(0, len(base), rows):
            r = slice(r0, r0 + rows)
            vals = coef[r][:, keep] @ waves
            vals += base[r, None]  # in place: one block-sized array fewer
            if vals.shape[1] > count:
                part = np.argpartition(vals, -count, axis=1)[:, -count:]
                vals = np.take_along_axis(vals, part, axis=1)
            else:
                part = np.broadcast_to(np.arange(vals.shape[1]), vals.shape)
            merged_val = np.concatenate([best_val[r], vals], axis=1)
            merged_idx = np.concatenate([best_idx[r], flat[part]], axis=1)
            order = np.argsort(-merged_val, axis=1, kind="stable")[:, :count]
            best_val[r] = np.take_along_axis(merged_val, order, axis=1)
            best_idx[r] = np.take_along_axis(merged_idx, order, axis=1)
    theta = np.zeros((len(base), count, 4))
    theta[:, :, free] = np.stack(np.unravel_index(best_idx, lengths), axis=-1) * h
    return best_val, theta


def _newton(base, coef, theta, free, keep, radius: float):
    """Damped Newton ascent of the bracket in the free angles, one start
    per row of theta.  The Hessian is shifted until negative definite,
    a step moves no angle by more than `radius`, and it is taken only if
    the bracket does not fall (else halved), so each value returned is
    attained at the angles returned and is at least the start's.  A row
    stops once a step no longer raises its value.

    Only the waves `keep` (those with nonzero amplitudes: 4 for three
    active weights, 8 for four) and the free angles enter; each
    iterate's wave angles and cosines are computed once, when its value
    is.  The shift and the step come from LAPACK (`eigvalsh`, `solve`)."""
    margin = 1e-6 * (np.abs(coef) @ _WAVE_CURVATURE) + 1e-300
    coef = coef[:, keep]
    d = _WAVE_D[np.ix_(keep, free)]
    phase = _WAVE_PHASE[keep]
    i, j = np.divmod(np.arange(len(free) ** 2), len(free))
    dd = d[:, i] * d[:, j]  # Hessian entries: -(c cos(waves)) @ dd
    x = theta[:, free]
    waves = x @ d.T + phase
    cos = np.cos(waves)
    val = base + np.sum(coef * cos, axis=1)
    alive = np.arange(len(x))
    for _ in range(_NEWTON_ITERS):
        c = coef[alive]
        neg_grad = (c * np.sin(waves[alive])) @ d
        hess = (-(c * cos[alive]) @ dd).reshape(-1, len(free), len(free))
        shift = np.maximum(np.linalg.eigvalsh(hess)[:, -1] + margin[alive], 0.0)
        hess -= shift[:, None, None] * np.eye(len(free))
        step = np.linalg.solve(hess, neg_grad[:, :, None])[:, :, 0]
        step *= np.minimum(1.0, radius / np.maximum(np.abs(step).max(axis=1), 1e-300))[:, None]
        rose = np.zeros(len(alive), dtype=bool)
        pending = np.arange(len(alive))
        for halves in _HALVINGS:
            rows = alive[pending]
            trial = x[rows] + halves[:, None, None] * step[pending]
            trial_waves = trial @ d.T + phase
            trial_cos = np.cos(trial_waves)
            trial_val = base[rows] + np.sum(coef[rows] * trial_cos, axis=-1)
            ok = trial_val >= val[rows]
            first = np.argmax(ok, axis=0)
            up = ok[first, np.arange(len(rows))]
            pick = first[up], np.flatnonzero(up)
            moved = rows[up]
            rose[pending[up]] = trial_val[pick] > val[moved]
            x[moved], waves[moved], cos[moved], val[moved] = (
                trial[pick], trial_waves[pick], trial_cos[pick], trial_val[pick])
            pending = pending[~up]
            if not pending.size:
                break
        alive = alive[rose]
        if not alive.size:
            break
    theta = theta.copy()
    theta[:, free] = x
    return val, theta


def _search_block(n: np.ndarray, tol: float):
    """Certified search for rows that share one set of three or four
    active weights; returns (27 a3 found, angles, upper bound on 27 a3)."""
    base, coef = _wave_coefs(n)
    keep = np.flatnonzero(np.any(coef != 0.0, axis=0))
    # the bracket's second-order term at an offset delta of the free
    # angles is at most sum_k |c_k| (D_k . delta)^2 / 2, convex in delta,
    # so on the box |delta_i| <= h/2 it peaks at a corner: box (h/2)^2 / 2
    free = [i for i in range(4) if abs(n[0, i]) > _ACTIVE_WEIGHT]
    corners = np.array(list(itertools.product((1.0, -1.0), repeat=len(free))))
    box = np.max(np.abs(coef) @ (_WAVE_D[:, free] @ corners.T) ** 2, axis=1)
    floor = -27.0 * tol
    best = np.full(len(n), -np.inf)
    theta = np.zeros((len(n), 4))
    upper = np.full(len(n), np.inf)
    todo = np.arange(len(n))
    steps = _GRID_STEPS
    while True:
        h = _TWO_THIRD_PI / steps
        vals, starts = _grid_top(base[todo], coef[todo], free, keep, steps, _NEWTON_STARTS)
        # the gradient vanishes at the true maximum and some grid point
        # lies within h/2 of it in every angle, so the grid misses it by
        # at most the second-order term's peak on that box
        gap = 0.5 * box[todo] * (h / 2.0) ** 2
        upper[todo] = np.minimum(upper[todo], vals[:, 0] + gap)
        k = vals.shape[1]
        rows = np.repeat(todo, k)
        vals, starts = _newton(base[rows], coef[rows], starts.reshape(-1, 4), free, keep, h)
        vals, starts = vals.reshape(-1, k), starts.reshape(-1, k, 4)
        pick = np.argmax(vals, axis=1)
        found = vals[np.arange(len(todo)), pick]
        gain = found > best[todo]
        best[todo[gain]] = found[gain]
        theta[todo[gain]] = starts[np.arange(len(todo)), pick][gain]
        settled = (best >= floor) | (upper < floor)
        todo = np.flatnonzero(~settled)
        steps *= 2
        if not todo.size or np.prod(_grid_lengths(len(free), steps)) > _MAX_GRID_POINTS:
            return best, np.mod(theta, 2.0 * np.pi), upper


class ThetaSearch(NamedTuple):
    """Per-row result of `max_a3_batch`."""

    a3: np.ndarray  # (N,) largest a3 = det rho found, attained at theta
    theta: np.ndarray  # (N, 4) the maximizing angles; 0 on zero weights
    certified: np.ndarray  # (N,) True when the sign of a3 + tol is proven


def _closed_form(n: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest a3 over the angles, and angles attaining it, for weight
    points (N, 4) with at most two active weights, all in the columns
    `cols` (every other column zero).  No cross term survives, so each
    cube term peaks on its own at cos 3t = sign(n):

        27 max a3 = 1 - 3 |n|^2 + 2 sum |n_i|^3,

    at t_i = 0 where n_i > 0 and pi / 3 where n_i < 0.  The sums run
    column by column in ascending order, the order of numpy's row sum,
    and the zeros they skip change no bit."""
    r2 = s3 = np.zeros(len(n))
    for i in cols:
        w = n[:, i]
        r2 = r2 + w * w
        s3 = s3 + np.abs(w) ** 3
    return (1.0 - 3.0 * r2 + 2.0 * s3) / 27.0, np.where(n < -_ACTIVE_WEIGHT, np.pi / 3.0, 0.0)


def max_a3_batch(n, tol: float = 1e-10) -> ThetaSearch:
    """Largest a3 = det rho over all angles, per weight point of an
    (N, 4) array, with the maximizing angles and a certificate.

    * At most two active weights: the closed form (`_closed_form`),
      always certified.
    * Three or four: one search per canonical key sort(|n|) (see
      `_search_orbits`): the bracket on a fundamental-domain grid of
      `_GRID_STEPS` steps per 2 pi / 3, for all keys with the same number
      of active weights at once; then damped Newton from each key's best
      `_NEWTON_STARTS` grid points.  The value L found is attained, so it
      is a lower bound.  The true maximum is at most U = grid max +
      (h/2)^2 / 2 max_s sum_k |c_k| (D_k . s)^2, with c_k and D_k the
      amplitudes and angle vectors of the bracket's waves (`_wave_table`)
      on the active angles, s over the sign patterns {+-1}^d of those
      angles and h the spacing.  A key is settled once L >= -27 tol or
      U < -27 tol (in bracket units); the others, and only those, are
      searched again on a grid of twice the steps, until the grid would
      exceed `_MAX_GRID_POINTS` points.

    The a3 returned for a row is re-evaluated at the row's own weights
    and the angles returned for it, so it is exactly attained there.
    """
    n = np.asarray(n, dtype=float)
    if n.ndim != 2 or n.shape[1] != 4:
        raise ValueError(f"weight points must have shape (N, 4), got {n.shape}")
    if not np.isfinite(n).all():
        raise ValueError("weight points must be finite")
    active = np.abs(n) > _ACTIVE_WEIGHT
    count = np.count_nonzero(active, axis=1)
    n = np.where(active, n, 0.0)
    cols = np.flatnonzero(np.any(active, axis=0))
    certified = np.ones(len(n), dtype=bool)
    if count.max(initial=0) <= 2:
        return ThetaSearch(*_closed_form(n, cols), certified)
    a3 = np.empty(len(n))
    theta = np.zeros((len(n), 4))
    few = count <= 2
    if few.any():
        a3[few], theta[few] = _closed_form(n[few], cols)
    a3[~few], theta[~few], certified[~few] = _search_orbits(n[~few], tol)
    return ThetaSearch(a3, theta, certified)


def _key_groups(keys: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of nonnegative keys (M, 4) whose components agree
    once each mantissa is rounded to `bits` bits (52: compared exactly);
    zero stays zero and no other value reaches it.  Returns the index of
    each group's first row (G,), groups in lexicographic order, and each
    row's group (M,)."""
    code = keys.view(np.int64)  # monotone in a nonnegative float
    drop = 52 - bits
    if drop:
        code = (code + (1 << (drop - 1))) >> drop
    order = np.lexsort(code.T[::-1])
    code = code[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(code[1:] != code[:-1], axis=1)
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    return order[first], group


def _search_keys(keys: np.ndarray, tol: float):
    """`_search_block` on each sorted key (K, 4), in blocks that share a
    number of active weights."""
    best, upper = np.empty(len(keys)), np.empty(len(keys))
    phi = np.empty((len(keys), 4))
    active = np.sum(keys > 0.0, axis=1)
    for count in (3, 4):
        rows = np.flatnonzero(active == count)
        for start in range(0, len(rows), _ROW_BLOCK):
            block = rows[start : start + _ROW_BLOCK]
            best[block], phi[block], upper[block] = _search_block(keys[block], tol)
    return best, phi, upper


def _search_orbits(n: np.ndarray, tol: float):
    """`max_a3_batch` for rows with three or four active weights.

    Rows are grouped by their key sort(|n|) (descending), keys that agree
    to `_KEY_BITS` bits in every component sharing a group, and
    `_search_block` runs on one member's exact key per group.  Each row
    takes those angles through `_ORBIT_SIGN` / `_ORBIT_SHIFT`, with
    theta_i += pi where n_i < 0, and its value is the bracket at its own
    weights and angles.  A row is certified when that value and its
    group's best both reach the floor, or when the group's upper bound
    plus `_KEY_LIPSCHITZ` times the l1 distance between the row's key and
    the searched one stays below it (the searched key's own rows carry
    no slack).  A row whose key differs from the searched one and whose
    verdict stays open is searched again, once per distinct exact key,
    and takes that search's angles, value and verdict."""
    m = np.abs(n)
    order = np.argsort(-m, axis=1, kind="stable")
    keys = np.take_along_axis(m, order, axis=1)
    # sigma[i] is the key position of weight i: |n_i| = key[sigma[i]]
    sigma = np.argsort(order, axis=1)
    base, coef = _wave_coefs(n)
    floor = -27.0 * tol

    def carry(rows: np.ndarray, bits: int):
        first, group = _key_groups(keys[rows], bits)
        searched = keys[rows[first]]
        best, phi, upper = _search_keys(searched, tol)
        at = tuple(sigma[rows].T)
        theta = (_ORBIT_SIGN[at] * np.take_along_axis(phi[group], sigma[rows], axis=1)
                 + _ORBIT_SHIFT[at])
        theta = np.where(n[rows] < 0.0, theta + np.pi, theta)
        theta = np.where(n[rows] == 0.0, 0.0, np.mod(theta, 2.0 * np.pi))
        slack = _KEY_LIPSCHITZ * np.sum(np.abs(keys[rows] - searched[group]), axis=1)
        return theta, best[group], upper[group], slack

    def certify(value):
        return (upper + slack < floor) | ((best >= floor) & (value >= floor))

    theta, best, upper, slack = carry(np.arange(len(n)), _KEY_BITS)
    value = _wave_value(base, coef, theta)
    redo = np.flatnonzero(~certify(value) & (slack > 0.0))
    if redo.size:  # on exact keys (52 bits), so with no slack
        theta[redo], best[redo], upper[redo], slack[redo] = carry(redo, 52)
        value = _wave_value(base, coef, theta)
    return value / 27.0, theta, certify(value)


def max_a3_over_theta(n: Sequence[float]) -> tuple[float, tuple[float, float, float, float]]:
    """Largest achievable a3 = det rho over all angles at a fixed weight
    point, with the maximizing angles: `max_a3_batch` on one row."""
    n = tuple(float(v) for v in n)
    if len(n) != 4:
        raise ValueError("weight point must have four entries")
    found = max_a3_batch([n])
    return float(found.a3[0]), tuple(float(t) for t in found.theta[0])


def is_point_physical(n: Sequence[float], tol: float = 1e-10) -> bool:
    """Does any angle assignment make this weight point a state?  Raises
    `Uncertified` where the search cannot prove the sign of a3 + tol."""
    n = tuple(float(v) for v in n)
    r2 = sum(v * v for v in n)
    if r2 > 1.0 + tol:
        raise OutsideSphere(f"|n|^2 = {r2:.6f} exceeds 1")
    found = max_a3_batch([n], tol=tol)
    if not found.certified[0]:
        raise Uncertified(f"the angle search left the sign of a3 + tol unproven at n = {n} "
                          f"(largest a3 found {found.a3[0]:.6e}, tol {tol:g})")
    return bool(found.a3[0] >= -tol)


# --- rank regions --------------------------------------------------------

_PURITY_GATE = 1e-8


@dataclass(frozen=True)
class RankReport:
    rank: int
    region: str  # "surface" | "shell" | "core"
    consistent: bool


def rank_classify(p: BlochParams, tol: float = 1e-10) -> RankReport:
    """Numerical rank plus the radial region it should belong to;
    `rank_report` behind the `is_physical` gate."""
    if not is_physical(p, tol):
        raise NotPhysical("rank classification requires a physical state")
    return rank_report(p, tol)


def rank_report(p: BlochParams, tol: float = 1e-10) -> RankReport:
    """`rank_classify` for a state already known to be physical (no gate).

    Surface (|n| = 1) states are pure, the open ball of radius 1/2 is
    all rank 3, and the shell in between holds ranks 2 and 3.
    """
    eigs = matcore.herm_eigvals(to_density(p))
    rank = int(np.sum(eigs > tol))
    r = p.radius
    if abs(purity(p) - 1.0) <= _PURITY_GATE:
        region = "surface"
        consistent = rank == 1
    elif r < 0.5:
        region = "core"
        consistent = rank == 3
    else:
        region = "shell"
        consistent = rank in (2, 3)
    return RankReport(rank, region, consistent)
