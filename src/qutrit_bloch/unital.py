"""Unital qutrit channels diagonal in the displacement-operator basis.

Such a channel multiplies each expansion coefficient by a complex
eigenvalue; Hermiticity ties the nine eigenvalues into one trivial
entry (1, trace), and four modulus/phase pairs mirroring the state
chart's pairing.  On chart parameters the action is simply
n_i -> lambda_i n_i, theta_i -> theta_i + phi_i.  `lambda_table` and
the slot representatives of the Choi phases (`bloch._PRIMARY_KEYS`) are
read off the chart's pairing table, `bloch._PAIRING`; its constant
phases do not enter, as the channel scales each coefficient whatever
its phase offset.

Complete positivity is fixed by the eigenvalue table alone.  The Choi
matrix (1/3) sum_a lambda_a conj(U_a) (x) U_a is diagonal in the
generalized Bell basis, and its nine eigenvalues are the symplectic
Fourier transform of the table:

    p_b = (1 + 2 sum_s lambda_s cos(phi_s + (2 pi/3) <a_s, b>)) / 3

over b = (p, q) in Z_3^2, with a_s the representative operator of
slot s and <a, b> = a_1 b_2 - a_2 b_1.  At phi = 0 the cosines are 1
or -1/2 and the nine values are the five linear slacks below divided
by 3, with multiplicities 1, 2, 2, 2, 2:

    1 + 2 lambda_i - sum_{j != i} lambda_j >= 0   (i = 1..4)
    1 + 2 (lambda_1 + lambda_2 + lambda_3 + lambda_4) >= 0

whose feasible set is the convex hull of five explicit vertices.  The
inequality table is kept as its own derivation (the tests compare it
with the Choi spectrum), and edge enumeration is done honestly from
active-constraint ranks, not from a hard-coded list.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matcore
from .bloch import _PAIRING, _PRIMARY_KEYS, BlochParams
from .weyl import weyl_op, weyl_table

__all__ = [
    "UnitalMap",
    "lambda_table",
    "apply",
    "apply_to_matrix",
    "choi_matrix",
    "choi_eigenvalues",
    "is_cp",
    "polytope_check",
    "polytope_vertices",
    "edge_lengths",
]

# (2 pi/3) <a_s, b> mod 2 pi: rows b = (p, q) in row-major order, columns
# the slots s, whose representative a_s is the slot's primary key
_CHOI_PHASES = np.array(
    [[2.0 * math.pi / 3.0 * ((a1 * q - a2 * p) % 3) for a1, a2 in _PRIMARY_KEYS]
     for p in range(3) for q in range(3)]
)


@dataclass(frozen=True)
class UnitalMap:
    """Four moduli (may be negative) and four phases."""

    lam: tuple[float, float, float, float]
    phi: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "lam", tuple(float(v) for v in self.lam))
        object.__setattr__(self, "phi", tuple(float(v) for v in self.phi))
        if len(self.lam) != 4 or len(self.phi) != 4:
            raise ValueError("lam and phi must have four entries each")
        if not all(math.isfinite(v) for v in self.lam + self.phi):
            raise ValueError("non-finite channel parameter")


def lambda_table(m: UnitalMap) -> dict[tuple[int, int], complex]:
    """All nine eigenvalues keyed by operator index; (0,0) is fixed at 1."""
    table = {(0, 0): 1.0 + 0.0j}
    for key, slot, sign, _phase in _PAIRING:
        table[key] = m.lam[slot] * cmath.exp(1j * sign * m.phi[slot])
    return table


def apply(m: UnitalMap, p: BlochParams) -> BlochParams:
    """Chart-level action: scale weights, shift angles, re-canonicalize."""
    n = [lv * nv for lv, nv in zip(m.lam, p.n)]
    theta = [tv + fv for tv, fv in zip(p.theta, m.phi)]
    return BlochParams.canonical(n, theta)


def apply_to_matrix(m: UnitalMap, x) -> np.ndarray:
    """Operator-level action on any 3x3 matrix (not just states)."""
    a = matcore.as_matrix(x)
    if a.shape != (3, 3):
        raise ValueError("channel acts on 3x3 matrices")
    out = np.zeros((3, 3), dtype=complex)
    for (p, q), lam in lambda_table(m).items():
        u = weyl_op(p, q)
        out += lam * np.vdot(u, a) * u
    return out / 3.0


def choi_matrix(m: UnitalMap) -> np.ndarray:
    """C = sum_ij E_ij (x) Phi(E_ij) = (1/3) sum_a lambda_a conj(U_a) (x) U_a."""
    ops = weyl_table()
    terms = (lam * np.kron(ops[key].conj(), ops[key]) for key, lam in lambda_table(m).items())
    return sum(terms) / 3.0


def choi_eigenvalues(m: UnitalMap) -> np.ndarray:
    """The nine Choi eigenvalues, ascending, from the cosine form."""
    waves = np.cos(np.asarray(m.phi) + _CHOI_PHASES)
    return np.sort((1.0 + 2.0 * (waves @ np.asarray(m.lam))) / 3.0)


def is_cp(m: UnitalMap, tol: float = 1e-9) -> bool:
    """Complete positivity via the smallest Choi eigenvalue."""
    return float(choi_eigenvalues(m)[0]) >= -tol


# --- the phi = 0 polytope -------------------------------------------------

# rows: coefficient vector c with constraint 1 + c . lambda >= 0
_CONSTRAINTS = np.array(
    [
        [2.0, -1.0, -1.0, -1.0],
        [-1.0, 2.0, -1.0, -1.0],
        [-1.0, -1.0, 2.0, -1.0],
        [-1.0, -1.0, -1.0, 2.0],
        [2.0, 2.0, 2.0, 2.0],
    ]
)
_ACTIVE_TOL = 1e-9  # a vertex's slack at or below this makes a constraint active


def polytope_check(lam: Sequence[float], tol: float = 1e-12
                   ) -> tuple[bool, tuple[float, float, float, float, float]]:
    """Evaluate the five inequalities; returns (every slack >= -tol, slack vector)."""
    lam = np.asarray([float(v) for v in lam])
    if lam.shape != (4,):
        raise ValueError("lambda must have four entries")
    if not np.isfinite(lam).all():
        raise ValueError("non-finite channel parameter")
    slacks = 1.0 + _CONSTRAINTS @ lam
    return bool(np.all(slacks >= -tol)), tuple(float(s) for s in slacks)


def polytope_vertices() -> tuple[tuple[float, float, float, float], ...]:
    """The five extreme channels of the phi = 0 region."""
    out = [(1.0, 1.0, 1.0, 1.0)]
    for i in range(4):
        v = [-0.5] * 4
        v[i] = 1.0
        out.append(tuple(v))
    return tuple(out)


def edge_lengths() -> tuple[float, ...]:
    """Euclidean lengths of the polytope's edges, sorted.

    A vertex pair spans an edge iff the constraints active at both ends
    have normal rank 3 (a one-dimensional face of a 4D polytope).  The
    enumeration is computed, not assumed, so it doubles as a check of
    any claimed edge count.
    """
    verts = polytope_vertices()
    lengths = []
    for a, b in itertools.combinations(verts, 2):
        sa = 1.0 + _CONSTRAINTS @ np.asarray(a)
        sb = 1.0 + _CONSTRAINTS @ np.asarray(b)
        common = (np.abs(sa) <= _ACTIVE_TOL) & (np.abs(sb) <= _ACTIVE_TOL)
        if not np.any(common):
            continue
        rank = np.linalg.matrix_rank(_CONSTRAINTS[common])
        if rank == 3:
            lengths.append(float(np.linalg.norm(np.asarray(a) - np.asarray(b))))
    return tuple(sorted(lengths))
