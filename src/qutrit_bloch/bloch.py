"""Eight-parameter Bloch representation of qutrit states.

A qutrit density matrix is expanded over the Heisenberg-Weyl basis as

    rho = (1/3) [ I + sum_{(p,q) != (0,0)} b_pq U_pq ].

Hermiticity pairs the eight non-identity coefficients into four
magnitude/phase couples

    b_01 = n1 e^{i t1}    b_02 = n1 e^{-i t1}
    b_10 = n2 e^{i t2}    b_20 = n2 e^{-i t2}
    b_12 = n3 e^{i t3}    b_21 = n3 e^{-i (t3 - 2 pi/3)}
    b_22 = n4 e^{i t4}    b_11 = n4 e^{-i (t4 - pi/3)}

so a state is a weight 4-vector n plus an angle 4-vector theta.  The
representation is canonicalized to theta in [0, pi) with signed weights:
(n, theta) and (-n, theta + pi) describe the same coefficient, and the
representative with the angle below pi wins.  Physical states live
inside the unit 4-ball of weights (purity = (1 + 2|n|^2)/3 <= 1).

An alternative chart used for radial questions is the 4-D polar one:
radius r plus three polar angles zeta with

    n1 = r cos z1
    n2 = r sin z1 cos z2
    n3 = r sin z1 sin z2 cos z3
    n4 = r sin z1 sin z2 sin z3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NotAState
from .weyl import weyl_op

__all__ = [
    "GATE_TOL",
    "BlochParams",
    "PolarParams",
    "canonical_pair",
    "to_density",
    "from_density",
    "from_density_batch",
    "purity",
    "to_polar",
    "from_polar",
    "polar_weights",
    "state_document",
    "parse_state_document",
]

_TWO_PI = 2.0 * np.pi
_THIRD_PI = np.pi / 3.0
_ZERO_WEIGHT = 1e-13
GATE_TOL = 1e-10  # default Hermiticity/unit-trace gate of the matrix -> chart routes

# the conjugate pairing, the one table of it: b_key = n[slot] e^{i sign
# (theta[slot] - phase)}; sign +1 marks the primary coefficient of a slot
_PAIRING = (
    ((0, 1), 0, +1.0, 0.0),
    ((0, 2), 0, -1.0, 0.0),
    ((1, 0), 1, +1.0, 0.0),
    ((2, 0), 1, -1.0, 0.0),
    ((1, 2), 2, +1.0, 0.0),
    ((2, 1), 2, -1.0, 2.0 * _THIRD_PI),
    ((2, 2), 3, +1.0, 0.0),
    ((1, 1), 3, -1.0, _THIRD_PI),
)

# keys of the four independent coefficients, in weight order n1..n4
_PRIMARY_KEYS = tuple(key for key, _slot, sign, _phase in _PAIRING if sign > 0)


def canonical_pair(n: float, theta: float) -> tuple[float, float]:
    """Reduce one (weight, angle) couple to the canonical gauge.

    Result satisfies theta in [0, pi), and (0.0, 0.0) whenever |n| is at
    most `_ZERO_WEIGHT`; the complex value n * exp(i theta) is preserved.
    """
    if abs(n) <= _ZERO_WEIGHT:
        return 0.0, 0.0
    if n < 0.0:
        n, theta = -n, theta + np.pi
    theta = math.remainder(float(theta), _TWO_PI)  # exact, in [-pi, pi]
    if theta < 0.0:
        n, theta = -n, theta + np.pi
    if theta >= np.pi:  # exactly pi, or a round-up from the addition above
        n, theta = -n, theta - np.pi
    return float(n), float(theta)


@dataclass(frozen=True)
class BlochParams:
    """Canonical weight/angle parameters of a qutrit state.

    `n` entries are signed; for physical states the 4-vector sits inside
    the closed unit ball.  Out-of-ball instances are constructible on
    purpose (physicality tests need to look at them), but every angle
    must already be canonical.
    """

    n: tuple[float, float, float, float]
    theta: tuple[float, float, float, float]

    def __post_init__(self):
        if len(self.n) != 4 or len(self.theta) != 4:
            raise ValueError("n and theta must have four entries each")
        object.__setattr__(self, "n", tuple(map(float, self.n)))
        object.__setattr__(self, "theta", tuple(map(float, self.theta)))
        for nv, tv in zip(self.n, self.theta):
            if not (math.isfinite(nv) and math.isfinite(tv)):
                raise ValueError("non-finite parameter")
            if not (0.0 <= tv < np.pi):
                raise ValueError(f"angle {tv} outside the canonical [0, pi)")
            if nv == 0.0 and tv != 0.0:
                raise ValueError("zero weight must carry angle 0")

    @classmethod
    def canonical(cls, n: Sequence[float], theta: Sequence[float]) -> "BlochParams":
        """Build from arbitrary weights/angles, reducing to the gauge."""
        if len(n) != 4 or len(theta) != 4:
            raise ValueError("n and theta must have four entries each")
        pairs = [canonical_pair(float(a), float(b)) for a, b in zip(n, theta)]
        return cls(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    @property
    def radius(self) -> float:
        return float(np.sqrt(sum(v * v for v in self.n)))


@dataclass(frozen=True)
class PolarParams:
    """4-D polar chart: radius and three polar angles."""

    r: float
    zeta: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "zeta", tuple(float(z) for z in self.zeta))
        if not all(math.isfinite(v) for v in (self.r, *self.zeta)):
            raise ValueError("non-finite parameter")
        if self.r < 0:
            raise ValueError("radius must be nonnegative")
        if len(self.zeta) != 3:
            raise ValueError("zeta must have three entries")


def polar_weights(r: float, zeta: Sequence[float]) -> np.ndarray:
    """Weight 4-vector of the polar point (r, zeta)."""
    z1, z2, z3 = (float(z) for z in zeta)
    s1, s2 = np.sin(z1), np.sin(z2)
    return np.array(
        [
            r * np.cos(z1),
            r * s1 * np.cos(z2),
            r * s1 * s2 * np.cos(z3),
            r * s1 * s2 * np.sin(z3),
        ]
    )


def from_polar(p: PolarParams, theta: Sequence[float]) -> BlochParams:
    return BlochParams.canonical(polar_weights(p.r, p.zeta), theta)


def to_polar(p: BlochParams) -> PolarParams:
    """Polar chart of the weight vector.

    Angles are chosen in [0, pi] x [0, pi] x [0, 2 pi) following the
    usual hyperspherical conventions; degenerate axes get zeros.
    """
    n1, n2, n3, n4 = p.n
    r = p.radius
    if r == 0.0:
        return PolarParams(0.0, (0.0, 0.0, 0.0))
    z1 = np.arccos(np.clip(n1 / r, -1.0, 1.0))
    rest1 = np.sqrt(n2 * n2 + n3 * n3 + n4 * n4)
    z2 = np.arccos(np.clip(n2 / rest1, -1.0, 1.0)) if rest1 > 0 else 0.0
    rest2 = np.hypot(n3, n4)
    z3 = float(np.arctan2(n4, n3) % _TWO_PI) if rest2 > 0 else 0.0
    return PolarParams(float(r), (float(z1), float(z2), float(z3)))


# --- density matrix <-> parameters -------------------------------------


def bloch_coefficients(p: BlochParams) -> dict[tuple[int, int], complex]:
    """All nine b_pq coefficients (identity included), per `_PAIRING`."""
    coeffs = {(0, 0): 1.0 + 0j}
    for key, slot, sign, phase in _PAIRING:
        coeffs[key] = p.n[slot] * np.exp(1j * sign * (p.theta[slot] - phase))
    return coeffs


def to_density(p: BlochParams) -> np.ndarray:
    """Explicit 3x3 density matrix of the parameter point.

    The matrix is Hermitian with unit trace for any parameters; it is a
    physical state exactly when the positivity tests say so.
    """
    n1, n2, n3, n4 = p.n
    t1, t2, t3, t4 = p.theta
    e = np.exp
    c2, s2 = np.cos(t2), np.sin(t2)
    sqrt3 = np.sqrt(3.0)
    rho = np.empty((3, 3), dtype=complex)
    rho[0, 0] = 1.0 + 2.0 * n2 * c2
    rho[1, 1] = 1.0 - n2 * c2 - sqrt3 * n2 * s2
    rho[2, 2] = 1.0 - n2 * c2 + sqrt3 * n2 * s2
    rho[0, 1] = n1 * e(1j * t1) + n3 * e(-1j * t3) + n4 * e(-1j * t4)
    rho[0, 2] = n1 * e(-1j * t1) + n3 * e(1j * (t3 - 2 * _THIRD_PI)) + n4 * e(1j * (t4 + 2 * _THIRD_PI))
    rho[1, 2] = n1 * e(1j * t1) + n3 * e(-1j * (t3 + 2 * _THIRD_PI)) + n4 * e(-1j * (t4 - 2 * _THIRD_PI))
    rho[1, 0] = np.conj(rho[0, 1])
    rho[2, 0] = np.conj(rho[0, 2])
    rho[2, 1] = np.conj(rho[1, 2])
    return rho / 3.0


# adjoint-trace rows: b_pq = Tr(rho U_pq^dag) = sum_k conj(U_pq)_k rho_k over
# the flattened matrices; row 0 (the identity) reads the trace, rows 1-4
# the four primary coefficients in weight order
_ADJOINT_ROWS = np.conj([weyl_op(*key) for key in ((0, 0),) + _PRIMARY_KEYS]).reshape(5, 1, 9)


def from_density_batch(rhos, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Canonical weights and angles of an (N, 3, 3) stack, as (N, 4) arrays.

    Each gate is one reduction over the stack; non-finite entries, or a
    Hermiticity or unit-trace defect above `tol`, raise NotAState.  The
    partner coefficients are not read: each differs from its primary's
    conjugate by Tr((rho - rho^dag) U) for a permutation-phase U, which
    the Hermiticity gate already bounds by 3 tol.
    """
    a = np.asarray(rhos, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (3, 3):
        raise NotAState(f"expected an (N, 3, 3) stack, got {a.shape}")
    flat = a.reshape(-1, 9)
    if np.count_nonzero(np.isfinite(flat)) != flat.size:
        raise NotAState("matrix has non-finite entries")
    if np.count_nonzero(np.abs(a - a.conj().transpose(0, 2, 1)) > tol):
        raise NotAState("matrix is not Hermitian within tolerance")
    # a (1, 9) @ (9, 1) matmul runs the BLAS dot of np.vdot, and hypot the
    # libm call of abs() on a complex scalar, so each row is bit-identical
    # to the one-state route of np.vdot per coefficient
    b = np.matmul(_ADJOINT_ROWS, flat[:, np.newaxis, :, np.newaxis])[:, :, 0, 0]
    if np.count_nonzero(np.abs(b[:, 0] - 1.0) > tol):
        raise NotAState("matrix trace differs from 1")
    b = b[:, 1:]
    mag = np.hypot(b.real, b.imag)
    theta = np.arctan2(b.imag, b.real)  # np.angle, in [-pi, pi]
    # canonical_pair's steps, in its order: with mag >= 0 and theta in
    # [-pi, pi] its first flip never fires and its remainder is exact; the
    # second flip catches theta = pi and round-ups of the shift to pi
    low = theta < 0.0
    theta = np.where(low, theta + np.pi, theta)
    high = theta >= np.pi
    theta = np.where(high, theta - np.pi, theta)
    n = np.where(low != high, -mag, mag)
    zero = mag <= _ZERO_WEIGHT
    n[zero] = 0.0
    theta[zero] = 0.0
    return n, theta


def from_density(rho, tol: float = GATE_TOL) -> BlochParams:
    """Canonical parameters of a unit-trace Hermitian matrix.

    Raises NotAState if the input fails the Hermiticity/trace gate; one
    row of `from_density_batch`.
    """
    a = np.asarray(rho, dtype=complex)
    if a.shape != (3, 3):
        raise NotAState(f"expected a 3x3 matrix, got {a.shape}")
    n, theta = from_density_batch(a[np.newaxis], tol)
    return BlochParams(n[0].tolist(), theta[0].tolist())


def purity(p: BlochParams) -> float:
    """Tr rho^2 = (1 + 2 |n|^2) / 3."""
    return (1.0 + 2.0 * sum(v * v for v in p.n)) / 3.0


# --- JSON state documents ----------------------------------------------


def _matrix_to_json(rho: np.ndarray) -> list[list[list[float]]]:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(rho, dtype=complex)]


def _matrix_from_json(obj) -> np.ndarray:
    a = np.asarray(obj, dtype=float)
    if a.shape != (3, 3, 2):
        raise NotAState(f"matrix document must be 3x3 [re, im] pairs, got shape {a.shape}")
    return a[..., 0] + 1j * a[..., 1]


def state_document(p: BlochParams) -> dict:
    """JSON-ready document carrying both representations."""
    return {
        "matrix": _matrix_to_json(to_density(p)),
        "bloch": {"n": list(p.n), "theta": list(p.theta)},
    }


def parse_state_document(doc: dict, tol: float = GATE_TOL) -> BlochParams:
    """Read a state from a document holding `matrix` and/or `bloch`.

    The chart block wins when both are present (it is exact under
    JSON round trips); the matrix block is then cross-checked against
    it so corrupted documents are rejected rather than silently split.
    """
    if not isinstance(doc, dict):
        raise NotAState("state document must be a JSON object")
    params = None
    if "bloch" in doc:
        blk = doc["bloch"]
        try:
            params = BlochParams.canonical(blk["n"], blk["theta"])
        except (KeyError, TypeError) as exc:
            raise NotAState(f"malformed bloch block: {exc}") from exc
    if "matrix" in doc:
        mat = _matrix_from_json(doc["matrix"])
        if params is None:
            return from_density(mat, tol=tol)
        dev = float(np.abs(to_density(params) - mat).max())
        if dev > 100.0 * tol:
            raise NotAState(
                f"matrix and bloch blocks describe different states (dev {dev:.3e})"
            )
        return params
    if params is None:
        raise NotAState("state document needs a 'matrix' or 'bloch' key")
    return params
