"""Eight-dimensional Bloch chart built on the Gell-Mann matrices.

The state expands as rho = (1/3)(I + sum_i g_i L_i) over the standard
Gell-Mann basis (two symmetric and one antisymmetric off-diagonal
generator per index pair, then the two diagonal ones, normalized to
Tr(L_i L_j) = 2 delta_ij), giving g_i = (3/2) Tr(L_i rho).  Physical
states keep |g| <= sqrt(3), with equality exactly for pure states.

The ensemble densities in this chart (constants set to 1, D = det rho,
r = |g|, s = r / sqrt(3) the weight radius of the same state) are

    HS     N / r^7,  N = (1/729)(r^2-3)^2 (4r^2-3) + (2 - 2r^2 - 27 D) D
    Bures  N / ( r^7 (3 - r^2 - 9 D) sqrt(D) ),

evaluated as N = 4 s^6 (1 - F^2) / 27 with 27 D = 1 - 3 s^2 + 2 s^3 F,
where F = (sqrt(3)/2) Tr(A^3) of the unit direction A = sum (g_i / r) L_i
is the weights chart's angular factor, so N keeps full precision at small r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .bloch import GATE_TOL
from .ensembles import _bures_ratio, _radial_form
from .errors import NotAState, OriginSingularity, OutsideSphere

__all__ = [
    "GmBloch",
    "gm_basis",
    "to_gm",
    "from_gm",
    "hs_density_gm",
    "bures_density_gm",
]

# the eight Gell-Mann matrices in their standard order, as one (8, 3, 3) stack
_BASIS = np.array([
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
    [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    np.diag([1.0, 1.0, -2.0]) / math.sqrt(3.0),
], dtype=complex)


def gm_basis() -> tuple[np.ndarray, ...]:
    """The eight Gell-Mann matrices in their standard order (fresh copies)."""
    return tuple(_BASIS.copy())


@dataclass(frozen=True)
class GmBloch:
    """Eight-component Bloch vector in the Gell-Mann chart."""

    g: tuple[float, float, float, float, float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "g", tuple(float(v) for v in self.g))
        if len(self.g) != 8:
            raise ValueError("g must have eight entries")
        if not all(math.isfinite(v) for v in self.g):
            raise ValueError("non-finite component")

    @property
    def r_g(self) -> float:
        return math.sqrt(sum(v * v for v in self.g))


def to_gm(rho) -> GmBloch:
    """Extract g_i = (3/2) Tr(L_i rho) from a unit-trace Hermitian matrix."""
    a = matcore.as_matrix(rho)
    if a.shape != (3, 3):
        raise NotAState(f"expected 3x3, got {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > GATE_TOL:
        raise NotAState("matrix is not Hermitian")
    if abs(np.trace(a).real - 1.0) > GATE_TOL or abs(np.trace(a).imag) > GATE_TOL:
        raise NotAState("trace must be 1")
    return GmBloch(tuple(1.5 * np.tensordot(_BASIS, a.T, axes=2).real))


def from_gm(g) -> np.ndarray:
    """rho = (1/3)(I + sum g_i L_i); positivity is not guaranteed."""
    gb = g if isinstance(g, GmBloch) else GmBloch(tuple(g))
    return (np.eye(3) + np.tensordot(gb.g, _BASIS, axes=1)) / 3.0


def _density_parts(g) -> tuple[float, float, float, float]:
    """(HS density, r, det rho, F) from the radial form; the state's
    matrix is never built.  Points beyond |g| = sqrt(3) are refused with
    the weights chart's gate, s^2 <= 1 + 1e-9."""
    gb = g if isinstance(g, GmBloch) else GmBloch(tuple(g))
    r = gb.r_g
    if r == 0.0:
        raise OriginSingularity("radial density has a 1/r^7 prefactor")
    s = r / math.sqrt(3.0)
    if s * s > 1.0 + 1e-9:
        raise OutsideSphere(f"|g| = {r:.6f} exceeds sqrt(3)")
    a = np.tensordot(np.array(gb.g) / r, _BASIS, axes=1)
    f = 0.5 * math.sqrt(3.0) * float(np.trace(a @ a @ a).real)
    hs, d = _radial_form(s, f)
    return hs * s ** 3 / r ** 7, r, d, f


def hs_density_gm(g) -> float:
    """Hilbert-Schmidt density in the Gell-Mann chart (constant = 1)."""
    return _density_parts(g)[0]


def bures_density_gm(g, signed: bool = False) -> float:
    """Bures density in the Gell-Mann chart (constant = 1).

    Defined where det rho > 0 and 3 - r^2 - 9 det rho > 0; elsewhere it
    raises, or with signed=True returns the sign(D) sqrt|D| diagnostic.
    """
    hs, r, d, _f = _density_parts(g)
    return _bures_ratio(hs, d, 3.0 - r * r - 9.0 * d, "3 - r^2 - 9 det", signed)
