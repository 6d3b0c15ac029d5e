"""Eight-dimensional Bloch chart built on the Gell-Mann matrices.

The state expands as rho = (1/3)(I + sum_i g_i L_i) over the standard
Gell-Mann basis (two symmetric and one antisymmetric off-diagonal
generator per index pair, then the two diagonal ones, normalized to
Tr(L_i L_j) = 2 delta_ij), giving g_i = (3/2) Tr(L_i rho).  Physical
states keep |g| <= sqrt(3), with equality exactly for pure states.

The ensemble densities in this chart (constants set to 1, D = det rho,
r = |g|):

    HS     [ (1/729)(r^2-3)^2 (4r^2-3) + (2 - 2r^2 - 27 D) D ] / r^7
    Bures  same numerator / ( r^7 (3 - r^2 - 9 D) sqrt(D) ).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import matcore
from .ensembles import _bures_ratio
from .errors import NotAState, OriginSingularity

__all__ = [
    "GmBloch",
    "gm_basis",
    "to_gm",
    "from_gm",
    "hs_density_gm",
    "bures_density_gm",
]


def gm_basis() -> tuple[np.ndarray, ...]:
    """The eight Gell-Mann matrices in their standard order."""
    l1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    l2 = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
    l3 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    l4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    l5 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)
    l6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    l7 = np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex)
    l8 = np.diag([1.0, 1.0, -2.0]).astype(complex) / math.sqrt(3.0)
    return (l1, l2, l3, l4, l5, l6, l7, l8)


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
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise NotAState("matrix is not Hermitian")
    if abs(np.trace(a).real - 1.0) > 1e-10 or abs(np.trace(a).imag) > 1e-10:
        raise NotAState("trace must be 1")
    return GmBloch(tuple(1.5 * np.trace(l @ a).real for l in gm_basis()))


def from_gm(g) -> np.ndarray:
    """rho = (1/3)(I + sum g_i L_i); positivity is not guaranteed."""
    gb = g if isinstance(g, GmBloch) else GmBloch(tuple(g))
    acc = np.eye(3, dtype=complex)
    for coef, l in zip(gb.g, gm_basis()):
        acc = acc + coef * l
    return acc / 3.0


def _density_parts(g) -> tuple[float, float, float]:
    gb = g if isinstance(g, GmBloch) else GmBloch(tuple(g))
    r = gb.r_g
    if r == 0.0:
        raise OriginSingularity("radial density has a 1/r^7 prefactor")
    d = float(matcore.det(from_gm(gb)).real)
    r2 = r * r
    num = (r2 - 3.0) ** 2 * (4.0 * r2 - 3.0) / 729.0 + (2.0 - 2.0 * r2 - 27.0 * d) * d
    return num, r, d


def hs_density_gm(g) -> float:
    """Hilbert-Schmidt density in the Gell-Mann chart (constant = 1)."""
    num, r, _d = _density_parts(g)
    return num / r ** 7


def bures_density_gm(g, signed: bool = False) -> float:
    """Bures density in the Gell-Mann chart (constant = 1).

    Defined where det rho > 0 and 3 - r^2 - 9 det rho > 0; elsewhere it
    raises, or with signed=True returns the sign(D) sqrt|D| diagnostic.
    """
    num, r, d = _density_parts(g)
    return _bures_ratio(num, r ** 7, d, 3.0 - r * r - 9.0 * d, "3 - r^2 - 9 det", signed)
