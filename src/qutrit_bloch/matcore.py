"""Small dense complex-matrix kernel used by the rest of the package.

Only 3x3 (qutrit) matrices are supported; other sizes raise
`DimensionUnsupported`.  Hermitian spectra take one path: the input is
validated (finite, 3x3, Hermitian within tolerance) and handed to LAPACK
through `numpy.linalg.eigvalsh`.  Determinants take one cofactor
expansion in real arithmetic over a stack (`det_batch`); `det` is one
row of it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionUnsupported, NonHermitian

__all__ = ["as_matrix", "herm_eigvals", "det", "det_batch"]


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionUnsupported(f"expected a square matrix, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError("matrix has non-finite entries")
    return a


def _check_hermitian(a: np.ndarray, tol: float) -> None:
    dev = np.abs(a - a.conj().T).max()
    if dev > tol:
        raise NonHermitian(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")


def herm_eigvals(m, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a Hermitian 3x3 matrix, ascending, from LAPACK."""
    a = as_matrix(m)
    if a.shape != (3, 3):
        raise DimensionUnsupported(f"herm_eigvals supports only 3x3, got {a.shape}")
    _check_hermitian(a, tol)
    return np.linalg.eigvalsh(a)


def _cmul(p, q):
    """Product of two (re, im) pairs, rounded as numpy's complex scalar
    multiply rounds it (its array loop may fuse multiply-adds)."""
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _csub(p, q):
    return p[0] - q[0], p[1] - q[1]


def _cofactor3(e):
    """(re, im) of a 3x3 determinant by cofactor expansion along row 0;
    `e` is a 3x3 grid of (re, im) pairs of equal-shape arrays."""
    (a, b, c), (d, f, g), (h, i, j) = e
    x = _cmul(a, _csub(_cmul(f, j), _cmul(g, i)))
    y = _cmul(b, _csub(_cmul(d, j), _cmul(g, h)))
    z = _cmul(c, _csub(_cmul(d, i), _cmul(f, h)))
    return x[0] - y[0] + z[0], x[1] - y[1] + z[1]


def det(m) -> complex:
    """Determinant of a 3x3 matrix: one row of `det_batch`."""
    return complex(det_batch(as_matrix(m)[np.newaxis])[0])


def det_batch(m) -> np.ndarray:
    """Determinants of an (N, 3, 3) stack by cofactor expansion."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 3 or a.shape[1:] != (3, 3):
        raise DimensionUnsupported(f"expected an (N, 3, 3) stack, got shape {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError("matrix has non-finite entries")
    re, im = _cofactor3([[(a[:, i, j].real, a[:, i, j].imag) for j in range(3)] for i in range(3)])
    out = np.empty(len(a), dtype=complex)
    out.real, out.imag = re, im
    return out
