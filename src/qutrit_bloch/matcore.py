"""Small dense complex-matrix kernel used by the rest of the package.

Only the dimensions that actually occur here are supported: 2x2 and 3x3
(qubit/qutrit states) and 9x9.  Hermitian spectra take one path: the
input is validated (finite, square, a supported dimension, Hermitian
within tolerance) and handed to LAPACK through `numpy.linalg.eigvalsh`.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionUnsupported, NonHermitian

__all__ = ["as_matrix", "herm_eigvals", "det"]

_EIG_DIMS = (2, 3, 9)


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex128 ndarray, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionUnsupported(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix has non-finite entries")
    return a


def _check_hermitian(a: np.ndarray, tol: float) -> None:
    dev = np.abs(a - a.conj().T).max()
    if dev > tol:
        raise NonHermitian(f"matrix deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")


def herm_eigvals(m, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending, from LAPACK."""
    a = as_matrix(m)
    dim = a.shape[0]
    if dim not in _EIG_DIMS:
        raise DimensionUnsupported(f"herm_eigvals supports dims {_EIG_DIMS}, got {dim}")
    _check_hermitian(a, tol)
    return np.linalg.eigvalsh(a)


def det(m) -> complex:
    """Determinant; cofactor expansion at 3x3, LU elsewhere."""
    a = as_matrix(m)
    if a.shape[0] == 3:
        return (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
    return complex(np.linalg.det(a))

