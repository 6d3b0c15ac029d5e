"""Small dense complex-matrix kernel used by the rest of the package.

Only the dimensions that actually occur here are supported: 2x2 and 3x3
(qubit/qutrit states) and 9x9 (Choi matrices).  The 3x3 Hermitian
eigenvalue path uses the trigonometric closed form of the cubic
characteristic polynomial, which is exact enough for positivity work; it
falls back to LAPACK when the spectrum is nearly degenerate and the
closed form loses digits.  It is not faster than LAPACK: one call takes
about 17 us against about 3 us for `numpy.linalg.eigvalsh` (2-core
x86-64, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionOverflow, DimensionUnsupported, NonHermitian

__all__ = ["as_matrix", "herm_eigvals", "det", "kron"]

_EIG_DIMS = (2, 3, 9)
_KRON_MAX_ENTRIES = 81  # largest supported result: 9x9


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
    """Eigenvalues of a Hermitian matrix, ascending.

    dim 2: closed-form quadratic.  dim 3: trigonometric cubic with a
    LAPACK fallback near degeneracy.  dim 9: LAPACK.
    """
    a = as_matrix(m)
    dim = a.shape[0]
    if dim not in _EIG_DIMS:
        raise DimensionUnsupported(f"herm_eigvals supports dims {_EIG_DIMS}, got {dim}")
    _check_hermitian(a, tol)

    if dim == 2:
        mu = 0.5 * (a[0, 0].real + a[1, 1].real)
        rad = np.hypot(0.5 * (a[0, 0].real - a[1, 1].real), abs(a[0, 1]))
        return np.array([mu - rad, mu + rad])

    if dim == 9:
        return np.linalg.eigvalsh(a)

    # 3x3 trigonometric route: shift to traceless B = (A - q I)/p, then
    # the eigenvalues of B are 2 cos(phi + 2 pi k / 3) with
    # cos(3 phi) = det(B)/2.
    q = np.trace(a).real / 3.0
    a00 = a[0, 0].real - q
    a11 = a[1, 1].real - q
    a22 = a[2, 2].real - q
    p1 = abs(a[0, 1]) ** 2 + abs(a[0, 2]) ** 2 + abs(a[1, 2]) ** 2
    p2 = a00 * a00 + a11 * a11 + a22 * a22 + 2.0 * p1
    if p2 <= 1e-30:
        return np.array([q, q, q])
    p = np.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    half_det = det(b).real / 2.0
    if abs(half_det) >= 1.0 - 1e-12:
        # confluent roots: the arccos branch is ill-conditioned here
        return np.linalg.eigvalsh(a)
    phi = np.arccos(half_det) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.sort(np.array([e1, e2, e3]))


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


def kron(a, b) -> np.ndarray:
    """Kronecker product with a hard cap at 9x9 results."""
    x, y = as_matrix(a), as_matrix(b)
    out_dim = x.shape[0] * y.shape[0]
    if out_dim * out_dim > _KRON_MAX_ENTRIES:
        raise DimensionOverflow(f"kron result dim {out_dim} exceeds 9")
    return np.kron(x, y)
