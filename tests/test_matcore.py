"""Matrix-core contracts: shape validation, 3x3 Hermitian eigenvalues
against a solver-free oracle (power-trace moments), and determinants
against permutation expansion."""

import numpy as np
import pytest

from conftest import oracle_det, random_density
from qutrit_bloch import matcore
from qutrit_bloch.errors import DimensionUnsupported, NonHermitian


def test_as_matrix_accepts_square_complex():
    m = matcore.as_matrix([[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert m.dtype == complex


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        matcore.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        matcore.as_matrix(np.zeros(4))
    with pytest.raises(ValueError, match="non-finite"):
        matcore.as_matrix([[1.0, 0.0], [0.0, np.nan]])


def test_herm_eigvals_3x3_moment_oracle(rng):
    """Power-trace moments k=1..3 determine a 3x3 spectrum; they are
    computed by matrix products, without an eigensolver."""
    for _ in range(300):
        rho = random_density(rng)
        got = matcore.herm_eigvals(rho)
        assert got[0] <= got[1] <= got[2]
        power = np.eye(3, dtype=complex)
        for k in range(1, 4):
            power = power @ rho
            assert abs(np.sum(got**k) - np.trace(power).real) < 1e-13


def test_herm_eigvals_degenerate_exact():
    got = matcore.herm_eigvals(np.eye(3, dtype=complex) / 3.0)
    assert np.max(np.abs(got - 1.0 / 3.0)) < 1e-15


def test_herm_eigvals_rejects_non_hermitian():
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NonHermitian):
        matcore.herm_eigvals(bad)


@pytest.mark.parametrize("dim", [2, 4, 9])
def test_herm_eigvals_rejects_unsupported_dim(dim):
    """The kernel (spectra and determinants) is 3x3 only."""
    with pytest.raises(DimensionUnsupported):
        matcore.herm_eigvals(np.eye(dim, dtype=complex))
    with pytest.raises(DimensionUnsupported):
        matcore.det(np.eye(dim, dtype=complex))


def test_det_matches_permutation_expansion(rng):
    for _ in range(100):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = matcore.det(g)
        ref = oracle_det(g)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def test_det_batch_rows_equal_scalar_det(rng):
    """The stacked expansion rounds like the one-matrix call, bit for bit."""
    g = rng.standard_normal((200, 3, 3)) + 1j * rng.standard_normal((200, 3, 3))
    got = matcore.det_batch(g)
    assert got.shape == (200,)
    for k in range(200):
        assert complex(got[k]) == matcore.det(g[k])
        ref = oracle_det(g[k])
        assert abs(got[k] - ref) <= 1e-12 * max(1.0, abs(ref))
    assert matcore.det_batch(np.zeros((0, 3, 3))).shape == (0,)
    with pytest.raises(DimensionUnsupported):
        matcore.det_batch(np.eye(3))
    bad = g[:2].copy()
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        matcore.det_batch(bad)
