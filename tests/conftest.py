"""Shared fixtures and oracles for the test suite.

Oracle policy: every library result checked here is compared against an
independent route - LAPACK eigensolvers instead of closed-form spectra,
power-trace moments for the library's own LAPACK wrapper,
permutation-expansion determinants, the determinant bracket written out
term by term instead of the library's wave table, explicit matrix
assembly instead of chart arithmetic - so that implementation and
reference never share code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from qutrit_bloch.bloch import BlochParams, from_density


# --- independent oracles ---------------------------------------------------


def oracle_eigvals(m) -> np.ndarray:
    """Ascending eigenvalues via LAPACK (independent of the library's
    closed-form Choi spectrum and its chart arithmetic)."""
    return np.linalg.eigvalsh(np.asarray(m, dtype=complex))


def oracle_det(m) -> complex:
    """Determinant by permutation expansion (no LU, no cofactors)."""
    a = np.asarray(m, dtype=complex)
    k = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        sign = 1
        seen = [False] * k
        for start in range(k):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign + 0j
        for i in range(k):
            term *= a[i, perm[i]]
        total += term
    return total


def oracle_bracket(n, t1, t2, t3, t4):
    """27 * det(rho) written out independently of the library's table of
    wave terms (broadcasts over weights and angles)."""
    n1, n2, n3, n4 = n
    return (
        1.0
        - 3.0 * (n1 * n1 + n2 * n2 + n3 * n3 + n4 * n4)
        + 2.0 * (n1**3 * np.cos(3 * t1) + n2**3 * np.cos(3 * t2)
                 + n3**3 * np.cos(3 * t3) + n4**3 * np.cos(3 * t4))
        - 6.0 * n1 * n3 * n4 * np.cos(t1 - t3 - t4)
        + 6.0 * n1 * n2 * n3 * np.cos(t1 - t2 + t3 - math.pi / 3.0)
        + 6.0 * n2 * n3 * n4 * np.cos(t2 + t3 - t4 + math.pi / 3.0)
        + 6.0 * n1 * n2 * n4 * np.cos(t1 + t2 + t4 + math.pi / 3.0)
    )


def oracle_spectral_parts(traceless) -> tuple[float, float, float]:
    """(prod (l_j - l_k)^2, prod (l_j + l_k), prod l) of the state
    rho = I/3 + traceless, from the LAPACK eigenvalues of the traceless
    part shifted by 1/3; differences of that small spectrum keep full
    relative precision at small radius."""
    l1, l2, l3 = np.linalg.eigvalsh(np.asarray(traceless, dtype=complex)) + 1.0 / 3.0
    vand = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
    return vand, (l1 + l2) * (l1 + l3) * (l2 + l3), l1 * l2 * l3


def random_density(rng: np.random.Generator, rank: int = 3) -> np.ndarray:
    """Random density matrix assembled directly from Gaussian vectors
    (independent of the library's samplers)."""
    g = rng.standard_normal((3, rank)) + 1j * rng.standard_normal((3, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_params(rng: np.random.Generator) -> BlochParams:
    """Chart parameters of a random physical state."""
    return from_density(random_density(rng))


# --- fixtures ----------------------------------------------------------------


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


# --- acceptance summary ------------------------------------------------------


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import acceptance_report

    if not acceptance_report.RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance checklist")
    for line in acceptance_report.summary_lines():
        terminalreporter.write_line(line)
