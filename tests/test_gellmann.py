"""Traceless-Hermitian-basis expansion of qutrit states and the measure
densities written in that eight-component chart."""

import math

import numpy as np
import pytest

from conftest import oracle_eigvals, oracle_spectral_parts, random_density
from qutrit_bloch import gellmann, matcore
from qutrit_bloch.errors import DegenerateBures, NotAState, OriginSingularity, OutsideSphere


def test_basis_is_orthonormal_traceless_hermitian():
    basis = gellmann.gm_basis()
    assert len(basis) == 8
    for a, mat_a in enumerate(basis):
        assert abs(np.trace(mat_a)) < 1e-15
        assert np.max(np.abs(mat_a - mat_a.conj().T)) < 1e-15
        for b, mat_b in enumerate(basis):
            want = 2.0 if a == b else 0.0
            assert abs(np.trace(mat_a @ mat_b).real - want) < 1e-14


def test_round_trip(rng):
    for _ in range(100):
        rho = random_density(rng)
        g = gellmann.to_gm(rho)
        assert np.max(np.abs(gellmann.from_gm(g) - rho)) < 1e-13


def test_component_scale_on_known_states():
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = 1.0
    g = gellmann.to_gm(e0)
    # only the two diagonal generators contribute
    expected = (0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0, math.sqrt(3.0) / 2.0)
    assert np.max(np.abs(np.array(g.g) - expected)) < 1e-14
    assert abs(g.r_g - math.sqrt(3.0)) < 1e-14
    mixed = gellmann.to_gm(np.eye(3, dtype=complex) / 3.0)
    assert np.max(np.abs(mixed.g)) < 1e-15


def test_pure_states_sit_at_radius_sqrt3(rng):
    for _ in range(30):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        g = gellmann.to_gm(np.outer(v, v.conj()))
        assert abs(g.r_g - math.sqrt(3.0)) < 1e-12


def test_radius_scales_with_chart_radius(rng):
    """The eight-component radius is sqrt(3) times the four-weight
    chart radius of the same state."""
    from qutrit_bloch.bloch import from_density

    for _ in range(50):
        rho = random_density(rng)
        r_g = gellmann.to_gm(rho).r_g
        r = from_density(rho).radius
        assert abs(r_g - math.sqrt(3.0) * r) < 1e-12


def test_to_gm_validation():
    with pytest.raises(NotAState):
        gellmann.to_gm(np.eye(2, dtype=complex) / 2.0)
    with pytest.raises(NotAState):
        gellmann.to_gm(np.eye(3, dtype=complex))  # trace 3
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 1] = 1.0
    bad[0, 0] = 1.0
    with pytest.raises(NotAState):
        gellmann.to_gm(bad)
    with pytest.raises(ValueError, match="eight entries"):
        gellmann.GmBloch((0.1,) * 7)
    with pytest.raises(ValueError, match="non-finite"):
        gellmann.GmBloch((0.1,) * 7 + (math.nan,))


def test_hs_density_identity(rng):
    """The closed-form numerator equals the squared Vandermonde of the
    spectrum, so the density can be recomputed spectrally."""
    worst = 0.0
    for _ in range(200):
        rho = random_density(rng)
        g = gellmann.to_gm(rho)
        l1, l2, l3 = oracle_eigvals(rho)
        vand = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
        got = gellmann.hs_density_gm(g) * g.r_g**7
        worst = max(worst, abs(got - vand) / max(vand, 1e-300))
    assert worst < 1e-8


def test_bures_denominator_identity(rng):
    """3 - r^2 - 9 det equals 9 prod(l_j + l_k)."""
    for _ in range(200):
        rho = random_density(rng)
        g = gellmann.to_gm(rho)
        l1, l2, l3 = oracle_eigvals(rho)
        d = float(np.linalg.det(rho).real)
        lhs = 3.0 - g.r_g**2 - 9.0 * d
        rhs = 9.0 * (l1 + l2) * (l1 + l3) * (l2 + l3)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1e-12)


def test_bures_density_consistency(rng):
    for _ in range(100):
        rho = random_density(rng)
        g = gellmann.to_gm(rho)
        l1, l2, l3 = oracle_eigvals(rho)
        if min(l1, l2, l3) < 1e-3:
            continue
        vand = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
        d = l1 * l2 * l3
        want = vand / (g.r_g**7 * 9.0 * (l1 + l2) * (l1 + l3) * (l2 + l3) * math.sqrt(d))
        got = gellmann.bures_density_gm(g)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-12)


def test_densities_at_small_radius_match_the_spectrum(rng):
    """Down to r = 1e-3 both densities agree with the spectral oracle to
    1e-10 relative; a numerator built from det rho is wrong outright there."""
    basis = np.array(gellmann.gm_basis())
    for _ in range(300):
        v = rng.standard_normal(8)
        g = float(rng.uniform(1e-3, 0.1)) * v / np.linalg.norm(v)
        vand, pairs, prod = oracle_spectral_parts(np.tensordot(g, basis, axes=1) / 3.0)
        hs = vand / math.sqrt(g @ g) ** 7
        bures = hs / (9.0 * pairs * math.sqrt(prod))
        got = (gellmann.hs_density_gm(g), gellmann.bures_density_gm(g))
        assert got == pytest.approx((hs, bures), rel=1e-10, abs=0.0)


def test_angular_factor_is_the_weights_chart_one(rng):
    """F read off the Gell-Mann direction, (sqrt(3)/2) Tr(A^3), equals the
    weights chart's F from `a3_polar` for the same state."""
    from qutrit_bloch.bloch import from_density, to_polar
    from qutrit_bloch.positivity import a3_polar

    for _ in range(200):
        rho = random_density(rng)
        p = from_density(rho)
        pol = to_polar(p)
        _value, f_weights = a3_polar(pol.r, pol.zeta, p.theta)
        f_gm = gellmann._density_parts(gellmann.to_gm(rho))[3]
        assert abs(f_gm - f_weights) <= 1e-14


def test_density_gates():
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = 1.0
    with pytest.raises(DegenerateBures, match=r"det = .*, 3 - r\^2 - 9 det = "):
        gellmann.bures_density_gm(gellmann.to_gm(e0))  # det = 0 exactly
    with pytest.raises(OriginSingularity):
        gellmann.hs_density_gm(gellmann.to_gm(np.eye(3, dtype=complex) / 3.0))


def test_density_sphere_gate():
    """Points beyond |g| = sqrt(3) are no states and are refused with the
    weights chart's gate, (|g| / sqrt(3))^2 <= 1 + 1e-9."""
    outside = (2.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for density in (gellmann.hs_density_gm, gellmann.bures_density_gm):
        with pytest.raises(OutsideSphere):
            density(outside)
    with pytest.raises(OutsideSphere):
        gellmann.bures_density_gm(outside, signed=True)
    edge = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0) * math.sqrt(3.0)
    assert gellmann.hs_density_gm(tuple(edge * math.sqrt(1.0 + 0.9e-9))) >= 0.0
    with pytest.raises(OutsideSphere):
        gellmann.hs_density_gm(tuple(edge * math.sqrt(1.0 + 1.1e-9)))
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = 1.0
    assert gellmann.to_gm(e0).r_g == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert gellmann.hs_density_gm(gellmann.to_gm(e0)) == pytest.approx(0.0, abs=1e-15)


def test_signed_bures_diagnostic():
    """Outside the positive body the signed diagnostic flips sign with
    the determinant."""
    rho_out = np.diag([0.70, 0.45, -0.15]).astype(complex)  # one negative eigenvalue
    g = gellmann.to_gm(rho_out)
    assert float(np.linalg.det(rho_out).real) < 0.0
    with pytest.raises(DegenerateBures):
        gellmann.bures_density_gm(g)
    diag = gellmann.bures_density_gm(g, signed=True)
    assert diag < 0.0  # numerator is a square; the flipped root sets the sign
