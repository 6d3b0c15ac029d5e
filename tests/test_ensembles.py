"""Random-state samplers (determinism, physicality, golden values) and
the closed-form measure densities with their spectral identities."""

import math

import numpy as np
import pytest

from conftest import oracle_eigvals
from qutrit_bloch import ensembles
from qutrit_bloch.errors import (
    DegenerateBures,
    OriginSingularity,
    OutsideSphere,
)

GOLDEN = {
    "hs": {
        "eigs": (0.06698674253455555, 0.19758257652424388, 0.7354306809412006),
        "r": 0.6136583553056874,
        "n": (-0.2578948429704325, 0.3776919167556683, -0.36980595444797065, 0.17509768438786363),
        "purity": 0.5843843846909875,
    },
    "bures": {
        "eigs": (0.004841995824859113, 0.0862651433738546, 0.9088928608012863),
        "r": 0.866214193170857,
        "n": (-0.2003562084631062, 0.2139200221699704, -0.755255457602964, 0.30661349620762623),
        "purity": 0.8335513523004258,
    },
}


# --- samplers -----------------------------------------------------------------


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_golden_first_sample(measure):
    s = ensembles.sample_batch(measure, 1, 7)[0]
    g = GOLDEN[measure]
    assert np.max(np.abs(np.array(s.eigs) - g["eigs"])) < 1e-14
    assert abs(s.r - g["r"]) < 1e-14
    assert np.max(np.abs(np.array(s.bloch.n) - g["n"])) < 1e-14
    assert abs(s.purity - g["purity"]) < 1e-14


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_batch_prefix_property(measure):
    big = ensembles.sample_rhos(measure, 6, 123)
    small = ensembles.sample_rhos(measure, 4, 123)
    assert np.array_equal(big[:4], small)
    single = ensembles.sample_rhos(measure, 1, 123)
    assert np.array_equal(big[:1], single)


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_single_sample_equals_batch_head(measure):
    one = ensembles.sample_hs(9) if measure == "hs" else ensembles.sample_bures(9)
    batch = ensembles.sample_batch(measure, 3, 9)
    assert np.array_equal(one.rho, batch[0].rho)


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_samples_are_states(measure):
    for s in ensembles.sample_batch(measure, 200, 42):
        rho = s.rho
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-13
        assert oracle_eigvals(rho)[0] > -1e-12


def test_sample_record_consistency():
    for s in ensembles.sample_batch("hs", 20, 5):
        assert np.max(np.abs(np.array(s.eigs) - oracle_eigvals(s.rho))) < 1e-10
        assert abs(s.r - math.sqrt(sum(v * v for v in s.bloch.n))) < 1e-13
        assert abs(s.det - np.linalg.det(s.rho).real) < 1e-13
        assert abs(s.purity - np.trace(s.rho @ s.rho).real) < 1e-12


def test_haar_unitary_properties():
    rng = ensembles.as_rng(3)
    u = ensembles.haar_unitary(rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12
    # determinism
    v = ensembles.haar_unitary(ensembles.as_rng(3))
    assert np.array_equal(u, v)


def test_rng_passthrough():
    rng = ensembles.as_rng(11)
    assert ensembles.as_rng(rng) is rng


def test_bad_measure_rejected():
    with pytest.raises(ValueError):
        ensembles.sample_rhos("ginibre", 1, 0)
    with pytest.raises(ValueError):
        ensembles.sample_rhos("hs", -1, 0)
    assert ensembles.sample_rhos("hs", 0, 0).shape == (0, 3, 3)


def test_hs_mean_purity_coarse():
    samples = ensembles.sample_batch("hs", 20000, 1234)
    mean = float(np.mean([s.purity for s in samples]))
    assert abs(mean - 0.6) < 0.01


# --- simplex densities ----------------------------------------------------------


def test_simplex_density_formulas():
    lam = (0.5, 0.3, 0.2)
    vand = ((0.5 - 0.3) * (0.5 - 0.2) * (0.3 - 0.2)) ** 2
    assert abs(ensembles.hs_density_simplex(lam) - vand) < 1e-15
    bures = vand / (math.sqrt(0.5 * 0.3 * 0.2) * 0.8 * 0.7 * 0.5)
    assert abs(ensembles.bures_density_simplex(lam) - bures) < 1e-14


def test_simplex_density_symmetry():
    a = ensembles.hs_density_simplex((0.5, 0.3, 0.2))
    b = ensembles.hs_density_simplex((0.2, 0.5, 0.3))
    assert abs(a - b) < 1e-15


def test_simplex_density_validation():
    with pytest.raises(ValueError):
        ensembles.hs_density_simplex((0.5, 0.3, 0.3))  # sums to 1.1
    with pytest.raises(ValueError):
        ensembles.hs_density_simplex((1.2, -0.1, -0.1))
    with pytest.raises(DegenerateBures):
        ensembles.bures_density_simplex((0.5, 0.5, 0.0))


# --- chart densities -----------------------------------------------------------


def test_hs_density_bloch_matches_spectral_route(rng):
    """Radial density recomputed from eigenvalues: the numerator over 27
    is the squared Vandermonde of the spectrum."""
    for _ in range(100):
        s = ensembles.sample_batch("hs", 1, int(rng.integers(1 << 31)))[0]
        pol_zeta = _polar_angles(s.bloch.n)
        got = ensembles.hs_density_bloch(s.r, pol_zeta, s.bloch.theta)
        l1, l2, l3 = s.eigs
        vand = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
        want = 27.0 * vand / (27.0 * s.r**3)
        assert abs(got - want) <= 1e-8 * max(abs(want), 1e-12)


def _polar_angles(n):
    """Invert the nested-spherical weight chart (helper for tests)."""
    from qutrit_bloch.bloch import BlochParams, to_polar

    theta = tuple(0.0 if v == 0.0 else 0.5 for v in n)
    p = BlochParams.canonical(n, theta)
    return to_polar(p).zeta


def test_bures_density_bloch_positive_region():
    val = ensembles.bures_density_bloch(0.3, (0.7, 0.8, 0.9), (0.2, 0.3, 0.4, 0.5))
    assert val > 0.0


def test_bures_density_domain_gate():
    # a pure-state direction at full radius has det = 0
    with pytest.raises(DegenerateBures, match=r"det = .*, \(1-r\^2\)/3 - det = "):
        ensembles.bures_density_bloch(1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


def test_bures_signed_diagnostic_changes_sign():
    zeta = (math.pi / 3.0, 0.0, math.pi / 7.0)
    theta = (0.0, 0.0, 0.0, 0.0)
    lo = ensembles.bures_density_bloch(0.70, zeta, theta, signed=True)
    hi = ensembles.bures_density_bloch(0.76, zeta, theta, signed=True)
    assert lo > 0.0
    assert hi < 0.0


def test_density_origin_and_sphere_gates():
    with pytest.raises(OriginSingularity):
        ensembles.hs_density_bloch(0.0, (0.0, 0.0, 0.0), (0.0,) * 4)
    with pytest.raises(OutsideSphere):
        ensembles.hs_density_bloch(1.2, (0.0, 0.0, 0.0), (0.0,) * 4)


def test_qubit_densities():
    for r in (0.0, 0.3, 0.9, 1.0):
        assert ensembles.qubit_hs_density(r) == 3.0 / (4.0 * math.pi)
    assert abs(ensembles.qubit_bures_density(0.0) - 4.0 / math.pi) < 1e-15
    assert ensembles.qubit_bures_density(0.6) == pytest.approx(
        4.0 / (math.pi * math.sqrt(1.0 - 0.36)), abs=1e-15
    )
    with pytest.raises(OutsideSphere):
        ensembles.qubit_hs_density(1.1)
    with pytest.raises(OutsideSphere):
        ensembles.qubit_bures_density(1.0)


def test_identity_checks_tight():
    out = ensembles.identity_checks(500, 2024)
    assert out["count"] == 500
    assert out["max_rel_sum_pairs"] < 1e-10
    assert out["max_rel_det"] < 1e-10
    assert out["max_rel_hs_numerator"] < 1e-10
    assert out["skipped_near_degenerate"] < 25
