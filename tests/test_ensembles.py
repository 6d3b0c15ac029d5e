"""Random-state samplers (determinism, physicality, golden values, the
columns against a frozen per-state oracle) and the closed-form measure
densities with their spectral identities."""

import math

import numpy as np
import pytest

from conftest import oracle_eigvals, oracle_spectral_parts
from qutrit_bloch import ensembles
from qutrit_bloch.weyl import weyl_op
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


# --- frozen per-state reference -----------------------------------------------
#
# The sampler's earlier per-state route, kept verbatim as the oracle of the
# columnar one: one np.vdot per coefficient, the scalar gauge reduction, a
# one-matrix LAPACK call and a cofactor expansion on numpy scalars.

_ORACLE_OPS = [weyl_op(*key) for key in ((0, 1), (1, 0), (1, 2), (2, 2))]


def _oracle_canonical_pair(n, theta, zero_tol=1e-13):
    if abs(n) <= zero_tol:
        return 0.0, 0.0
    if n < 0.0:
        n, theta = -n, theta + np.pi
    theta = math.remainder(float(theta), 2.0 * np.pi)
    if theta < 0.0:
        n, theta = -n, theta + np.pi
    if theta >= np.pi:
        n, theta = -n, theta - np.pi
    return float(n), float(theta)


def _oracle_record(rho):
    """(eigs, n, theta, det) of one matrix by the per-state route."""
    ns, ts = [], []
    for u in _ORACLE_OPS:
        b = np.vdot(u, rho)
        mag = abs(b)
        if mag <= 1e-13:
            ns.append(0.0)
            ts.append(0.0)
            continue
        nv, tv = _oracle_canonical_pair(mag, float(np.angle(b)))
        ns.append(nv)
        ts.append(tv)
    a = rho
    det = (
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )
    return np.linalg.eigvalsh(rho), np.array(ns), np.array(ts), float(det.real)


@pytest.mark.parametrize("measure", ["hs", "bures"])
@pytest.mark.parametrize("seed", [3, 1618, 2 ** 40 + 7])
def test_columns_match_frozen_per_state_oracle(measure, seed):
    batch = ensembles.sample_batch(measure, 300, seed)
    assert len(batch) == 300 and batch.measure == measure
    for k, rho in enumerate(batch.rho):
        eigs, n, theta, det = _oracle_record(rho)
        assert np.array_equal(batch.eigs[k], eigs)
        assert batch.det[k] == det
        assert np.max(np.abs(batch.n[k] - n)) <= 1e-15
        # the complex coefficient n e^{i theta}, free of theta's 1/|b| blow-up
        assert np.max(np.abs(batch.n[k] * np.exp(1j * batch.theta[k])
                             - n * np.exp(1j * theta))) <= 1e-15
    assert np.all((batch.theta >= 0.0) & (batch.theta < np.pi))
    assert np.all(batch.theta[batch.n == 0.0] == 0.0)
    sq = batch.n * batch.n
    assert np.array_equal(batch.r, np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3]))
    assert np.array_equal(batch.purity, (1.0 + 2.0 * batch.r * batch.r) / 3.0)


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_column_prefix_property(measure):
    big = ensembles.sample_batch(measure, 9, 321)
    small = ensembles.sample_batch(measure, 4, 321)
    for name in ("rho", "eigs", "n", "theta", "r", "det", "purity"):
        assert np.array_equal(getattr(big, name)[:4], getattr(small, name)), name


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_consecutive_batches_continue_one_stream(measure):
    """Batches of 1, 4 and 7 drawn in turn from one generator are the 12
    draws of one batch, bit for bit: `sample` streams its CSV this way."""
    whole = ensembles.sample_batch(measure, 12, 2024)
    rng = np.random.default_rng(2024)
    parts = [ensembles.sample_batch(measure, k, rng) for k in (1, 4, 7)]
    for name in ("rho", "eigs", "n", "theta", "r", "det", "purity"):
        joined = np.concatenate([getattr(p, name) for p in parts])
        assert np.array_equal(joined, getattr(whole, name)), name


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_empty_batch_has_zero_rows(measure):
    batch = ensembles.sample_batch(measure, 0, 5)
    assert len(batch) == 0 and list(batch) == []
    for name, width in (("rho", (3, 3)), ("eigs", (3,)), ("n", (4,)), ("theta", (4,)),
                        ("r", ()), ("det", ()), ("purity", ())):
        assert getattr(batch, name).shape == (0, *width), name
    with pytest.raises(IndexError):
        batch[0]


def test_rows_read_the_columns():
    batch = ensembles.sample_batch("bures", 5, 8)
    rows = list(batch)
    assert len(rows) == 5
    for k, s in enumerate(rows):
        assert s.measure == "bures"
        assert np.array_equal(s.rho, batch.rho[k])
        assert s.eigs == tuple(batch.eigs[k])
        assert s.bloch.n == tuple(batch.n[k]) and s.bloch.theta == tuple(batch.theta[k])
        assert (s.r, s.det, s.purity) == (batch.r[k], batch.det[k], batch.purity[k])
    assert batch[-1].bloch == rows[4].bloch and np.array_equal(batch[-1].rho, rows[4].rho)
    with pytest.raises(IndexError):
        batch[5]
    with pytest.raises(TypeError):
        batch[1:3]


def test_haar_unitary_properties():
    rng = ensembles.as_rng(3)
    u = ensembles.haar_unitary(rng)
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12
    # determinism
    v = ensembles.haar_unitary(ensembles.as_rng(3))
    assert np.array_equal(u, v)


def test_batched_haar_matches_one_unitary_per_draw():
    """One (N, 2, 3, 3) draw through the batched kernel gives, bit for
    bit, the unitaries of N successive `haar_unitary` calls."""
    batch = ensembles._haar(ensembles.as_rng(5).standard_normal((300, 2, 3, 3)))
    rng = ensembles.as_rng(5)
    assert np.array_equal(batch, np.array([ensembles.haar_unitary(rng) for _ in range(300)]))
    eye = np.broadcast_to(np.eye(3), batch.shape)
    assert np.max(np.abs(batch @ batch.conj().transpose(0, 2, 1) - eye)) < 1e-12


def test_bures_draws_match_the_inline_kernel():
    """Bures draws equal, bit for bit, the Ginibre-plus-QR kernel written
    out in full: (1 + U) G normalised, U Haar with the phase fix."""
    blocks = ensembles.as_rng(31).standard_normal((200, 4, 3, 3))
    g = (blocks[:, 0] + 1j * blocks[:, 1]) / math.sqrt(2.0)
    q, r = np.linalg.qr((blocks[:, 2] + 1j * blocks[:, 3]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    m = (np.eye(3) + q * (d / np.abs(d))[:, np.newaxis, :]) @ g
    w = m @ m.conj().transpose(0, 2, 1)
    want = w / np.trace(w, axis1=1, axis2=2).real[:, np.newaxis, np.newaxis]
    assert np.array_equal(ensembles.sample_rhos("bures", 200, 31), want)


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
    with pytest.raises(ValueError, match="three eigenvalues"):
        ensembles.hs_density_simplex((0.5, 0.5))
    with pytest.raises(DegenerateBures):
        ensembles.bures_density_simplex((0.5, 0.5, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simplex_densities_reject_non_finite_eigenvalues(bad):
    """Every comparison with NaN is false, so the sum and sign gates alone
    let (nan, 0.5, 0.5) through to a NaN density; each slot raises."""
    for density in (ensembles.hs_density_simplex, ensembles.bures_density_simplex):
        for slot in range(3):
            lam = [0.5, 0.3, 0.2]
            lam[slot] = bad
            with pytest.raises(ValueError, match="finite"):
                density(lam)


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


def test_chart_densities_at_small_radius_match_the_spectrum(rng):
    """Down to r = 1e-3 the radial form agrees with the spectral oracle to
    1e-10 relative; a density built from det rho loses six digits there."""
    from qutrit_bloch.bloch import PolarParams, bloch_coefficients, from_polar

    for _ in range(300):
        r = float(rng.uniform(1e-3, 0.1))
        zeta = (float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.pi)),
                float(rng.uniform(0, 2 * math.pi)))
        theta = tuple(rng.uniform(0, 2 * math.pi, 4).tolist())
        coeffs = bloch_coefficients(from_polar(PolarParams(r, zeta), theta))
        traceless = sum(b * weyl_op(*key) for key, b in coeffs.items() if key != (0, 0)) / 3.0
        vand, pairs, prod = oracle_spectral_parts(traceless)
        hs = vand / r**3
        bures = hs / (pairs * math.sqrt(prod))
        got = (ensembles.hs_density_bloch(r, zeta, theta),
               ensembles.bures_density_bloch(r, zeta, theta))
        assert got == pytest.approx((hs, bures), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("slot", range(8))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_chart_densities_reject_non_finite_input(slot, value):
    at = [0.3, 0.1, 0.2, 0.4, 0.0, 0.0, 0.0, 0.0]
    at[slot] = value
    for density in (ensembles.hs_density_bloch, ensembles.bures_density_bloch):
        with pytest.raises(ValueError, match="non-finite"):
            density(at[0], at[1:4], at[4:8])


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
    # an exactly vanishing denominator has no sign to report
    with pytest.raises(DegenerateBures, match="vanishes exactly"):
        ensembles._bures_ratio(1.0, 0.1, 0.0, "gap", signed=True)


def test_density_origin_and_sphere_gates():
    with pytest.raises(OriginSingularity):
        ensembles.hs_density_bloch(0.0, (0.0, 0.0, 0.0), (0.0,) * 4)
    with pytest.raises(OutsideSphere):
        ensembles.hs_density_bloch(1.2, (0.0, 0.0, 0.0), (0.0,) * 4)
    with pytest.raises(ValueError, match="nonnegative"):
        ensembles.bures_density_bloch(-0.3, (0.1, 0.2, 0.3), (0.0,) * 4)


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


def test_identity_checks_keys_and_numpy_recount(monkeypatch):
    """Keys and the degenerate-draw count against a numpy-only recount of
    the same 2 000 draws, every relative error inside 1e-8.  Seeded HS
    draws are never this degenerate, so rotated copies of three
    (near-)degenerate spectra are appended to exercise the skip."""
    draws = ensembles.sample_rhos("hs", 2000, 77)
    rng = ensembles.as_rng(78)
    spectra = ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.5, 0.0), (0.4, 0.4 + 1e-6, 0.2 - 1e-6))
    extra = []
    for lam in spectra:
        u = ensembles.haar_unitary(rng)
        extra.append(u @ np.diag(lam) @ u.conj().T)
    stack = np.concatenate([draws, np.array(extra)])
    stack /= np.trace(stack, axis1=1, axis2=2).real[:, None, None]
    monkeypatch.setattr(ensembles, "sample_rhos", lambda measure, count, seed: stack)

    out = ensembles.identity_checks(2000, 77)
    assert list(out) == ["count", "skipped_near_degenerate", "max_rel_sum_pairs",
                         "max_rel_det", "max_rel_hs_numerator"]
    lam = np.linalg.eigvalsh(stack)
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    skipped = int(np.sum(((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2 < 1e-14))
    assert skipped == 3
    assert out["count"] == 2000
    assert out["skipped_near_degenerate"] == skipped
    for key in ("max_rel_sum_pairs", "max_rel_det", "max_rel_hs_numerator"):
        assert 0.0 <= out[key] < 1e-8, key
