"""Chart parametrization: canonical gauge, matrix round trips, the
batched chart core, the pairing bound behind the Hermiticity gate, polar
coordinates, and the JSON document format."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_params
from qutrit_bloch import bloch
from qutrit_bloch.bloch import BlochParams, PolarParams
from qutrit_bloch.errors import NotAState
from qutrit_bloch.weyl import weyl_op

finite_weights = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
wide_angles = st.floats(
    min_value=-12.0 * math.pi, max_value=12.0 * math.pi, allow_nan=False, allow_infinity=False
)


# --- canonical gauge ---------------------------------------------------------


@given(finite_weights, wide_angles)
def test_canonical_pair_preserves_value_and_range(n, theta):
    cn, ct = bloch.canonical_pair(n, theta)
    assert 0.0 <= ct < math.pi
    scale = max(1.0, abs(n))
    assert abs(cn * cmath.exp(1j * ct) - n * cmath.exp(1j * theta)) <= 1e-10 * scale


@given(finite_weights, wide_angles)
def test_canonical_pair_idempotent(n, theta):
    cn, ct = bloch.canonical_pair(n, theta)
    cn2, ct2 = bloch.canonical_pair(cn, ct)
    assert abs(cn2 - cn) <= 1e-15 * max(1.0, abs(cn))
    assert abs(ct2 - ct) <= 1e-15


def test_canonical_pair_zero_floor():
    assert bloch.canonical_pair(0.0, 2.3) == (0.0, 0.0)
    assert bloch.canonical_pair(5e-14, 2.3) == (0.0, 0.0)
    assert bloch.canonical_pair(-5e-14, -1.0) == (0.0, 0.0)


@pytest.mark.parametrize(
    "n,theta",
    [
        (0.4, math.pi),
        (0.4, -math.pi),
        (0.4, -1e-20),
        (0.4, 2.0 * math.pi),
        (0.4, 3.0 * math.pi),
        (-0.4, 0.0),
        (0.4, math.nextafter(math.pi, 0.0)),
        (0.4, math.nextafter(-math.pi, 0.0)),
    ],
)
def test_canonical_pair_boundary_angles(n, theta):
    cn, ct = bloch.canonical_pair(n, theta)
    assert 0.0 <= ct < math.pi
    assert abs(cn * cmath.exp(1j * ct) - n * cmath.exp(1j * theta)) <= 1e-12


def test_params_validate_gauge():
    with pytest.raises(ValueError):
        BlochParams((0.1, 0.0, 0.0, 0.0), (math.pi, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        BlochParams((0.1, 0.0, 0.0, 0.0), (-0.1, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        BlochParams((0.0, 0.0, 0.0, 0.0), (0.5, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="four entries"):
        BlochParams((0.1, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        BlochParams((0.1, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0))
    p = BlochParams.canonical((0.1, -0.2, 0.0, 0.3), (3.5, -0.4, 1.0, 9.0))
    assert all(0.0 <= t < math.pi for t in p.theta)
    assert p.theta[2] == 0.0  # zero weight forces zero angle


@pytest.mark.parametrize("length", [3, 5])
def test_canonical_needs_four_weights_and_four_angles(length):
    """A list of any other length on either key is refused, not cut to
    its first four entries."""
    n, theta = [0.1, 0.2, 0.3, 0.4, 0.9], [0.0, 0.5, 1.0, 1.5, 2.0]
    for args in ((n[:length], theta[:4]), (n[:4], theta[:length])):
        with pytest.raises(ValueError, match="four entries"):
            BlochParams.canonical(*args)


# --- matrix round trips ------------------------------------------------------


def test_round_trip_random_states(rng):
    worst = 0.0
    for _ in range(200):
        rho = random_density(rng)
        p = bloch.from_density(rho)
        back = bloch.to_density(p)
        worst = max(worst, float(np.max(np.abs(back - rho))))
    assert worst < 1e-12


def test_round_trip_chart_to_chart(rng):
    for _ in range(100):
        p = random_params(rng)
        q = bloch.from_density(bloch.to_density(p))
        assert np.max(np.abs(np.array(q.n) - np.array(p.n))) < 1e-12
        assert np.max(np.abs(np.array(q.theta) - np.array(p.theta))) < 1e-10


def test_to_density_is_hermitian_unit_trace(rng):
    for _ in range(50):
        p = random_params(rng)
        rho = bloch.to_density(p)
        assert abs(np.trace(rho) - 1.0) < 1e-14
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-14


def test_known_states():
    mixed = bloch.from_density(np.eye(3, dtype=complex) / 3.0)
    assert np.max(np.abs(mixed.n)) < 1e-13
    e0 = np.zeros((3, 3), dtype=complex)
    e0[0, 0] = 1.0
    p0 = bloch.from_density(e0)
    # a computational basis ket sits on a single weight axis
    assert abs(p0.n[1] - 1.0) < 1e-13
    assert abs(p0.n[0]) < 1e-13 and abs(p0.n[2]) < 1e-13 and abs(p0.n[3]) < 1e-13
    assert abs(bloch.purity(p0) - 1.0) < 1e-13


def test_coefficient_table_matches_matrix_traces(rng):
    """Chart coefficients against the direct trace inner product."""
    from qutrit_bloch.weyl import weyl_op

    for _ in range(20):
        rho = random_density(rng)
        p = bloch.from_density(rho)
        coeffs = bloch.bloch_coefficients(p)
        for (pq, coeff) in coeffs.items():
            want = np.trace(weyl_op(*pq, 3).conj().T @ rho)
            assert abs(coeff - want) < 1e-12


def test_from_density_rejects_bad_input(rng):
    nonherm = np.zeros((3, 3), dtype=complex)
    nonherm[0, 1] = 1.0
    nonherm[0, 0] = 1.0
    with pytest.raises(NotAState):
        bloch.from_density(nonherm)
    with pytest.raises(NotAState):
        bloch.from_density(np.eye(3, dtype=complex))  # trace 3
    with pytest.raises(NotAState):
        bloch.from_density(np.eye(9, dtype=complex) / 9.0)  # wrong shape


def test_purity_matches_matrix(rng):
    for _ in range(50):
        rho = random_density(rng)
        p = bloch.from_density(rho)
        assert abs(bloch.purity(p) - np.trace(rho @ rho).real) < 1e-12


# --- polar form --------------------------------------------------------------


def test_polar_weights_norm():
    r = 0.7
    zeta = (0.3, 1.1, 2.0)
    n = bloch.polar_weights(r, zeta)
    assert abs(float(np.dot(n, n)) - r * r) < 1e-14


def test_polar_round_trip(rng):
    for _ in range(100):
        p = random_params(rng)
        pol = bloch.to_polar(p)
        back = bloch.from_polar(pol, p.theta)
        assert np.max(np.abs(np.array(back.n) - np.array(p.n))) < 1e-12
        assert np.max(np.abs(np.array(back.theta) - np.array(p.theta))) < 1e-12
    origin = BlochParams((0.0,) * 4, (0.0,) * 4)
    assert bloch.to_polar(origin) == PolarParams(0.0, (0.0, 0.0, 0.0))


def test_polar_params_validate():
    with pytest.raises(ValueError):
        PolarParams(-0.1, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="three entries"):
        PolarParams(0.5, (0.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polar_params_reject_non_finite_entries(bad):
    """A non-finite radius or polar angle raises, as in `BlochParams`."""
    for slot in range(4):
        vals = [0.5, 0.1, 0.2, 0.3]
        vals[slot] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PolarParams(vals[0], tuple(vals[1:]))


# --- JSON documents ----------------------------------------------------------


def test_state_document_round_trip(rng):
    p = random_params(rng)
    doc = bloch.state_document(p)
    assert set(doc) == {"bloch", "matrix"}
    q = bloch.parse_state_document(doc)
    assert np.max(np.abs(np.array(q.n) - np.array(p.n))) < 1e-12
    text = json.dumps(doc, indent=2)
    again = bloch.state_document(bloch.parse_state_document(json.loads(text)))
    assert json.dumps(again, indent=2) == text


def test_matrix_document_encoding(rng):
    p = random_params(rng)
    doc = bloch.state_document(p)
    mat = np.array(
        [[complex(re, im) for re, im in row] for row in doc["matrix"]]
    )
    assert np.max(np.abs(mat - bloch.to_density(p))) < 1e-15


def test_hermiticity_gate_and_pairing(rng):
    """Non-Hermitian input is rejected; Hermitian unit-trace input is
    chartable even when it is not positive (the pairing holds exactly
    whenever the matrix is Hermitian)."""
    rho = random_density(rng)
    from qutrit_bloch.weyl import weyl_op

    bad = rho + 0.05 * (weyl_op(0, 1, 3) - weyl_op(0, 2, 3))  # hermiticity broken
    with pytest.raises(NotAState):
        bloch.from_density(bad)
    herm = rho + 0.6j * (weyl_op(0, 1, 3) - weyl_op(0, 2, 3))  # hermitian, not positive
    p = bloch.from_density(herm)
    assert np.max(np.abs(bloch.to_density(p) - herm)) < 1e-12


# partner key, primary key, phase c with b_partner = c conj(b_primary) for
# Hermitian input
_PARTNERS = (
    ((0, 2), (0, 1), 1.0),
    ((2, 0), (1, 0), 1.0),
    ((2, 1), (1, 2), cmath.exp(2j * math.pi / 3.0)),
    ((1, 1), (2, 2), cmath.exp(1j * math.pi / 3.0)),
)


def _partner_residues(a) -> list[float]:
    """|b_partner - c conj(b_primary)| by adjoint traces, per pair."""
    return [
        abs(np.vdot(weyl_op(*partner), a) - c * np.conj(np.vdot(weyl_op(*primary), a)))
        for partner, primary, c in _PARTNERS
    ]


def test_pairing_residues_bounded_by_hermiticity_gate(rng):
    """Each partner residue is Tr((rho - rho^dag) U) for a permutation-phase
    U, so an input that passes the entrywise Hermiticity gate at tol has
    residues <= 3 tol; this is why from_density reads only the four
    primary coefficients.  Adversarial defects put |rho - rho^dag| just
    under tol on U's support, phase-aligned so the three terms add up."""
    tol = 1e-10
    edge = tol * (1.0 - 1e-6)
    for _ in range(20):
        rho = random_density(rng)
        for partner, primary, _c in _PARTNERS:
            u = weyl_op(*primary)
            # Tr(U M) = sum_ij U[i, j] M[j, i]; align each term with conj(U[i, j])
            m = edge * u.conj().T
            m = (m - m.conj().T) / 2.0  # the defect rho - rho^dag is anti-Hermitian
            m *= edge / np.abs(m).max()
            a = rho + m / 2.0
            defect = np.abs(a - a.conj().T).max()
            assert defect <= tol
            worst = max(_partner_residues(a))
            assert worst <= 3.0 * tol
            if primary != (1, 0):  # off-diagonal support: the bound is attained
                assert worst >= 2.99 * tol
            if np.all(np.diag(m) == 0.0):  # trace untouched: the chart accepts it
                p = bloch.from_density(a, tol=tol)
                assert np.max(np.abs(bloch.to_density(p) - a)) < 1e-9
        for _ in range(50):  # random defects scaled to the gate's edge
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            m = g - g.conj().T
            m *= edge / np.abs(m).max()
            assert max(_partner_residues(rho + m / 2.0)) <= 3.0 * tol


def test_from_density_batch_rows_match_one_row_calls(rng):
    rhos = np.stack([random_density(rng) for _ in range(40)])
    n, theta = bloch.from_density_batch(rhos, 1e-10)
    assert n.shape == theta.shape == (40, 4)
    for k, rho in enumerate(rhos):
        p = bloch.from_density(rho)
        assert p.n == tuple(n[k]) and p.theta == tuple(theta[k])
    empty_n, empty_theta = bloch.from_density_batch(np.zeros((0, 3, 3)), 1e-10)
    assert empty_n.shape == empty_theta.shape == (0, 4)


def test_from_density_batch_gates():
    good = np.eye(3, dtype=complex) / 3.0
    bad_herm = good.copy()
    bad_herm[0, 1] = 1e-3
    with pytest.raises(NotAState, match="Hermitian"):
        bloch.from_density_batch(np.stack([good, bad_herm]), 1e-10)
    with pytest.raises(NotAState, match="trace"):
        bloch.from_density_batch(np.stack([good, 2.0 * good]), 1e-10)
    for v in (np.nan, np.inf):
        bad = good.copy()
        bad[2, 2] = v
        with pytest.raises(NotAState, match="non-finite"):
            bloch.from_density_batch(np.stack([good, bad]), 1e-10)
        with pytest.raises(NotAState, match="non-finite"):
            bloch.from_density(bad)
    with pytest.raises(NotAState, match="stack"):
        bloch.from_density_batch(np.eye(3), 1e-10)


def test_document_cross_validation(rng):
    """A document whose matrix and chart blocks disagree is rejected, as
    are documents that hold no well-formed block."""
    p = random_params(rng)
    q = random_params(rng)
    doc = bloch.state_document(p)
    doc["matrix"] = bloch.state_document(q)["matrix"]
    with pytest.raises(NotAState):
        bloch.parse_state_document(doc)
    qubit = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    for bad, match in (
        ([], "JSON object"),
        ({}, "needs a 'matrix' or 'bloch' key"),
        ({"bloch": {"n": [0.1, 0.0, 0.0, 0.0]}}, "malformed bloch block"),
        ({"matrix": qubit}, "3x3"),
    ):
        with pytest.raises(NotAState, match=match):
            bloch.parse_state_document(bad)
