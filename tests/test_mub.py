"""Two-angle closed-form kets, orthonormal-basis completion, and the
four-family construction with its weight-point cycle.

The library extracts every ket's chart parameters from its density
matrix; `closed_form_params` below is the module docstring's closed form,
kept here as the independent oracle for that extraction."""

import cmath
import json
import math

import numpy as np
import pytest

from qutrit_bloch import mub
from qutrit_bloch.bloch import BlochParams, canonical_pair, from_density, to_density

_OMEGA = cmath.exp(2j * math.pi / 3.0)
_ZERO = 3e-13  # on |z|; matches the chart's zero-weight floor of 1e-13


def closed_form_params(delta: float, gamma: float) -> BlochParams:
    """Chart parameters of (1, e^{i delta}, e^{i gamma})/sqrt(3) from the
    three complex sums z_k = 3 n_k e^{i theta_k}, each checked against
    its radical form |z_k|^2."""
    z1 = cmath.exp(-1j * delta) + cmath.exp(-1j * (gamma - delta)) + cmath.exp(1j * gamma)
    z3 = (cmath.exp(1j * delta) + _OMEGA * cmath.exp(-1j * gamma)
          + _OMEGA ** 2 * cmath.exp(1j * (gamma - delta)))
    z4 = (cmath.exp(1j * delta) + _OMEGA ** 2 * cmath.exp(-1j * gamma)
          + _OMEGA * cmath.exp(1j * (gamma - delta)))
    third = 2.0 * math.pi / 3.0
    radicals = (
        3.0 + 2.0 * math.cos(gamma - 2 * delta) + 2.0 * math.cos(2 * gamma - delta)
        + 2.0 * math.cos(gamma + delta),
        3.0 + 2.0 * math.cos(gamma - 2 * delta - third)
        + 2.0 * math.cos(2 * gamma - delta + third) + 2.0 * math.cos(gamma + delta - third),
        3.0 + 2.0 * math.cos(gamma - 2 * delta + third)
        + 2.0 * math.cos(2 * gamma - delta - third) + 2.0 * math.cos(gamma + delta + third),
    )
    pairs = []
    for z, rad in zip((z1, z3, z4), radicals):
        assert abs(abs(z) ** 2 - rad) <= 1e-12, "weight radical disagrees with its complex sum"
        zero = abs(z) <= _ZERO
        pairs.append((0.0, 0.0) if zero else canonical_pair(abs(z) / 3.0, cmath.phase(z)))
    (n1, t1), (n3, t3), (n4, t4) = pairs
    return BlochParams(n=(n1, 0.0, n3, n4), theta=(t1, 0.0, t3, t4))


def assert_family_invariants(fam, delta: float, gamma: float) -> None:
    """Everything a MUB family must satisfy: extraction agrees with the
    closed form, kets are normalized, each basis is orthonormal, distinct
    bases are unbiased, each basis sits at one weight point, and the
    weight points of N, P, Q permute cyclically."""
    third = 2.0 * math.pi / 3.0
    for s, basis in enumerate(fam.bases[1:]):
        for k, shift in enumerate((0.0, third, -third)):
            d, g = delta + s * third + shift, gamma - shift
            amps = np.array(basis[k].amplitudes)
            rho = np.outer(amps, amps.conj())
            assert np.max(np.abs(to_density(basis[k].bloch) - rho)) <= 1e-10
            assert np.max(np.abs(to_density(closed_form_params(d, g)) - rho)) <= 1e-10
    kets = [[np.array(k.amplitudes) for k in basis] for basis in fam.bases]
    for b1 in range(4):
        for b2 in range(b1, 4):
            for i, u in enumerate(kets[b1]):
                for j, v in enumerate(kets[b2]):
                    if b1 != b2:
                        assert abs(abs(np.vdot(u, v)) ** 2 - 1.0 / 3.0) <= 1e-10
                    elif i == j:
                        assert abs(np.vdot(u, u) - 1.0) <= 1e-12
                    else:
                        assert abs(np.vdot(u, v)) <= 1e-12
    for b, basis in enumerate(fam.bases):
        for ket in basis:
            got = np.abs(np.array(ket.bloch.n))
            assert np.max(np.abs(got - fam.weight_points[b])) <= 1e-10
    m1, _z, m3, m4 = fam.weight_points[1]
    assert np.max(np.abs(np.subtract(fam.weight_points[2], (m4, 0.0, m1, m3)))) <= 1e-10
    assert np.max(np.abs(np.subtract(fam.weight_points[3], (m3, 0.0, m4, m1)))) <= 1e-10


def test_ket_amplitudes_are_pure_phases():
    amps, params = mub.ket_from_angles(0.4, 1.7)
    want = np.array([1.0, cmath.exp(0.4j), cmath.exp(1.7j)]) / math.sqrt(3.0)
    assert np.max(np.abs(amps - want)) < 1e-15
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-14
    # the second weight always vanishes for phase-vector kets
    assert params.n[1] == 0.0


def test_ket_closed_form_matches_matrix_route(rng):
    for _ in range(200):
        delta = float(rng.uniform(0.0, 2.0 * math.pi))
        gamma = float(rng.uniform(0.0, 2.0 * math.pi))
        amps, params = mub.ket_from_angles(delta, gamma)
        rho = np.outer(amps, amps.conj())
        direct = from_density(rho)
        closed = closed_form_params(delta, gamma)
        assert np.max(np.abs(np.array(params.n) - np.array(direct.n))) < 1e-10
        assert np.max(np.abs(to_density(params) - rho)) < 1e-10
        assert np.max(np.abs(np.array(closed.n) - np.array(params.n))) < 1e-10
        assert np.max(np.abs(to_density(closed) - rho)) < 1e-10


def test_ket_special_angles():
    _amps, p0 = mub.ket_from_angles(0.0, 0.0)
    assert abs(p0.n[0] - 1.0) < 1e-13
    assert max(abs(p0.n[1]), abs(p0.n[2]), abs(p0.n[3])) < 1e-13
    assert p0.theta[0] == 0.0
    # a vanishing-weight branch: the third weight dies at these angles
    # (the three unit phasors of its closed-form sum cancel) and the
    # zero-angle convention kicks in
    _amps, p1 = mub.ket_from_angles(2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
    assert abs(p1.n[2]) < 1e-12
    assert p1.theta[2] == 0.0
    assert abs(abs(p1.n[0]) - 1.0) < 1e-12


def test_onb_completion_is_orthonormal(rng):
    for _ in range(30):
        delta = float(rng.uniform(0.0, 2.0 * math.pi))
        gamma = float(rng.uniform(0.0, 2.0 * math.pi))
        kets = [amps for amps, _p in mub.onb_from_ket(delta, gamma)]
        g = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        assert np.max(np.abs(g - np.eye(3))) < 1e-12


def test_four_mubs_structure():
    fam = mub.four_mubs(0.3, 1.1)
    assert fam.labels == ("computational", "N", "P", "Q")
    assert len(fam.bases) == 4
    assert all(len(basis) == 3 for basis in fam.bases)
    assert len(fam.weight_points) == 4
    # computational basis sits on the second weight axis
    assert np.max(np.abs(np.array(fam.weight_points[0]) - (0.0, 1.0, 0.0, 0.0))) < 1e-13


def test_four_mubs_pairwise_unbiased(rng):
    for delta, gamma in [(0.3, 1.1), (2.0, 0.4), (5.9, 5.9)]:
        fam = mub.four_mubs(delta, gamma)
        kets = [[np.array(k.amplitudes) for k in basis] for basis in fam.bases]
        for b1 in range(4):
            for b2 in range(4):
                for i, u in enumerate(kets[b1]):
                    for j, v in enumerate(kets[b2]):
                        ov = abs(np.vdot(u, v)) ** 2
                        if b1 == b2:
                            want = 1.0 if i == j else 0.0
                        else:
                            want = 1.0 / 3.0
                        assert abs(ov - want) < 1e-10


def test_four_mubs_weight_point_cycle():
    """The three phase-vector bases share one unsigned weight multiset,
    cyclically permuted, and every ket of a basis sits at its basis's
    weight point."""
    fam = mub.four_mubs(0.3, 1.1)
    mN, mP, mQ = (np.array(fam.weight_points[b]) for b in (1, 2, 3))
    assert mN[1] == mP[1] == mQ[1] == 0.0
    assert np.max(np.abs(mP - mN[[3, 1, 0, 2]])) < 1e-10
    assert np.max(np.abs(mQ - mN[[2, 1, 3, 0]])) < 1e-10
    for b in range(4):
        point = np.array(fam.weight_points[b])
        for ket in fam.bases[b]:
            assert np.max(np.abs(np.abs(np.array(ket.bloch.n)) - point)) < 1e-10


def test_four_mubs_axis_points_at_zero_angles():
    fam = mub.four_mubs(0.0, 0.0)
    pts = sorted(tuple(round(x, 9) for x in w) for w in fam.weight_points)
    assert pts == [
        (0.0, 0.0, 0.0, 1.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
    ]


def test_four_mubs_determinism():
    a = mub.family_document(mub.four_mubs(1.2, 0.7))
    b = mub.family_document(mub.four_mubs(1.2, 0.7))
    assert a == b


def test_family_document_shape():
    doc = mub.family_document(mub.four_mubs(0.5, 0.25))
    assert set(doc) == {"delta", "gamma", "bases"}
    assert len(doc["bases"]) == 4
    for entry in doc["bases"]:
        assert set(entry) == {"label", "weight_point", "kets"}
        assert len(entry["weight_point"]) == 4
        assert len(entry["kets"]) == 3
        for ket in entry["kets"]:
            amps = np.array([complex(re, im) for re, im in ket["amplitudes"]])
            assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
            assert set(ket["bloch"]) == {"n", "theta"}


def test_dense_angle_sweep_never_raises():
    """Every family on a 13x13 angle grid builds and satisfies all of its
    invariants, including the zero-weight branches of the closed form."""
    grid = np.linspace(0.0, 2.0 * math.pi, 13, endpoint=False)
    for d in grid:
        for g in grid:
            assert_family_invariants(mub.four_mubs(float(d), float(g)), float(d), float(g))


def per_ket_family(delta: float, gamma: float) -> mub.MubFamily:
    """The per-ket route, frozen as the oracle for the batched chart in
    `four_mubs`: every ket charted by its own `from_density` call."""
    third = 2.0 * math.pi / 3.0

    def ket(d, g):
        amps = np.array([1.0, cmath.exp(1j * d), cmath.exp(1j * g)]) / math.sqrt(3.0)
        return amps, from_density(np.outer(amps, amps.conj()))

    comp = []
    for k in range(3):
        amps = np.zeros(3, dtype=complex)
        amps[k] = 1.0
        comp.append((amps, from_density(np.outer(amps, amps.conj()))))
    raw = [comp] + [[ket(d, gamma), ket(d + third, gamma - third), ket(d - third, gamma + third)]
                    for d in (delta + s * third for s in (0, 1, 2))]
    return mub.MubFamily(
        delta=float(delta),
        gamma=float(gamma),
        bases=tuple(tuple(mub.KetRecord(tuple(complex(v) for v in amps), p) for amps, p in basis)
                    for basis in raw),
        weight_points=tuple(tuple(float(abs(v)) for v in basis[0][1].n) for basis in raw),
    )


def family_bits(fam: mub.MubFamily) -> list:
    """Every float of a family as its exact hex form (tells -0.0 from 0.0)."""
    floats = [fam.delta, fam.gamma]
    for basis in fam.bases:
        for ket in basis:
            floats += [part for v in ket.amplitudes for part in (v.real, v.imag)]
            floats += list(ket.bloch.n) + list(ket.bloch.theta)
    floats += [v for point in fam.weight_points for v in point]
    return [float.hex(v) for v in floats]


def ket_bits(pairs) -> list:
    """The exact hex form of every float of (amplitudes, BlochParams) pairs."""
    return [[float.hex(x) for x in (*amps.real, *amps.imag, *p.n, *p.theta)] for amps, p in pairs]


def test_batched_family_is_bit_identical_to_the_per_ket_route():
    special = (0.0, math.pi, -math.pi, math.pi / 3.0, -math.pi / 3.0)
    rng = np.random.default_rng(20211)
    pairs = [(d, g) for d in special for g in special]
    pairs += [tuple(float(v) for v in rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 2))
              for _ in range(300)]
    for delta, gamma in pairs:
        fam, ref = mub.four_mubs(delta, gamma), per_ket_family(delta, gamma)
        assert family_bits(fam) == family_bits(ref), (delta, gamma)
        assert (json.dumps(mub.family_document(fam), indent=2)
                == json.dumps(mub.family_document(ref), indent=2)), (delta, gamma)
        # the public per-basis and per-ket helpers chart through the same stack
        onb = mub.onb_from_ket(delta, gamma)
        assert ket_bits(onb) == ket_bits(
            [(np.array(k.amplitudes), k.bloch) for k in ref.bases[1]]), (delta, gamma)
        assert ket_bits([mub.ket_from_angles(delta, gamma)]) == ket_bits(onb[:1])
