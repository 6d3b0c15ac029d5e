"""Chart geometry: overlaps and distances against matrix traces, purity
gates, and the orthogonal-basis weight-vector explorer."""

import math

import numpy as np
import pytest

from conftest import random_density, random_params
from qutrit_bloch import geometry
from qutrit_bloch.bloch import BlochParams, from_density, to_density
from qutrit_bloch.errors import NotPhysical, NotPure


def test_overlap_matches_matrix_trace(rng):
    for _ in range(100):
        a = random_density(rng)
        b = random_density(rng)
        got = geometry.overlap(from_density(a), from_density(b))
        want = float(np.trace(a @ b).real)
        assert abs(got - want) < 1e-12


def test_overlap_requires_physical():
    bad = BlochParams((0.6, 0.6, 0.0, 0.0), (0.0,) * 4)
    good = from_density(np.eye(3, dtype=complex) / 3.0)
    with pytest.raises(NotPhysical):
        geometry.overlap(bad, good)


def test_hs_distance_matches_frobenius(rng):
    for _ in range(100):
        a = random_density(rng)
        b = random_density(rng)
        got = geometry.hs_distance(from_density(a), from_density(b))
        want = float(np.linalg.norm(a - b))
        assert abs(got - want) < 1e-12


def test_hs_distance_metric_properties(rng):
    pts = [random_params(rng) for _ in range(4)]
    for p in pts:
        assert geometry.hs_distance(p, p) < 1e-12
    for a in pts:
        for b in pts:
            assert abs(geometry.hs_distance(a, b) - geometry.hs_distance(b, a)) < 1e-15
    for a in pts:
        for b in pts:
            for c in pts:
                assert geometry.hs_distance(a, c) <= (
                    geometry.hs_distance(a, b) + geometry.hs_distance(b, c) + 1e-12
                )


def _ket_params(vec) -> "BlochParams":
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return from_density(np.outer(v, v.conj()))


def test_orthogonality_of_computational_kets():
    kets = [_ket_params(np.eye(3)[k]) for k in range(3)]
    for i in range(3):
        for j in range(3):
            if i == j:
                assert abs(geometry.overlap(kets[i], kets[j]) - 1.0) < 1e-12
            else:
                assert geometry.is_orthogonal(kets[i], kets[j])


def test_mub_pair_detection():
    comp = _ket_params([1.0, 0.0, 0.0])
    flat = _ket_params([1.0, 1.0, 1.0])
    assert geometry.is_mub_pair(comp, flat)
    assert not geometry.is_mub_pair(comp, _ket_params([1.0, 1.0, 0.0]))


def test_pure_gate_rejects_mixed():
    mixed = from_density(np.eye(3, dtype=complex) / 3.0)
    pure = _ket_params([1.0, 0.0, 0.0])
    with pytest.raises(NotPure):
        geometry.is_orthogonal(mixed, pure)
    with pytest.raises(NotPure):
        geometry.is_mub_pair(pure, mixed)


def test_pair_diagnostics_on_computational_pair():
    a = _ket_params([1.0, 0.0, 0.0])
    b = _ket_params([0.0, 1.0, 0.0])
    d = geometry.pair_diagnostics(a, b)
    assert abs(d["overlap"]) < 1e-12
    # both kets sit on the same single weight axis; equal angles there
    # force the weight dot product to cos(2 pi / 3)
    if d["equal_angles"]:
        assert abs(d["weight_dot_minus_cos_2pi3"]) < 1e-10
    assert set(d) == {
        "overlap",
        "weight_dot",
        "equal_angles",
        "weight_dot_minus_cos_2pi3",
        "constant_cos_dtheta",
        "weight_dot_if_constant",
    }


def test_classify_pair_computational_basis():
    kets = [np.array(_ket_params(np.eye(3)[k]).n) for k in range(3)]
    kinds = []
    for i in range(3):
        for j in range(i + 1, 3):
            kind, unsigned_same, _dev = geometry._classify_pair(kets[i], kets[j], 1e-8)
            kinds.append(geometry._KINDS[kind])
            assert unsigned_same  # all three kets share |n| = (0,1,0,0)
    assert sorted(kinds) == ["antipodal", "antipodal", "same_point"]


def _explore_per_ket(trials, seed, tol):
    """Reference explorer: one basis at a time, one `from_density` per
    ket, one pair at a time."""
    from qutrit_bloch.ensembles import as_rng, haar_unitary

    rng = as_rng(seed)
    counts = {"same_point": 0, "antipodal": 0, "neither": 0}
    same_weights = 0
    worst = 0.0
    for _ in range(trials):
        u = haar_unitary(rng)
        ns = [np.array(from_density(np.outer(u[:, k], u[:, k].conj())).n) for k in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                dev_same = float(np.max(np.abs(ns[i] - ns[j])))
                dev_anti = float(np.max(np.abs(ns[i] + ns[j])))
                dev_unsigned = float(np.max(np.abs(np.abs(ns[i]) - np.abs(ns[j]))))
                if dev_same <= tol:
                    counts["same_point"] += 1
                elif dev_anti <= tol:
                    counts["antipodal"] += 1
                else:
                    counts["neither"] += 1
                same_weights += int(dev_unsigned <= tol)
                worst = max(worst, min(dev_same, dev_anti, dev_unsigned))
    return {"trials": trials, **counts, "same_weights": same_weights, "worst_deviation": worst}


def test_explorer_counts_and_determinism():
    out1 = geometry.conjecture1_explore(trials=40, seed=11)
    out2 = geometry.conjecture1_explore(trials=40, seed=11)
    assert out1 == out2
    assert out1["trials"] == 40
    assert out1["same_point"] + out1["antipodal"] + out1["neither"] == 3 * 40
    # Haar-random bases essentially never land on exact chart relations
    assert out1["neither"] == 3 * 40
    assert out1["same_weights"] == 0
    assert out1["worst_deviation"] >= 0.0


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("tol", [1e-8, 0.6, 1.0])
def test_explorer_matches_per_ket_reference(seed, tol):
    """The batched explorer returns the per-ket loop's dict exactly; the
    loose tolerances make every kind of pair occur."""
    assert geometry.conjecture1_explore(60, seed, tol) == _explore_per_ket(60, seed, tol)


def test_explorer_rejects_bad_trials():
    with pytest.raises(ValueError):
        geometry.conjecture1_explore(trials=0, seed=1)
