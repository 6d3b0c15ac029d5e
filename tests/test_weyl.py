"""Shift/boost operator basis: exact entries for dimension 3, Gram
orthonormality for several prime dimensions, and the commuting-class
partition."""

import cmath
import itertools

import numpy as np
import pytest

from qutrit_bloch import weyl
from qutrit_bloch.errors import NotPrime


def reference_op(p: int, q: int, d: int) -> np.ndarray:
    """Entrywise formula, built without matrix products:
    U[j, (j+q) mod d] = exp(-i pi p q / d) * omega^(p j)."""
    out = np.zeros((d, d), dtype=complex)
    for j in range(d):
        out[j, (j + q) % d] = cmath.exp(-1j * cmath.pi * p * q / d) * cmath.exp(
            2j * cmath.pi * p * j / d
        )
    return out


@pytest.mark.parametrize("d", [2, 3, 5])
def test_entries_match_reference_formula(d):
    for p in range(d):
        for q in range(d):
            got = weyl.weyl_op(p, q, d)
            ref = reference_op(p, q, d)
            assert np.max(np.abs(got - ref)) < 1e-15


def test_dimension_3_table_is_exact():
    table = weyl.weyl_table(3)
    assert set(table) == {(p, q) for p in range(3) for q in range(3)}
    for (p, q), mat in table.items():
        assert np.max(np.abs(mat - reference_op(p, q, 3))) < 1e-15
        # unitarity of every basis element
        assert np.max(np.abs(mat @ mat.conj().T - np.eye(3))) < 1e-14


def test_generic_route_agrees_with_table():
    for p in range(3):
        for q in range(3):
            assert np.max(np.abs(weyl.weyl_generic(p, q, 3) - weyl.weyl_op(p, q, 3))) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 5])
def test_gram_matrix_is_d_times_identity(d):
    """Independent Gram computation: Tr(Ua^dag Ub) = d * delta_ab."""
    labels = [(p, q) for p in range(d) for q in range(d)]
    worst = 0.0
    for a, b in itertools.product(labels, labels):
        ua = weyl.weyl_op(*a, d)
        ub = weyl.weyl_op(*b, d)
        g = np.trace(ua.conj().T @ ub)
        want = d if a == b else 0.0
        worst = max(worst, abs(g - want))
    assert worst < 1e-12


def brute_force_classes(d: int) -> list[list[tuple[int, int]]]:
    """Commuting classes from commutator norms of the explicit matrices,
    with no use of the symplectic condition; each class is checked to
    commute internally and the partition to have d + 1 classes of d - 1."""
    ops = weyl.weyl_table(d)
    keys = [k for k in sorted(ops) if k != (0, 0)]

    def commutes(a, b) -> bool:
        return np.abs(ops[a] @ ops[b] - ops[b] @ ops[a]).max() < 1e-10

    classes: list[list[tuple[int, int]]] = []
    assigned: set[tuple[int, int]] = set()
    for k in keys:
        if k in assigned:
            continue
        cls = sorted(m for m in keys if commutes(k, m))
        assert all(commutes(a, b) for a in cls for b in cls)
        classes.append(cls)
        assigned.update(cls)
    classes.sort(key=lambda c: c[0])
    assert len(classes) == d + 1 and all(len(c) == d - 1 for c in classes)
    return classes


@pytest.mark.parametrize("d", [2, 3, 5])
def test_symplectic_classes_match_commutator_norms(d):
    assert weyl.commuting_classes(d) == brute_force_classes(d)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_commuting_classes_partition(d):
    classes = weyl.commuting_classes(d)
    assert len(classes) == d + 1
    seen = set()
    for cls in classes:
        assert len(cls) == d - 1
        for a, b in itertools.combinations(cls, 2):
            ua = weyl.weyl_op(*a, d)
            ub = weyl.weyl_op(*b, d)
            assert np.max(np.abs(ua @ ub - ub @ ua)) < 1e-13
        seen.update(cls)
    assert seen == {(p, q) for p in range(d) for q in range(d)} - {(0, 0)}


def test_commuting_classes_share_eigenbasis():
    for cls in weyl.commuting_classes(3):
        mats = [weyl.weyl_op(*label, 3) for label in cls]
        # eigenvectors of the first member diagonalize the second
        _vals, vecs = np.linalg.eig(mats[0])
        transformed = vecs.conj().T @ mats[1] @ vecs
        off = transformed - np.diag(np.diag(transformed))
        assert np.max(np.abs(off)) < 1e-10


def test_twisted_dagger_pairing():
    """The basis closes under dagger up to a unit phase; the four twist
    phases are exactly the factors appearing in the chart's coefficient
    pairing."""
    twists = {
        (0, 1): 1.0,
        (1, 0): 1.0,
        (1, 2): cmath.exp(-2j * cmath.pi / 3.0),
        (1, 1): cmath.exp(-1j * cmath.pi / 3.0),
    }
    for (p, q), tw in twists.items():
        u = weyl.weyl_op(p, q, 3)
        v = weyl.weyl_op((-p) % 3, (-q) % 3, 3)
        assert np.max(np.abs(v - tw * u.conj().T)) < 1e-14


def test_non_prime_dimension_rejected_for_classes():
    with pytest.raises(NotPrime):
        weyl.commuting_classes(4)
    with pytest.raises(NotPrime):
        weyl.commuting_classes(6)
    with pytest.raises(NotPrime):
        weyl.commuting_classes(1)
    with pytest.raises(ValueError, match="at least 2"):
        weyl.weyl_op(0, 0, d=1)
