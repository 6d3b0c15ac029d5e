"""Diagonal unital channels: chart action versus operator action, the
Choi matrix and its closed-form spectrum against an element-wise
assembly diagonalized by LAPACK, complete positivity versus the
five-inequality polytope, and the simplex geometry of its vertex set."""

import collections
import itertools
import math

import numpy as np
import pytest

from conftest import oracle_eigvals, random_density, random_params
from qutrit_bloch import unital
from qutrit_bloch.bloch import from_density, to_density


def test_lambda_table_pairing():
    m = unital.UnitalMap((0.9, -0.3, 0.5, 0.2), (0.4, 1.2, 2.5, 0.1))
    table = unital.lambda_table(m)
    assert table[(0, 0)] == 1.0
    # paired slots carry conjugate eigenvalues
    assert table[(0, 2)] == np.conj(table[(0, 1)])
    assert table[(2, 0)] == np.conj(table[(1, 0)])
    assert table[(2, 1)] == np.conj(table[(1, 2)])
    assert table[(1, 1)] == np.conj(table[(2, 2)])
    # moduli are the four weights
    assert abs(abs(table[(0, 1)]) - 0.9) < 1e-15
    assert abs(abs(table[(1, 0)]) - 0.3) < 1e-15
    assert abs(abs(table[(1, 2)]) - 0.5) < 1e-15
    assert abs(abs(table[(2, 2)]) - 0.2) < 1e-15


def test_apply_chart_equals_operator_action(rng):
    m = unital.UnitalMap((0.9, -0.3, 0.5, 0.2), (0.4, 1.2, 2.5, 0.1))
    for _ in range(50):
        rho = random_density(rng)
        p = from_density(rho)
        chart = unital.apply(m, p)
        operator = from_density(unital.apply_to_matrix(m, rho))
        assert np.max(np.abs(np.array(chart.n) - np.array(operator.n))) < 1e-12
        assert np.max(np.abs(np.array(chart.theta) - np.array(operator.theta))) < 1e-12


def test_operator_action_is_unital_and_trace_preserving(rng):
    m = unital.UnitalMap((0.7, 0.2, -0.4, 0.5), (0.3, 0.0, 1.0, 2.0))
    eye = np.eye(3, dtype=complex)
    assert np.max(np.abs(unital.apply_to_matrix(m, eye) - eye)) < 1e-14
    for _ in range(20):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = g + g.conj().T
        out = unital.apply_to_matrix(m, h)
        assert abs(np.trace(out) - np.trace(h)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_composition_multiplies_eigenvalues(rng):
    m1 = unital.UnitalMap((0.9, 0.5, 0.8, 0.6), (0.2, 1.1, 0.4, 2.0))
    m2 = unital.UnitalMap((0.7, 0.9, 0.5, 0.8), (1.0, 0.3, 2.2, 0.5))
    lam12 = tuple(a * b for a, b in zip(m1.lam, m2.lam))
    phi12 = tuple(a + b for a, b in zip(m1.phi, m2.phi))
    m12 = unital.UnitalMap(lam12, phi12)
    for _ in range(20):
        rho = random_density(rng)
        seq = unital.apply_to_matrix(m2, unital.apply_to_matrix(m1, rho))
        direct = unital.apply_to_matrix(m12, rho)
        assert np.max(np.abs(seq - direct)) < 1e-12


def elementwise_choi(m):
    """Reference Choi matrix sum_ij E_ij (x) Phi(E_ij), one operator-level
    channel application per matrix unit."""
    c = np.zeros((9, 9), dtype=complex)
    for i in range(3):
        for j in range(3):
            e = np.zeros((3, 3), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, unital.apply_to_matrix(m, e))
    return c


def test_choi_matches_basis_kron_identity(rng):
    """(1/3) sum lam conj(U) x U equals the element-wise Choi assembly."""
    for lam, phi in [
        ((1.0, 1.0, 1.0, 1.0), (0.0,) * 4),
        ((0.9, -0.3, 0.5, 0.2), (0.4, 1.2, 2.5, 0.1)),
        ((0.0, 0.0, 0.0, 0.0), (0.0,) * 4),
    ]:
        m = unital.UnitalMap(lam, phi)
        got = unital.choi_matrix(m)
        ref = elementwise_choi(m)
        assert np.max(np.abs(got - ref)) < 1e-13
        assert abs(np.trace(got) - 3.0) < 1e-12
        assert np.max(np.abs(got - got.conj().T)) < 1e-12


def test_choi_eigenvalues_match_lapack_on_random_phased_channels():
    rng = np.random.default_rng(20240905)
    worst = 0.0
    for _ in range(250):
        m = unital.UnitalMap(rng.uniform(-1.0, 1.0, 4), rng.uniform(0.0, 2.0 * math.pi, 4))
        got = unital.choi_eigenvalues(m)
        assert got.shape == (9,)
        assert np.all(np.diff(got) >= 0.0)
        worst = max(worst, float(np.max(np.abs(got - oracle_eigvals(elementwise_choi(m))))))
    assert worst < 1e-13


def test_choi_eigenvalues_at_zero_phase_are_polytope_slacks(rng):
    """At phi = 0 the spectrum is the five slacks / 3, the four single-axis
    slacks twice each and the total slack once."""
    for lam in [(1.0, 1.0, 1.0, 1.0), (0.0,) * 4, (0.9, -0.3, 0.5, 0.2)] + [
        tuple(rng.uniform(-1.0, 1.0, 4)) for _ in range(50)
    ]:
        _ok, slacks = unital.polytope_check(lam)
        want = np.sort(np.repeat(np.array(slacks) / 3.0, (2, 2, 2, 2, 1)))
        got = unital.choi_eigenvalues(unital.UnitalMap(lam))
        assert np.max(np.abs(got - want)) < 1e-14


def test_is_cp_reads_the_smallest_choi_eigenvalue(rng):
    for _ in range(50):
        m = unital.UnitalMap(rng.uniform(-1.0, 1.0, 4), rng.uniform(0.0, 2.0 * math.pi, 4))
        low = float(oracle_eigvals(elementwise_choi(m))[0])
        if abs(low) > 1e-9:
            assert unital.is_cp(m, tol=0.0) is (low > 0.0)
    assert unital.is_cp(unital.UnitalMap((1.0, 1.0, 1.0, 1.0)), tol=1e-9) is True


def test_choi_spectra_of_reference_maps():
    ident = oracle_eigvals(unital.choi_matrix(unital.UnitalMap((1.0,) * 4)))
    assert abs(ident[-1] - 3.0) < 1e-12
    assert np.max(np.abs(ident[:-1])) < 1e-12
    depol = oracle_eigvals(unital.choi_matrix(unital.UnitalMap((0.0,) * 4)))
    assert np.max(np.abs(depol - 1.0 / 3.0)) < 1e-12


def test_is_cp_known_maps():
    assert unital.is_cp(unital.UnitalMap((1.0, 1.0, 1.0, 1.0)))
    assert unital.is_cp(unital.UnitalMap((0.0, 0.0, 0.0, 0.0)))
    assert unital.is_cp(unital.UnitalMap((0.5, 0.5, 0.5, 0.5)))
    assert not unital.is_cp(unital.UnitalMap((1.0, 1.0, 1.0, -1.0)))


def test_cp_depends_on_phases():
    base = (0.9, 0.9, 0.9, 0.9)
    assert unital.is_cp(unital.UnitalMap(base))
    assert not unital.is_cp(unital.UnitalMap(base, (0.3, 0.0, 0.0, 0.0)))


def test_polytope_slacks():
    ok, slacks = unital.polytope_check((1.0, 1.0, 1.0, 1.0))
    assert ok
    assert slacks == (0.0, 0.0, 0.0, 0.0, 9.0)
    ok, slacks = unital.polytope_check((0.0, 0.0, 0.0, 0.0))
    assert ok and slacks == (1.0, 1.0, 1.0, 1.0, 1.0)
    ok, _ = unital.polytope_check((1.0, 1.0, 1.0, -1.0))
    assert not ok


def test_polytope_slack_formula(rng):
    """Slacks are 1 + 2 lam_i - sum(other lam) and 1 + 2 sum(lam)."""
    for _ in range(50):
        lam = tuple(rng.uniform(-1.0, 1.0, 4))
        _ok, slacks = unital.polytope_check(lam)
        total = sum(lam)
        for i in range(4):
            want = 1.0 + 2.0 * lam[i] - (total - lam[i])
            assert abs(slacks[i] - want) < 1e-12
        assert abs(slacks[4] - (1.0 + 2.0 * total)) < 1e-12


def test_polytope_equals_cp_on_grid():
    grid = np.linspace(-1.0, 1.0, 7)
    for lam in itertools.product(grid, repeat=4):
        assert unital.polytope_check(lam)[0] == unital.is_cp(unital.UnitalMap(lam))


def test_vertices_are_cp_boundary_points():
    verts = unital.polytope_vertices()
    assert len(verts) == 5
    assert verts[0] == (1.0, 1.0, 1.0, 1.0)
    for v in verts[1:]:
        assert sorted(v) == [-0.5, -0.5, -0.5, 1.0]
    for v in verts:
        eigs = oracle_eigvals(unital.choi_matrix(unital.UnitalMap(v)))
        assert eigs[0] > -1e-10
        assert eigs[0] < 1e-10  # extreme points sit on the CP boundary


def test_vertex_simplex_edge_geometry():
    """Five affinely independent vertices form a 4-simplex: all ten
    vertex pairs are edges, six of length sqrt(9/2) and four of length
    sqrt(27/4)."""
    verts = [np.array(v) for v in unital.polytope_vertices()]
    diffs = [verts[i] - verts[0] for i in range(1, 5)]
    assert np.linalg.matrix_rank(np.stack(diffs)) == 4
    lengths = unital.edge_lengths()
    assert len(lengths) == 10
    counted = collections.Counter(round(v, 12) for v in lengths)
    assert counted == {
        round(math.sqrt(9.0 / 2.0), 12): 6,
        round(math.sqrt(27.0 / 4.0), 12): 4,
    }
    # pairwise distances agree with the reported multiset
    pair_dists = sorted(
        float(np.linalg.norm(a - b)) for a, b in itertools.combinations(verts, 2)
    )
    assert np.max(np.abs(np.array(pair_dists) - np.array(sorted(lengths)))) < 1e-12


def test_unital_map_validation():
    with pytest.raises(ValueError):
        unital.UnitalMap((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        unital.UnitalMap((1.0, 1.0, 1.0, 1.0), (0.0,))
    with pytest.raises(ValueError):
        unital.UnitalMap((1.0, 1.0, 1.0, float("nan")))
    with pytest.raises(ValueError, match="four entries"):
        unital.polytope_check((1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="3x3"):
        unital.apply_to_matrix(unital.UnitalMap((1.0, 1.0, 1.0, 1.0)), np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polytope_check_rejects_non_finite_lambda(bad):
    """As `UnitalMap` does, rather than a False verdict with NaN slacks."""
    for slot in range(4):
        lam = [0.1, 0.2, 0.3, 0.4]
        lam[slot] = bad
        with pytest.raises(ValueError, match="non-finite"):
            unital.polytope_check(lam)


def test_polytope_check_tolerance_keyword():
    """The default floor stays 1e-12; `tol` moves it (the CLI passes 3 tol,
    the slack scale of the Choi floor p_b >= -tol)."""
    lam = (1.0, 1.0, 1.0, 1.0 + 3e-10)
    ok, slacks = unital.polytope_check(lam)
    assert not ok and min(slacks) < -1e-12
    assert unital.polytope_check(lam, tol=3e-9) == (True, slacks)
    assert not unital.polytope_check(lam, tol=1e-10)[0]
