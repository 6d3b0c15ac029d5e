"""End-to-end checks of the package's headline guarantees.

Every check wraps its assertions in a `criterion(...)` block; the
terminal summary then prints one PASS/FAIL line per criterion.  Each
check recomputes its reference quantities in-test (LAPACK spectra,
explicit Gram matrices, importance-sampled integrals) so the library
never grades its own homework.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from acceptance_report import criterion
from qutrit_bloch import BlochParams, from_density, to_density
from qutrit_bloch import ensembles, gellmann, mub, positivity, sections, unital, weyl
from qutrit_bloch.unital import UnitalMap

SEED = 20260814


# --- 1: operator basis ----------------------------------------------------------


def test_operator_basis_is_orthogonal_and_matches_reference_entries():
    with criterion("C01", "operator basis orthonormal (d=2,3,5), d=3 entries exact"):
        for d in (2, 3, 5):
            table = weyl.weyl_table(d)
            keys = sorted(table)
            worst = 0.0
            for a in keys:
                for b in keys:
                    g = np.trace(table[a].conj().T @ table[b])
                    want = d if a == b else 0.0
                    worst = max(worst, abs(g - want))
            assert worst <= 1e-12, f"d={d}: Gram deviation {worst:.2e}"

        omega = np.exp(2j * np.pi / 3.0)
        for (p, q), u in weyl.weyl_table(3).items():
            ref = np.zeros((3, 3), dtype=complex)
            for j in range(3):
                ref[j, (j + q) % 3] = np.exp(-1j * np.pi * p * q / 3.0) * omega ** (p * j)
            assert np.max(np.abs(u - ref)) <= 1e-15


# --- 2: chart round trip --------------------------------------------------------


def test_chart_round_trip_on_hs_ensemble_is_lossless_and_fast():
    with criterion("C02", "100k matrix->chart->matrix round trips within 1e-10"):
        rhos = ensembles.sample_rhos("hs", 100_000, SEED)
        t0 = time.perf_counter()
        worst = 0.0
        for rho in rhos:
            back = to_density(from_density(rho))
            worst = max(worst, float(np.max(np.abs(back - rho))))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-10, f"round-trip deviation {worst:.2e}"
        assert elapsed < 30.0, f"round trips took {elapsed:.1f}s"


# --- 3: physicality decision vs spectra -----------------------------------------


def test_physicality_test_agrees_with_eigenvalue_sign_on_random_charts():
    with criterion("C03", "is_physical == eigenvalue sign on 100k random charts"):
        rng = np.random.default_rng(SEED)
        count = 100_000
        ns = rng.uniform(-1.0, 1.0, size=(count, 4))
        thetas = rng.uniform(0.0, np.pi, size=(count, 4))
        disagreements = 0
        for i in range(count):
            p = BlochParams.canonical(ns[i], thetas[i])
            by_coeffs = positivity.is_physical(p, tol=1e-9)
            by_spectrum = bool(np.linalg.eigvalsh(to_density(p))[0] >= -1e-9)
            if by_coeffs is not by_spectrum:
                disagreements += 1
        assert disagreements == 0


# --- 4: the inner ball ----------------------------------------------------------


def test_every_point_in_the_half_radius_ball_is_a_state():
    with criterion("C04", "all 10k draws with radius <= 0.5 are physical"):
        rng = np.random.default_rng(SEED + 4)
        bad = 0
        for _ in range(10_000):
            direction = rng.normal(size=4)
            direction /= np.linalg.norm(direction)
            radius = 0.5 * rng.random() ** 0.25
            theta = rng.uniform(0.0, np.pi, size=4)
            p = BlochParams.canonical(radius * direction, theta)
            if not positivity.is_physical(p):
                bad += 1
        assert bad == 0


# --- 5: a forbidden weight point ------------------------------------------------


def test_two_axis_witness_point_is_unphysical_for_every_angle():
    with criterion("C05", "weight point (0.6,0.6,0,0) unphysical, peak -0.296"):
        point = (0.6, 0.6, 0.0, 0.0)
        assert positivity.is_point_physical(point) is False
        best_a3, _ = positivity.max_a3_over_theta(point)
        assert abs(27.0 * best_a3 - (-0.296)) <= 1e-12
        assert best_a3 < 0.0


# --- 6: single-axis feasibility windows -----------------------------------------


def test_single_axis_feasible_angles_match_window_formula():
    with criterion("C06", "grid-scanned feasible angles match window formula"):
        step = 1e-3
        thetas = np.arange(0.0, math.pi, step)
        for n in np.arange(0.55, 1.0 + 1e-9, 0.05):
            n = float(round(n, 2))
            windows = sections.one_section_window(n)
            endpoints = [e for w in windows for e in w]
            feasible = np.array(
                [(2.0 / 9.0) * (1.0 - 3.0 * n * n + 2.0 * n ** 3 * math.cos(3.0 * t)) >= -1e-12
                 for t in thetas]
            )
            inside = np.zeros_like(feasible)
            for lo, hi in windows:
                inside |= (thetas >= lo) & (thetas <= hi)
            near_edge = np.zeros_like(feasible)
            for e in endpoints:
                near_edge |= np.abs(thetas - e) <= step * (1.0 + 1e-9)
            mismatch = (feasible != inside) & ~near_edge
            assert not mismatch.any(), (
                f"n={n}: {mismatch.sum()} grid points misclassified, first at "
                f"theta={thetas[mismatch][0] if mismatch.any() else None}"
            )


# --- 7: unbiased bases across the seed grid -------------------------------------


def test_four_bases_stay_unbiased_and_weights_permute_across_seed_grid():
    with criterion("C07", "MUB family unbiased on 36x36 grid, weights cycle"):
        cycle = [3, 1, 0, 2]
        grid = np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False)
        worst_overlap = 0.0
        worst_cycle = 0.0
        for delta in grid:
            for gamma in grid:
                fam = mub.four_mubs(delta, gamma)
                kets = [
                    np.array([k.amplitudes for k in basis]) for basis in fam.bases
                ]
                for a in range(4):
                    for b in range(a + 1, 4):
                        ov = np.abs(kets[a] @ kets[b].conj().T) ** 2
                        worst_overlap = max(
                            worst_overlap, float(np.max(np.abs(ov - 1.0 / 3.0)))
                        )
                wp = np.array(fam.weight_points)
                for src, dst in ((1, 2), (2, 3), (3, 1)):
                    dev = float(np.max(np.abs(wp[dst] - wp[src][cycle])))
                    worst_cycle = max(worst_cycle, dev)
        assert worst_overlap <= 1e-10, f"overlap deviation {worst_overlap:.2e}"
        assert worst_cycle <= 1e-10, f"cycle deviation {worst_cycle:.2e}"

        axes = np.eye(4)
        pts = np.array(mub.four_mubs(0.0, 0.0).weight_points)
        matched = sorted(int(np.argmax(p)) for p in pts)
        assert matched == [0, 1, 2, 3]
        dev = max(
            float(np.max(np.abs(p - axes[int(np.argmax(p))]))) for p in pts
        )
        assert dev <= 1e-15, f"weight points off the axes by {dev:.2e}"


# --- 8: channel polytope vs complete positivity ---------------------------------


def test_polytope_membership_matches_choi_positivity_on_grid():
    with criterion("C08", "channel polytope == Choi PSD; vertex/edge geometry"):
        values = np.linspace(-1.0, 1.0, 13)
        disagreements = 0
        for l1 in values:
            for l2 in values:
                for l3 in values:
                    for l4 in values:
                        lam = (float(l1), float(l2), float(l3), float(l4))
                        inside, _ = unital.polytope_check(lam)
                        cp = unital.is_cp(UnitalMap(lam), tol=1e-9)
                        if inside is not cp:
                            disagreements += 1
        assert disagreements == 0


def test_polytope_vertices_sit_on_the_cp_boundary():
    with criterion("C08", "channel polytope == Choi PSD; vertex/edge geometry"):
        for vertex in unital.polytope_vertices():
            eigs = np.linalg.eigvalsh(unital.choi_matrix(UnitalMap(vertex)))
            assert -1e-10 <= eigs[0] <= 1e-10, f"vertex {vertex}: min eig {eigs[0]}"


def test_polytope_edge_length_multiset_matches_expected_counts():
    with criterion("C08", "channel polytope == Choi PSD; vertex/edge geometry"):
        lengths = Counter(round(e, 9) for e in unital.edge_lengths())
        # lambda = 0 is interior, so the five vertices span a 4-simplex: all C(5,2) = 10
        # pairs are edges, 6 among the permutations of (1,-1/2,-1/2,-1/2), 4 to (1,1,1,1).
        expected = Counter(
            {round(math.sqrt(9.0 / 2.0), 9): 6, round(math.sqrt(27.0 / 4.0), 9): 4}
        )
        assert lengths == expected, f"edge multiset {dict(lengths)}"


# --- 9: density identities ------------------------------------------------------


def test_density_identities_hold_on_random_states():
    with criterion("C09", "density identities < 1e-8 relative on 10k states"):
        report = ensembles.identity_checks(10_000, SEED + 9)
        assert report["max_rel_sum_pairs"] < 1e-8
        assert report["max_rel_det"] < 1e-8
        assert report["max_rel_hs_numerator"] < 1e-8

        rhos = ensembles.sample_rhos("hs", 10_000, SEED + 90)
        worst_hs = 0.0
        worst_bures = 0.0
        checked = 0
        for rho in rhos:
            l1, l2, l3 = np.linalg.eigvalsh(rho)
            vand = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
            if vand < 1e-14:
                continue
            checked += 1
            g = gellmann.to_gm(rho)
            got = gellmann.hs_density_gm(g) * g.r_g**7
            worst_hs = max(worst_hs, abs(got - vand) / vand)
            det = float(np.linalg.det(rho).real)
            lhs = 3.0 - g.r_g**2 - 9.0 * det
            rhs = 9.0 * (l1 + l2) * (l1 + l3) * (l2 + l3)
            worst_bures = max(worst_bures, abs(lhs - rhs) / abs(rhs))
        assert checked > 9_000
        assert worst_hs < 1e-8, f"octet-chart HS identity off by {worst_hs:.2e}"
        assert worst_bures < 1e-8, f"octet-chart Bures identity off by {worst_bures:.2e}"


# --- 10: a fixed direction ------------------------------------------------------


def test_directional_densities_scale_and_change_sign_as_expected():
    with criterion("C10", "directional HS density ~ r^3; Bures sign flip"):
        zeta = (math.pi / 3.0, 0.0, math.pi / 7.0)
        theta = (0.0, 0.0, 0.0, 0.0)
        radii = np.linspace(0.1, 0.6, 51)
        ratios = np.array(
            [ensembles.hs_density_bloch(r, zeta, theta) / r**3 for r in radii]
        )
        assert float(np.ptp(ratios)) <= 1e-6
        assert abs(float(np.mean(ratios)) - (6.0 - math.sqrt(3.0)) / 72.0) <= 1e-9
        lo = ensembles.bures_density_bloch(0.70, zeta, theta, signed=True)
        hi = ensembles.bures_density_bloch(0.76, zeta, theta, signed=True)
        assert lo > 0.0 > hi


# --- 11: sampler statistics -----------------------------------------------------


def test_hs_sampler_mean_purity_matches_simplex_integral():
    with criterion("C11", "sampler statistics match density integrals"):
        samples = ensembles.sample_batch("hs", 100_000, SEED)
        mean_purity = float(np.mean([s.purity for s in samples]))
        assert abs(mean_purity - 0.600) <= 0.01

        # independent oracle: importance-sample the eigenvalue density with
        # uniform simplex proposals weighted by the squared Vandermonde
        rng = np.random.default_rng(314159)
        lam = rng.dirichlet((1.0, 1.0, 1.0), size=2_000_000)
        l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
        w = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
        oracle = float(np.sum(w * (lam**2).sum(axis=1)) / np.sum(w))
        assert abs(mean_purity - oracle) <= 0.005


def test_bures_sampler_eigenvalue_histogram_matches_reference_density():
    with criterion("C11", "sampler statistics match density integrals"):
        samples = ensembles.sample_batch("bures", 100_000, SEED)
        eigs = np.concatenate([s.eigs for s in samples])

        # reference via importance sampling: Dirichlet(1/2) proposals make the
        # sqrt(prod lambda) factor cancel, leaving Vandermonde^2 / prod-pairs
        rng = np.random.default_rng(271828)
        lam = rng.dirichlet((0.5, 0.5, 0.5), size=4_000_000)
        a, b, c = lam[:, 0], lam[:, 1], lam[:, 2]
        w = ((a - b) * (a - c) * (b - c)) ** 2 / ((a + b) * (a + c) * (b + c))
        edges = np.linspace(0.0, 1.0, 21)
        total = w.sum()
        p_ref = np.zeros(20)
        se_ref = np.zeros(20)
        for k in range(20):
            inbin = ((lam >= edges[k]) & (lam < edges[k + 1])).sum(axis=1) / 3.0
            p_ref[k] = np.sum(w * inbin) / total
            resid = w * (inbin - p_ref[k])
            se_ref[k] = np.sqrt(np.sum(resid**2)) / total

        count = eigs.size
        observed, _ = np.histogram(eigs, bins=edges)
        sigma = np.sqrt(count * p_ref * (1.0 - p_ref) + (count * se_ref) ** 2)
        z = (observed - count * p_ref) / sigma
        assert float(np.max(np.abs(z))) < 3.0, f"bin z-scores {np.round(z, 2)}"


# --- 12: qubit comparison densities ---------------------------------------------


def test_qubit_densities_take_their_closed_form_values():
    with criterion("C12", "qubit densities equal their constants"):
        for r in np.linspace(0.0, 0.999, 25):
            assert ensembles.qubit_hs_density(float(r)) == pytest.approx(
                3.0 / (4.0 * math.pi), abs=1e-15
            )
        assert ensembles.qubit_bures_density(0.0) == pytest.approx(
            4.0 / math.pi, abs=1e-15
        )
