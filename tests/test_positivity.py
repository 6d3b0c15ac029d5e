"""Characteristic coefficients, the closed-form determinant bracket,
physicality predicates, the angle-maximization search, and rank
classification - each checked against spectral oracles."""

import itertools
import math

import numpy as np
import pytest

from conftest import oracle_bracket, oracle_eigvals, random_density, random_params
from qutrit_bloch import positivity
from qutrit_bloch.bloch import BlochParams, from_density, to_density
from qutrit_bloch.errors import NotAState, NotPhysical, OutsideSphere, Uncertified


def _random_chart_point(rng):
    n = tuple(rng.uniform(-1.0, 1.0, 4))
    theta = tuple(rng.uniform(0.0, math.pi, 4))
    return BlochParams(n, theta)


# --- characteristic coefficients ----------------------------------------


def test_char_coeffs_match_eigen_symmetric_functions(rng):
    for _ in range(200):
        rho = random_density(rng)
        c = positivity.char_coeffs(rho)
        l1, l2, l3 = oracle_eigvals(rho)
        assert c.a0 == 1.0
        assert abs(c.a1 - 1.0) < 1e-12
        assert abs(c.a2 - (l1 * l2 + l1 * l3 + l2 * l3)) < 1e-12
        assert abs(c.a3 - l1 * l2 * l3) < 1e-12
    with pytest.raises(NotAState, match="3x3"):
        positivity.char_coeffs(np.eye(2) / 2.0)


def test_a3_closed_form_equals_matrix_determinant(rng):
    """The bracket formula against LAPACK determinants, on physical and
    non-physical chart points alike (the identity is algebraic)."""
    worst = 0.0
    for _ in range(300):
        p = _random_chart_point(rng)
        got = positivity.a3_closed_form(p)
        ref = float(np.linalg.det(to_density(p)).real)
        worst = max(worst, abs(got - ref))
    assert worst < 1e-13


def test_a3_polar_consistency(rng):
    from qutrit_bloch.bloch import PolarParams, from_polar

    for _ in range(100):
        r = float(rng.uniform(0.0, 1.0))
        zeta = tuple(rng.uniform(0.0, math.pi, 3))
        theta = tuple(rng.uniform(0.0, math.pi, 4))
        bracket, shape = positivity.a3_polar(r, zeta, theta)
        p = from_polar(PolarParams(r, zeta), theta)
        assert abs(bracket - 27.0 * positivity.a3_closed_form(p)) < 1e-12
        assert abs(bracket - (1.0 - 3.0 * r * r + 2.0 * r**3 * shape)) < 1e-12


def test_a3_polar_origin_and_negative_radius():
    bracket, shape = positivity.a3_polar(0.0, (0.1, 0.2, 0.3), (0.0, 0.0, 0.0, 0.0))
    assert bracket == 1.0
    assert shape == 0.0
    with pytest.raises(ValueError):
        positivity.a3_polar(-0.2, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0))


# --- physicality predicate ------------------------------------------------


def test_is_physical_matches_eigenvalue_sign(rng):
    """Chart-space verdict against the spectral verdict away from the
    decision boundary."""
    checked = 0
    for _ in range(2000):
        p = _random_chart_point(rng)
        eigs = oracle_eigvals(to_density(p))
        margin = float(min(eigs[0], 1.0 - sum(v * v for v in p.n)))
        if abs(margin) < 1e-6:
            continue  # too close to the boundary to compare verdicts
        checked += 1
        assert positivity.is_physical(p, tol=1e-9) == (margin > 0)
    assert checked > 1500


def test_is_physical_known_points():
    assert positivity.is_physical(BlochParams((0.0,) * 4, (0.0,) * 4))
    pure = from_density(np.diag([1.0, 0.0, 0.0]).astype(complex))
    assert positivity.is_physical(pure)
    outside = BlochParams((0.8, 0.8, 0.0, 0.0), (0.0,) * 4)
    assert not positivity.is_physical(outside)


# --- angle maximization -----------------------------------------------------


def test_bracket_reference_matches_library(rng):
    """The independently written bracket agrees with the library's
    closed form on random chart points."""
    for _ in range(200):
        p = _random_chart_point(rng)
        ref = float(oracle_bracket(p.n, *p.theta)) / 27.0
        assert abs(positivity.a3_closed_form(p) - ref) < 1e-13


def test_max_a3_beats_brute_force(rng):
    """The grid-plus-ascent search must never fall below a dense brute
    scan of the independent bracket, and its reported optimum must
    reproduce its own value."""
    grid = np.linspace(0.0, 2.0 * math.pi, 25, endpoint=False)
    t1, t2, t3, t4 = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    for _ in range(8):
        n = tuple(rng.uniform(-0.6, 0.6, 4))
        best, theta = positivity.max_a3_over_theta(n)
        # value at the reported angles agrees
        p = BlochParams.canonical(n, theta)
        assert abs(positivity.a3_closed_form(p) - best) < 1e-12
        brute = float(np.max(oracle_bracket(n, t1, t2, t3, t4))) / 27.0
        assert best >= brute - 1e-12


def test_max_a3_single_axis_closed_form(rng):
    """With one active weight the optimum is at cos(3 theta) = sign(n):
    27 a3 = 1 - 3 n^2 + 2 |n|^3."""
    for n1 in (0.3, 0.55, -0.4, 0.95, -1.0):
        best, _ = positivity.max_a3_over_theta((n1, 0.0, 0.0, 0.0))
        want = (1.0 - 3.0 * n1 * n1 + 2.0 * abs(n1) ** 3) / 27.0
        assert abs(best - want) < 1e-12


def test_max_a3_two_axis_witness():
    best, theta = positivity.max_a3_over_theta((0.6, 0.6, 0.0, 0.0))
    assert abs(27.0 * best - (-0.296)) < 1e-12
    assert not positivity.is_point_physical((0.6, 0.6, 0.0, 0.0))
    # the boundary case is exactly feasible
    best2, _ = positivity.max_a3_over_theta((0.5, 0.5, 0.0, 0.0))
    assert abs(best2) < 1e-12
    assert positivity.is_point_physical((0.5, 0.5, 0.0, 0.0))


def test_is_point_physical_matches_search(rng):
    """A proven verdict agrees with the frozen reference search; a row
    the search leaves uncertified raises instead of answering."""
    verdicts = []
    for _ in range(12):
        n = rng.uniform(-0.7, 0.7, 4)
        if float(np.dot(n, n)) > 1.0:
            continue
        best = _reference_max_a3(tuple(n), grid_steps=16)
        if abs(best) < 1e-10:
            continue
        try:
            verdicts.append(positivity.is_point_physical(tuple(n)) == (best > 0))
        except Uncertified:
            continue
    assert len(verdicts) >= 5 and all(verdicts)


def test_is_point_physical_outside_sphere():
    with pytest.raises(OutsideSphere):
        positivity.is_point_physical((0.9, 0.9, 0.0, 0.0))


def test_batched_search_rejects_bad_input():
    with pytest.raises(ValueError):
        positivity.max_a3_batch([(0.3, 0.3, 0.3)])
    with pytest.raises(ValueError, match="four entries"):
        positivity.max_a3_over_theta((0.3, 0.3, 0.3))
    # a non-finite weight is refused, not zeroed as an inactive one
    for bad in ((np.nan, 0.5, 0.5, 0.0), (np.nan, 0.0, 0.0, 0.0), (np.inf, 0.1, 0.2, 0.3)):
        with pytest.raises(ValueError):
            positivity.max_a3_batch([(0.3, 0.3, 0.3, 0.0), bad])
        with pytest.raises(ValueError):
            positivity.max_a3_over_theta(bad)
    with pytest.raises(ValueError):
        positivity.is_point_physical((np.nan, 0.5, 0.5, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_form_rejects_non_finite_weights(bad):
    """A batch that takes only the closed form (at most two active
    weights per row) still refuses a non-finite weight in any slot,
    instead of giving a3 = NaN."""
    for slot in range(4):
        row = [0.3, 0.0, 0.0, 0.0] if slot else [0.0, 0.3, 0.0, 0.0]
        row[slot] = bad
        with pytest.raises(ValueError, match="finite"):
            positivity.max_a3_batch([(0.5, 0.0, 0.0, 0.0), row])


def test_point_found_unphysical_by_the_old_search_is_physical():
    """Grid plus coordinate ascent missed the positive maximum of this
    weight point and called it unphysical.  At the angles below its
    state has three positive LAPACK eigenvalues."""
    n = (-0.2661027205002056, -0.3715132128970075, 0.8845478033983323, 0.0)
    theta = (1.9251269876094972, 0.9873135324692498, 0.004413100737409416, 0.0)
    eigs = np.linalg.eigvalsh(to_density(BlochParams.canonical(n, theta)))
    assert eigs[0] > 1e-3
    det = float(np.prod(eigs))
    assert positivity.is_point_physical(n) is True
    best, _ = positivity.max_a3_over_theta(n)
    # the angles above are a maximizer to ~1e-9, so det is the maximum up
    # to rounding of the bracket (~1e-17 here)
    assert best >= det - 1e-15


def _reference_max_a3(n, grid_steps: int = 48) -> float:
    """Frozen copy of the earlier search, on `oracle_bracket`: the
    best point of the fundamental-domain grid, then coordinate ascent
    with a halving step.  The batched search must not fall below it."""
    free = [i for i in range(4) if abs(n[i]) > 1e-14]
    step = 2.0 * math.pi / 3.0 / grid_steps
    n_full = 0 if len(free) <= 2 else (1 if len(free) == 3 else 2)
    axes = [np.zeros(1)] * 4
    for rank, i in enumerate(free):
        axes[i] = np.arange((3 if rank < n_full else 1) * grid_steps) * step
    vals = oracle_bracket(n, *np.meshgrid(*axes, indexing="ij"))
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    theta = [float(axes[i][idx[i]]) for i in range(4)]
    best = float(vals[idx])
    step /= 2.0
    for _ in range(200):
        improved = False
        for i in free:
            base = theta[i]
            for cand in (base + step, base - step):
                theta[i] = cand
                v = float(oracle_bracket(n, *theta))
                if v > best + 1e-12:
                    best, base, improved = v, cand, True
                else:
                    theta[i] = base
            theta[i] = base
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return best / 27.0


def _closed_form_reference(n) -> float:
    n = np.asarray(n, dtype=float)
    return float(1.0 - 3.0 * n @ n + 2.0 * np.sum(np.abs(n) ** 3)) / 27.0


def _frozen_closed_form(n):
    """The closed form as sums along each row of all four weights, as it
    was before it summed weight columns, frozen as the oracle."""
    a3 = (1.0 - 3.0 * np.sum(n * n, axis=1) + 2.0 * np.sum(np.abs(n) ** 3, axis=1)) / 27.0
    return a3, np.where(n < -1e-14, np.pi / 3.0, 0.0)


def _closed_form_batches():
    """In-ball rows of every one-axis raster and ordered two-axis raster
    at resolution 101; seeded rows with at most two active weights,
    signed zeros and weights at and just above the activity threshold;
    a mixed batch that also holds three and four active weights; and an
    empty batch."""
    grid = np.linspace(-1.0, 1.0, 101)
    for axes in [(i,) for i in range(4)] + list(itertools.permutations(range(4), 2)):
        mesh = np.meshgrid(*[grid] * len(axes), indexing="ij")
        n = np.zeros((101 ** len(axes), 4))
        n[:, list(axes)] = np.stack([m.ravel() for m in mesh], axis=-1)
        yield n[np.sum(n * n, axis=1) <= 1.0 + 1e-12]
    rng = np.random.default_rng(1414)
    edge = (0.0, -0.0, 5e-15, 1e-14, np.nextafter(1e-14, 1.0), 0.5, 0.7, 1.0)
    vals = rng.choice(edge, (3000, 2)) * rng.choice([-1.0, 1.0], (3000, 2))
    vals[2000:] = rng.uniform(-0.7, 0.7, (1000, 2))
    n = np.zeros((3000, 4))
    np.put_along_axis(n, np.argsort(rng.random((3000, 4)), axis=1)[:, :2], vals, axis=1)
    # inactive entries in the other two slots: signed zeros and tiny weights
    n[:1000] = np.where(n[:1000] == 0.0, rng.choice([0.0, -0.0, 1e-15, -3e-15], (1000, 4)),
                        n[:1000])
    yield n
    mixed = _seeded_weights(30)
    mixed[10:20, 1] = 0.0
    yield np.vstack([mixed, n[::10]])[rng.permutation(330)]
    yield np.zeros((0, 4))


def test_closed_form_rows_match_the_frozen_row_form(monkeypatch):
    """Every row with at most two active weights gets the a3 and angles
    of the frozen row form bit for bit, alone or among searched rows.
    `reference_scan` in tests/test_sections.py calls `max_a3_batch`
    itself, so it cannot see a moved bit.  A batch of such rows alone
    runs no angle search."""
    with monkeypatch.context() as m:
        m.setattr(positivity, "_search_block", None)
        two = np.array([(0.3, 0.3, 0.0, 0.0)])
        assert positivity.max_a3_batch(two).a3[0] == _frozen_closed_form(two)[0][0]
    for n in _closed_form_batches():
        found = positivity.max_a3_batch(n)
        few = np.sum(np.abs(n) > 1e-14, axis=1) <= 2
        # the search zeroes inactive weights before the closed form
        want_a3, want_theta = _frozen_closed_form(np.where(np.abs(n) > 1e-14, n, 0.0)[few])
        assert np.array_equal(found.a3[few], want_a3)
        assert np.array_equal(found.theta[few], want_theta)
        assert found.certified[few].all()


def test_batched_search_matches_its_scalar_wrappers(rng):
    """One batch mixing zero to four active weights: each row is what the
    one-row wrapper returns, attained at the angles returned, and rows
    with at most two active weights are the closed-form peak."""
    batch = [(0.0, 0.0, 0.0, 0.0), (0.4, 0.0, 0.0, 0.0), (0.0, -0.7, 0.0, 0.0),
             (0.5, 0.0, -0.5, 0.0), (0.6, 0.6, 0.0, 0.0), (0.0, 0.0, -0.3, 0.95),
             (0.0, -0.3, 0.5, 0.6), (0.3, -0.4, 0.2, 0.5), (-0.5, 0.0, 0.4, -0.45)]
    for _ in range(12):
        mask = rng.integers(0, 2, 4)
        batch.append(tuple(mask * rng.uniform(-0.55, 0.55, 4)))
    found = positivity.max_a3_batch(batch)
    assert found.a3.shape == (len(batch),) and found.theta.shape == (len(batch), 4)
    assert found.certified.all()
    for n, a3, theta in zip(batch, found.a3, found.theta):
        best, theta1 = positivity.max_a3_over_theta(n)
        assert abs(a3 - best) <= 1e-14
        assert abs(oracle_bracket(n, *theta) / 27.0 - a3) <= 1e-14
        if sum(v != 0.0 for v in n) <= 2:
            assert abs(a3 - _closed_form_reference(n)) <= 1e-15
            assert all(t == (math.pi / 3.0 if v < 0 else 0.0) for v, t in zip(n, theta1))


def test_batched_search_never_below_the_earlier_search(rng):
    points = []
    while len(points) < 16:
        n = rng.uniform(-1.0, 1.0, 4)
        n[rng.integers(4)] = 0.0
        if n @ n <= 1.0:
            points.append(tuple(n))
    found = positivity.max_a3_batch(points)
    for n, a3 in zip(points, found.a3):
        assert a3 >= _reference_max_a3(n) - 1e-12


def test_grid_top_matches_brute_force_on_small_blocks(rng, monkeypatch):
    """The blocked, table-driven grid evaluation returns the largest grid
    values, even when the grid is cut into blocks of a few points.  At
    56 elements the four-active grid (2 304 points, 7 a block) ends in a
    block of one point, fewer than the values kept per row."""
    steps = 4
    h = 2.0 * math.pi / 3.0 / steps
    for chunk in (37, 56):
        monkeypatch.setattr(positivity, "_CHUNK_ELEMENTS", chunk)
        for mask in ((1, 1, 1, 0), (0, 1, 1, 1), (1, 1, 1, 1)):
            n = rng.uniform(-0.7, 0.7, (3, 4)) * mask
            base, coef = positivity._wave_coefs(n)
            free = np.flatnonzero(mask).tolist()
            keep = np.flatnonzero(np.any(coef != 0.0, axis=0))
            top, theta = positivity._grid_top(base, coef, free, keep, steps, 4)
            lengths = dict(zip(free, positivity._grid_lengths(len(free), steps)))
            mesh = np.meshgrid(*[np.arange(lengths[i]) * h if i in free else np.zeros(1)
                                 for i in range(4)], indexing="ij")
            for row, vals, angles in zip(n, top, theta):
                brute = np.sort(oracle_bracket(row, *mesh).ravel())[::-1][:4]
                assert np.abs(vals - brute).max() < 1e-13
                assert np.abs(oracle_bracket(row, *angles.T) - vals).max() < 1e-13


def test_three_axis_rasters_at_resolution_8_are_certified():
    """Every in-ball point of the four three-axis rasters of
    `scan --resolution 8` gets a certified sign at the scan's tolerance."""
    grid = np.linspace(-1.0, 1.0, 8)
    cube = np.stack([m.ravel() for m in np.meshgrid(grid, grid, grid, indexing="ij")], axis=-1)
    cube = cube[np.sum(cube * cube, axis=1) <= 1.0 + 1e-12]
    for omitted in range(4):
        n = np.insert(cube, omitted, 0.0, axis=1)
        found = positivity.max_a3_batch(n, tol=1e-12 / 6.0)
        assert found.certified.all()


def _grid_only(m):
    """Stub Newton out on the monkeypatch m: every start comes back
    unmoved, at its own bracket value, so the search is the grid alone."""
    m.setattr(positivity, "_newton", lambda base, coef, theta, free, keep, radius:
              (positivity._wave_value(base, coef, theta), theta))


def test_grid_certificate_is_sound_and_closed_by_regridding(rng, monkeypatch):
    """Without Newton the verdict rests on the grid and the curvature
    bound alone.  Rows whose sign the first grid leaves open are searched
    on finer grids until it is decided, and every certified sign agrees
    with the frozen reference search."""
    points = []
    while len(points) < 24:
        n = rng.standard_normal(4)
        n[rng.integers(4)] = 0.0
        points.append(tuple(n * rng.uniform(0.55, 0.95) / np.linalg.norm(n)))
    with monkeypatch.context() as m:
        _grid_only(m)
        found = positivity.max_a3_batch(points)
    reference = np.array([_reference_max_a3(n) for n in points])
    assert np.all(found.a3 <= reference + 1e-12)
    tol = 1e-10
    assert np.all((found.a3 >= -tol) == (reference >= -tol))
    assert found.certified.all()


def test_unrefined_search_returns_the_grid_value(rng, monkeypatch):
    for _ in range(6):
        n = tuple(rng.uniform(-0.6, 0.6, 4))
        with monkeypatch.context() as m:
            _grid_only(m)
            coarse, theta = positivity.max_a3_over_theta(n)
        refined, _ = positivity.max_a3_over_theta(n)
        assert abs(oracle_bracket(n, *theta) / 27.0 - coarse) < 1e-15
        assert coarse <= refined + 1e-15


def _seeded_weights(count: int = 4000) -> np.ndarray:
    """Weight points with standard-normal directions and radius uniform
    in [0.5, 1], from default_rng(7)."""
    rng = np.random.default_rng(7)
    d = rng.standard_normal((count, 4))
    return d / np.linalg.norm(d, axis=1, keepdims=True) * rng.uniform(0.5, 1.0, (count, 1))


def test_uncertified_point_raises_instead_of_answering():
    """Row 60 of the seeded set is the first the search leaves open: its
    best a3 is about -8.8e-5, but the box gap on the last grid below
    2^24 points still reaches above -tol, so no verdict is proven."""
    n = _seeded_weights()[60]
    assert np.allclose(n, (-0.4438, 0.7167, -0.0795, 0.0782), atol=5e-5)
    found = positivity.max_a3_batch([n])
    assert not found.certified[0] and found.a3[0] < -5e-5
    with pytest.raises(Uncertified, match="unproven"):
        positivity.is_point_physical(tuple(n))


# --- the orbit symmetry -----------------------------------------------------


def test_orbit_maps_reproduce_the_bracket():
    """Each table entry carries angles phi at weights K to angles at the
    permuted weights K[p] with the same bracket; so does n_i -> -n_i with
    theta_i += pi.  The independent bracket is the oracle."""
    rng = np.random.default_rng(2024)
    keys = rng.uniform(-0.6, 0.6, (40, 4))
    phi = rng.uniform(0.0, 2.0 * math.pi, (40, 4))
    want = positivity._wave_value(*positivity._wave_coefs(keys), phi)
    assert np.abs(oracle_bracket(keys.T, *phi.T) - want).max() < 1e-12
    assert len(positivity._ORBIT_MAPS.split()) == 3 * 24
    for p in itertools.permutations(range(4)):
        sign, shift = positivity._ORBIT_SIGN[p], positivity._ORBIT_SHIFT[p]
        assert set(np.abs(sign)) == {1.0}
        theta = sign * phi[:, p] + shift
        assert np.abs(oracle_bracket(keys[:, p].T, *theta.T) - want).max() < 1e-12, p
    for flip in itertools.product((1.0, -1.0), repeat=4):
        flip = np.array(flip)
        theta = phi + np.where(flip < 0, math.pi, 0.0)
        assert np.abs(oracle_bracket((flip * keys).T, *theta.T) - want).max() < 1e-12


def _signed_permutations(n: np.ndarray) -> np.ndarray:
    """The 384 rows s * n[p] over the 24 permutations and 16 sign patterns."""
    return np.array([np.array(s) * n[list(p)] for p in itertools.permutations(range(4))
                     for s in itertools.product((1.0, -1.0), repeat=4)])


@pytest.mark.parametrize("active", [3, 4])
def test_signed_permutations_share_value_and_certificate(active):
    """All 384 signed permutations of a weight point get the same verdict
    and the same a3 up to rounding, whether searched together or one
    orbit at a time."""
    rows = _seeded_weights(12)
    if active == 3:
        rows[:, 2] = 0.0
    together = positivity.max_a3_batch(np.vstack([_signed_permutations(n) for n in rows]))
    for i, n in enumerate(rows):
        found = positivity.max_a3_batch(_signed_permutations(n))
        for a3, certified in ((found.a3, found.certified),
                              (together.a3[384 * i : 384 * (i + 1)],
                               together.certified[384 * i : 384 * (i + 1)])):
            assert np.ptp(a3) <= 1e-16
            assert abs(a3[0] - found.a3[0]) <= 1e-16
            assert np.all(certified == certified[0])
            assert np.all(certified == found.certified[0])


def test_returned_angles_attain_the_returned_value():
    """Each searched row's a3 is the bracket at its own weights and the
    angles returned, exactly; zero weights get angle 0 and every angle
    lies in [0, 2 pi]."""
    rng = np.random.default_rng(99)
    n = _seeded_weights(300)
    n[np.arange(100), np.arange(100) % 4] = 0.0  # three active weights
    n[100:150, 2] = n[100:150, 0]  # tied magnitudes
    n[150:200, 3] = -n[150:200, 1]
    n[200:] *= rng.choice([-1.0, 1.0], (100, 4))
    n = np.vstack([n] + _raster_weights(8))
    found = positivity.max_a3_batch(n)
    assert np.all(found.theta[n == 0.0] == 0.0)
    assert np.all((found.theta >= 0.0) & (found.theta <= 2.0 * math.pi))
    searched = np.sum(n != 0.0, axis=1) > 2
    value = positivity._wave_value(*positivity._wave_coefs(n[searched]), found.theta[searched])
    assert np.array_equal(value / 27.0, found.a3[searched])
    attained = oracle_bracket(n.T, *found.theta.T) / 27.0
    assert np.abs(attained - found.a3).max() <= 1e-16


def test_each_orbit_is_searched_once(monkeypatch):
    """Rows that are signed permutations of one another reach
    `_search_block` as one key, sorted by magnitude and nonnegative."""
    searched = []
    search = positivity._search_block

    def spy(n, tol):
        searched.append(n.copy())
        return search(n, tol)

    monkeypatch.setattr(positivity, "_search_block", spy)
    a, b = (0.2, -0.5, 0.3, 0.0), (0.1, 0.2, 0.3, 0.4)
    positivity.max_a3_batch([a, (0.0, 0.3, 0.5, -0.2), b, (-0.4, 0.3, 0.1, -0.2), a])
    assert [k.tolist() for k in searched] == [[[0.5, 0.3, 0.2, 0.0]], [[0.4, 0.3, 0.2, 0.1]]]


def test_row_certificate_needs_its_own_value(monkeypatch):
    """A row is certified when its key's upper bound is below the floor,
    or when both the key's value and the row's own re-evaluated value
    reach it."""
    n = _seeded_weights(50)
    base, coef = positivity._wave_coefs(n)
    for key_best, key_upper in ((0.0, np.inf), (-1.0, -0.5), (-1.0, np.inf)):
        with monkeypatch.context() as m:
            m.setattr(positivity, "_search_block", lambda keys, *args: (
                np.full(len(keys), key_best), np.zeros((len(keys), 4)),
                np.full(len(keys), key_upper)))
            found = positivity.max_a3_batch(n, tol=1e-10)
        own = positivity._wave_value(base, coef, found.theta)
        if key_upper < 0.0:
            assert found.certified.all()
        elif key_best < 0.0:
            assert not found.certified.any()
        else:
            assert 0 < int(found.certified.sum()) < len(n)
            assert np.array_equal(found.certified, own >= -27e-10)


def _ulp_neighbours(key, rng, count: int = 60) -> np.ndarray:
    """The key, then rows whose nonzero components each move by up to one
    ulp (np.nextafter), under random signs and permutations.  The key's
    nonzero entries are short binary fractions moved up by a quarter of
    a rounding bucket at `_KEY_BITS` bits: every row shares the key's
    bucket, and the bucket's rounded value is no row's key."""
    key = np.asarray(key, dtype=float)
    quarter = 1 << (52 - positivity._KEY_BITS - 2)
    key = np.where(key == 0.0, 0.0, (key.view(np.int64) + quarter).view(np.float64))
    rows = [key]
    for _ in range(count):
        step = rng.choice([-np.inf, 0.0, np.inf], 4)
        moved = np.where(step == 0.0, key, np.nextafter(key, step))
        moved = np.where(key == 0.0, 0.0, moved)
        rows.append(rng.choice([-1.0, 1.0], 4) * moved[rng.permutation(4)])
    return np.array(rows)


_BINARY_KEYS = ((0.625, 0.4375, 0.3125, 0.1875), (0.6875, 0.5, 0.25, 0.0))


def _exact_keys(n: np.ndarray) -> set:
    return {tuple(k) for k in -np.sort(-np.abs(n), axis=1)}


def test_ulp_neighbours_of_a_key_are_searched_once(monkeypatch):
    """Rows whose sorted |n| differ from a key by an ulp per component,
    under signs and permutations, reach `_search_block` as one key: the
    exact sorted |n| of one of the rows.  Each row's a3 is still the
    bracket at its own weights and angles."""
    rng = np.random.default_rng(314)
    searched = []
    search = positivity._search_block

    def spy(n, tol):
        searched.append(n.copy())
        return search(n, tol)

    monkeypatch.setattr(positivity, "_search_block", spy)
    groups = [_ulp_neighbours(key, rng) for key in _BINARY_KEYS]
    n = np.vstack(groups)
    assert all(len(_exact_keys(rows)) > 20 for rows in groups)
    found = positivity.max_a3_batch(n)
    assert [len(keys) for keys in searched] == [1, 1]
    for keys, rows in zip(searched, groups[::-1]):  # three active weights first
        assert tuple(keys[0]) in _exact_keys(rows)
    value = positivity._wave_value(*positivity._wave_coefs(n), found.theta)
    assert np.array_equal(value / 27.0, found.a3)
    assert found.certified.all()
    for rows, a3 in zip(groups, np.split(found.a3, 2)):
        alone = positivity.max_a3_batch(rows[:1]).a3[0]
        assert np.abs(a3 - alone).max() <= 1e-16


def test_bracket_is_lipschitz_in_the_weights():
    """|B(n, t) - B(m, t)| <= `_KEY_LIPSCHITZ` |n - m|_1 on seeded pairs in
    the unit ball, far apart and close together, with the independent
    bracket as the oracle."""
    rng = np.random.default_rng(2718)
    d = rng.standard_normal((2, 20000, 4))
    n, m = d / np.linalg.norm(d, axis=2, keepdims=True) * rng.uniform(0.0, 1.0, (2, 20000, 1))
    near = np.arange(10000)
    m[near] = n[near] + rng.uniform(-1e-6, 1e-6, (10000, 4))
    m[near] /= np.maximum(1.0, np.linalg.norm(m[near], axis=1, keepdims=True))
    t = rng.uniform(0.0, 2.0 * math.pi, (20000, 4))
    gap = np.abs(oracle_bracket(n.T, *t.T) - oracle_bracket(m.T, *t.T))
    ratio = gap / np.sum(np.abs(n - m), axis=1)
    assert ratio.max() <= positivity._KEY_LIPSCHITZ
    assert ratio.max() > positivity._KEY_LIPSCHITZ / 3.0  # the bound is not idle


def _box_gap(n, steps: int) -> np.ndarray:
    """The upper bound's slack over the grid value in `_search_block` on
    its first grid of `steps` steps, for weight points n (R, 4) that
    share their active weights: the upper bound when every grid value
    reads 0."""
    def flat_grid(base, coef, free, keep, steps, count):
        return np.zeros((len(base), count)), np.zeros((len(base), count, 4))

    with pytest.MonkeyPatch.context() as m:
        m.setattr(positivity, "_grid_top", flat_grid)
        _grid_only(m)
        m.setattr(positivity, "_GRID_STEPS", steps)
        m.setattr(positivity, "_MAX_GRID_POINTS", 0)  # stop after the first grid
        return positivity._search_block(n, 1e-10)[2]


def test_box_gap_bounds_the_bracket_around_any_point():
    """B(t + delta) + B(t - delta) >= 2 B(t) - 2 gap for every offset
    |delta_i| <= h/2 of the active angles, the bound the grid certificate
    rests on, on seeded rows and angles with the independent bracket as
    the oracle.  The gap is below the earlier H d (h/2)^2 / 2 on every
    row (at most half of it here)."""
    rng = np.random.default_rng(1618)
    for active, steps in ((3, 8), (4, 8), (4, 2)):
        n = np.abs(_seeded_weights(200))
        n[:, active:] = 0.0
        h = 2.0 * math.pi / 3.0 / steps
        gap = _box_gap(n, steps)
        curvature = np.abs(positivity._wave_coefs(n)[1]) @ positivity._WAVE_CURVATURE
        old = 0.5 * curvature * active * (h / 2.0) ** 2
        assert np.all(gap <= 0.5 * old)
        worst = np.zeros(len(n))
        for _ in range(200):
            t = rng.uniform(0.0, 2.0 * math.pi, (len(n), 4))
            delta = h / 2.0 * rng.uniform(-1.0, 1.0, (len(n), 4))
            corner = rng.random(len(n)) < 0.5
            delta[corner] = h / 2.0 * np.sign(delta[corner])
            delta[:, active:] = 0.0
            curve = 2.0 * oracle_bracket(n.T, *t.T) - (
                oracle_bracket(n.T, *(t + delta).T) + oracle_bracket(n.T, *(t - delta).T))
            worst = np.maximum(worst, curve / 2.0)
        assert np.all(worst <= gap * (1.0 + 1e-9) + 1e-14)
        assert np.median(worst / gap) > 0.5  # the bound is not idle


def test_carried_bound_sends_ulp_neighbours_to_the_fallback(monkeypatch):
    """With a key's upper bound just below the floor, the rows of that
    exact key are certified, and the ulp neighbours, whose slack lifts
    the bound past the floor, are searched again once per exact key."""
    rng = np.random.default_rng(271)
    n = _ulp_neighbours(_BINARY_KEYS[0], rng)
    floor = -27e-10
    searched = []

    def fake_search(keys, *args):
        searched.append(keys.copy())
        return (np.full(len(keys), -1.0), np.zeros((len(keys), 4)),
                np.full(len(keys), np.nextafter(floor, -np.inf)))

    monkeypatch.setattr(positivity, "_search_block", fake_search)
    found = positivity.max_a3_batch(n, tol=1e-10)
    assert found.certified.all()
    assert len(searched) == 2 and len(searched[0]) == 1
    first = tuple(searched[0][0])
    again = {tuple(k) for k in searched[1]}
    assert len(again) == len(searched[1])
    assert again == _exact_keys(n) - {first}


# --- the Newton kernel ----------------------------------------------------------


def _frozen_wave_slopes(coef, theta, free):
    """The parent kernel's gradient and Hessian, kept as an oracle."""
    waves = theta @ positivity._WAVE_D.T + positivity._WAVE_PHASE
    d = positivity._WAVE_D[:, free]
    grad = -(coef * np.sin(waves)) @ d
    hess = -np.einsum("mk,ki,kj->mij", coef * np.cos(waves), d, d)
    return grad, hess


def _frozen_newton(base, coef, theta, free, radius: float):
    """The Newton stage before the lean kernel, frozen as an oracle: all
    eight waves and four angles, angles and slopes recomputed each
    iteration, LAPACK for the shifted step, one halving per pass."""
    theta = theta.copy()
    eye = np.eye(len(free))
    margin = 1e-6 * (np.abs(coef) @ positivity._WAVE_CURVATURE) + 1e-300
    val = positivity._wave_value(base, coef, theta)
    alive = np.arange(len(theta))
    for _ in range(positivity._NEWTON_ITERS):
        grad, hess = _frozen_wave_slopes(coef[alive], theta[alive], free)
        shift = np.maximum(np.linalg.eigvalsh(hess)[:, -1] + margin[alive], 0.0)
        step = np.linalg.solve(hess - shift[:, None, None] * eye, -grad[:, :, None])[:, :, 0]
        step *= np.minimum(1.0, radius / np.maximum(np.abs(step).max(axis=1), 1e-300))[:, None]
        rose = np.zeros(len(alive), dtype=bool)
        pending = np.arange(len(alive))
        for _ in range(positivity._BACKTRACKS):
            rows = alive[pending]
            trial = theta[rows]
            trial[:, free] += step[pending]
            trial_val = positivity._wave_value(base[rows], coef[rows], trial)
            up = trial_val >= val[rows]
            rose[pending[up]] = trial_val[up] > val[rows[up]]
            theta[rows[up]] = trial[up]
            val[rows[up]] = trial_val[up]
            pending = pending[~up]
            if not pending.size:
                break
            step[pending] *= 0.5
        alive = alive[rose]
        if not alive.size:
            break
    return val, theta


def _raster_weights(resolution: int) -> list[np.ndarray]:
    """In-ball weight points of the four three-axis rasters."""
    grid = np.linspace(-1.0, 1.0, resolution)
    cube = np.stack([m.ravel() for m in np.meshgrid(grid, grid, grid, indexing="ij")], axis=-1)
    cube = cube[np.sum(cube * cube, axis=1) <= 1.0 + 1e-12]
    return [np.insert(cube, omitted, 0.0, axis=1) for omitted in range(4)]


@pytest.mark.parametrize("name", ["raster 8", "three active", "four active"])
def test_newton_kernel_matches_the_frozen_kernel(name, monkeypatch):
    """The lean kernel against the parent one, row by row, through the
    whole search (grid, certificate and re-gridding alike)."""
    if name == "raster 8":
        sets = [(n, 1e-12 / 6.0) for n in _raster_weights(8)]
    else:
        n = _seeded_weights(400 if name == "three active" else 60)
        if name == "three active":
            n[:, 3] = 0.0
        sets = [(n, 1e-10)]
    for n, tol in sets:
        found = positivity.max_a3_batch(n, tol=tol)
        with monkeypatch.context() as m:
            m.setattr(positivity, "_newton", lambda base, coef, theta, free, keep, radius:
                      _frozen_newton(base, coef, theta, free, radius))
            frozen = positivity.max_a3_batch(n, tol=tol)
        assert np.abs(found.a3 - frozen.a3).max() <= 1e-16
        assert np.array_equal(found.certified, frozen.certified)
        attained = oracle_bracket(n.T, *found.theta.T) / 27.0
        assert np.abs(attained - found.a3).max() <= 1e-16


# --- rank classification ------------------------------------------------------


def test_rank_classify_pure_mixed_and_boundary(rng):
    pure = from_density(np.diag([1.0, 0.0, 0.0]).astype(complex))
    rep = positivity.rank_classify(pure)
    assert rep.rank == 1 and rep.region == "surface" and rep.consistent

    core = from_density(np.diag([0.4, 0.35, 0.25]).astype(complex))
    rep = positivity.rank_classify(core)
    assert rep.rank == 3 and rep.region == "core" and rep.consistent

    boundary = from_density(np.diag([0.5, 0.5, 0.0]).astype(complex))
    rep = positivity.rank_classify(boundary)
    assert rep.rank == 2 and rep.region == "shell" and rep.consistent


def test_rank_classify_small_radius_is_rank3(rng):
    for _ in range(50):
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        n = tuple(direction * rng.uniform(0.0, 0.499))
        theta = tuple(rng.uniform(0.0, math.pi, 4))
        rep = positivity.rank_classify(BlochParams.canonical(n, theta))
        assert rep.rank == 3 and rep.region == "core"


def test_rank_classify_rejects_nonphysical():
    with pytest.raises(NotPhysical):
        positivity.rank_classify(BlochParams((0.6, 0.6, 0.0, 0.0), (0.0,) * 4))
