"""State geometry in the weights/angles chart.

Traces of products collapse to trigonometric sums of the paired
coefficients, so overlaps and Hilbert-Schmidt distances need no
matrices.  A small explorer samples Haar-random orthonormal bases and
tabulates how the weight vectors of basis partners relate (same point,
antipodal, or neither) - an observational aid for the open question of
where orthogonal states sit in the ball; it asserts nothing.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import BlochParams, purity
from .ensembles import as_rng, haar_unitary
from .errors import NotPhysical, NotPure
from .mub import _chart
from .positivity import is_physical

__all__ = [
    "overlap",
    "is_orthogonal",
    "is_mub_pair",
    "pair_diagnostics",
    "hs_distance",
    "conjecture1_explore",
]

_PURE_TOL = 1e-8


def overlap(a: BlochParams, b: BlochParams) -> float:
    """Tr(rho_a rho_b) = (1/3)(1 + 2 sum n_a n_b cos(theta_a - theta_b))."""
    for p in (a, b):
        if not is_physical(p):
            raise NotPhysical("overlap formula requires physical states")
    acc = sum(
        na * nb * math.cos(ta - tb)
        for na, ta, nb, tb in zip(a.n, a.theta, b.n, b.theta)
    )
    return (1.0 + 2.0 * acc) / 3.0


def _require_pure(p: BlochParams) -> None:
    if abs(purity(p) - 1.0) > _PURE_TOL:
        raise NotPure(f"purity {purity(p):.10f} is not 1 within {_PURE_TOL}")


def is_orthogonal(a: BlochParams, b: BlochParams, tol: float = 1e-10) -> bool:
    """Zero overlap between two pure states."""
    _require_pure(a)
    _require_pure(b)
    return overlap(a, b) <= tol


def is_mub_pair(a: BlochParams, b: BlochParams, tol: float = 1e-10) -> bool:
    """Unbiased pair of pure states: squared overlap exactly 1/3."""
    _require_pure(a)
    _require_pure(b)
    return abs(overlap(a, b) - 1.0 / 3.0) <= tol


def pair_diagnostics(a: BlochParams, b: BlochParams) -> dict:
    """Reduced-form indicators behind the orthogonality condition: when
    all angle differences vanish, orthogonality forces the weight dot
    product to cos(2 pi / 3) = -1/2; when cos of the differences is
    constant, it forces weight orthogonality."""
    dot = sum(na * nb for na, nb in zip(a.n, b.n))
    dtheta = [ta - tb for ta, tb in zip(a.theta, b.theta)]
    active = [i for i in range(4) if a.n[i] != 0.0 and b.n[i] != 0.0]
    cosines = [math.cos(dtheta[i]) for i in active]
    equal_angles = all(abs(dtheta[i]) <= 1e-12 for i in active)
    constant_cos = (max(cosines) - min(cosines) <= 1e-12) if cosines else True
    return {
        "overlap": overlap(a, b),
        "weight_dot": dot,
        "equal_angles": equal_angles,
        "weight_dot_minus_cos_2pi3": dot - math.cos(2.0 * math.pi / 3.0),
        "constant_cos_dtheta": constant_cos,
        "weight_dot_if_constant": dot if constant_cos else None,
    }


def hs_distance(a: BlochParams, b: BlochParams) -> float:
    """sqrt(Tr (rho_a - rho_b)^2) in chart coordinates."""
    acc = sum(
        na * na + nb * nb - 2.0 * na * nb * math.cos(ta - tb)
        for na, ta, nb, tb in zip(a.n, a.theta, b.n, b.theta)
    )
    return math.sqrt(2.0 / 3.0) * math.sqrt(max(acc, 0.0))


_KINDS = ("same_point", "antipodal", "neither")


def _classify_pair(na: np.ndarray, nb: np.ndarray, tol: float):
    """Relation of the weight vectors na, nb (..., 4): the kind (an index
    into `_KINDS`), whether the unsigned weights agree, and the smallest
    of the three deviations."""
    dev_same = np.max(np.abs(na - nb), axis=-1)
    dev_anti = np.max(np.abs(na + nb), axis=-1)
    dev_unsigned = np.max(np.abs(np.abs(na) - np.abs(nb)), axis=-1)
    kind = np.where(dev_same <= tol, 0, np.where(dev_anti <= tol, 1, 2))
    return kind, dev_unsigned <= tol, np.minimum(np.minimum(dev_same, dev_anti), dev_unsigned)


def conjecture1_explore(trials: int, seed, tol: float = 1e-8) -> dict:
    """Sample Haar-random orthonormal bases and tabulate the pairwise
    weight-vector relations of their kets.

    Counts are over ket pairs (three per basis).  `same_weights`
    additionally counts pairs whose unsigned weights agree - the
    invariant the closed MUB constructions realize.  Observational
    only: no judgment is made.  The bases are drawn in order, then all
    3 * trials ket projectors are charted in one batch.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = as_rng(seed)
    kets = np.array([haar_unitary(rng).T for _ in range(trials)]).reshape(-1, 3)
    n = np.array([p.n for _ket, p in _chart(kets)]).reshape(trials, 3, 4)
    kind, unsigned_same, dev = _classify_pair(n[:, [0, 0, 1]], n[:, [1, 2, 2]], tol)
    counts = np.bincount(kind.ravel(), minlength=len(_KINDS))
    return {
        "trials": int(trials),
        **{name: int(c) for name, c in zip(_KINDS, counts)},
        "same_weights": int(np.count_nonzero(unsigned_same)),
        "worst_deviation": float(np.max(dev)),
    }
