"""Heisenberg-Weyl displacement operators for prime dimension.

The d^2 unitaries U_{pq} = w^{-pq/2} Z^p X^q (w = exp(2 pi i / d), with
the half-power read as w^{1/2} = exp(i pi / d)) form an orthogonal
operator basis: Tr(U_a^dag U_b) = d * delta_ab.  Here Z is the clock
diag(w^k) and X the shift taking |k> to |k-1 mod d>, i.e. X[j, k] = 1
when k = j + 1 mod d.

For the qutrit the nine matrices are pinned as an explicit table (the
rest of the package leans on their exact entries); `weyl_op` serves the
table at d = 3 and the generic product formula elsewhere.  A test
checks the two routes agree.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPrime

__all__ = [
    "weyl_op",
    "weyl_table",
    "commuting_classes",
]

_OMEGA3 = np.exp(2j * np.pi / 3)
_HALF3 = np.exp(1j * np.pi / 3)  # w^{1/2} at d = 3


def _qutrit_table() -> dict[tuple[int, int], np.ndarray]:
    w, h = _OMEGA3, _HALF3
    t = {
        (0, 0): np.eye(3, dtype=complex),
        (0, 1): np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex),
        (0, 2): np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex),
        (1, 0): np.diag([1.0 + 0j, w, w ** 2]),
        (2, 0): np.diag([1.0 + 0j, w ** 2, w]),
        (1, 1): np.array([[0, 1 / h, 0], [0, 0, h], [-1, 0, 0]], dtype=complex),
        (1, 2): np.array([[0, 0, w ** 2], [1, 0, 0], [0, w, 0]], dtype=complex),
        (2, 1): np.array([[0, w ** 2, 0], [0, 0, w], [1, 0, 0]], dtype=complex),
        (2, 2): np.array([[0, 0, w], [1, 0, 0], [0, w ** 2, 0]], dtype=complex),
    }
    for m in t.values():
        m.setflags(write=False)
    return t


_TABLE3 = _qutrit_table()


def _shift(d: int) -> np.ndarray:
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[j, (j + 1) % d] = 1.0
    return x


def _clock(d: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(d) / d))


def weyl_generic(p: int, q: int, d: int) -> np.ndarray:
    """U_{pq} from the product formula, any d >= 2."""
    phase = np.exp(-1j * np.pi * p * q / d)
    return phase * np.linalg.matrix_power(_clock(d), p) @ np.linalg.matrix_power(_shift(d), q)


def weyl_op(p: int, q: int, d: int = 3) -> np.ndarray:
    """Displacement operator U_{pq}; indices taken mod d."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    p, q = p % d, q % d
    if d == 3:
        return _TABLE3[(p, q)].copy()
    return weyl_generic(p, q, d)


def weyl_table(d: int = 3) -> dict[tuple[int, int], np.ndarray]:
    """All d^2 operators keyed by (p, q)."""
    return {(p, q): weyl_op(p, q, d) for p in range(d) for q in range(d)}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def commuting_classes(d: int = 3) -> list[list[tuple[int, int]]]:
    """Partition the d^2 - 1 non-identity operators into d + 1 mutually
    commuting classes of d - 1 members each (prime d only).

    U_a U_b = w^(a1 b2 - a2 b1) U_b U_a, so U_a and U_b commute iff the
    symplectic product a1 b2 - a2 b1 is 0 mod d; for prime d each class
    is the line of nonzero multiples of one label.  Classes and members
    are ordered by the (p, q) lexicographic order of their smallest
    member.
    """
    if not _is_prime(d):
        raise NotPrime(f"commuting classes need prime d, got {d}")
    keys = [(p, q) for p in range(d) for q in range(d) if (p, q) != (0, 0)]
    classes: list[list[tuple[int, int]]] = []
    assigned: set[tuple[int, int]] = set()
    for a in keys:
        if a not in assigned:
            classes.append([b for b in keys if (a[0] * b[1] - a[1] * b[0]) % d == 0])
            assigned.update(classes[-1])
    return classes
