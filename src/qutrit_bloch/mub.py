"""Construction of the four qutrit MUBs from two phase angles.

A pure state unbiased to the computational basis has amplitudes
(1, e^{i delta}, e^{i gamma})/sqrt(3) and weight n2 = 0.  Its remaining
chart parameters come in closed form through three complex sums

    z1 = e^{-i delta} + e^{-i(gamma-delta)} + e^{i gamma}
    z3 = e^{i delta} + w   e^{-i gamma} + w^2 e^{i(gamma-delta)}
    z4 = e^{i delta} + w^2 e^{-i gamma} + w   e^{i(gamma-delta)}

with w = e^{2 pi i/3}: z_k = 3 n_k e^{i theta_k}, equivalently
n1 = sqrt(3 + 2cos(gamma-2delta) + 2cos(2gamma-delta) + 2cos(gamma+delta))/3
and its two 2pi/3-shifted siblings (the radical is |z|/3).  The library
extracts the parameters from the density matrix with `from_density_batch`;
the closed form is the tests' independent oracle for that extraction.

Orthogonal partners sit at (delta +- 2pi/3, gamma -+ 2pi/3): same
unsigned weights, different angles.  Shifting delta alone by 2pi/3 and
4pi/3 yields two more bases unbiased to the first, and together with
the computational basis they form a complete family of four MUBs whose
unsigned weight vectors permute cyclically on the axes (n1, n3, n4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bloch import GATE_TOL, BlochParams, from_density_batch

__all__ = ["KetRecord", "MubFamily", "ket_from_angles", "onb_from_ket", "four_mubs",
           "family_document"]

_THIRD = 2.0 * math.pi / 3.0


def _kets(angles) -> np.ndarray:
    """Rows (1, e^{i delta}, e^{i gamma})/sqrt(3), one per (delta, gamma)."""
    rows = [[1.0, cmath.exp(1j * d), cmath.exp(1j * g)] for d, g in angles]
    return np.array(rows) / math.sqrt(3.0)


def _onb_angles(delta: float, gamma: float) -> list[tuple[float, float]]:
    return [(delta, gamma), (delta + _THIRD, gamma - _THIRD), (delta - _THIRD, gamma + _THIRD)]


def _chart(kets: np.ndarray) -> list[tuple[np.ndarray, BlochParams]]:
    """Each row ket with the chart parameters of its projector, all read
    off one `from_density_batch` call on the (N, 3, 3) stack."""
    # outer products of unit kets pass the default gates
    n, theta = from_density_batch(kets[:, :, np.newaxis] * kets[:, np.newaxis, :].conj(), GATE_TOL)
    return [(amps, BlochParams(nk, tk)) for amps, nk, tk in zip(kets, n.tolist(), theta.tolist())]


def ket_from_angles(delta: float, gamma: float) -> tuple[np.ndarray, BlochParams]:
    """Amplitudes (1, e^{i delta}, e^{i gamma})/sqrt(3) and their chart
    parameters, extracted from the density matrix."""
    return _chart(_kets([(delta, gamma)]))[0]


def onb_from_ket(delta: float, gamma: float) -> list[tuple[np.ndarray, BlochParams]]:
    """The orthonormal basis through (delta, gamma): partners at
    (delta + 2pi/3, gamma - 2pi/3) and (delta - 2pi/3, gamma + 2pi/3)."""
    return _chart(_kets(_onb_angles(delta, gamma)))


@dataclass(frozen=True)
class KetRecord:
    amplitudes: tuple[complex, complex, complex]
    bloch: BlochParams


@dataclass(frozen=True)
class MubFamily:
    """Four mutually unbiased bases: computational, then the three
    phase-built bases N, P, Q; weight_points are the unsigned weight
    4-vectors, one per basis."""

    delta: float
    gamma: float
    bases: tuple[tuple[KetRecord, KetRecord, KetRecord], ...]
    weight_points: tuple[tuple[float, float, float, float], ...]

    labels = ("computational", "N", "P", "Q")


def four_mubs(delta: float, gamma: float) -> MubFamily:
    """Complete MUB family seeded at (delta, gamma); each basis's weight
    point is read off its first ket.

    The twelve kets are charted in one `_chart` call.
    """
    kets = np.vstack([np.eye(3, dtype=complex), _kets(
        [a for s in (0, 1, 2) for a in _onb_angles(delta + s * _THIRD, gamma)])])
    charted = _chart(kets)
    bases = tuple(
        tuple(KetRecord(tuple(complex(v) for v in amps), p) for amps, p in charted[b:b + 3])
        for b in range(0, 12, 3)
    )
    return MubFamily(
        delta=float(delta),
        gamma=float(gamma),
        bases=bases,
        weight_points=tuple(tuple(abs(v) for v in basis[0].bloch.n) for basis in bases),
    )


def family_document(fam: MubFamily) -> dict:
    """JSON-ready description of a MUB family."""
    return {
        "delta": fam.delta,
        "gamma": fam.gamma,
        "bases": [
            {
                "label": fam.labels[b],
                "weight_point": list(fam.weight_points[b]),
                "kets": [
                    {
                        "amplitudes": [[v.real, v.imag] for v in ket.amplitudes],
                        "bloch": {"n": list(ket.bloch.n), "theta": list(ket.bloch.theta)},
                    }
                    for ket in fam.bases[b]
                ],
            }
            for b in range(4)
        ],
    }
