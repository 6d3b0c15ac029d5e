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
extracts the parameters from the density matrix with `from_density`;
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

from .bloch import BlochParams, from_density

__all__ = ["KetRecord", "MubFamily", "ket_from_angles", "onb_from_ket", "four_mubs",
           "family_document"]


def ket_from_angles(delta: float, gamma: float) -> tuple[np.ndarray, BlochParams]:
    """Amplitudes (1, e^{i delta}, e^{i gamma})/sqrt(3) and their chart
    parameters, extracted from the density matrix."""
    amps = np.array([1.0, cmath.exp(1j * delta), cmath.exp(1j * gamma)]) / math.sqrt(3.0)
    return amps, from_density(np.outer(amps, amps.conj()))


def onb_from_ket(delta: float, gamma: float) -> list[tuple[np.ndarray, BlochParams]]:
    """The orthonormal basis through (delta, gamma): partners at
    (delta + 2pi/3, gamma - 2pi/3) and (delta - 2pi/3, gamma + 2pi/3)."""
    third = 2.0 * math.pi / 3.0
    return [
        ket_from_angles(delta, gamma),
        ket_from_angles(delta + third, gamma - third),
        ket_from_angles(delta - third, gamma + third),
    ]


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
    point is read off its first ket."""
    third = 2.0 * math.pi / 3.0
    comp = []
    for k in range(3):
        amps = np.zeros(3, dtype=complex)
        amps[k] = 1.0
        comp.append((amps, from_density(np.outer(amps, amps.conj()))))
    raw_bases = [comp] + [onb_from_ket(delta + s * third, gamma) for s in (0, 1, 2)]

    bases = tuple(
        tuple(KetRecord(tuple(complex(v) for v in amps), p) for amps, p in basis)
        for basis in raw_bases
    )
    return MubFamily(
        delta=float(delta),
        gamma=float(gamma),
        bases=bases,
        weight_points=tuple(
            tuple(float(abs(v)) for v in basis[0][1].n) for basis in raw_bases
        ),
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
