"""Random qutrit ensembles and their closed-form densities.

Samplers (Ginibre-based, seeded via numpy's PCG64 `default_rng`):

    Hilbert-Schmidt:  rho = G G* / Tr(G G*)
    Bures:            rho = (I+U) G G* (I+U*) / Tr(...),  U Haar random.

Per sample the generator is consumed in a fixed order (real then
imaginary Ginibre block, then - for Bures - the unitary's block), so a
batch of size k reproduces the first k samples of any larger batch.
`sample_batch` returns the draws as columns (spectrum, chart, radius,
determinant, purity), each one array pass over the stack.

Density evaluators (normalization constants set to 1 throughout; every
statistical test is a shape/ratio test):

    simplex:  HS     prod_{j<k} (l_j - l_k)^2
              Bures  prod (l_j - l_k)^2 / [ sqrt(prod l) prod (l_j + l_k) ]
    radial/angular (weights chart, 27 D = 27 det rho = 1 - 3r^2 + 2r^3 F,
    F(zeta, theta) in [-1, 1] from `positivity.a3_polar`; no cancellation):
              HS     4 r^3 (1 - F^2) / 27
              Bures  HS / (((1-r^2)/3 - D) sqrt(D))
    qubit:    HS 3/(4 pi);   Bures 4 / (pi sqrt(1 - r^2)).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import matcore
from .bloch import GATE_TOL, BlochParams, from_density_batch
# also bound here, where benchmarks/test_benchmark.py checks the binding
from .bloch import from_density  # noqa: F401
from .errors import DegenerateBures, OriginSingularity, OutsideSphere
from .positivity import a3_polar

__all__ = [
    "EnsembleBatch",
    "EnsembleSample",
    "as_rng",
    "ginibre",
    "haar_unitary",
    "sample_rhos",
    "sample_hs",
    "sample_bures",
    "sample_batch",
    "hs_density_simplex",
    "bures_density_simplex",
    "hs_density_bloch",
    "bures_density_bloch",
    "qubit_hs_density",
    "qubit_bures_density",
    "identity_checks",
]

MEASURES = ("hs", "bures")


def as_rng(seed_or_rng) -> np.random.Generator:
    """Accept either a seed or a ready generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def _ginibre(blocks: np.ndarray) -> np.ndarray:
    """Ginibre matrices (..., d, d) from real standard normal blocks
    (..., 2, d, d): the real and the imaginary part, over sqrt 2."""
    return (blocks[..., 0, :, :] + 1j * blocks[..., 1, :, :]) / math.sqrt(2.0)


def _haar(blocks: np.ndarray) -> np.ndarray:
    """Haar unitaries (..., d, d) from real standard normal blocks
    (..., 2, d, d): QR of their Ginibre matrices with the R-diagonal
    phase fix."""
    q, r = np.linalg.qr(_ginibre(blocks))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., np.newaxis, :]


def ginibre(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Square matrix of independent standard complex Gaussians."""
    return _ginibre(rng.standard_normal((2, dim, dim)))


def haar_unitary(rng: np.random.Generator, dim: int = 3) -> np.ndarray:
    """One Haar-random unitary: `_haar` on one draw."""
    return _haar(rng.standard_normal((2, dim, dim)))


def sample_rhos(measure: str, count: int, seed_or_rng) -> np.ndarray:
    """(count, 3, 3) stack of density matrices; deterministic per seed."""
    if measure not in MEASURES:
        raise ValueError(f"measure must be one of {MEASURES}, got {measure!r}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = as_rng(seed_or_rng)
    n_blocks = 2 if measure == "hs" else 4
    blocks = rng.standard_normal((count, n_blocks, 3, 3))
    g = _ginibre(blocks[:, :2])
    if measure == "hs":
        w = g @ g.conj().transpose(0, 2, 1)
    else:
        m = (np.eye(3) + _haar(blocks[:, 2:])) @ g
        w = m @ m.conj().transpose(0, 2, 1)
    traces = np.trace(w, axis1=1, axis2=2).real
    return w / traces[:, np.newaxis, np.newaxis]


@dataclass(frozen=True)
class EnsembleSample:
    """One sampled state with its derived coordinates."""

    rho: np.ndarray
    eigs: tuple[float, float, float]
    bloch: BlochParams
    r: float
    det: float
    measure: str

    @property
    def purity(self) -> float:
        return (1.0 + 2.0 * self.r * self.r) / 3.0


@dataclass(frozen=True)
class EnsembleBatch:
    """Sampled states as columns: row k of every array belongs to draw k.

    Indexing or iterating yields one `EnsembleSample` per row.
    """

    measure: str
    rho: np.ndarray  # (N, 3, 3)
    eigs: np.ndarray  # (N, 3), ascending
    n: np.ndarray  # (N, 4), canonical weights
    theta: np.ndarray  # (N, 4), canonical angles
    r: np.ndarray  # (N,)
    det: np.ndarray  # (N,)
    purity: np.ndarray  # (N,)

    def __len__(self) -> int:
        return len(self.rho)

    def __getitem__(self, index) -> EnsembleSample:
        k = range(len(self))[operator.index(index)]
        return EnsembleSample(
            rho=self.rho[k],
            eigs=tuple(self.eigs[k].tolist()),
            bloch=BlochParams(self.n[k].tolist(), self.theta[k].tolist()),
            r=float(self.r[k]),
            det=float(self.det[k]),
            measure=self.measure,
        )

    def __iter__(self) -> Iterator[EnsembleSample]:
        return (self[k] for k in range(len(self)))


def sample_batch(measure: str, count: int, seed_or_rng) -> EnsembleBatch:
    """`count` draws and their coordinates, one array pass per column."""
    rho = sample_rhos(measure, count, seed_or_rng)
    n, theta = from_density_batch(rho, GATE_TOL)
    sq = n * n
    r = np.sqrt(sq[:, 0] + sq[:, 1] + sq[:, 2] + sq[:, 3])  # BlochParams.radius's order
    return EnsembleBatch(
        measure=measure,
        rho=rho,
        eigs=np.linalg.eigvalsh(rho),
        n=n,
        theta=theta,
        r=r,
        det=matcore.det_batch(rho).real,
        purity=(1.0 + 2.0 * r * r) / 3.0,
    )


def sample_hs(seed_or_rng) -> EnsembleSample:
    """One Hilbert-Schmidt draw (equals the first entry of any batch)."""
    return sample_batch("hs", 1, seed_or_rng)[0]


def sample_bures(seed_or_rng) -> EnsembleSample:
    """One Bures draw (equals the first entry of any batch)."""
    return sample_batch("bures", 1, seed_or_rng)[0]


# --- densities on the eigenvalue simplex ---------------------------------


def _check_simplex(eigs: Sequence[float]) -> tuple[float, float, float]:
    lam = tuple(float(x) for x in eigs)
    if len(lam) != 3:
        raise ValueError("expected three eigenvalues")
    if abs(sum(lam) - 1.0) > 1e-10:
        raise ValueError(f"eigenvalues must sum to 1, got {sum(lam)!r}")
    if min(lam) < -1e-12:
        raise ValueError("eigenvalues must be nonnegative")
    return lam


def hs_density_simplex(eigs: Sequence[float]) -> float:
    """Unnormalized Hilbert-Schmidt weight: squared Vandermonde."""
    l1, l2, l3 = _check_simplex(eigs)
    return ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2


def bures_density_simplex(eigs: Sequence[float]) -> float:
    """Unnormalized Bures weight; needs strictly positive eigenvalues."""
    lam = _check_simplex(eigs)
    if min(lam) <= 0.0:
        raise DegenerateBures("Bures simplex density needs all eigenvalues > 0")
    l1, l2, l3 = lam
    num = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
    den = math.sqrt(l1 * l2 * l3) * (l1 + l2) * (l1 + l3) * (l2 + l3)
    return num / den


# --- densities in the weights chart --------------------------------------


def _radial_form(s: float, f: float) -> tuple[float, float]:
    """(4 s^3 (1 - F^2) / 27, det rho) for weight radius s and angular
    factor F; shared by both charts."""
    return 4.0 * s ** 3 * (1.0 - f * f) / 27.0, (1.0 - 3.0 * s * s + 2.0 * s ** 3 * f) / 27.0


def _radial_parts(r: float, zeta, theta) -> tuple[float, float]:
    """(HS density, det rho) at the polar point (r, zeta, theta)."""
    _bracket, f = a3_polar(r, zeta, theta)  # rejects non-finite input and r < 0
    r = float(r)
    if r == 0.0:
        raise OriginSingularity("radial density has a 1/r^3 prefactor")
    if r * r > 1.0 + 1e-9:
        raise OutsideSphere("radius exceeds the unit sphere")
    return _radial_form(r, f)


def hs_density_bloch(r: float, zeta: Sequence[float], theta: Sequence[float]) -> float:
    """Hilbert-Schmidt radial/angular density (constant set to 1)."""
    return _radial_parts(r, zeta, theta)[0]


def _bures_ratio(hs: float, d: float, gap: float, gap_label: str, signed: bool) -> float:
    """hs / (gap * sqrt(D)) where D > 0 and gap > 0.

    Elsewhere raise, or with signed=True read sqrt(D) as sign(D) sqrt|D|
    (equal to sqrt(D) inside the domain); shared by both Bures charts.
    """
    if d <= 0.0 or gap <= 0.0:
        if not signed:
            raise DegenerateBures(
                f"Bures density undefined here: det = {d:.3e}, {gap_label} = {gap:.3e}"
            )
        if d == 0.0 or gap == 0.0:
            raise DegenerateBures("denominator vanishes exactly; no finite diagnostic")
    return hs / (gap * math.copysign(math.sqrt(abs(d)), d))


def bures_density_bloch(r: float, zeta: Sequence[float], theta: Sequence[float],
                        signed: bool = False) -> float:
    """Bures radial/angular density (constant set to 1).

    Defined only where det rho > 0 and (1 - r^2)/3 - det rho > 0; outside
    that region it raises, or - with signed=True - returns the diagnostic
    obtained by reading sqrt(D) as sign(D) sqrt|D|, whose sign change
    marks the boundary of the physical body.
    """
    hs, d = _radial_parts(r, zeta, theta)
    r = float(r)
    return _bures_ratio(hs, d, (1.0 - r * r) / 3.0 - d, "(1-r^2)/3 - det", signed)


def qubit_hs_density(r: float) -> float:
    """Flat over the qubit ball."""
    if not 0.0 <= r <= 1.0:
        raise OutsideSphere("qubit radius must lie in [0, 1]")
    return 3.0 / (4.0 * math.pi)


def qubit_bures_density(r: float) -> float:
    """Diverges toward the qubit surface."""
    if not 0.0 <= r < 1.0:
        raise OutsideSphere("qubit Bures density needs 0 <= r < 1")
    return 4.0 / (math.pi * math.sqrt(1.0 - r * r))


# --- discriminant identities ---------------------------------------------


def identity_checks(sample_count: int, seed) -> dict:
    """Verify on random HS draws that the closed forms match eigenvalue
    arithmetic: (a) prod(l_j + l_k) = (1-r^2)/3 - det, (b) prod l = det,
    (c) the radial HS numerator / 27 equals the squared Vandermonde.
    Returns max relative errors; near-degenerate draws are skipped.
    """
    batch = sample_batch("hs", sample_count, seed)
    l1, l2, l3 = batch.eigs.T
    vandermonde = ((l1 - l2) * (l1 - l3) * (l2 - l3)) ** 2
    keep = vandermonde >= 1e-14
    l1, l2, l3, vandermonde = l1[keep], l2[keep], l3[keep], vandermonde[keep]
    r, d = batch.r[keep], batch.det[keep]
    pair_prod = (l1 + l2) * (l1 + l3) * (l2 + l3)
    gap = (1.0 - r * r) / 3.0 - d
    num = ((r - 1.0) ** 2 * (2.0 * r + 1.0) - 27.0 * d) * (
        (r + 1.0) ** 2 * (2.0 * r - 1.0) + 27.0 * d
    )

    def worst(rel: np.ndarray) -> float:
        return float(np.max(rel, initial=0.0))

    return {
        "count": int(sample_count),
        "skipped_near_degenerate": int(np.count_nonzero(~keep)),
        "max_rel_sum_pairs": worst(np.abs(gap - pair_prod) / np.abs(pair_prod)),
        "max_rel_det": worst(np.abs(d - l1 * l2 * l3) / np.maximum(np.abs(d), 1e-300)),
        "max_rel_hs_numerator": worst(np.abs(num / 27.0 - vandermonde) / vandermonde),
    }
