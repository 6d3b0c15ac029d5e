"""Seeded request generators for the benchmark workloads.

A workload is an endless sequence of rounds.  Round k of a run is drawn
from numpy's PCG64 seeded with (seed, k), so the same seed gives the same
requests, and every round of a workload has the same composition, so its
cost hardly depends on the seed.  Each request carries the oracle that
judges its stdout.  Requests reach the program only as argv and stdin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

import oracles


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]
    stdin: str = ""
    expect_rc: int = 0
    units: int = 1  # work units: raster rows, sampled states or requests


def opt(flag: str, values) -> str:
    """`--flag=v1,v2,...`: the `=` keeps argparse from reading a leading
    minus sign as another flag."""
    return f"{flag}={','.join(repr(float(v)) for v in values)}"


# Sizes of the heavy requests, from the callers they stand for:
# - two-axis maximize at 101, the default `scan --resolution`
#   (scripts/scan_figures.py uses 201, four times the rows);
# - three-axis maximize at 8.  scripts/scan_figures.py uses 50, an even
#   grid without a zero coordinate, so every in-ball point has three active
#   weights; 8 keeps that, at a cost of about 0.7 s a raster (50 would take
#   minutes);
# - sample at 20 000 states, the default of scripts/ensemble_stats.py.
#   ROADMAP's 100 000 would hold about 200 MB of per-state records and
#   output today, and leave about six timed invocations in a run.
TWO_AXIS_RES = 101
THREE_AXIS_RES = 8
THREE_SELECTORS = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
SAMPLE_COUNT = 20_000


def _scan(axes, resolution: int, policy: str, rng, theta=()) -> Request:
    argv = ["scan", f"--kind={('one', 'two', 'three')[len(axes) - 1]}",
            "--axes=" + ",".join(str(a) for a in axes), f"--resolution={resolution}",
            f"--theta-policy={policy}"]
    if theta:
        argv.append(opt("--theta", theta))
    check = partial(oracles.check_scan, axes=tuple(axes), resolution=resolution, policy=policy,
                    theta=tuple(theta), cloud_seed=int(rng.integers(2 ** 32)))
    rows = resolution ** (2 if policy == "grid" else len(axes))
    return Request(tuple(argv), check, units=rows)


def _sample(measure: str, count: int, rng) -> Request:
    seed = int(rng.integers(2 ** 31))
    argv = ("sample", f"--ensemble={measure}", f"--count={count}", f"--seed={seed}")
    return Request(argv, partial(oracles.check_sample, seed=seed, count=count), units=count)


def _shuffled(reqs: list[Request], rng) -> list[Request]:
    return [reqs[i] for i in rng.permutation(len(reqs))]


def scan_maximize(rng) -> list[Request]:
    """One two-axis raster and one raster of every three-axis selector,
    all maximized over angles."""
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    reqs = [_scan(rng.permutation(pairs[rng.integers(len(pairs))]).tolist(), TWO_AXIS_RES,
                  "maximize", rng)]
    # three-axis costs depend on the axis order by up to 10 %, so it stays fixed
    reqs += [_scan(list(t), THREE_AXIS_RES, "maximize", rng) for t in THREE_SELECTORS]
    return _shuffled(reqs, rng)


def sample_csv(rng) -> list[Request]:
    """One Hilbert-Schmidt batch and one Bures batch, fresh seeds each."""
    return _shuffled([_sample(m, SAMPLE_COUNT, rng) for m in ("hs", "bures")], rng)


# --- request-stream -----------------------------------------------------------


def _state(rng, pure: bool = False) -> np.ndarray:
    if pure:
        psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        return np.outer(psi, psi.conj())
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    w = g @ g.conj().T
    return w / np.trace(w).real


def _chart(rng, r_max: float):
    direction = rng.standard_normal(4)
    n = rng.uniform(0.0, r_max) * direction / np.linalg.norm(direction)
    return n.tolist(), rng.uniform(0.0, 2.0 * np.pi, 4).tolist()


def _matrix_doc(rho) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in rho]


def _to_bloch(rng, pure: bool) -> Request:
    rho = _state(rng, pure)
    doc = _matrix_doc(rho)
    return Request(("state", "to-bloch"), partial(oracles.check_to_bloch, matrix=doc),
                   stdin=json.dumps({"matrix": doc}))


def _from_bloch(rng) -> Request:
    n, theta = _chart(rng, 1.0)
    return Request(("state", "from-bloch"), partial(oracles.check_from_bloch, n=n, theta=theta),
                   stdin=json.dumps({"bloch": {"n": n, "theta": theta}}))


def _check(rng, as_matrix: bool) -> Request:
    if as_matrix:
        rho = _state(rng)
        doc = {"matrix": _matrix_doc(rho)}
    else:  # up to radius 1.1: about half of these points are not states
        n, theta = _chart(rng, 1.1)
        rho = oracles.chart_rho(n, theta)[0]
        doc = {"bloch": {"n": n, "theta": theta}}
    return Request(("check",), partial(oracles.check_check, rho=rho), stdin=json.dumps(doc))


def _unital(rng, phased: bool) -> Request:
    lam = rng.uniform(-0.6, 1.0, 4).tolist()
    phi = rng.uniform(0.0, 2.0 * np.pi, 4).tolist() if phased else [0.0] * 4
    argv = ["unital", "check", opt("--lam", lam)]
    if phased:
        argv.append(opt("--phi", phi))
    return Request(tuple(argv), partial(oracles.check_unital, lam=lam, phi=phi))


def _mub(rng) -> Request:
    delta, gamma = rng.uniform(-np.pi, np.pi, 2)
    return Request(("mub", opt("--delta", [delta]), opt("--gamma", [gamma])), oracles.check_mub)


def _density(rng, which: str) -> Request:
    if which in ("hs", "bures"):  # radius below 1/2: every such point is a full-rank state
        at = [rng.uniform(0.05, 0.45), rng.uniform(0.0, np.pi), rng.uniform(0.0, np.pi),
              rng.uniform(0.0, 2.0 * np.pi)] + rng.uniform(0.0, 2.0 * np.pi, 4).tolist()
    else:  # a full-rank state mixed toward the centre, in Gell-Mann coordinates
        s = rng.uniform(0.2, 0.8)
        rho = (1.0 - s) * np.eye(3) / 3.0 + s * _state(rng)
        at = [1.5 * float(np.trace(m @ rho).real) for m in oracles.gell_mann()]
    return Request(("density", f"--which={which}", opt("--at", at)),
                   partial(oracles.check_density, which=which, at=at))


def _rasters(rng) -> list[Request]:
    one = _scan([int(rng.integers(1, 5))], 21, "grid", rng)
    two = rng.permutation(4)[:2] + 1
    three = rng.permutation(4)[:3] + 1
    return [one,
            _scan(two.tolist(), 21, "fixed", rng, rng.uniform(0.0, 2.0 * np.pi, 2).tolist()),
            _scan(three.tolist(), 9, "fixed", rng, rng.uniform(0.0, 2.0 * np.pi, 3).tolist())]


def _invalid(rng) -> list[Request]:
    """Inputs the CLI must refuse with exit code 2 and no stdout."""
    n, theta = _chart(rng, 0.5)
    lam = rng.uniform(-0.5, 1.0, 4).tolist()
    bad = np.array(_state(rng))
    bad[0, 1] += 0.1
    cases = [
        (("check",), "[1, 2, 3]"),
        (("check",), json.dumps({"bloch": {"n": n[:3], "theta": theta[:3]}})),
        (("check",), json.dumps({"matrix": _matrix_doc(bad)})),
        (("state", "to-bloch"), json.dumps({"bloch": {"n": n, "theta": theta}})),
        (("state", "from-bloch"), "{not json"),
        (("unital", "check"), ""),
        (("unital", "check", opt("--lam", lam[:3])), ""),
        (("density", "--which=hs", opt("--at", lam[:3])), ""),
        (("sample", "--ensemble=hs", "--count=0"), ""),
        (("scan", "--kind=two", "--axes=2,2", "--resolution=5"), ""),
        (("scan", "--kind=three", "--axes=1,2,3", "--resolution=5", "--theta-policy=fixed",
          opt("--theta", lam[:2])), ""),
        (("mub", "--delta=x", "--gamma=0"), ""),
    ]
    return [Request(argv, oracles.check_empty, stdin=stdin, expect_rc=2) for argv, stdin in cases]


def request_stream(rng) -> list[Request]:
    """A fixed mix of small requests across every subcommand (340 a round)."""
    reqs = []
    for _ in range(20):
        reqs += [_to_bloch(rng, pure=False), _to_bloch(rng, pure=True),
                 _from_bloch(rng), _from_bloch(rng)]
    for _ in range(30):
        reqs += [_check(rng, as_matrix=True), _check(rng, as_matrix=False)]
    for _ in range(24):
        reqs += [_unital(rng, phased=False), _unital(rng, phased=True), _mub(rng)]
    for _ in range(10):
        reqs += [_density(rng, w) for w in ("hs", "bures", "hs-gm", "bures-gm")]
    reqs += [_sample(("hs", "bures")[i % 2], int(rng.integers(1, 17)), rng) for i in range(40)]
    for _ in range(8):
        reqs += _rasters(rng)
    for _ in range(2):
        reqs += _invalid(rng)
    return [replace(req, units=1) for req in _shuffled(reqs, rng)]


WORKLOADS = {
    "scan-maximize": scan_maximize,
    "sample-csv": sample_csv,
    "request-stream": request_stream,
}


def make_round(workload: str, seed: int, index: int) -> list[Request]:
    return WORKLOADS[workload](np.random.default_rng([seed, index]))
