"""Command-line front end.

Subcommands:

    state to-bloch   JSON {"matrix": ...} -> full state document
    state from-bloch JSON {"bloch": ...}  -> full state document
    check            state JSON -> physicality / purity / rank report
    scan             section rasterization -> CSV
    mub              MUB family -> JSON
    unital           check | choi | vertices -> JSON
    sample           random states -> CSV
    density          closed-form ensemble densities -> JSON

JSON floats use the shortest round-trip form; CSV floats carry 17
significant digits.  Identical argv (including --seed) gives
byte-identical output.  Exit codes: 0 success, 2 invalid input,
1 internal error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

import numpy as np

from . import ensembles, gellmann, mub, positivity, sections, unital
from .bloch import (
    GATE_TOL,
    BlochParams,
    parse_state_document,
    purity,
    state_document,
)
from .errors import QutritBlochError

DEFAULT_SEED = 0xB10C

# Largest working set a `sample` or `scan` request may ask for (4 GiB).
# A request is estimated as its sampled states or raster points times
# _BYTES_PER_UNIT (measured peaks: about 1.5 kB per state, at most 1.2 kB
# per point) and refused with exit 2, before anything is allocated, when
# the estimate exceeds the budget.
BYTE_BUDGET = 4 << 30
_BYTES_PER_UNIT = 2048

_SAMPLE_HEADER = (
    "seed,index,eig1,eig2,eig3,n1,n2,n3,n4,theta1,theta2,theta3,theta4,r,det,purity"
)


def _read_json(path: str | None) -> dict:
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise QutritBlochError("expected a JSON object")
    return doc


def _write_text(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit_json(doc: dict, path: str | None) -> None:
    _write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n", path)


def _check_budget(what: str, units: int) -> None:
    need = units * _BYTES_PER_UNIT
    if need > BYTE_BUDGET:
        raise QutritBlochError(
            f"{what} needs about {need:.3g} bytes, above the {BYTE_BUDGET} byte budget"
        )


def _floats(text: str, expect: int | None = None, flag: str = "") -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise QutritBlochError(f"{flag}: expected comma-separated numbers: {exc}") from exc
    if expect is not None and len(vals) != expect:
        raise QutritBlochError(f"{flag}: expected {expect} numbers, got {len(vals)}")
    return vals


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float >= 0.  Under NaN every
    `> tol` gate is false, and a negative tol fails exact states."""
    try:
        value = float(text)
    except ValueError:
        # the message argparse gives for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {text!r}")
    return value


# --- subcommand bodies ----------------------------------------------------


def _cmd_state(args) -> int:
    doc = _read_json(args.input)
    if args.direction == "to-bloch" and "matrix" not in doc:
        raise QutritBlochError("state to-bloch needs a \"matrix\" entry")
    if args.direction == "from-bloch" and "bloch" not in doc:
        raise QutritBlochError("state from-bloch needs a \"bloch\" entry")
    p = parse_state_document(doc, tol=args.tol)
    _emit_json(state_document(p), args.output)
    return 0


def _cmd_check(args) -> int:
    p = parse_state_document(_read_json(args.input), tol=args.tol)
    a3 = positivity.a3_closed_form(p)
    report = {
        "physical": positivity.in_ball(p, tol=args.tol) and a3 >= -args.tol,
        "purity": purity(p),
        "r": p.radius,
        "char_coeffs": {
            "a2": (1.0 - purity(p)) / 2.0,
            "a3": a3,
        },
        "rank": None,
        "region": None,
        "rank_consistent": None,
    }
    if report["physical"]:
        rr = positivity.rank_report(p, tol=args.tol)
        report.update(rank=rr.rank, region=rr.region, rank_consistent=rr.consistent)
    _emit_json(report, args.output)
    return 0


def _cmd_scan(args) -> int:
    axes = tuple(int(a) for a in args.axes.split(","))
    theta_values = _floats(args.theta, flag="--theta") if args.theta is not None else ()
    spec = sections.SectionSpec(
        kind=args.kind,
        axes=axes,
        resolution=args.resolution,
        theta_policy=args.theta_policy,
        theta_values=theta_values,
    )
    points = spec.resolution ** (2 if spec.theta_policy == "grid" else len(spec.axes))
    _check_budget(f"--resolution {spec.resolution} ({points} points)", points)
    header, raster = sections.scan(spec)
    buf = io.StringIO()
    sections.write_csv(header, raster, buf)
    _write_text(buf.getvalue(), args.output)
    unproven = int(np.count_nonzero(~raster.certified))
    if unproven:
        print(f"warning: {unproven} of {len(raster)} rows have an unproven sign", file=sys.stderr)
    return 0


def _cmd_mub(args) -> int:
    fam = mub.four_mubs(args.delta, args.gamma)
    _emit_json(mub.family_document(fam), args.output)
    return 0


def _cmd_unital(args) -> int:
    if args.action == "vertices":
        if args.lam is not None or args.phi is not None:
            raise QutritBlochError("unital vertices takes no --lam or --phi")
        _emit_json(
            {
                "vertices": [list(v) for v in unital.polytope_vertices()],
                "edge_lengths": list(unital.edge_lengths()),
            },
            args.output,
        )
        return 0
    if not args.lam:
        raise QutritBlochError("unital check/choi needs --lam")
    lam = _floats(args.lam, 4, "--lam")
    phi = _floats(args.phi, 4, "--phi") if args.phi is not None else (0.0, 0.0, 0.0, 0.0)
    m = unital.UnitalMap(lam, phi)
    eigs = [float(x) for x in unital.choi_eigenvalues(m)]
    if args.action == "choi":
        c = unital.choi_matrix(m)
        _emit_json(
            {
                "lambda": list(lam),
                "phi": list(phi),
                "choi": [[[v.real, v.imag] for v in row] for row in c],
                "eigenvalues": eigs,
            },
            args.output,
        )
        return 0
    report = {
        "lambda": list(lam),
        "phi": list(phi),
        "cp": eigs[0] >= -args.tol,
        "min_choi_eigenvalue": eigs[0],
        "polytope": None,
        "slacks": None,
    }
    if all(v == 0.0 for v in phi):
        # one scale for both verdicts: the Choi eigenvalues are p_b = slack / 3
        ok, slacks = unital.polytope_check(lam, tol=3.0 * args.tol)
        report.update(polytope=ok, slacks=list(slacks))
    _emit_json(report, args.output)
    return 0


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise QutritBlochError("--count must be at least 1")
    _check_budget(f"--count {args.count}", args.count)
    b = ensembles.sample_batch(args.ensemble, args.count, args.seed)
    table = np.column_stack((np.arange(len(b)), b.eigs, b.n, b.theta, b.r, b.det, b.purity))
    # one format call for every row: "%.17g" % v is format(v, ".17g"), and
    # the index column holds exact floats
    row = f"{args.seed},%d," + ",".join(["%.17g"] * 14) + "\n"
    _write_text(_SAMPLE_HEADER + "\n" + (row * len(b)) % tuple(table.ravel().tolist()),
                args.output)
    return 0


def _cmd_density(args) -> int:
    which = args.which
    if args.signed and which not in ("bures", "bures-gm"):
        raise QutritBlochError("--signed applies only to --which bures or bures-gm")
    need = 1 if which.startswith("qubit") else 8
    at = _floats(args.at, need, "--at")
    if which == "hs":
        value = ensembles.hs_density_bloch(at[0], at[1:4], at[4:8])
    elif which == "bures":
        value = ensembles.bures_density_bloch(at[0], at[1:4], at[4:8], signed=args.signed)
    elif which == "hs-gm":
        value = gellmann.hs_density_gm(at)
    elif which == "bures-gm":
        value = gellmann.bures_density_gm(at, signed=args.signed)
    elif which == "qubit-hs":
        value = ensembles.qubit_hs_density(at[0])
    else:  # qubit-bures
        value = ensembles.qubit_bures_density(at[0])
    _emit_json({"which": which, "at": list(at), "value": value}, args.output)
    return 0


# --- parser ---------------------------------------------------------------


def _io_flags(p) -> None:
    p.add_argument("--in", dest="input", default=None, help="input JSON path (default stdin)")
    p.add_argument("--out", dest="output", default=None, help="output path (default stdout)")


def _state_args(p) -> None:
    p.add_argument("direction", choices=("to-bloch", "from-bloch"))
    p.add_argument("--tol", type=_tolerance, default=GATE_TOL)
    _io_flags(p)
    p.set_defaults(func=_cmd_state)


def _check_args(p) -> None:
    p.add_argument("--tol", type=_tolerance, default=GATE_TOL)
    _io_flags(p)
    p.set_defaults(func=_cmd_check)


def _scan_args(p) -> None:
    p.add_argument("--kind", choices=("one", "two", "three"), required=True)
    p.add_argument("--axes", required=True, help="comma-separated axes from 1..4")
    p.add_argument("--resolution", type=int, default=101)
    p.add_argument("--theta-policy", choices=("grid", "fixed", "maximize"), default="maximize")
    p.add_argument("--theta", default=None, help="angles for --theta-policy fixed")
    _io_flags(p)
    p.set_defaults(func=_cmd_scan)


def _mub_args(p) -> None:
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    _io_flags(p)
    p.set_defaults(func=_cmd_mub)


def _unital_args(p) -> None:
    p.add_argument("action", choices=("check", "choi", "vertices"))
    p.add_argument("--lam", default=None, help="four comma-separated moduli")
    p.add_argument("--phi", default=None, help="four comma-separated phases")
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    _io_flags(p)
    p.set_defaults(func=_cmd_unital)


def _sample_args(p) -> None:
    p.add_argument("--ensemble", choices=ensembles.MEASURES, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _io_flags(p)
    p.set_defaults(func=_cmd_sample)


def _density_args(p) -> None:
    p.add_argument(
        "--which",
        choices=("hs", "bures", "hs-gm", "bures-gm", "qubit-hs", "qubit-bures"),
        required=True,
    )
    p.add_argument("--at", required=True, help="r,zeta1..3,theta1..4 | g1..g8 | r, per --which")
    p.add_argument("--signed", action="store_true",
                   help="signed diagnostic outside the Bures domain (bures, bures-gm)")
    _io_flags(p)
    p.set_defaults(func=_cmd_density)


_SUBCOMMANDS = (
    ("state", "convert between matrix and chart forms", _state_args),
    ("check", "physicality, purity, and rank report", _check_args),
    ("scan", "rasterize a section to CSV", _scan_args),
    ("mub", "build the four MUBs at (delta, gamma)", _mub_args),
    ("unital", "unital channel tests", _unital_args),
    ("sample", "draw random states to CSV", _sample_args),
    ("density", "evaluate a closed-form density", _density_args),
)


def _subparser(build=True, **kwargs) -> argparse.ArgumentParser | None:
    """parser_class of the subcommand action: no parser when not `build`."""
    return argparse.ArgumentParser(**kwargs) if build else None


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The CLI's argument parser.

    Every subcommand is listed (in usage, --help and the invalid-choice
    error), but only those named in `commands` get a parser; None means
    all.  The others map to None: argparse reads a subcommand's map entry
    only when an argv token equals its name, so `build_parser(argv)`
    parses `argv` exactly as the full parser does, and skips most of its
    build cost.
    """
    top = argparse.ArgumentParser(
        prog="qutrit-bloch",
        description="Four-dimensional Bloch-sphere toolkit for qutrits",
    )
    sub = top.add_subparsers(dest="command", required=True, parser_class=_subparser)
    for name, help_text, add_arguments in _SUBCOMMANDS:
        if commands is None or name in commands:
            add_arguments(sub.add_parser(name, help=help_text))
        else:
            sub.add_parser(name, help=help_text, build=False)
    return top


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QutritBlochError, json.JSONDecodeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
