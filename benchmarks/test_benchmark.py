"""Tests of the benchmark itself (not part of the package suite).

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qutrit_bloch import bloch, cli, ensembles, positivity, unital  # noqa: E402


def output(req) -> str:
    rc, out = run.invoke(cli, req)
    assert rc == req.expect_rc
    return out


def first(workload: str, prefix: tuple[str, ...], seed: int = 3):
    reqs = workloads.make_round(workload, seed, 0)
    return next(r for r in reqs if r.argv[: len(prefix)] == prefix)


def edit_csv(out: str, row: int, col: int, change) -> str:
    lines = out.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(change(float(cells[col])))
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_round_zero_outputs_pass_their_oracles():
    for name in workloads.WORKLOADS:
        for req in workloads.make_round(name, 11, 0):
            assert req.check(output(req)) is None, req.argv


def test_lowered_a3_max_is_flagged():
    """1e-4 below the program's value on one in-ball row is caught, on
    either raster kind and wherever the row is."""
    for kind in ("--kind=two", "--kind=three"):
        req = first("scan-maximize", ("scan", kind))
        out = output(req)
        assert req.check(out) is None
        lines = out.splitlines()
        inside = [i for i, line in enumerate(lines) if i and not line.endswith("nan")]
        for i in inside[:: len(inside) // 6]:
            assert req.check(edit_csv(out, i, -1, lambda v: v - 1e-4)) is not None, (kind, i)


def test_perturbed_eigenvalue_is_flagged():
    req = first("sample-csv", ("sample",))
    out = output(req)
    assert req.check(edit_csv(out, 7, 3, lambda v: v + 1e-6)) is not None


def test_flipped_cp_is_flagged():
    lam = [0.9, 0.9, 0.9, 0.9]  # deep inside the polytope: cp with a wide margin
    req = workloads.Request(("unital", "check", workloads.opt("--lam", lam)),
                            lambda out: oracles.check_unital(out, lam, [0.0] * 4))
    doc = json.loads(output(req))
    assert doc["cp"] is True and req.check(json.dumps(doc)) is None
    doc["cp"] = False
    assert req.check(json.dumps(doc)) is not None


def test_negative_lists_are_passed_with_equals():
    assert workloads.opt("--lam", [-0.5, 0.25]) == "--lam=-0.5,0.25"
    for seed in range(3):
        for req in workloads.make_round("request-stream", seed, 0):
            for i, tok in enumerate(req.argv):
                assert not (tok.startswith("-") and tok[1:2].isdigit()), req.argv
                if tok in ("--lam", "--phi", "--at", "--theta", "--delta", "--gamma"):
                    pytest.fail(f"{tok} is separated from its value in {req.argv}")


def test_same_seed_gives_same_requests():
    for name in workloads.WORKLOADS:
        a = workloads.make_round(name, 5, 2)
        b = workloads.make_round(name, 5, 2)
        assert [(r.argv, r.stdin) for r in a] == [(r.argv, r.stdin) for r in b]


def test_oracle_states_match_the_package_convention():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, theta = rng.uniform(-0.5, 0.5, 4), rng.uniform(0.0, 2.0 * np.pi, 4)
        p = bloch.BlochParams.canonical(n, theta)
        assert np.abs(oracles.chart_rho(n, theta)[0] - bloch.to_density(p)).max() < 1e-14
        m = unital.UnitalMap(rng.uniform(-0.5, 1.0, 4), rng.uniform(0.0, 6.0, 4))
        assert np.abs(oracles.choi(m.lam, m.phi) - unital.choi_matrix(m)).max() < 1e-14


def test_tracer_restores_every_binding():
    before = {(mod, attr): value for mod in list(sys.modules.values())
              if getattr(mod, "__name__", "").startswith("qutrit_bloch")
              for attr, value in vars(mod).items() if callable(value)}
    with tracing.Tracer() as tracer:
        assert ensembles.from_density is bloch.from_density is not before[(bloch, "from_density")]
        assert cli.parse_state_document is not before[(cli, "parse_state_document")]
        assert positivity.is_physical is not before[(positivity, "is_physical")]
        run.invoke(cli, workloads.Request(("unital", "check", "--lam=1,1,1,1"), oracles.check_empty))
    after = {key: getattr(*key) for key in before}
    assert all(after[key] is value for key, value in before.items())
    calls, _incl, own = tracer.totals()
    assert calls["unital.choi_matrix"] == 2 and calls["weyl.weyl_op"] == 2 * 81
    assert calls["cli.run"] == 1 and own["cli.run"] > 0.0


def test_a_failed_invocation_counts_once():
    req = workloads.Request(("mub", "--delta=0", "--gamma=0"), lambda out: "planted failure")
    bench = run.Run(cli)
    bench.round([req], reference=[b"another digest"])
    assert bench.attempted == 1 and bench.failed == 1


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer()
    t.spans += [("a", 0.0, 10.0, -1, 0), ("b", 1.0, 4.0, 0, 0), ("c", 2.0, 3.0, 1, 0),
                ("b", 5.0, 6.0, 0, 0)]
    calls, incl, own = t.totals()
    assert calls["b"] == 2 and incl["b"] == 4.0
    assert own["a"] == 6.0 and own["b"] == 3.0 and own["c"] == 1.0


def test_trace_counts_repeat_for_one_seed():
    reqs = workloads.make_round("request-stream", 4, 0)[:60]

    def counts():
        with tracing.Tracer() as tracer:
            for req in reqs:
                run.invoke(cli, req)
        return tracer.totals()[0]

    assert counts() == counts()


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["per_layer"]]
    traced = {f"{mod}.{fn}" for mod, fns in tracing.TRACED.items() for fn in fns}
    for name in names:
        stem, _, kind = name.rpartition(".")
        if kind in ("calls", "s", "self_s"):
            assert stem in traced or stem.rpartition(".")[0] in traced, name


def test_missing_package_exits_nonzero_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sample-csv", "--seed", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
