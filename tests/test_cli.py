"""Command-line front end: subcommand outputs, exit codes, determinism,
and self-consistency of emitted documents."""

import argparse
import io
import json
import math
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from qutrit_bloch import cli, positivity


def run_cli(argv, stdin_text=None, monkeypatch=None, capsys=None):
    """Invoke the entry point in-process; returns (exit_code, stdout, stderr)."""
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.run(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def invoke(monkeypatch, capsys):
    def _invoke(argv, stdin_text=None):
        return run_cli(argv, stdin_text, monkeypatch, capsys)

    return _invoke


# --- state and check ------------------------------------------------------------


def test_state_round_trip(invoke):
    doc = {"bloch": {"n": [0.3, 0.2, 0.1, 0.25], "theta": [0.4, 1.1, 2.2, 0.9]}}
    code, out, _ = invoke(["state", "from-bloch"], json.dumps(doc))
    assert code == 0
    full = json.loads(out)
    assert set(full) == {"bloch", "matrix"}
    code, out2, _ = invoke(["state", "to-bloch"], json.dumps({"matrix": full["matrix"]}))
    assert code == 0
    back = json.loads(out2)
    assert np.max(np.abs(np.array(back["bloch"]["n"]) - doc["bloch"]["n"])) < 1e-12


@pytest.mark.parametrize("length", [3, 5])
def test_bloch_block_needs_four_weights_and_four_angles(invoke, length):
    n, theta = [0.1, 0.2, 0.3, 0.4, 0.9], [0.0, 0.5, 1.0, 1.5, 2.0]
    for bloch in ({"n": n[:length], "theta": theta[:4]}, {"n": n[:4], "theta": theta[:length]}):
        for argv in (["check"], ["state", "from-bloch"]):
            code, out, err = invoke(argv, json.dumps({"bloch": bloch}))
            assert code == 2 and out == ""
            assert "four entries" in err


def test_state_missing_key_is_validation_error(invoke):
    code, _, err = invoke(["state", "to-bloch"], json.dumps({"bloch": {}}))
    assert code == 2
    assert "matrix" in err
    matrix = [[[1.0 / 3.0, 0.0] if i == j else [0.0, 0.0] for j in range(3)] for i in range(3)]
    code, out, err = invoke(["state", "from-bloch"], json.dumps({"matrix": matrix}))
    assert (code, out) == (2, "")
    assert "bloch" in err
    code, out, err = invoke(["check"], "[1, 2, 3]")
    assert (code, out) == (2, "")
    assert "JSON object" in err


def test_check_physical_state(invoke):
    doc = {"bloch": {"n": [0.0, 1.0, 0.0, 0.0], "theta": [0.0, 0.0, 0.0, 0.0]}}
    code, out, _ = invoke(["check"], json.dumps(doc))
    assert code == 0
    rep = json.loads(out)
    assert rep["physical"] is True
    assert rep["rank"] == 1
    assert rep["purity"] == pytest.approx(1.0, abs=1e-12)
    assert rep["region"] == "surface"
    assert rep["rank_consistent"] is True
    assert rep["char_coeffs"]["a3"] == pytest.approx(0.0, abs=1e-12)


def test_check_evaluates_the_bracket_once(invoke, monkeypatch):
    """`physical` and the reported a3 share one bracket evaluation, and
    the rank report does not gate on physicality again."""
    calls = []
    wave_value = positivity._wave_value
    monkeypatch.setattr(positivity, "_wave_value", lambda *a: calls.append(1) or wave_value(*a))
    doc = {"bloch": {"n": [0.3, -0.2, 0.1, 0.25], "theta": [0.4, 1.1, 2.2, 0.9]}}
    code, out, _ = invoke(["check"], json.dumps(doc))
    rep = json.loads(out)
    assert code == 0 and rep["physical"] is True and rep["rank"] == 3
    assert len(calls) == 1


def test_check_nonphysical_point(invoke):
    doc = {"bloch": {"n": [0.6, 0.6, 0.0, 0.0], "theta": [0.0, 0.0, 0.0, 0.0]}}
    code, out, _ = invoke(["check"], json.dumps(doc))
    assert code == 0
    rep = json.loads(out)
    assert rep["physical"] is False
    assert rep["rank"] is None and rep["region"] is None
    assert 27.0 * rep["char_coeffs"]["a3"] == pytest.approx(-0.296, abs=1e-12)


def test_check_rejects_malformed_json(invoke):
    code, _, err = invoke(["check"], "{not json")
    assert code == 2
    assert err.strip()


# --- scan ---------------------------------------------------------------------


def test_scan_csv_output(invoke):
    code, out, _ = invoke(
        ["scan", "--kind", "one", "--axes", "1", "--resolution", "11",
         "--theta-policy", "grid"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n1,theta1,feasible,a3_max"
    assert len(lines) == 1 + 11 * 11


def test_scan_deterministic(invoke):
    argv = ["scan", "--kind", "two", "--axes", "1,2", "--resolution", "7",
            "--theta-policy", "fixed", "--theta", "0.0,0.0"]
    code1, out1, _ = invoke(argv)
    code2, out2, _ = invoke(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_scan_axis_count_mismatch(invoke):
    code, _, err = invoke(["scan", "--kind", "three", "--axes", "1,2", "--resolution", "5"])
    assert code == 2
    assert "3 axes" in err


def test_angle_search_flags_are_gone(invoke):
    """The angle search has one configuration: no scan flag tunes it."""
    for flag in (["--grid-steps", "8"], ["--no-refine"]):
        code, out, err = invoke(["scan", "--kind=three", "--axes=1,2,3", "--resolution=4", *flag])
        assert code == 2 and out == ""
        assert flag[0] in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_scan_rejects_non_finite_theta(invoke, value):
    code, out, err = invoke(["scan", "--kind=two", "--axes=1,2", "--resolution=3",
                             "--theta-policy=fixed", f"--theta={value},0"])
    assert code == 2 and out == ""
    assert "finite" in err


def test_scan_reports_uncertified_rows_on_stderr(invoke, monkeypatch):
    """A row whose sign the angle search leaves unproven is counted on
    stderr; stdout and the exit code are those of a certified scan."""
    argv = ["scan", "--kind=three", "--axes=1,2,3", "--resolution=4"]
    code, clean, err = invoke(argv)
    assert code == 0 and err == ""
    search = positivity.max_a3_batch

    def one_unproven(*args, **kwargs):
        found = search(*args, **kwargs)
        found.certified[0] = False
        return found

    monkeypatch.setattr(positivity, "max_a3_batch", one_unproven)
    code, out, err = invoke(argv)
    assert code == 0 and out == clean
    assert err == f"warning: 1 of {4 ** 3} rows have an unproven sign\n"


def test_threads_flag_is_gone(invoke):
    for argv in (["scan", "--kind", "one", "--axes", "1", "--threads", "2"],
                 ["sample", "--ensemble", "hs", "--threads", "2"]):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert "--threads" in err


def test_scan_resolution_over_budget_is_refused_before_allocation(invoke, monkeypatch):
    """A raster of 10^24 points (about 2e27 bytes) exits 2 before any work;
    the largest two-axis resolution inside the budget reaches `scan`."""
    from qutrit_bloch import sections

    reached = []

    def fake_scan(spec):
        reached.append(spec.resolution)
        no_rows = (np.linspace(-1.0, 1.0, 2), np.zeros(0, dtype=int))
        return ["n1", "n2", "feasible", "a3_max"], sections.SectionRaster(
            (no_rows, no_rows), np.zeros(0, dtype=bool), np.zeros(0))

    monkeypatch.setattr(sections, "scan", fake_scan)
    for argv in (["scan", "--kind", "three", "--axes", "1,2,3", "--resolution", "100000000"],
                 ["scan", "--kind", "one", "--axes", "2", "--resolution", "1000000000000",
                  "--theta-policy", "grid"]):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert "byte budget" in err and "--resolution" in err
    assert reached == []
    edge = math.isqrt(cli.BYTE_BUDGET // cli._BYTES_PER_UNIT)
    for resolution, expect in ((edge, 0), (edge + 1, 2)):
        code, _, err = invoke(["scan", "--kind", "two", "--axes", "1,2",
                               "--resolution", str(resolution)])
        assert code == expect, err
    assert reached == [edge]


def test_theta_outside_fixed_policy_is_refused(invoke):
    for policy in ("maximize", "grid"):
        kind, axes = ("two", "1,2") if policy == "maximize" else ("one", "1")
        code, out, err = invoke(["scan", f"--kind={kind}", f"--axes={axes}", "--resolution=3",
                                 f"--theta-policy={policy}", "--theta=0.3,0.4"])
        assert code == 2 and out == ""
        assert "fixed" in err
    code, out, err = invoke(["scan", "--kind=two", "--axes=1,2", "--resolution=3",
                             "--theta=0.3,0.4"])
    assert code == 2 and out == "" and "'maximize'" in err


# --- mub ------------------------------------------------------------------------


def test_mub_document(invoke):
    code, out, _ = invoke(["mub", "--delta", "0.3", "--gamma", "1.1"])
    assert code == 0
    fam = json.loads(out)
    assert [b["label"] for b in fam["bases"]] == ["computational", "N", "P", "Q"]
    assert fam["delta"] == 0.3


# --- unital ---------------------------------------------------------------------


def test_unital_vertices(invoke):
    code, out, _ = invoke(["unital", "vertices"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"][0] == [1.0, 1.0, 1.0, 1.0]
    assert len(doc["vertices"]) == 5
    assert len(doc["edge_lengths"]) == 10


@pytest.mark.parametrize("flag", ["--lam=nan", "--phi=0,0,0,0", "--lam="])
def test_unital_vertices_refuses_lam_and_phi(invoke, flag):
    code, out, err = invoke(["unital", "vertices", flag])
    assert code == 2 and out == ""
    assert err == "error: unital vertices takes no --lam or --phi\n"


@pytest.mark.parametrize("action", ["check", "choi"])
def test_unital_needs_lam_except_for_vertices(invoke, action):
    code, out, err = invoke(["unital", action, "--phi=0,0,0,0"])
    assert code == 2 and out == ""
    assert err == "error: unital check/choi needs --lam\n"
    code, out, _ = invoke(["unital", "vertices"])
    assert code == 0 and json.loads(out)["vertices"]


def test_unital_check_inside_and_outside(invoke):
    code, out, _ = invoke(["unital", "check", "--lam", "0.5,0.5,0.5,0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cp"] is True and doc["polytope"] is True
    assert doc["slacks"] == [0.5, 0.5, 0.5, 0.5, 5.0]
    code, out, _ = invoke(["unital", "check", "--lam", "1,1,1,-1"])
    doc = json.loads(out)
    assert doc["cp"] is False and doc["polytope"] is False


def test_unital_check_with_phases_skips_polytope(invoke):
    code, out, _ = invoke(
        ["unital", "check", "--lam", "0.9,0.9,0.9,0.9", "--phi", "0.3,0,0,0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["polytope"] is None and doc["slacks"] is None
    assert doc["cp"] is False


def test_unital_choi_eigenvalues(invoke):
    code, out, _ = invoke(["unital", "choi", "--lam", "1,1,1,1"])
    assert code == 0
    doc = json.loads(out)
    eigs = doc["eigenvalues"]
    assert eigs[-1] == pytest.approx(3.0, abs=1e-12)
    assert max(abs(e) for e in eigs[:-1]) < 1e-12
    mat = np.array([[complex(re, im) for re, im in row] for row in doc["choi"]])
    assert mat.shape == (9, 9)
    assert abs(np.trace(mat) - 3.0) < 1e-12


@pytest.mark.parametrize(
    "flags, cp",
    [
        (["--lam", "0.5,0.4,0.3,0.2"], True),
        (["--lam", "0.6,-0.2,0.4,0.1"], False),
        (["--lam", "0.15,0.1,0.1,0.1", "--phi", "0.4,1.3,2.9,0.2"], True),
        (["--lam", "0.8,0.3,-0.1,0.5", "--phi", "0.4,1.3,2.9,0.2"], False),
    ],
)
def test_unital_check_and_choi_report_one_spectrum(invoke, flags, cp):
    """`check` takes its verdict and margin from the spectrum `choi` emits,
    and that spectrum is the LAPACK spectrum of the emitted matrix."""
    tol = 1e-9
    code, out, _ = invoke(["unital", "check", *flags, "--tol", str(tol)])
    assert code == 0
    report = json.loads(out)
    code, out, _ = invoke(["unital", "choi", *flags])
    assert code == 0
    choi = json.loads(out)
    assert report["min_choi_eigenvalue"] == choi["eigenvalues"][0]
    assert report["cp"] is cp
    assert report["cp"] == (report["min_choi_eigenvalue"] >= -tol)
    mat = np.array([[complex(re, im) for re, im in row] for row in choi["choi"]])
    assert np.max(np.abs(np.linalg.eigvalsh(mat) - choi["eigenvalues"])) < 1e-13


def test_unital_check_verdicts_agree_on_the_found_channel(invoke):
    """cp used --tol on p_b while the polytope used a fixed 1e-12 on the
    slacks, so this channel read cp true and polytope false."""
    code, out, _ = invoke(["unital", "check", "--lam=1,1,1,1.0000000003"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cp"] is True and doc["polytope"] is True
    assert min(doc["slacks"]) < 0.0


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_unital_check_verdicts_agree_on_boundary_channels(invoke, tol):
    """Channels with one slack within +-10 tol of zero: cp (p_b >= -tol) and
    polytope (slack / 3 >= -tol) never disagree, on either side."""
    from qutrit_bloch import unital

    rng = np.random.default_rng(4242)
    rows = unital._CONSTRAINTS
    seen = set()
    for _ in range(120):
        i = int(rng.integers(5))
        lam = rng.uniform(-0.4, 0.4, 4)
        c = rows[i]
        slack = rng.uniform(-10.0, 10.0) * 3.0 * tol  # p_b within +-10 tol of 0
        lam += (slack - 1.0 - c @ lam) * c / (c @ c)  # put row i's slack there
        code, out, _ = invoke(["unital", "check", "--lam=" + ",".join(repr(float(v)) for v in lam),
                               "--tol", repr(tol)])
        assert code == 0
        doc = json.loads(out)
        assert doc["cp"] is doc["polytope"], (lam, doc)
        assert abs(doc["slacks"][i] - slack) < 1e-12
        seen.add(doc["cp"])
    assert seen == {True, False}


# --- sample ---------------------------------------------------------------------


def test_sample_csv_schema_and_determinism(invoke):
    argv = ["sample", "--ensemble", "hs", "--count", "4", "--seed", "7"]
    code, out, _ = invoke(argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == (
        "seed,index,eig1,eig2,eig3,n1,n2,n3,n4,theta1,theta2,theta3,theta4,r,det,purity"
    )
    assert len(lines) == 5
    code2, out2, _ = invoke(argv)
    assert out2 == out
    # batch-prefix: a shorter run is a prefix of a longer one
    code3, out3, _ = invoke(["sample", "--ensemble", "hs", "--count", "2", "--seed", "7"])
    assert out.splitlines()[:3] == out3.splitlines()[:3]


def test_sample_rows_reingest_as_physical(invoke):
    code, out, _ = invoke(["sample", "--ensemble", "bures", "--count", "3", "--seed", "11"])
    assert code == 0
    for line in out.strip().splitlines()[1:]:
        cells = line.split(",")
        n = [float(x) for x in cells[5:9]]
        theta = [float(x) for x in cells[9:13]]
        code2, out2, _ = invoke(
            ["check"], json.dumps({"bloch": {"n": n, "theta": theta}})
        )
        assert code2 == 0
        assert json.loads(out2)["physical"] is True


def test_sample_count_validation(invoke):
    code, _, err = invoke(["sample", "--ensemble", "hs", "--count", "0"])
    assert code == 2
    assert "count" in err


def test_sample_count_over_budget_is_refused_before_allocation(invoke, monkeypatch):
    """10^18 states (about 2 exabytes) exit 2 before anything is drawn."""
    from qutrit_bloch import ensembles

    def must_not_run(*args):
        raise AssertionError("sample_rhos ran despite the byte budget")

    monkeypatch.setattr(ensembles, "sample_rhos", must_not_run)
    code, out, err = invoke(["sample", "--ensemble", "bures", "--count", str(10 ** 18)])
    assert code == 2 and out == ""
    assert "byte budget" in err and "--count" in err
    limit = cli.BYTE_BUDGET // cli._BYTES_PER_UNIT
    code, out, err = invoke(["sample", "--ensemble", "hs", "--count", str(limit + 1)])
    assert code == 2 and "byte budget" in err


def test_sample_stdout_repeats_byte_for_byte(invoke):
    argv = ["sample", "--ensemble", "bures", "--count", "50", "--seed", str(2 ** 70 + 3)]
    code, out, _ = invoke(argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == cli._SAMPLE_HEADER == (
        "seed,index,eig1,eig2,eig3,n1,n2,n3,n4,theta1,theta2,theta3,theta4,r,det,purity"
    )
    assert len(lines) == 51 and out.endswith("\n")
    # the seed is printed as given, even beyond float precision
    assert all(line.split(",")[:2] == [str(2 ** 70 + 3), str(k)]
               for k, line in enumerate(lines[1:]))
    for _ in range(2):
        assert invoke(argv)[1] == out


def test_sample_cells_are_17_digit_column_values(invoke):
    from qutrit_bloch import ensembles

    code, out, _ = invoke(["sample", "--ensemble", "hs", "--count", "30", "--seed", "4"])
    assert code == 0
    b = ensembles.sample_batch("hs", 30, 4)
    for k, line in enumerate(out.splitlines()[1:]):
        values = [*b.eigs[k], *b.n[k], *b.theta[k], b.r[k], b.det[k], b.purity[k]]
        assert line.split(",")[2:] == [format(float(v), ".17g") for v in values]


@pytest.mark.parametrize("measure", ["hs", "bures"])
def test_sample_streams_chunks_as_one_batch(invoke, tmp_path, measure):
    """Across chunk boundaries the CSV is the rendering of one batch, and
    the index column runs on without a break; --out gets the same bytes."""
    from qutrit_bloch import ensembles

    count, seed = 2 * cli._SAMPLE_CHUNK + 17, 606
    argv = ["sample", f"--ensemble={measure}", f"--count={count}", f"--seed={seed}"]
    code, out, err = invoke(argv)
    assert (code, err) == (0, "")
    b = ensembles.sample_batch(measure, count, seed)
    expected = [cli._SAMPLE_HEADER]
    for k in range(count):
        values = [*b.eigs[k], *b.n[k], *b.theta[k], b.r[k], b.det[k], b.purity[k]]
        expected.append(",".join([str(seed), str(k), *(format(float(v), ".17g") for v in values)]))
    assert out == "\n".join(expected) + "\n"
    lines = out.splitlines()
    for edge in (cli._SAMPLE_CHUNK, 2 * cli._SAMPLE_CHUNK):
        assert [line.split(",")[1] for line in lines[edge - 1:edge + 3]] == [
            str(k) for k in range(edge - 2, edge + 2)]
    dst = tmp_path / "sample.csv"
    assert invoke([*argv, "--out", str(dst)])[:2] == (0, "")
    assert dst.read_bytes() == out.encode()


def test_sample_refusals_leave_out_untouched(invoke, tmp_path):
    """--out is opened only after every check: a directory is an input
    error, and a refused --count neither creates nor truncates the file."""
    code, out, err = invoke(["sample", "--ensemble=hs", "--count=3", "--out", str(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    missing = tmp_path / "missing.csv"
    code, out, _ = invoke(["sample", "--ensemble=hs", "--count=0", "--out", str(missing)])
    assert code == 2 and out == "" and not missing.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier\n")
    limit = cli.BYTE_BUDGET // cli._BYTES_PER_UNIT
    for count in (0, limit + 1):
        code, out, _ = invoke(["sample", "--ensemble=hs", f"--count={count}", "--out", str(kept)])
        assert code == 2 and out == ""
        assert kept.read_text() == "earlier\n"


def test_sample_peak_memory_does_not_grow_with_count(tmp_path):
    """tracemalloc sees numpy's buffers too, so the traced peak of a
    streamed `sample` is one chunk's, whatever --count is: eight chunks
    peak within 1.5x of one (one CSV string for all rows gave 8x)."""
    import tracemalloc

    chunk = cli._SAMPLE_CHUNK

    def peak(count: int) -> int:
        tracemalloc.reset_peak()
        argv = ["sample", "--ensemble=bures", f"--count={count}", "--out", str(tmp_path / "s.csv")]
        assert cli.run(argv) == 0
        return tracemalloc.get_traced_memory()[1]

    tracemalloc.start()
    try:
        peak(chunk)  # one-time allocations (imports, caches) land here
        one, eight = peak(chunk), peak(8 * chunk)
    finally:
        tracemalloc.stop()
    assert eight <= 1.5 * one, (one, eight)


# --- density --------------------------------------------------------------------


def test_density_forms(invoke):
    code, out, _ = invoke(["density", "--which", "qubit-hs", "--at", "0.4"])
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(3.0 / (4.0 * math.pi), abs=1e-15)
    code, out, _ = invoke(
        ["density", "--which", "hs", "--at", "0.5,0.7,0.9,1.1,0.1,0.2,0.3,0.4"]
    )
    assert code == 0
    assert json.loads(out)["value"] > 0.0
    code, out, _ = invoke(
        ["density", "--which", "bures", "--at",
         "0.76,%.17g,0,%.17g,0,0,0,0" % (math.pi / 3.0, math.pi / 7.0), "--signed"]
    )
    assert code == 0
    assert json.loads(out)["value"] < 0.0


@pytest.mark.parametrize("which, at", [
    ("hs", "0.5,0.7,0.9,1.1,0.1,0.2,0.3,0.4"),
    ("hs-gm", "0.1,0,0,0,0,0,0,0"),
    ("qubit-hs", "0.4"),
    ("qubit-bures", "0.4"),
])
def test_density_signed_is_refused_outside_bures(invoke, which, at):
    assert invoke(["density", f"--which={which}", f"--at={at}"])[0] == 0
    code, out, err = invoke(["density", f"--which={which}", f"--at={at}", "--signed"])
    assert code == 2 and out == ""
    assert err == "error: --signed applies only to --which bures or bures-gm\n"


def test_density_at_length_validation(invoke):
    code, _, err = invoke(["density", "--which", "hs", "--at", "0.5"])
    assert code == 2
    assert "8" in err
    code, _, err = invoke(["density", "--which", "qubit-hs", "--at", "0.1,0.2"])
    assert code == 2


def test_density_domain_error_is_validation_error(invoke):
    code, _, err = invoke(
        ["density", "--which", "bures", "--at", "1,0,0,0,0,0,0,0"]
    )
    assert code == 2
    assert "Bures" in err


@pytest.mark.parametrize("which", ["hs-gm", "bures-gm"])
def test_density_outside_the_gell_mann_sphere_is_refused(invoke, which):
    code, out, err = invoke(["density", f"--which={which}", "--at=2.5,0,0,0,0,0,0,0"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "sqrt(3)" in err and err.count("\n") == 1


@pytest.mark.parametrize("which", ["hs", "bures"])
@pytest.mark.parametrize("slot", [0, 2, 5])  # r, a zeta, a theta
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_density_rejects_non_finite_polar_point(invoke, which, slot, value):
    at = ["0.3", "0.1", "0.2", "0.4", "0", "0", "0", "0"]
    at[slot] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning before the error
        code, out, err = invoke(["density", f"--which={which}", f"--at={','.join(at)}"])
    assert code == 2 and out == ""
    assert err == "error: non-finite polar point\n"


# --- plumbing ---------------------------------------------------------------------


def test_file_roundtrip(tmp_path, invoke):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps({"bloch": {"n": [0, 0, 0, 0], "theta": [0, 0, 0, 0]}}))
    code, out, _ = invoke(["check", "--in", str(src), "--out", str(dst)])
    assert code == 0
    assert out == ""
    rep = json.loads(dst.read_text())
    assert rep["physical"] is True and rep["rank"] == 3


def test_missing_input_file(invoke):
    code, _, err = invoke(["check", "--in", "/nonexistent/state.json"])
    assert code == 2
    assert err.strip()


def test_directory_as_input_or_output_is_an_input_error(tmp_path, invoke):
    src = tmp_path / "in.json"
    src.write_text(_HALF_STATE)
    for argv in (["check", "--in", str(tmp_path)],
                 ["check", "--in", str(src), "--out", str(tmp_path)]):
        code, out, err = invoke(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exits_2(capsys):
    code = cli.run(["not-a-command"])
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


_HALF_STATE = json.dumps({"bloch": {"n": [0.1, 0.1, 0.1, 0.1], "theta": [0.0, 0.0, 0.0, 0.0]}})
_PURE_MATRIX = json.dumps({"matrix": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
                                      [[0, 0], [0, 0], [0, 0]]]})


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-1e-300"])
@pytest.mark.parametrize("argv, stdin_text", [
    (["state", "to-bloch"], _PURE_MATRIX),
    (["check"], _HALF_STATE),
    (["unital", "check", "--lam=1,1,1,1"], None),
])
def test_tol_must_be_finite_and_non_negative(invoke, argv, stdin_text, value):
    code, out, err = invoke([*argv, f"--tol={value}"], stdin_text)
    assert code == 2 and out == ""
    assert "argument --tol: must be finite and at least 0" in err


@pytest.mark.parametrize("argv, flag", [
    (["unital", "check", "--lam=1,1,1,1", "--phi="], "--phi"),
    (["scan", "--kind=one", "--axes=1", "--resolution=3", "--theta="], "--theta"),
])
def test_empty_list_flag_is_refused_not_read_as_absent(invoke, argv, flag):
    code, out, err = invoke(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: expected comma-separated numbers")


def test_tol_accepts_zero_and_keeps_the_float_message(invoke):
    """--tol=0 is a valid gate, and a non-number reads as it did under type=float."""
    code, out, _ = invoke(["check", "--tol=0"], _HALF_STATE)
    assert code == 0 and json.loads(out)["physical"] is True
    code, out, err = invoke(["check", "--tol=abc"], _HALF_STATE)
    assert code == 2 and out == ""
    assert err.endswith("error: argument --tol: invalid float value: 'abc'\n")


# --- per-invocation parser ---------------------------------------------------------

_PHYSICAL = json.dumps({"bloch": {"n": [0.3, 0.2, 0.1, 0.25], "theta": [0.4, 1.1, 2.2, 0.9]}})
_MIXED = [
    (["state", "from-bloch"], _PHYSICAL),
    (["state", "to-bloch", "--tol=1e-9"], _PURE_MATRIX),
    (["check"], _PHYSICAL),
    (["scan", "--kind=two", "--axes=1,3", "--resolution=4", "--theta-policy=fixed",
      "--theta=0.2,1.0"], ""),
    (["mub", "--delta=0.3", "--gamma=-1.1"], ""),
    (["unital", "check", "--lam=0.5,0.4,0.3,0.2"], ""),
    (["sample", "--ensemble=bures", "--count=3", "--seed=7"], ""),
    (["density", "--which=qubit-hs", "--at=0.5"], ""),
    (["mub", "--delta=x", "--gamma=0"], ""),  # usage error
    (["scan", "--help"], ""),
    (["unital", "check"], ""),  # validation error
    (["check", "--tol=nan"], _PHYSICAL),
    # argv shapes where a subcommand name sits elsewhere, or nowhere
    (["--help"], ""),
    ([], ""),
    (["-h", "mub"], ""),
    (["mu"], ""),
    (["--", "mub", "--delta=1", "--gamma=2"], ""),
    (["-x", "mub", "--delta=1", "--gamma=2"], ""),
    (["scan", "mub"], ""),
    (["mub", "--delta=1", "--gamma=2", "check"], ""),
    (["state", "to-bloch", "--in", "mub"], ""),
    # errors and help that come from inside a named subparser
    (["unital"], ""),
    (["state", "sideways"], ""),
    (["check", "--tol"], _PHYSICAL),
    (["check", "stray"], _PHYSICAL),
    (["sample", "--ensemble=hs", "--count=x"], ""),
    (["density", "-h"], ""),
    (["unital", "check", "--help"], ""),
]


def _call(argv, stdin_text):
    """cli.run with fresh streams swapped in for this call only."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = cli.run(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def test_parser_built_for_argv_matches_the_full_parser_byte_for_byte(monkeypatch):
    partial = [_call(argv, stdin_text) for argv, stdin_text in _MIXED]
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda commands=None: build())
    full = [_call(argv, stdin_text) for argv, stdin_text in _MIXED]
    assert partial == full
    assert [code for code, _, _ in partial[:12]] == [0] * 8 + [2, 0, 2, 2]
    _, help_out, help_err = partial[9]
    assert help_out.startswith("usage: qutrit-bloch scan") and help_err == ""
    assert "invalid float value: 'x'" in partial[8][2] and partial[8][1] == ""
    assert partial[10][2] == "error: unital check/choi needs --lam\n"
    assert "{state,check,scan,mub,unital,sample,density}" in partial[12][1]


def test_run_fills_in_only_the_subcommands_its_argv_names(monkeypatch):
    filled = []

    def recorded(name, add_arguments):
        def add(p):
            filled.append(name)
            add_arguments(p)
        return add

    monkeypatch.setattr(cli, "_SUBCOMMANDS", tuple(
        (name, help_text, recorded(name, add)) for name, help_text, add in cli._SUBCOMMANDS))
    for argv, stdin_text in _MIXED:
        filled.clear()
        _call(argv, stdin_text)
        assert filled == [name for name, _, _ in cli._SUBCOMMANDS if name in argv], argv
    filled.clear()
    cli.build_parser()
    assert filled == [name for name, _, _ in cli._SUBCOMMANDS]


def test_run_builds_a_parser_only_for_the_subcommands_its_argv_names(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv, stdin_text, expect in (
        (["check"], _PHYSICAL, 2),
        (["--help"], "", 1),
        (["mub", "--delta=1", "--gamma=2", "check"], "", 3),
    ):
        built.clear()
        _call(argv, stdin_text)
        assert len(built) == expect, (argv, built)
    built.clear()
    cli.build_parser()
    assert len(built) == 1 + len(cli._SUBCOMMANDS) == 8


@pytest.mark.skipif(
    shutil.which("qutrit-bloch") is None,
    reason="qutrit-bloch console script not on PATH (package not installed)",
)
def test_console_script_installed():
    proc = subprocess.run(
        ["qutrit-bloch", "unital", "vertices"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vertices"][0] == [1.0, 1.0, 1.0, 1.0]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qutrit_bloch", "mub", "--delta", "0", "--gamma", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    pts = sorted(tuple(round(x, 9) for x in b["weight_point"]) for b in doc["bases"])
    assert (1.0, 0.0, 0.0, 0.0) in pts


@pytest.mark.parametrize("argv, stdin_text", [
    (["check"], json.dumps({"bloch": {"n": [1e200, 0, 0, 0], "theta": [0, 0, 0, 0]}})),
    (["state", "from-bloch"], json.dumps({"bloch": {"n": [0, 1e308, 0, 0], "theta": [0, 0, 0, 0]}})),
    (["unital", "check", "--lam=1e308,1e308,1e308,1e308"], None),
], ids=["check", "state-from-bloch", "unital-check"])
def test_overflowing_output_is_refused_not_printed(argv, stdin_text):
    # out of process: pytest's error::RuntimeWarning filter would stop the
    # in-process run at numpy's overflow warning, before any JSON is written
    proc = subprocess.run(
        [sys.executable, "-m", "qutrit_bloch", *argv],
        input=stdin_text or "", capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "not JSON compliant" in proc.stderr
