"""The experiment scripts under scripts/: each runs at the CI smoke size
and writes the files it names, and the default sizes that the README
and benchmarks/ cite stay put."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

from qutrit_bloch import sections

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv(path):
    with path.open(newline="") as stream:
        rows = list(csv.reader(stream))
    return rows[0], rows[1:]


def test_scan_figures_writes_every_raster(tmp_path):
    script = _load("scan_figures")
    assert script.main(["--resolution", "9", "--out-dir", str(tmp_path)]) == 0
    expected = {
        "one_axis_grid.csv": (["n1", "theta1", "feasible", "a3_max"], 81),
        "two_axis_map.csv": (["n1", "n2", "feasible", "a3_max"], 81),
    }
    for which, (axes, _sign, _phase) in sections.THREE_SECTION_AXES.items():
        # the three-axis maps never go below resolution 41
        expected[f"three_axis_{which}.csv"] = (
            [f"n{a}" for a in axes] + ["feasible", "a3_max"], 41 ** 3)
    for name, (header, count) in expected.items():
        got_header, rows = _csv(tmp_path / name)
        assert (got_header, len(rows)) == (header, count), name
    header, rows = _csv(tmp_path / "one_axis_windows.csv")
    assert header == ["n", "window_index", "theta_lo", "theta_hi"]
    assert rows and all(float(row[0]) != 0.0 for row in rows)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [*expected, "one_axis_windows.csv"])


def test_ensemble_stats_writes_report_and_histograms(tmp_path):
    script = _load("ensemble_stats")
    assert script.main(["--count", "200", "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ensemble_stats.json").read_text())
    assert set(report) == {"config", "measures", "identity_checks"}
    assert report["config"] == {"count": 200, "bins": 20, "seed": 0xB10C,
                                "measures": ["hs", "bures"]}
    assert [m["measure"] for m in report["measures"]] == ["hs", "bures"]
    for m in report["measures"]:
        assert set(m) == {"measure", "count", "seed", "mean_purity", "std_purity",
                          "mean_radius", "mean_det", "min_eig_quantiles",
                          "eig_histogram_csv"}
        header, rows = _csv(tmp_path / m["eig_histogram_csv"])
        assert header == ["bin_lo", "bin_hi", "count", "density"]
        assert len(rows) == 20
        assert sum(int(row[2]) for row in rows) == 3 * 200
    assert report["identity_checks"]["count"] == 2_000


def test_conjecture_scan_reports_both_experiments(tmp_path):
    script = _load("conjecture_scan")
    out = tmp_path / "sub" / "conjecture.json"
    assert script.main(["--trials", "20", "--grid", "4", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"haar_random_bases", "closed_four_basis_construction"}
    haar = report["haar_random_bases"]
    assert haar["trials"] == 20
    assert haar["fraction_neither"] == haar["neither"] / 60
    closed = report["closed_four_basis_construction"]
    assert (closed["grid"], closed["families"]) == (4, 4 ** 2)


@pytest.mark.parametrize("name, size, default, result", [
    # benchmarks/ sizes its scan rasters and samples against the first two
    ("scan_figures", lambda args: args[1], 201, None),
    ("ensemble_stats", lambda args: args[0].count, 20_000, {"measures": []}),
    ("conjecture_scan", lambda args: args[0].trials, 2_000, None),
], ids=["scan_figures", "ensemble_stats", "conjecture_scan"])
def test_cited_defaults(monkeypatch, name, size, default, result):
    script = _load(name)
    calls = []
    monkeypatch.setattr(script, "run", lambda *a, **k: calls.append((a, k)) or result)
    assert script.main([]) == 0
    [(args, kwargs)] = calls
    assert kwargs == {}
    assert size(args) == default
