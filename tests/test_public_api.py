"""Every exported name resolves, and so does every function the
benchmark tracer wraps by name, so removing a public name shows here
before it breaks `benchmarks/run.py --trace 1`."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import qutrit_bloch

MODULES = sorted(m.name for m in pkgutil.iter_modules(qutrit_bloch.__path__)
                 if not m.name.startswith("_"))


def _tracing():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_package_all_resolves():
    missing = [name for name in qutrit_bloch.__all__ if not hasattr(qutrit_bloch, name)]
    assert missing == []


@pytest.mark.parametrize("modname", MODULES)
def test_module_all_resolves(modname):
    module = importlib.import_module(f"qutrit_bloch.{modname}")
    names = getattr(module, "__all__", ())
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(module, name)] == []


def test_every_traced_function_exists():
    tracing = _tracing()
    assert tracing.PACKAGE == "qutrit_bloch"
    missing = []
    for modname, funcs in tracing.TRACED.items():
        module = importlib.import_module(f"qutrit_bloch.{modname}")
        missing += [f"{modname}.{f}" for f in funcs if not callable(getattr(module, f, None))]
    assert missing == []
