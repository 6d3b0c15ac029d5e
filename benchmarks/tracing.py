"""Spans around the package's public functions, recorded from outside.

`Tracer` replaces every module-level binding of each function in `TRACED`
with a wrapper (modules import names directly, so `ensembles.from_density`
and `bloch.from_density` are the same object bound twice), records one
span per call in memory, and puts the originals back on exit.  A span is
(name, start, end, parent span, request id); a layer's self time is its
span minus the time its direct child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "qutrit_bloch"

TRACED = {
    "cli": ("run", "build_parser"),
    "sections": ("scan", "write_csv"),
    "positivity": ("max_a3_over_theta", "is_physical", "rank_classify"),
    "bloch": ("from_density", "to_density", "parse_state_document", "state_document"),
    "matcore": ("herm_eigvals", "det", "as_matrix"),
    "ensembles": ("sample_rhos", "sample_batch", "hs_density_bloch", "bures_density_bloch"),
    "unital": ("choi_matrix", "is_cp", "polytope_check"),
    "mub": ("four_mubs", "family_document"),
    "gellmann": ("hs_density_gm", "bures_density_gm"),
    "weyl": ("weyl_op",),
}


def _active_weights(args, kwargs) -> str:
    n = args[0] if args else kwargs["n"]
    return f".active{sum(1 for v in n if abs(float(v)) > 1e-14)}"


# span-name suffix chosen from the arguments: the search cost depends on
# how many weights are active
_SUFFIX = {"positivity.max_a3_over_theta": _active_weights}

# counters read off results: (counter, size of the result)
_RESULT_COUNTERS = {
    "sections.scan": ("sections.rows", lambda result: len(result[1])),
    "ensembles.sample_rhos": ("ensembles.states", len),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counters: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        try:
            for modname, funcs in TRACED.items():
                module = importlib.import_module(f"{PACKAGE}.{modname}")
                for fname in funcs:
                    original = getattr(module, fname)
                    wrapper = self._wrap(f"{modname}.{fname}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patched.append((m, attr, original))
                                setattr(m, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        suffix = _SUFFIX.get(name)
        counter = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name + suffix(args, kwargs) if suffix else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.request)
            if counter:
                self.counters[counter[0]] += counter[1](result)
            return result

        return wrapper

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent, _req in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, incl, own = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, _parent, _req) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - covered[i]
        return calls, incl, own

    def metrics(self, names) -> dict[str, float]:
        """Per-layer metrics by name: `<span>.calls`, `<span>.s`
        (inclusive) or `<span>.self_s`, summed over the span and its
        suffixed variants; any other name is a counter."""
        tables = dict(zip(("calls", "s", "self_s"), self.totals()))
        out = {}
        for name in names:
            stem, _, kind = name.rpartition(".")
            if kind in tables:
                out[name] = sum(v for k, v in tables[kind].items()
                                if k == stem or k.startswith(stem + "."))
            else:
                out[name] = self.counters[name]
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "name", "start", "end", "parent", "request"))
            for i, (name, start, end, parent, req) in enumerate(self.spans):
                out.writerow((i, name, repr(start), repr(end), parent, req))
