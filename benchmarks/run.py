#!/usr/bin/env python3
"""Benchmark of the qutrit-bloch command line, driven through `cli.run(argv)`.

    python3 benchmarks/run.py --workload scan-maximize --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each request is sent after the
previous one returned.  Requests come in rounds of fixed composition (see
workloads.py); after a warm-up round the run times whole rounds until
`--seconds` of invocations have run.  Each output is checked by the
independent oracles in oracles.py as soon as its invocation returns,
outside the timed region, and then dropped.  `setup_s` is the median over
several fresh interpreters that import `qutrit_bloch.cli` and build its
parser.

With `--trace 1` the run instead times round 0 untraced, then again with
spans around every public function of each module (tracing.py), and
reports the per-layer metrics; the work is fixed by the seed, so every
`.calls` count repeats exactly.  Spans go to benchmarks/out/.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (names and units as in BENCHMARK.json).  The exit code is 0 only
when every output was right.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here or in any child
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 21

SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qutrit_bloch.cli
qutrit_bloch.cli.build_parser()
print(time.perf_counter() - start)
"""


def measure_setup() -> float:
    """Median import-and-parser time of fresh interpreters (one discarded
    first, which may compile bytecode)."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


def invoke(cli, req) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.stdin), out, io.StringIO()
    try:
        rc = cli.run(list(req.argv))
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out.getvalue()


class Run:
    """Timed invocations, each judged as soon as it has returned."""

    def __init__(self, cli, known: dict | None = None):
        self.cli = cli
        # verdicts by (argv, stdin, output digest): a run without `known`
        # records its own; a later run only looks up the warm-up's, so the
        # table stays one round long however many rounds run
        self.known = known
        self.verdicts: dict = {}
        self.latencies = array("d")
        self.cpu = 0.0
        self.units = self.attempted = self.failed = self.out_bytes = 0
        self.reasons: list[str] = []

    def round(self, reqs, tracer=None, reference=None) -> list[bytes]:
        """Run one round and return the digests of its outputs.  Given the
        digests of an earlier run of the same round, every output must
        repeat them byte for byte."""
        digests = []
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = i
            cpu0, start = time.process_time(), time.perf_counter()
            rc, out = invoke(self.cli, req)
            self.latencies.append(time.perf_counter() - start)
            self.cpu += time.process_time() - cpu0
            data = out.encode()
            digests.append(hashlib.sha256(data).digest())
            self.out_bytes += len(data)
            del data
            reason = self.judge(req, rc, out, digests[-1])
            if reason is None and reference is not None and digests[-1] != reference[i]:
                reason = "output changed on repeat"
            del out  # before the next invocation, so peak memory stays the program's
            self.attempted += 1
            self.units += req.units
            if reason:
                self.failed += 1
                self.reasons.append(f"{' '.join(req.argv)}: {reason}")
        return digests

    def judge(self, req, rc: int, out: str, digest: bytes) -> str | None:
        """The oracle's verdict.  An output the warm-up round already judged
        for the same request keeps its verdict, so the fixed rasters of
        scan-maximize are checked once per run."""
        if rc != req.expect_rc:
            return f"exit code {rc}, expected {req.expect_rc}"
        key = (req.argv, req.stdin, digest)
        if self.known is None:
            self.verdicts[key] = req.check(out)
            return self.verdicts[key]
        return self.known[key] if key in self.known else req.check(out)

    def wall(self) -> float:
        return sum(self.latencies)

    def throughput(self) -> float:
        return self.units / self.wall()


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(), "commit": git_commit(),
    }


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(args, cli, first, reference, known):
    """Whole rounds, from round 0 again, until --seconds of requests have
    run; end-to-end metrics."""
    run = Run(cli, known)
    run.round(first, reference=reference)
    index = 1
    while run.wall() < args.seconds:
        run.round(workloads.make_round(args.workload, args.seed, index))
        index += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat_ms = sorted(x * 1e3 for x in run.latencies)
    values = {
        "throughput": run.throughput(),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p99_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[98],
        "cpu_ms_per_unit": 1e3 * run.cpu / run.units,
        "peak_rss_mb": peak_rss_mb,
    }
    return run, values


def trace(args, cli, first, reference, known, names):
    """Round 0 untraced, then traced; per-layer metrics."""
    import tracing

    untraced = Run(cli, known)
    untraced.round(first, reference=reference)
    traced = Run(cli, known)
    with tracing.Tracer() as tracer:
        traced.round(first, tracer, reference)
    tracer.counters["cli.out_bytes"] = traced.out_bytes
    (HERE / "out").mkdir(exist_ok=True)
    tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv")
    values = {"trace.throughput_untraced": untraced.throughput(),
              "trace.throughput_traced": traced.throughput()}
    values["trace.overhead_ratio"] = (values["trace.throughput_untraced"]
                                      / values["trace.throughput_traced"])
    values.update(tracer.metrics([n for n in names if n not in values]))
    return (untraced, traced), values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "qutrit_bloch" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no package source at {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]

    setup_s = None if args.trace else measure_setup()
    sys.path.insert(0, str(SRC))
    from qutrit_bloch import cli

    first = workloads.make_round(args.workload, args.seed, 0)
    warm = Run(cli)
    reference = warm.round(first)
    if args.trace:
        runs, values = trace(args, cli, first, reference, warm.verdicts,
                             [m["name"] for m in metric_specs])
    else:
        run, values = measure(args, cli, first, reference, warm.verdicts)
        runs = (run,)
    runs = (warm,) + runs

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    if not args.trace:
        values["ok_ratio"] = (attempted - failed) / attempted
        values["setup_s"] = setup_s
    for reason in [reason for r in runs for reason in r.reasons][:10]:
        print(f"wrong output: {reason}", file=sys.stderr)

    print("environment: " + json.dumps(environment(args)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
