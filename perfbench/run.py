"""folnerlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this single-threaded process against the library in
``src/`` of the checkout that holds this file.  With ``--trace 0`` it
times passes over the workload's queries for S seconds and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it carries run details (pass wall and CPU
times, load averages, speed samples, unscaled metrics, the tail
percentile and its sample counts).

See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # folner imports numpy: keep the run single-threaded

import argparse
from array import array
import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("budget", "groups", "folner", "harem", "paradox", "witness", "cli")
SETUP_REPEATS = 9

sys.path.insert(0, str(HERE))
from speed import SpeedGauge  # noqa: E402
from workloads import WORKLOADS, PassClock  # noqa: E402


def import_library():
    """Import folnerlab from the checkout afresh (dropping earlier imports)."""
    for name in [n for n in sys.modules if n == "folnerlab" or n.startswith("folnerlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("folnerlab")
    if Path(pkg.__file__).resolve().parent != SRC / "folnerlab":
        raise ImportError("folnerlab was not imported from %s" % SRC)
    return types.SimpleNamespace(**{
        m: importlib.import_module("folnerlab." + m) for m in MODULES})


def setup(workload, seed, gauge):
    """Set up SETUP_REPEATS times; returns the last (lib, state) and the
    set-up times at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        gauge.sample()
        gauge.sample()
        t0 = time.perf_counter()
        lib = import_library()
        state = workload.setup(lib, seed, OUT)
        dt = time.perf_counter() - t0
        gauge.sample()
        gauge.sample()
        times.append(dt * gauge.factor)
    return lib, state, times


def tail_rank(n):
    """Nearest rank of the highest percentile, in steps of 0.1, that leaves
    at least ten of n samples above it (the top sample if n <= 10)."""
    p = max(0, math.floor(1000 * (1 - 10 / n))) / 10
    return p, max(1, math.ceil(p / 100 * n))


def run_pass(workload, lib, state, tracer=None, gauge=None):
    gc.collect()
    clock = PassClock(tracer, gauge)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    workload.run_pass(lib, state, clock)
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    failed = workload.check(lib, state, clock.result)
    return clock.result, wall, cpu, failed


def latency_metrics(columns, other_s):
    """Throughput, median and tail from per-query latencies: ``columns``
    holds one latency array per pass, ``other_s`` each pass's time in
    pass-level calls that are not queries."""
    latencies = sorted(statistics.median(q) for q in zip(*columns))
    p, rank = tail_rank(len(latencies))
    pass_s = sum(latencies) + statistics.median(other_s)
    return {
        "throughput_qps": (len(latencies) / pass_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (latencies[rank - 1] * 1e3, "ms"),
    }, p, len(latencies) - rank


def measure(workload, lib, state, seconds, gauge):
    """Whole passes for ``seconds``.  Every pass asks the same queries in the
    same order, so each query's latency is its median over the passes; a
    burst of machine noise during one pass then moves no query.  Metrics
    are at reference speed (see speed.py); the details keep them unscaled."""
    raw, scaled, raw_other, scaled_other, passes = [], [], [], [], []
    attempted = failed = 0
    peak_rss_kb = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        result, wall, cpu, bad = run_pass(workload, lib, state, gauge=gauge)
        if peak_rss_kb is None:
            # after set-up and one whole pass: the per-pass working set,
            # before the benchmark's own sample lists grow with run length
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        raw.append(array("d", result.latencies))
        scaled.append(array("d", result.scaled))
        raw_other.append(result.other_s)
        scaled_other.append(result.scaled_other_s)
        attempted += len(result.latencies)
        failed += len(bad)
        entry = {"queries": len(result.latencies), "failed": len(bad),
                 "wall_s": wall, "cpu_s": cpu,
                 "library_s": sum(result.latencies) + result.other_s}
        if hasattr(workload, "side_seconds"):
            entry["side_s"] = workload.side_seconds(state, result)
        passes.append(entry)
    metrics, p, beyond = latency_metrics(scaled, scaled_other)
    unscaled = latency_metrics(raw, raw_other)[0]
    metrics["peak_rss_mb"] = (peak_rss_kb / 1024, "MB")
    metrics["ok_frac"] = (1 - failed / attempted, "frac")
    details = {
        "passes": passes,
        "unscaled": {name: value for name, (value, _) in unscaled.items()},
        "queries_per_pass": passes[0]["queries"],
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
    }
    return metrics, attempted, failed, details


def measure_traced(workload, lib, state, seed, seconds):
    from reference import harem_feasible_maxflow
    from tracer import Tracer

    plain, traced, per_pass = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        result, wall, cpu, bad = run_pass(workload, lib, state)
        plain.append({"wall_s": wall, "cpu_s": cpu})
        attempted += len(result.latencies)
        failed += len(bad)
        tracer = Tracer()
        tracer.install(lib)
        try:
            result, wall, cpu, bad = run_pass(workload, lib, state, tracer)
        finally:
            tracer.uninstall()
        traced.append({"wall_s": wall, "cpu_s": cpu})
        attempted += len(result.latencies)
        failed += len(bad)
        if not per_pass:
            # scipy max flow on the same lower-bounded network, as a check only
            mismatch = sum(
                harem_feasible_maxflow(p.A, p.B, p.adj, p.boundary_B, k) != feasible
                for p, k, feasible in tracer.pieces)
            trace_path = write_trace(workload, seed, tracer)
        tracer.pieces.clear()
        per_pass.append(tracer.metrics(mismatch))
    # counts come from the first traced pass, times are medians over passes
    metrics, counts_repeat = {}, True
    for name, (value, unit) in per_pass[0].items():
        if unit == "count":
            counts_repeat &= all(p[name][0] == value for p in per_pass)
        else:
            value = statistics.median(p[name][0] for p in per_pass)
        metrics[name] = (value, unit)
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1)
    metrics["trace.overhead_frac"] = (overhead, "frac")
    details = {
        "plain_passes": plain,
        "traced_passes": traced,
        "counts_repeat_across_passes": counts_repeat,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, attempted, failed, details


def write_trace(workload, seed, tracer):
    path = OUT / ("trace-%s-seed%d.jsonl" % (workload.name, seed))
    with open(path, "w") as fh:
        for line in tracer.records():
            fh.write(json.dumps(line) + "\n")
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "folnerlab" / "__init__.py").is_file():
        print("error: no folnerlab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    load_start = os.getloadavg()[0]
    gauge = SpeedGauge()
    lib, state, setup_times = setup(workload, args.seed, gauge)
    if args.trace:
        metrics, attempted, failed, details = measure_traced(
            workload, lib, state, args.seed, args.seconds)
    else:
        metrics, attempted, failed, details = measure(
            workload, lib, state, args.seconds, gauge)
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    details.update({
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_times,
        "speed_samples_s": gauge.samples,
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    })
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
