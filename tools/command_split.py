"""Split the in-process time of an ``amenable`` pass by CLI command.

Builds the benchmark's ``amenable`` corpus for one seed with
``perfbench/workloads.py`` (imported as it is), runs whole passes in this
process, and prints for each command the number of queries, the seconds
it took in a pass (the median and the range over the passes) and the
median time of one of its queries in ms, over every query of every pass.
The last row is the whole pass; its query median is the benchmark's
``latency_p50_ms`` before the speed scaling, and a change in it can be
traced to the commands whose query medians lie near it.  The library is
imported from ``src/`` of the checkout that holds this file.

One more pass then runs with counters installed, after the timed ones, and
a second table gives for each command the products made through
``mult_row`` and ``mult_rows``, each counted once, by its outermost call
(zd's ``mult`` is a one-element row, so its single products count too),
and the meter steps consumed: machine-independent work to set beside the
seconds.

    python3 tools/command_split.py --seed 1 --passes 6
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import statistics
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("budget", "groups", "folner", "harem", "paradox", "witness", "cli")


def command_seconds(workload, lib, state, passes: int):
    """{command: [seconds in each pass]}, {command: [seconds of each of its
    queries in every pass]}, and the list of failed-check counts; the whole
    pass is under the key "pass"."""
    from workloads import PassClock

    seconds: dict[str, list[float]] = {}
    latencies: dict[str, list[float]] = {"pass": []}
    failed = []
    for _ in range(passes):
        gc.collect()
        clock = PassClock()
        workload.run_pass(lib, state, clock)
        failed.append(len(workload.check(lib, state, clock.result)))
        split: dict[str, float] = {}
        for inv, dt in zip(state["corpus"], clock.result.latencies):
            split[inv.argv[0]] = split.get(inv.argv[0], 0.0) + dt
            latencies.setdefault(inv.argv[0], []).append(dt)
        latencies["pass"] += clock.result.latencies
        split["pass"] = sum(clock.result.latencies)
        for name, dt in split.items():
            seconds.setdefault(name, []).append(dt)
    return seconds, latencies, failed


def command_counts(lib, corpus):
    """{command: [row products, meter steps consumed]} over one pass of the
    corpus, the whole pass under "pass".  Every oracle class's own
    ``mult_row`` and ``mult_rows`` and ``Budget.meter`` are wrapped for the
    rest of the process.  A product counts once, by its outermost row call,
    as the default ``mult_rows`` makes its rows with ``mult_row``."""
    made = {"products": 0, "depth": 0, "meters": []}

    def wrap(cls, name, size):
        raw = vars(cls)[name]
        static = isinstance(raw, staticmethod)
        real = raw.__func__ if static else raw

        def counted(*args):
            made["depth"] += 1
            try:
                out = real(*args)
            finally:
                made["depth"] -= 1
            if not made["depth"]:
                made["products"] += size(out)
            return out

        setattr(cls, name, staticmethod(counted) if static else counted)

    for cls in vars(lib.groups).values():
        if isinstance(cls, type):
            if "mult_row" in vars(cls):
                wrap(cls, "mult_row", len)
            if "mult_rows" in vars(cls):
                wrap(cls, "mult_rows", lambda rows: sum(map(len, rows)))
    real_meter = lib.budget.Budget.meter

    def meter(budget):
        made["meters"].append(real_meter(budget))
        return made["meters"][-1]

    lib.budget.Budget.meter = meter
    totals: dict[str, list[int]] = {}
    for inv in corpus:
        products, made["meters"] = made["products"], []
        with contextlib.redirect_stdout(io.StringIO()):
            lib.cli.main(inv.argv)
        steps = sum(m.consumed for m in made["meters"])
        for name in (inv.argv[0], "pass"):
            row = totals.setdefault(name, [0, 0])
            row[0] += made["products"] - products
            row[1] += steps
    return totals


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=6)
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    lib = types.SimpleNamespace(**{
        m: importlib.import_module("folnerlab." + m) for m in MODULES})
    workload = WORKLOADS["amenable"]
    with tempfile.TemporaryDirectory() as out_dir:
        state = workload.setup(lib, args.seed, Path(out_dir))
        seconds, latencies, failed = command_seconds(
            workload, lib, state, max(1, args.passes))
        counts = command_counts(lib, state["corpus"])
    queries: dict[str, int] = {"pass": len(state["corpus"])}
    for inv in state["corpus"]:
        queries[inv.argv[0]] = queries.get(inv.argv[0], 0) + 1
    print("seed %d, %d passes, failed checks per pass: %s"
          % (args.seed, len(failed), failed))
    print("%-18s %7s %8s %19s %8s" % (
        "command", "queries", "median s", "range s", "p50 ms"))
    for name, dts in seconds.items():
        print("%-18s %7d %8.3f %9.3f-%.3f %8.3f" % (
            name, queries[name], statistics.median(dts), min(dts), max(dts),
            1000 * statistics.median(latencies[name])))
    print("%-18s %7s %12s %12s" % ("command", "queries", "row products", "steps"))
    for name in seconds:
        print("%-18s %7d %12d %12d" % (name, queries[name], *counts[name]))
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
