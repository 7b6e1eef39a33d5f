"""Split the in-process time of an ``amenable`` pass by CLI command.

Builds the benchmark's ``amenable`` corpus for one seed, runs the
benchmark's own passes over it in this process (see ``passes.py``), and
prints for each command the number of queries, the seconds it took in a
pass (the median and the range over the passes) and the median time of
one of its queries in ms, over every query of every pass.
The last row is the whole pass; its query median is the benchmark's
``latency_p50_ms`` before the speed scaling, and a change in it can be
traced to the commands whose query medians lie near it.

One more pass then runs with counters installed, after the timed ones, and
a second table gives for each command the products made through
``mult_row`` and ``mult_rows``, each counted once, by its outermost call
(zd's ``mult`` is a one-element row, so its single products count too),
and the meter steps consumed: machine-independent work to set beside the
seconds.

Last, as many passes again run with ``cli._read``, ``cli._run`` and
``cli._emit`` timed, and a third table splits each command's ms in a pass
(the median over those passes) into reading argv, running the command
and writing the report; the rest of a query is ``make_group``, the
budget and ``main``'s own code.  Each timer adds under a microsecond to
its call, so the split is for comparing layers, not for the totals.

    python3 tools/command_split.py --seed 1 --passes 6
"""

from __future__ import annotations

import argparse
import contextlib
import io
import statistics
import sys
from collections import Counter
from time import perf_counter

import passes


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


LAYERS = {"_read": "argv", "_run": "run", "_emit": "report"}


def layer_seconds(workload, lib, state, n: int) -> dict:
    """{command: {layer: [seconds in each pass]}}, the whole pass under
    "pass", for the layers of ``LAYERS``, over n benchmark passes with each
    layer's ``cli`` function timed; the timers are removed afterwards."""
    cli, totals, current = lib.cli, Counter(), [None]
    real = {name: getattr(cli, name) for name in LAYERS}

    def timed(name):
        def call(*args):
            if name == "_read":
                current[0] = args[0][0]
            t0 = perf_counter()
            try:
                return real[name](*args)
            finally:
                dt = perf_counter() - t0
                totals[current[0], LAYERS[name]] += dt
                totals["pass", LAYERS[name]] += dt
        return call

    out: dict = {}
    try:
        for name in LAYERS:
            setattr(cli, name, timed(name))
        for _ in range(max(1, n)):
            totals.clear()
            passes.run_pass(workload, lib, state)
            for (command, layer), dt in list(totals.items()):
                out.setdefault(command, {}).setdefault(layer, []).append(dt)
    finally:
        for name, fn in real.items():
            setattr(cli, name, fn)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=6)
    args = p.parse_args(argv)
    with passes.loaded("amenable", args.seed) as (lib, workload, state):
        labels = [inv.argv[0] for inv in state["corpus"]]
        seconds, latencies, failed = passes.split(
            workload, lib, state, labels, args.passes)
        layers = layer_seconds(workload, lib, state, args.passes)
        counts = command_counts(lib, state["corpus"])
    queries = Counter(labels)
    queries["pass"] = len(labels)
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
    print("%-18s %7s %8s %8s %9s" % (
        "command", "queries", "argv ms", "run ms", "report ms"))
    for name in seconds:
        print("%-18s %7d %8.3f %8.3f %9.3f" % (name, queries[name], *(
            1000 * statistics.median(layers[name][layer]) for layer in LAYERS.values())))
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
