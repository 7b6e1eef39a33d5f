"""Split the in-process time of a ``harem-small`` pass by how each piece is
decided.

Builds the benchmark's ``harem-small`` pieces for one seed with
``perfbench/workloads.py`` (imported as it is), sorts them into three
groups and runs whole passes in this process.  The groups are the pieces
that ``finite_harem_match`` refutes by its counts before any network is
built (``counts``), and the rest by the flow's verdict: a matching
(``flow-feasible``) or None (``flow-infeasible``).  One untimed pass with
``_refuted_by_counts`` wrapped sorts the pieces; the timed passes run the
library as it is.  For each group it prints the number of pieces, the
seconds they took in a pass (the median and the range over the passes)
and the median time of one of its pieces in microseconds, over every piece
of every pass.  The last row is the whole pass; its piece median is the
benchmark's ``latency_p50_ms`` before the speed scaling.  The library is
imported from ``src/`` of the checkout that holds this file.

    python3 tools/solver_split.py --seed 1 --passes 6
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GROUPS = ("counts", "flow-feasible", "flow-infeasible")


def piece_groups(harem, items) -> list[str]:
    """The group of each piece, from one call of ``finite_harem_match``
    with ``_refuted_by_counts`` wrapped to record its verdict."""
    plain = harem._refuted_by_counts
    verdicts = []

    def recorded(*args):
        verdicts.append(plain(*args))
        return verdicts[-1]

    harem._refuted_by_counts = recorded
    try:
        groups = []
        for piece, k, _ in items:
            del verdicts[:]
            out = harem.finite_harem_match(piece, k)
            groups.append(GROUPS[0] if verdicts == [True] else
                          GROUPS[1] if out is not None else GROUPS[2])
    finally:
        harem._refuted_by_counts = plain
    return groups


def group_seconds(workload, lib, state, groups, passes: int):
    """{group: [seconds in each pass]}, {group: [seconds of each of its
    pieces in every pass]}, and the list of failed-check counts; the whole
    pass is under the key "pass"."""
    from workloads import PassClock

    seconds: dict[str, list[float]] = {name: [] for name in (*GROUPS, "pass")}
    latencies: dict[str, list[float]] = {name: [] for name in seconds}
    failed = []
    for _ in range(passes):
        gc.collect()
        clock = PassClock()
        workload.run_pass(lib, state, clock)
        failed.append(len(workload.check(lib, state, clock.result)))
        split = dict.fromkeys(seconds, 0.0)
        for name, dt in zip(groups, clock.result.latencies):
            split[name] += dt
            latencies[name].append(dt)
        latencies["pass"] += clock.result.latencies
        split["pass"] = sum(clock.result.latencies)
        for name, dt in split.items():
            seconds[name].append(dt)
    return seconds, latencies, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=6)
    args = p.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    lib = types.SimpleNamespace(harem=importlib.import_module("folnerlab.harem"))
    workload = WORKLOADS["harem-small"]
    state = workload.setup(lib, args.seed, None)
    groups = piece_groups(lib.harem, state["items"])
    seconds, latencies, failed = group_seconds(
        workload, lib, state, groups, max(1, args.passes))
    print("seed %d, %d passes, failed checks per pass: %s"
          % (args.seed, len(failed), failed))
    print("%-16s %6s %8s %17s %8s" % ("group", "pieces", "median s", "range s", "p50 us"))
    for name, dts in seconds.items():
        pieces = len(groups) if name == "pass" else groups.count(name)
        p50 = 1e6 * statistics.median(latencies[name]) if latencies[name] else 0.0
        print("%-16s %6d %8.4f %8.4f-%.4f %8.2f" % (
            name, pieces, statistics.median(dts), min(dts), max(dts), p50))
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
