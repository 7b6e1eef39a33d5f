"""Split the in-process time of a ``harem-small`` pass by how each piece is
decided.

Builds the benchmark's ``harem-small`` pieces for one seed, sorts them
into three groups and runs the benchmark's own passes over them in this
process (see ``passes.py``).  The groups are the pieces that
``finite_harem_match`` refutes by its counts before any search
(``counts``), and the rest by the verdict of its two passes of augmenting
paths: a matching (``matched``) or None (``unmatched``).  One untimed
pass with ``_refuted_by_counts`` wrapped sorts the pieces; the timed
passes run the library as it is.  For each group it prints the number of pieces, the
seconds they took in a pass (the median and the range over the passes)
and the median time of one of its pieces in microseconds, over every piece
of every pass.  The last row is the whole pass; its piece median is the
benchmark's ``latency_p50_ms`` before the speed scaling.

    python3 tools/solver_split.py --seed 1 --passes 6
"""

from __future__ import annotations

import argparse
import statistics
import sys

import passes

GROUPS = ("counts", "matched", "unmatched")


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


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=6)
    args = p.parse_args(argv)
    with passes.loaded("harem-small", args.seed) as (lib, workload, state):
        groups = piece_groups(lib.harem, state["items"])
        seconds, latencies, failed = passes.split(
            workload, lib, state, groups, args.passes, GROUPS)
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
