"""The benchmark's own passes, for the split tools.

Loads the library from ``src/`` of the checkout that holds this file with
``perfbench/run.py``'s ``import_library``, sets a workload up as the
benchmark does, and runs each pass with its ``run_pass`` (``gc.collect``,
a fresh ``PassClock``, the workload's ``run_pass`` and ``check``), so a
split times exactly the pass that the benchmark times.  ``split`` sorts a
pass's query latencies by a label per query.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import run as bench  # noqa: E402


@contextlib.contextmanager
def loaded(name: str, seed: int):
    """The library, the workload ``name`` and its state for ``seed``; the
    workload's files live in a temporary directory until the block ends."""
    lib = bench.import_library()
    workload = bench.WORKLOADS[name]
    with tempfile.TemporaryDirectory() as out_dir:
        yield lib, workload, workload.setup(lib, seed, Path(out_dir))


def run_pass(workload, lib, state):
    """One pass as the benchmark runs it: its ``PassResult`` and its number
    of failed checks."""
    result, _, _, failed = bench.run_pass(workload, lib, state)
    return result, len(failed)


def split(workload, lib, state, labels, n: int, names=()):
    """Run n passes, at least one, and split each pass's query latencies by
    ``labels``, one label per query: {label: [seconds in each pass]},
    {label: [seconds of each of its queries in every pass]} and the list of
    failed-check counts.  The keys are ``names``, then the other labels in
    the order they first appear, then the whole pass, "pass"."""
    seconds = {name: [] for name in (*names, *labels, "pass")}
    latencies = {name: [] for name in seconds}
    failed = []
    for _ in range(max(1, n)):
        result, bad = run_pass(workload, lib, state)
        failed.append(bad)
        totals = dict.fromkeys(seconds, 0.0)
        for name, dt in zip(labels, result.latencies):
            totals[name] += dt
            latencies[name].append(dt)
        latencies["pass"] += result.latencies
        totals["pass"] = sum(result.latencies)
        for name, dt in totals.items():
            seconds[name].append(dt)
    return seconds, latencies, failed
