"""Split the in-process time of a ``paradox-prefix`` pass by harem layer.

Builds the benchmark's ``paradox-prefix`` workload, runs the benchmark's
own passes in this process (see ``passes.py``), and prints the seconds
each layer took in a pass: the median and the range over the passes.  The layers are the template builds
(``_template``, its maximum flow included), ``_frame`` less the template
builds it starts, ``_capacities`` with its undo-log writes, the steps'
``_maxflow`` less its labelling, the labelling of the steps' flow phases
(``_label_from_both_ends``), ``_undo`` and the rest of the pass; the last
row is the whole pass.  Then, per side, the steps of a
pass, the sizes of their change maps and the map entries by kind (dead,
lost A and lost B nodes, pushed to the radius, moved further in), and the
side's template: its nodes (S, T, ss and tt included), its forward
arcs, its arc-list entries (``head``), the arcs that tt heads and the
entries it holds in all (``held``): the entries of its list and dict
fields, a list of lists counted by its inner lengths.  Last, per side,
the labelling phases of a pass, each call of a labelling function, the
last one that finds no augmenting path included: those of the steps'
flows and those of the template's own maximum flow.  They depend only on
the flows.

    python3 tools/paradox_split.py --passes 6
"""

from __future__ import annotations

import argparse
import statistics
import sys
from collections import Counter
from functools import partial
from time import perf_counter

import passes

LAYERS = ("template", "frame", "capacities", "maxflow", "label", "undo")
KINDS = ("dead", "lost-A", "lost-B", "pushed", "moved")
# the harem functions timed by layer; ``_frame`` is timed by LayerClock.frame
TIMED = {"_template": "template", "_capacities": "capacities", "_maxflow": "maxflow",
         "_label_from_both_ends": "label", "_undo": "undo"}


class LayerClock:
    """Times the wrapped harem functions, each call's time going to its own
    layer less the time of the wrapped calls it makes; a template build
    keeps the whole of its own time, its maximum flow included."""

    def __init__(self):
        self.seconds = dict.fromkeys(LAYERS, 0.0)
        self.inside = None  # the layer of the call being timed
        self.changes: dict[bool, list[int]] = {True: [], False: []}
        self.kinds = {True: Counter(), False: Counter()}
        self.templates = {}  # side -> its template
        self.side = None  # the side of the step under way
        self.phases = {True: Counter(), False: Counter()}  # side -> "steps", "template"

    def wrap(self, layer, fn):
        def timed(*args):
            if self.inside == "template":
                return fn(*args)
            outer, self.inside = self.inside, layer
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                self.inside = outer
                self.seconds[layer] += dt
                if outer is not None:
                    self.seconds[outer] -= dt

        return timed

    def frame(self, fn):
        """``_frame`` timed, recording each change map's size, its
        entries by kind and the template by side."""
        timed = self.wrap("frame", fn)

        def counted(st, a_side, c):
            self.side = a_side
            tpl, changes = timed(st, a_side, c)
            self.changes[a_side].append(len(changes))
            self.kinds[a_side].update(kind(tpl, u, d) for u, d in changes.items())
            self.templates[a_side] = tpl
            return tpl, changes

        return counted

    def label(self, fn):
        """A labelling function timed, counting its calls by side, in the
        template's maximum flow or in a step's."""
        timed = self.wrap("label", fn)

        def counted(*args):
            self.phases[self.side]["template" if self.inside == "template" else "steps"] += 1
            return timed(*args)

        return counted


def kind(tpl, u, d) -> str:
    """The kind of the change-map entry node u -> d (see ``_frame``)."""
    if d is None:
        return "dead"
    if d == -1:
        return "lost-A" if u < tpl.b0 else "lost-B"
    return "pushed" if d == tpl.radius else "moved"


def held(tpl) -> int:
    """The entries of the template's list and dict fields, a list of
    lists counted by its inner lengths."""
    n = 0
    for value in tpl:
        if isinstance(value, list) and value and isinstance(value[0], list):
            n += sum(map(len, value))
        elif isinstance(value, (list, dict)):
            n += len(value)
    return n


def layer_seconds(workload, lib, state, n: int):
    """{layer: [seconds in each pass]} with the whole pass under "pass",
    the last pass's change-map sizes, entry kinds and templates by side,
    and the list of failed-check counts, over n passes, at least one."""
    seconds: dict[str, list[float]] = {}
    failed = []
    harem = lib.harem
    plain = {name: getattr(harem, name) for name in (*TIMED, "_frame")}
    for _ in range(max(1, n)):
        layers = LayerClock()
        for name, layer in TIMED.items():
            wrap = layers.label if layer == "label" else partial(layers.wrap, layer)
            setattr(harem, name, wrap(plain[name]))
        harem._frame = layers.frame(plain["_frame"])
        try:
            result, bad = passes.run_pass(workload, lib, state)
        finally:
            for name, fn in plain.items():
                setattr(harem, name, fn)
        failed.append(bad)
        split = dict(layers.seconds)
        split["pass"] = sum(result.latencies) + result.other_s
        split["rest"] = split["pass"] - sum(layers.seconds.values())
        for name, dt in split.items():
            seconds.setdefault(name, []).append(dt)
    return seconds, layers.changes, layers.kinds, layers.templates, layers.phases, failed


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--passes", type=int, default=6)
    args = p.parse_args(argv)
    with passes.loaded("paradox-prefix", 1) as (lib, workload, state):
        seconds, changes, kinds, templates, phases, failed = layer_seconds(
            workload, lib, state, args.passes)
    print("%d passes, failed checks per pass: %s" % (len(failed), failed))
    print("%-12s %8s %17s" % ("layer", "median s", "range s"))
    for name in (*LAYERS, "rest", "pass"):
        dts = seconds[name]
        print("%-12s %8.3f %8.3f-%.3f" % (
            name, statistics.median(dts), min(dts), max(dts)))
    print("%-12s %5s %13s %11s %7s %6s %6s %6s %6s %6s" % (
        "side", "steps", "map entries", "median map", "max map", *KINDS))
    for a_side, sizes in changes.items():
        print("%-12s %5d %13d %11g %7d %6d %6d %6d %6d %6d" % (
            "A" if a_side else "B", len(sizes), sum(sizes),
            statistics.median(sizes), max(sizes), *(kinds[a_side][k] for k in KINDS)))
    print("%-12s %7s %7s %8s %7s %8s" % (
        "template", "nodes", "arcs", "entries", "tt arcs", "held"))
    for a_side, tpl in sorted(templates.items(), reverse=True):
        print("%-12s %7d %7d %8d %7d %8d" % (
            "A" if a_side else "B", len(tpl.head), len(tpl.to) // 2,
            sum(map(len, tpl.head)), len(tpl.head[-1]), held(tpl)))
    print("%-12s %7s %8s" % ("phases", "steps", "template"))
    for a_side, counts in sorted(phases.items(), reverse=True):
        print("%-12s %7d %8d" % ("A" if a_side else "B", counts["steps"], counts["template"]))
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
