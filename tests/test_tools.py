"""Smoke runs of the scripts under ``tools/``, one pass each.

``command_split.py``, ``paradox_split.py`` and ``solver_split.py`` import
``perfbench/workloads.py`` and hook private harem names, so a library change
that renames what they reach fails here.  Each script runs in a subprocess,
as its docstring says to run it, and writes no bytecode.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.name for p in (ROOT / "src" / "folnerlab").glob("*.py"))


def _run(*argv):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_code_lines_counts_every_module():
    rows = _run("tools/code_lines.py", "src/folnerlab")
    assert [name for _, name in rows] == [*MODULES, "total"]
    counts = [int(count) for count, _ in rows]
    assert 0 < sum(counts[:-1]) == counts[-1]


def test_command_split_runs_an_amenable_pass():
    rows = _run("tools/command_split.py", "--seed", "1", "--passes", "1")
    head, header = rows[:2]
    assert head[-1] == "[0]"  # failed checks in the one pass
    assert header == ["command", "queries", "median", "s", "range", "s", "p50", "ms"]
    split = rows.index(["command", "queries", "row", "products", "steps"])
    assert {row[0]: int(row[1]) for row in rows[2:split]} == {
        "folner-seq": 4, "folner-function": 7, "folner-search": 8,
        "restrict-folner": 4, "witness": 4, "wp-from-folner": 80, "kappa": 100,
        "pass": 207,
    }
    # each command's median query in ms; the pass's lies between them
    p50 = {row[0]: float(row[4]) for row in rows[2:split]}
    assert all(ms > 0 for ms in p50.values())
    assert min(p50.values()) <= p50["pass"] <= max(p50.values())
    counts = {row[0]: (int(row[2]), int(row[3])) for row in rows[split + 1:]}
    assert list(counts) == [row[0] for row in rows[2:split]]
    # kappa reads the value buckets and makes no row; every query charges
    # its meter, and the pass is the sum of its commands
    assert counts["kappa"][0] == 0 and all(steps > 0 for _, steps in counts.values())
    for i in (0, 1):
        assert counts["pass"][i] == sum(c[i] for name, c in counts.items()
                                        if name != "pass")
    # the seed-1 pass consumes 1,000,748 steps, the traced budget.steps_used;
    # the lamplighter's layers make their rows through mult_rows, and every
    # product counts once
    assert counts["folner-seq"] == (67002, 238561)
    assert counts["pass"] == (180320, 1000748)


def test_paradox_split_runs_a_prefix_pass():
    head, header, *rows = _run("tools/paradox_split.py", "--passes", "1")
    assert head[-1] == "[0]"  # failed checks in the one pass
    assert header[0] == "layer"
    layers = ["template", "frame", "capacities", "maxflow", "label", "undo", "rest", "pass"]
    assert [row[0] for row in rows] == [
        *layers, "side", "A", "B", "template", "A", "B", "phases", "A", "B"]
    assert all(float(row[1]) >= 0 for row in rows[:len(layers) - 2])
    sides, templates = rows[-9:-6], rows[-6:-3]
    # the 48-code pass takes 61 steps, 31 on the A side and 30 on the B side
    assert [int(row[1]) for row in sides[1:]] == [31, 30]
    # the change-map entries by kind: dead, lost A, lost B, pushed to the
    # radius and moved further in
    assert sides[0][-5:] == ["dead", "lost-A", "lost-B", "pushed", "moved"]
    assert [list(map(int, row[-5:])) for row in sides[1:]] == [
        [1730, 737, 0, 0, 0], [2422, 4588, 222, 0, 0]]
    # nodes, forward arcs, arc-list entries and tt's arcs of each template:
    # no radius node's arc b -> tt is listed; then the entries each holds,
    # the ball's edges once, as arcs, no second residual list, and one
    # level and one pointer entry per node
    assert [list(map(int, row[1:])) for row in templates[1:]] == [
        [1622, 5815, 8750, 18, 41736], [14582, 52471, 79022, 162, 376392]]
    # the labelling phases of the steps' flows and of each template's own,
    # the last, empty, one of each flow included: they depend only on the
    # flows, so they read the same whichever arcs the search reads
    assert rows[-3] == ["phases", "steps", "template"]
    assert [list(map(int, row[1:])) for row in rows[-2:]] == [[83, 3], [75, 3]]


def test_solver_split_sorts_a_harem_pass():
    head, header, *rows = _run("tools/solver_split.py", "--seed", "1", "--passes", "1")
    assert head[-1] == "[0]"  # failed checks in the one pass
    assert header[0] == "group"
    # of seed 1's 2,048 pieces, 519 are feasible and the counts refute
    # 1,476 of the 1,529 infeasible ones before any network is built
    assert {row[0]: int(row[1]) for row in rows} == {
        "counts": 1476, "flow-feasible": 519, "flow-infeasible": 53, "pass": 2048}
    assert all(float(row[2]) > 0 for row in rows)
