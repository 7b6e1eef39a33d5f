"""Smoke runs of the scripts under ``tools/``, one pass each.

``command_split.py`` and ``paradox_split.py`` import
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
    head, header, *rows = _run("tools/command_split.py", "--seed", "1", "--passes", "1")
    assert head[-1] == "[0]"  # failed checks in the one pass
    assert header[0] == "command"
    assert {row[0]: int(row[1]) for row in rows} == {
        "folner-seq": 4, "folner-function": 7, "folner-search": 8,
        "restrict-folner": 4, "witness": 4, "wp-from-folner": 80, "kappa": 100,
        "pass": 207,
    }
    assert len(rows) == 8


def test_paradox_split_runs_a_prefix_pass():
    head, header, *rows = _run("tools/paradox_split.py", "--passes", "1")
    assert head[-1] == "[0]"  # failed checks in the one pass
    assert header[0] == "layer"
    layers = ["template", "frame", "capacities", "maxflow", "rest", "pass"]
    assert [row[0] for row in rows] == [*layers, "side", "A", "B"]
    # the 48-code pass takes 61 steps, 31 on the A side and 30 on the B side
    assert [int(row[1]) for row in rows[-2:]] == [31, 30]
