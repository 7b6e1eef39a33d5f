"""One meter per run: ``main`` makes a single meter from ``--budget`` and
every pipeline of the command charges that meter."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from folnerlab import Budget
from folnerlab.cli import COMMANDS, main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = json.loads((GOLDEN / "cli_corpus.json").read_text())

# the smallest budget that still answers: the run spends all of it
EDGE_OK = {
    "search_z1_edge_ok": 11,
    "search_z2_edge_ok": 63,
    "function_z1_edge_ok": 14,
    "seq_lamp_n3_edge_ok": 331,
    "kappa_mixed_edge_ok": 2259,
    "harem_budget_edge_ok": 4,
    "paradox_verify12_budget_edge_ok": 15,
    "wp_z2_scan_edge_ok": 2106,
    "witness_z2_refute_edge_ok": 2263,
}


# exit-2 cases that end with most of their budget left: ``folner_function``
# answers UNKNOWN once its candidates run out, before the meter does (see
# ROADMAP, Direction 8)
STOP_EARLY = {"function_z2_n3_unknown", "function_z2_unknown"}


def _run(argv):
    """The exit code and standard output of one CLI invocation."""
    out = io.StringIO()
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _meters(monkeypatch, argv):
    """The meters one CLI invocation makes, in order."""
    made = []
    real = Budget.meter

    def meter(self):
        made.append(real(self))
        return made[-1]

    monkeypatch.setattr(Budget, "meter", meter)
    _run(argv)
    return made


def _with_budget(argv, steps):
    """``argv`` with its budget set to ``steps``."""
    if "--budget" not in argv:
        return [*argv, "--budget", str(steps)]
    i = argv.index("--budget") + 1
    return [*argv[:i], str(steps), *argv[i + 1:]]


def test_every_command_makes_one_meter_per_invocation(monkeypatch):
    commands = set()
    for name, case in sorted(CORPUS.items()):
        if case["exit"] == 4:  # malformed input may stop before the meter
            continue
        assert len(_meters(monkeypatch, case["argv"])) == 1, name
        commands.add(case["argv"][0])
    assert commands == set(COMMANDS)


def test_every_edge_ok_case_is_listed():
    assert set(EDGE_OK) == {name for name in CORPUS if name.endswith("_edge_ok")}


@pytest.mark.parametrize("name", sorted(EDGE_OK))
def test_an_edge_run_consumes_its_whole_budget(monkeypatch, name):
    argv = CORPUS[name]["argv"]
    assert argv[argv.index("--budget") + 1] == str(EDGE_OK[name])
    (meter,) = _meters(monkeypatch, argv)
    assert meter.consumed == EDGE_OK[name]


@pytest.mark.parametrize("name", ["reiter_interval", "reiter_tent"])
def test_reiter_check_consumes_nothing(monkeypatch, name):
    (meter,) = _meters(monkeypatch, CORPUS[name]["argv"])
    assert meter.consumed == 0


def test_every_charged_run_sits_on_its_budget_edge(monkeypatch):
    """A run that answers after consuming c steps gives the same answer at
    ``--budget c`` and runs out at c - 1; a run that runs out has spent its
    whole budget.  Only the STOP_EARLY cases break this law."""
    charged, breakers = {0: 0, 2: 0}, set()
    for name, case in sorted(CORPUS.items()):
        if case["exit"] not in charged:
            continue
        argv = case["argv"] + ["--json"]  # as the corpus was recorded
        (meter,) = _meters(monkeypatch, argv)
        c = meter.consumed
        if not c:
            continue
        charged[case["exit"]] += 1
        if case["exit"] == 2:
            holds = meter.remaining == 0
        elif c == 1:  # --budget 0 is malformed
            continue
        else:
            holds = (_run(_with_budget(argv, c)) == (0, case["stdout"])
                     and _run(_with_budget(argv, c - 1))[0] == 2)
        if not holds:
            breakers.add(name)
    assert charged == {0: 41, 2: 27}
    assert breakers == STOP_EARLY
