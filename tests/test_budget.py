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


def _meters(monkeypatch, argv):
    """The meters one CLI invocation makes, in order."""
    made = []
    real = Budget.meter

    def meter(self):
        made.append(real(self))
        return made[-1]

    monkeypatch.setattr(Budget, "meter", meter)
    argv = [a.replace("{golden}", str(GOLDEN)) for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return made


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
