"""One meter per run: ``main`` makes a single meter from ``--budget`` and
every pipeline of the command charges that meter."""

import contextlib
import io
import json
import random
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from folnerlab import Budget, CEView, UNKNOWN, make_group
from folnerlab.budget import Meter
from folnerlab.cli import COMMANDS, main
from folnerlab.folner import (
    ReiterFunction,
    box_folner,
    decide_mult_from_folner,
    verify_invariance_ce,
)
from folnerlab.groups import ball, canonical_subset, eq_semidecide, parse_elements
from folnerlab.harem import harem_new, harem_query
from folnerlab.paradox import cayley_bipartite
from test_folner import _RowTable

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


def _on_its_budget_edge(call):
    """Whether ``call(budget)`` keeps the law: run on a meter of 10**6
    steps it answers after consuming c >= 1, and it then gives the same
    answer at ``Budget(c)`` and UNKNOWN at c - 1 steps, with the meter
    spent.  None when it consumed nothing or did not answer.  The run
    below the edge takes a ``Meter`` of c - 1 steps, which is what
    ``Budget(c - 1).meter()`` makes, as ``Budget(0)`` is malformed."""
    meter = Budget(10**6).meter()
    answer = call(meter)
    c = meter.consumed
    if answer is UNKNOWN or not c:
        return None
    below = Meter(c - 1)
    return call(Budget(c)) == answer and call(below) is UNKNOWN and not below.remaining


def test_every_library_semidecision_sits_on_its_budget_edge():
    """The budget-edge law in the library, on seeded instances of the c.e.
    equality, the c.e. invariance verifier, the word problem from a Folner
    oracle, on a CEView and on a c.e. table that is not one, and harem
    queries on fresh states."""
    rng = random.Random(8)
    rz, z2 = make_group("redundant-z"), make_group("zd:2")
    by_value = {}
    for code in range(400):
        by_value.setdefault(rz.value(code), []).append(code)
    calls = {"eq": [], "kappa": [], "wp": [], "harem": []}
    for _ in range(40):
        x = rng.randrange(400)
        y = rng.choice(by_value[rz.value(x)])
        calls["eq"].append(partial(eq_semidecide, rz, x, y))
    for _ in range(80):
        support = tuple(sorted(rng.sample(range(40), rng.randint(1, 5))))
        f = ReiterFunction(support, {v: Fraction(rng.randint(1, 4)) for v in support})
        D = tuple(sorted(rng.sample(range(12), rng.randint(1, 2))))
        calls["kappa"].append(partial(verify_invariance_ce, rz, rng.randint(1, 6), D, f))
    box = lambda n, D: box_folner(z2, D, n)
    for _ in range(30):
        a, b = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in "ab"]
        c = (a[0] + b[0], a[1] + b[1]) if rng.random() < 0.5 else (rng.randint(-3, 3), 0)
        codes = [z2.encode_vector(v) for v in (a, b, c)]
        D = canonical_subset(set(codes))
        order = list(box(4, D))
        rng.shuffle(order)
        for g in (CEView(z2), _RowTable(CEView(z2), [*D, *order])):
            calls["wp"].append(partial(decide_mult_from_folner, g, box, *codes))
    free = make_group("free:2")
    graph = cayley_bipartite(free, ball(free, parse_elements(free, "a,b"), 1))
    for _ in range(16):
        enum = graph.left_enum if rng.random() < 0.5 else graph.right_enum
        v = enum(rng.randrange(8))
        calls["harem"].append(lambda b, v=v: harem_query(harem_new(graph, 1), v, b))
    held = {}
    for kind, kind_calls in calls.items():
        verdicts = [_on_its_budget_edge(call) for call in kind_calls]
        assert False not in verdicts, kind
        held[kind] = verdicts.count(True)
    assert min(held.values()) >= 10, held
