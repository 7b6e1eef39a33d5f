"""The Folner search reads each ball's defects off its newest layer.

``_plain_search`` is the search written the plain way: balls from a
breadth-first search of their own, each tested with ``translate_defects``
and certified by ``certificate``.  The outer-layer search must agree with
it on every outcome and every meter charge, and must never make a ``mult``
call that the meter has not been charged for.
"""

import itertools
from fractions import Fraction

import pytest

from folnerlab import Budget, UNKNOWN, folner, make_group
from folnerlab.budget import Meter
from folnerlab.folner import (
    certificate,
    folner_sequence,
    search_folner,
    translate_defects,
)
from folnerlab.groups import canonical_subset, parse_elements, subset_decode


def _plain_balls(g, gens, meter):
    step = {g.identity, *gens, *(g.inv(x) for x in gens)}
    seen = {g.identity}
    frontier = {g.identity} if gens else set()
    yield (g.identity,)
    while frontier:
        if not meter.charge(len(step) * len(frontier)):
            yield None
            return
        frontier = {g.mult(a, s) for a in step for s in frontier} - seen
        if frontier:
            seen |= frontier
            yield tuple(sorted(seen))


def _plain_search(g, D, n, meter):
    D = canonical_subset(D)
    limit = g.element_count
    masks = itertools.count(1) if limit is None else range(1, 1 << limit)
    balls = itertools.islice(_plain_balls(g, D, meter), n + len(D) + folner.BALL_SLACK)
    for F in itertools.chain(balls, map(subset_decode, masks)):
        if F is None or not meter.charge(len(F) * max(1, len(D))):
            return UNKNOWN
        if translate_defects(g, F, D, n):
            return certificate(g, F, D, n)
    return UNKNOWN


def _count_paid_mult(g, meter):
    """Wrap ``g.mult`` and ``g.mult_row``; the returned dict holds the
    products made, a row counting len(codes) when it is called, and the
    largest excess of products over the steps charged at any call.  A row
    made by ``mult`` calls counts them once, with the row."""
    real_mult, real_row, seen = g.mult, g.mult_row, {"calls": 0, "unpaid": 0}
    open_rows = []

    def made(count):
        seen["calls"] += count
        seen["unpaid"] = max(seen["unpaid"], seen["calls"] - meter.consumed)

    def mult(x, y):
        if not open_rows:
            made(1)
        return real_mult(x, y)

    def mult_row(a, codes):
        codes = list(codes)
        made(len(codes))
        open_rows.append(a)
        try:
            return real_row(a, codes)
        finally:
            open_rows.pop()

    g.mult, g.mult_row = mult, mult_row
    return seen


# name -> (group, D as codes or as element words, n)
GRID = {
    # D is the first n codes, as in folner-seq
    **{"lamp_n%d" % n: ("lamplighter", tuple(range(n)), n) for n in (1, 2, 3)},
    **{"z1_n%d" % n: ("zd:1", "+1,-1", n) for n in (1, 2, 3, 5)},
    **{"z2_n%d" % n: ("zd:2", "(1,0),(0,1)", n) for n in (1, 2, 3)},
    "z3_n2": ("zd:3", "(1,0,0),(0,0,1)", 2),
    "z3_n3": ("zd:3", "(1,0,0),(0,1,0),(0,0,1)", 3),
    # the balls stop growing at the whole subgroup; 7, 9 and 6 are not
    # canonical codes of cyclic:6 (7 = 1, 9 = 3, 6 = 0)
    **{"c6_%s_n%d" % ("_".join(map(str, D)), n): ("cyclic:6", D, n)
       for D in ((1, 7), (2, 9), (6,)) for n in (1, 2, 5, 50)},
    "empty_D": ("zd:2", (), 3),
    "identity_D": ("free:2", "e", 7),
    "identity_and_x": ("zd:1", "0,+1", 3),
    "free2_unknown": ("free:2", "a,a^-1,b,b^-1", 4),
}


def _run(search, spec, D, n, steps):
    g = make_group(spec)
    D = parse_elements(g, D) if isinstance(D, str) else D
    meter = Budget(steps).meter()
    seen = _count_paid_mult(g, meter)
    return search(g, D, n, meter), meter.consumed, seen


@pytest.mark.parametrize("name", sorted(GRID))
def test_search_equals_plain_search_at_every_edge(name):
    spec, D, n = GRID[name]
    plain, edge, _ = _run(_plain_search, spec, D, n, 3000)
    # an answer first comes at the budget it consumed, UNKNOWN one step
    # below; free:2 ends UNKNOWN inside the ball phase at every budget here
    budgets = {edge, edge - 1, 10**6} if plain is not UNKNOWN else {1, 1000, 3000}
    for steps in sorted(b for b in budgets if b >= 1):
        expected = _run(_plain_search, spec, D, n, steps)
        got = _run(search_folner, spec, D, n, steps)
        assert got[:2] == expected[:2], (name, steps)
        assert got[2]["unpaid"] == 0, (name, steps)


# the plain search makes 426 and 258,461 calls, 95 and 20,240 of them unpaid
@pytest.mark.parametrize(
    "n, charged, calls, size, defect",
    [(3, 331, 110, 44, Fraction(7, 22)),
     (4, 238_221, 66_890, 18_583, Fraction(4635, 18583))],
)
def test_lamplighter_sequence_pays_before_it_multiplies(n, charged, calls, size, defect):
    g = make_group("lamplighter")
    meter = Budget(10**6).meter()
    seen = _count_paid_mult(g, meter)
    cert = folner_sequence(g, n, meter)
    assert meter.consumed == charged
    assert seen == {"calls": calls, "unpaid": 0}
    assert len(cert.F) == size and cert.max_defect() == defect
    g = make_group("lamplighter")
    assert cert.defects == translate_defects(g, cert.F, cert.D)
    assert folner_sequence(g, n, Budget(charged - 1)) is UNKNOWN


class _ChargeLog(Meter):
    """A meter that keeps the amount of every charge asked of it."""

    __slots__ = ("charges",)

    def __init__(self, steps):
        super().__init__(steps)
        self.charges = []

    def charge(self, amount=1):
        self.charges.append(amount)
        return super().charge(amount)


@pytest.mark.parametrize("D", ["+1", "+1,-1"])
def test_goedel_tail_through_the_search(monkeypatch, D):
    # with one ball, B_0 = {0} fails on zd:1 at n = 3; the tail then tries the
    # masks 1..7, of which only the last, codes {0, 1, 2} = {0, 1, -1}, passes
    n = 3
    g = make_group("zd:1")
    D = parse_elements(g, D)
    monkeypatch.setattr(folner, "BALL_SLACK", 1 - n - len(D))
    cost = max(1, len(D))
    meter = _ChargeLog(10**6)
    cert = search_folner(g, D, n, meter)
    tail = [len(subset_decode(mask)) * cost for mask in range(1, 8)]
    assert meter.charges == [cost] + tail
    assert cert == certificate(make_group("zd:1"), (0, 1, 2), D, n)
    edge = meter.consumed
    for steps in (edge, edge - 1, cost + tail[0]):
        expected = _run(_plain_search, "zd:1", D, n, steps)
        got = _run(search_folner, "zd:1", D, n, steps)
        assert got[:2] == expected[:2] and got[2]["unpaid"] == 0, steps
    assert got[0] is UNKNOWN
