"""The Folner searches: balls read off their newest layer, and one subset
scan with each product made once.

``_plain_search`` is the search written the plain way: balls from a
breadth-first search of their own, each tested with the map form of
``translate_defects`` and :func:`within`, and certified by
``certificate``.  ``_plain_function`` and ``_plain_refuter`` are the
subset scans of ``folner_function`` and ``refute_witness_bounded`` written
the same way, one subset at a time.  The library must agree with them on
every outcome and every meter charge, must never make a product that the
meter has not been charged for, and must not make a product twice.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from folnerlab import Budget, UNKNOWN, folner, make_group
from folnerlab.budget import Meter
from folnerlab.folner import (
    certificate,
    folner_function,
    folner_sequence,
    search_folner,
    translate_defects,
    within,
)
from folnerlab.groups import (
    ball_layers,
    canonical_subset,
    parse_elements,
    subset_decode,
)
from folnerlab.witness import refute_witness_bounded


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
        if _passes(g, F, D, n):
            return certificate(g, F, D, n)
    return UNKNOWN


def _passes(g, F, D, n):
    return all(within(d, n) for d in translate_defects(g, F, D).values())


def _plain_function(g, D, n, meter):
    """``folner_function`` testing one subset at a time with the map form."""
    D = canonical_subset(D)
    D_eff = tuple(x for x in D if g.canon(x) != g.identity)
    if not D_eff:
        return 1
    for U in itertools.islice(ball_layers(g, D_eff, meter), 1, n + 1):
        if U is None:
            return UNKNOWN
        for F in itertools.combinations(U, n):
            if not meter.charge(n * len(D)):
                return UNKNOWN
            if _passes(g, F, D, n):
                return n
    return len(U) if len(U) < n else UNKNOWN


def _plain_refuter(g, K, n, size_bound, meter, radius=2):
    """``refute_witness_bounded`` testing one subset at a time with the map
    form, and certifying the winner with ``certificate``."""
    K = canonical_subset(K)
    *_, universe = itertools.islice(ball_layers(g, K, meter), radius + 1)
    if universe is None:
        return UNKNOWN
    for size in range(1, size_bound + 1):
        for F in itertools.combinations(universe, size):
            if not meter.charge(size * max(1, len(K))):
                return UNKNOWN
            if _passes(g, F, K, n):
                return certificate(g, F, K, n)
    return None


def _count_paid_mult(g, meter):
    """Wrap ``g.mult``, ``g.mult_row`` and ``g.mult_rows``; the returned
    dict holds the products made ("calls"), a row counting len(codes) when
    it is called and ``mult_rows`` one row per step, those made by ``mult``
    calls outside rows ("mult"), the largest excess of products over the
    steps charged at any call ("unpaid"), and the products made again by
    the same route ("remade"): a pair (x, f) that a ``mult`` call made
    before, or a pair (a, c) that a row made before.  (A ball's rows and a
    subset scan's ``mult`` calls are two routes; a pair can be made once by
    each.)  A product counts once, by the outermost call: rows made by
    ``mult_row`` or ``mult`` calls count with the outer rows, and a
    ``mult`` made as a one-element row (as zd's and the lamplighter's are)
    counts as a ``mult``."""
    real_mult, real_row, real_rows = g.mult, g.mult_row, g.mult_rows
    seen = {"calls": 0, "mult": 0, "unpaid": 0, "remade": 0}
    routes = {"mult": set(), "row": set()}
    open_calls = []

    def made(route, steps, codes):
        pairs = routes[route]
        for a in steps:
            for c in codes:
                seen["remade"] += (a, c) in pairs
                pairs.add((a, c))
            seen["calls"] += len(codes)
            seen["mult"] += len(codes) if route == "mult" else 0
        seen["unpaid"] = max(seen["unpaid"], seen["calls"] - meter.consumed)

    def counted(route, steps, codes, real, *args):
        if not open_calls:
            made(route, steps, codes)
        open_calls.append(steps)
        try:
            return real(*args)
        finally:
            open_calls.pop()

    def mult(x, y):
        return counted("mult", (x,), (y,), real_mult, x, y)

    def mult_row(a, codes):
        codes = list(codes)
        return counted("row", (a,), codes, real_row, a, codes)

    def mult_rows(steps, codes):
        steps, codes = list(steps), list(codes)
        return counted("row", steps, codes, real_rows, steps, codes)

    g.mult, g.mult_row, g.mult_rows = mult, mult_row, mult_rows
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
        assert got[2]["unpaid"] == 0 and got[2]["remade"] == 0, (name, steps)


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
    assert seen == {"calls": calls, "mult": 0, "unpaid": 0, "remade": 0}
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
        assert got[:2] == expected[:2], steps
        assert got[2]["unpaid"] == 0 and got[2]["remade"] == 0, steps
    assert got[0] is UNKNOWN


# ---------------------------------------------------------------------------
# the subset scans of folner_function and refute_witness_bounded


def _refuter(impl, size_bound):
    return lambda g, K, n, meter: impl(g, K, n, size_bound, meter)


# name -> (library scan, plain scan, group, D as codes or words, n)
SCANS = {
    "function_z1_n5": (folner_function, _plain_function, "zd:1", "+1", 5),
    "function_z1_pm_n4": (folner_function, _plain_function, "zd:1", "+1,-1", 4),
    "function_c12_n5": (folner_function, _plain_function, "cyclic:12", (1,), 5),
    # <s> has order 2: no 3-subset, and the balls stop growing at {e, s}
    "function_lamp_s_n3": (folner_function, _plain_function, "lamplighter", "s", 3),
    # no 3-subset of the radius-3 ball is 3-Folner: UNKNOWN after 15,641 steps
    "function_z2_n3": (folner_function, _plain_function, "zd:2", "(1,0),(0,1)", 3),
    "refute_z2_n2": (_refuter(refute_witness_bounded, 4), _refuter(_plain_refuter, 4),
                     "zd:2", "(1,0),(1,1)", 2),
    # an empty key: the ball is {e}, whose one candidate costs one step
    "refute_empty_key": (_refuter(refute_witness_bounded, 2), _refuter(_plain_refuter, 2),
                         "zd:2", (), 3),
    # the free group has no 2-Folner set: the scan runs out after 603 steps
    "refute_free2_n2": (_refuter(refute_witness_bounded, 2), _refuter(_plain_refuter, 2),
                        "free:2", "a,b", 2),
}

# Past this edge a plain run costs up to 70 ms, so only the budgets on
# either side of 32 charge boundaries, spread evenly, and of the edge are
# run.  Equal charge logs already fix every other budget: a run whose
# budget falls inside a charge returns UNKNOWN there, having consumed it.
EVERY_BUDGET_UP_TO = 700


def _charge_log(scan, spec, D, n):
    g = make_group(spec)
    D = parse_elements(g, D) if isinstance(D, str) else D
    meter = _ChargeLog(10**6)
    return scan(g, D, n, meter), meter.charges


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_equals_plain_scan_at_every_budget(name):
    scan, plain, spec, D, n = SCANS[name]
    expected, plain_charges = _charge_log(plain, spec, D, n)
    got, charges = _charge_log(scan, spec, D, n)
    assert got == expected and charges == plain_charges
    edge = sum(charges)
    if edge <= EVERY_BUDGET_UP_TO:
        budgets = range(1, edge + 2)
    else:
        ends = list(itertools.accumulate(charges))
        stride = max(1, len(ends) // 32)
        budgets = sorted(({b for end in ends[::stride] for b in (end - 1, end)}
                          | {1, edge - 1, edge, edge + 1}) - {0})
    for steps in budgets:
        want = _run(plain, spec, D, n, steps)
        have = _run(scan, spec, D, n, steps)
        assert have[:2] == want[:2], (name, steps)
        assert have[2]["unpaid"] == 0 and have[2]["remade"] == 0, (name, steps)
    assert have[:2] == (expected, edge)  # the last budget, edge + 1


@pytest.mark.parametrize(
    "name, mult_calls", [("function_z2_n3", 48), ("refute_z2_n2", 26)])
def test_scan_makes_each_product_once(name, mult_calls):
    # the plain scans make 15,576 and 2,246 mult calls for these pairs
    scan, _, spec, D, n = SCANS[name]
    *_, seen = _run(scan, spec, D, n, 10**6)
    assert seen["mult"] == mult_calls
    assert seen["remade"] == 0 and seen["unpaid"] == 0
