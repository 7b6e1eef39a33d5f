"""Folner verification/search, Reiter machinery, CE invariance, word problem."""

import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest

from folnerlab import Budget, UNKNOWN, CEView, make_group
from folnerlab.folner import (
    EmptySetError,
    FolnerCertificate,
    ReiterFunction,
    UnionFind,
    _block_masses,
    _first_folner,
    _goedel_subsets,
    _merge_masses,
    box_folner,
    decide_mult_from_folner,
    extract_folner_from_reiter,
    folner_function,
    folner_oracle,
    folner_sequence,
    is_n_folner,
    is_n_folner_complement,
    partition_defect,
    pushforward,
    reiter_defect,
    search_folner,
    translate_defects,
    verify_invariance_ce,
    within,
)
from folnerlab.groups import (
    CE,
    GroupOracle,
    PreconditionError,
    ZdOracle,
    ball_layers,
    RedundantZOracle,
    canonical_subset,
    cantor_pair,
    parse_element,
    parse_elements,
)

Z1 = make_group("zd:1")
Z2 = make_group("zd:2")
F2 = make_group("free:2")
C12 = make_group("cyclic:12")


def zcodes(*ints):
    return tuple(sorted(Z1.encode_vector((z,)) for z in ints))


def interval(a, b):
    return zcodes(*range(a, b))


# ---------------------------------------------------------------------------
# is_n_folner


def test_interval_defects_exact():
    F = interval(0, 5)
    D = zcodes(1, -1)
    ok, defects = is_n_folner(Z1, F, D, 5)
    assert ok
    assert set(defects.values()) == {Fraction(1, 5)}
    ok6, _ = is_n_folner(Z1, F, D, 6)
    assert not ok6


def test_identity_D_always_folner():
    for g, F in [(Z1, interval(0, 3)), (F2, (0, 1, 2)), (C12, (0, 5))]:
        ok, defects = is_n_folner(g, F, (0,), 10**6)
        assert ok and defects[0] == 0


def test_empty_set_rejected():
    with pytest.raises(EmptySetError):
        is_n_folner(Z1, (), zcodes(1), 1)


def test_complement_form_examples():
    assert is_n_folner_complement(Z1, interval(0, 5), zcodes(1, -1), 4)
    assert is_n_folner_complement(Z1, interval(0, 5), (0,), 1)
    a = parse_element(F2, "a")
    assert not is_n_folner_complement(F2, (0,), (a,), 2)


def test_complement_agrees_off_boundary():
    rng = random.Random(7)
    for _ in range(60):
        F = tuple(sorted(rng.sample(range(30), rng.randint(1, 8))))
        D = tuple(sorted(rng.sample(range(1, 10), rng.randint(1, 3))))
        n = rng.randint(1, 6)
        ok, defects = is_n_folner(Z1, F, D, n)
        if all(d != Fraction(1, n) for d in defects.values()):
            assert ok == is_n_folner_complement(Z1, F, D, n)


def test_translate_defects_early_exit_agrees_with_map():
    # the subset scan's early-exit integer test passes a candidate exactly
    # when every defect of the map form is within 1/n, and certifies it
    # with those defects
    rng = random.Random(29)
    for _ in range(80):
        F = tuple(sorted(rng.sample(range(30), rng.randint(1, 8))))
        D = tuple(sorted(rng.sample(range(1, 10), rng.randint(1, 3))))
        n = rng.randint(1, 6)
        defects = translate_defects(Z1, F, D)
        assert defects == is_n_folner(Z1, F, D, n)[1]
        ok = all(d <= Fraction(1, n) for d in defects.values())
        meter = Budget(len(F) * len(D)).meter()
        found = _first_folner(Z1, [F], D, n, meter)
        assert meter.remaining == 0
        if ok:
            assert found == FolnerCertificate(Z1.spec, D, n, F, defects)
        else:
            assert found is None


def test_right_translation_preserves_defects():
    # Lemma-style invariance: defects of F and Fg agree exactly
    rng = random.Random(11)
    for _ in range(30):
        F = tuple(sorted(rng.sample(range(25), rng.randint(1, 6))))
        D = tuple(sorted(rng.sample(range(1, 8), 2)))
        _, d0 = is_n_folner(Z1, F, D, 3)
        for _ in range(5):
            t = rng.randrange(40)
            Ft = tuple(sorted(Z1.mult(f, t) for f in F))
            _, d1 = is_n_folner(Z1, Ft, D, 3)
            assert d0 == d1


# ---------------------------------------------------------------------------
# search and the Folner function


def test_search_folner_interval():
    cert = search_folner(Z1, zcodes(1, -1), 3, Budget(10**5))
    assert isinstance(cert, FolnerCertificate)
    assert len(cert.F) == 3
    ok, _ = is_n_folner(Z1, cert.F, cert.D, cert.n)
    assert ok


def test_search_folner_whole_finite_group():
    cert = search_folner(C12, (1,), 100, Budget(10**5))
    assert cert.F == tuple(range(12))
    assert cert.max_defect() == 0


def test_search_folner_free_group_unknown():
    D = parse_elements(F2, "a,a^-1,b,b^-1")
    assert search_folner(F2, D, 4, Budget(3000)) is UNKNOWN


def test_search_folner_rejects_n_below_one_before_any_charge():
    meter = Budget(100).meter()
    with pytest.raises(ValueError, match="n must be >= 1"):
        search_folner(F2, (1, 3), 0, meter)
    assert meter.consumed == 0


def test_subset_candidates_end_on_a_finite_group():
    # the balls of <1> in Z/5, then the 31 non-empty subsets in mask order
    C5 = make_group("cyclic:5")
    stream = [*ball_layers(C5, (1,), Budget(10**6).meter()), *_goedel_subsets(C5)]
    masks = [tuple(i for i in range(5) if mask >> i & 1) for mask in range(1, 32)]
    assert stream == [(0,), (0, 1, 4), (0, 1, 2, 3, 4), *masks]


def test_folner_function_z():
    for n in range(1, 7):
        assert folner_function(Z1, zcodes(1), n, Budget(10**6)) == n


def test_folner_function_cyclic():
    assert folner_function(C12, (1,), 100, Budget(10**6)) == 12
    assert folner_function(C12, (1,), 5, Budget(10**6)) == 5


def test_folner_function_identity_D():
    assert folner_function(F2, (0,), 9, Budget(100)) == 1


def test_folner_function_budget_counts_mult_calls():
    # ball layers of <+1> cost 3 and 6 mult calls, the one 5-set 5 more
    assert folner_function(Z1, zcodes(1), 5, Budget(14)) == 5
    assert folner_function(Z1, zcodes(1), 5, Budget(13)) is UNKNOWN
    # all seven layers of Z/12 cost 3 x 12, the last one finding nothing new
    assert folner_function(C12, (1,), 100, Budget(36)) == 12
    assert folner_function(C12, (1,), 100, Budget(35)) is UNKNOWN


def test_folner_function_stops_after_level_n():
    # no 3-subset of the radius-3 ball of Z^2 is 3-Folner; n is the only
    # size that can be certified, so the scan ends there with budget left
    D = parse_elements(Z2, "(1,0),(0,1)")
    meter = Budget(10**6).meter()
    assert folner_function(Z2, D, 3, meter) is UNKNOWN
    assert meter.consumed == 15_641


def test_folner_function_lamplighter_torsion():
    g = make_group("lamplighter")
    s = g.generator_names["s"]
    # <s> has order 2, so {e, s} is exactly invariant: minimum is 2 for n > 2
    assert folner_function(g, (s,), 5, Budget(10**5)) == 2


def test_folner_sequence():
    cert = folner_sequence(Z1, 3, Budget(10**5))
    ok, _ = is_n_folner(Z1, cert.F, cert.D, 3)
    assert ok and cert.D == (0, 1, 2)
    cert1 = folner_sequence(Z1, 1, Budget(100))
    assert cert1.F == (0,)
    lam = make_group("lamplighter")
    cert2 = folner_sequence(lam, 2, Budget(10**5))
    ok, _ = is_n_folner(lam, cert2.F, cert2.D, 2)
    assert ok


# ---------------------------------------------------------------------------
# Reiter machinery


def test_reiter_defect_characteristic_interval():
    f = ReiterFunction.characteristic(interval(0, 5))
    d = reiter_defect(Z1, f, zcodes(1))
    assert d[zcodes(1)[0]] == Fraction(2, 5)


def test_reiter_defect_identity():
    f = ReiterFunction.characteristic(interval(0, 4))
    assert reiter_defect(Z1, f, (0,))[0] == 0


def test_reiter_defect_tent():
    # values (1,2,1) on {-1,0,1}: exact l1 shift computation
    c = {Z1.encode_vector((z,)): Fraction(v) for z, v in [(-1, 1), (0, 2), (1, 1)]}
    f = ReiterFunction(tuple(sorted(c)), c)
    x = Z1.encode_vector((1,))
    # |1-0| + |2-1| + |1-2| + |0-1| = 4 over total 4
    assert reiter_defect(Z1, f, (x,))[x] == Fraction(1)


def test_reiter_vs_folner_factor_two():
    # defect of the characteristic function is exactly twice the set defect
    rng = random.Random(3)
    for _ in range(40):
        F = tuple(sorted(rng.sample(range(40), rng.randint(1, 9))))
        D = tuple(sorted(rng.sample(range(1, 12), rng.randint(1, 3))))
        _, setdef = is_n_folner(Z1, F, D, 2)
        rdef = reiter_defect(Z1, ReiterFunction.characteristic(F), D)
        for x in D:
            assert rdef[x] == 2 * setdef[x]


def finest(codes):
    return {c: c for c in codes}


def test_partition_defect_identity_zero():
    f = ReiterFunction.characteristic((0, 1, 3))
    rz = make_group("redundant-z")
    assert partition_defect(f, finest((0, 1, 3)), rz.identity, rz.mult) == 0


def test_partition_defect_monotone_under_coarsening():
    rz = make_group("redundant-z")
    rng = random.Random(5)
    for _ in range(100):
        supp = tuple(sorted(rng.sample(range(60), rng.randint(2, 6))))
        f = ReiterFunction(supp, {v: Fraction(rng.randint(1, 5)) for v in supp})
        x = rng.randrange(20)
        w = set(supp) | {rz.mult(x, v) for v in supp}
        coarse = {c: rng.randrange(3) for c in sorted(w)}
        assert partition_defect(f, coarse, x, rz.mult) <= partition_defect(
            f, finest(w), x, rz.mult
        )


def test_partition_defect_merge_halves_on_equal_spellings():
    # support {x, yx}; shifting by x sends x to xx and yx to xyx; merging the
    # fiber {yx, xx} cancels one unit of mass and halves the blockwise defect
    rz = make_group("redundant-z")
    x = parse_element(rz, "x")
    yx = parse_element(rz, "yx")
    xx = rz.mult(x, x)
    xyx = rz.mult(x, yx)
    f = ReiterFunction.characteristic((x, yx))
    merged = UnionFind()
    merged.union(yx, xx)
    m_fine = partition_defect(f, finest((x, yx, xx, xyx)), x, rz.mult)
    m_merged = partition_defect(f, merged, x, rz.mult)
    assert m_fine == 2 * m_merged == Fraction(2)


def test_pushforward_collapses_fibers():
    rz = make_group("redundant-z")
    x, y = 1, 3
    f = ReiterFunction((x, y), {x: Fraction(1), y: Fraction(2)})
    p = pushforward(rz, f)
    assert p == {rz.canon(x): Fraction(3)}


# ---------------------------------------------------------------------------
# CE invariance verification


@pytest.fixture(scope="module")
def rz():
    return make_group("redundant-z")


def rz_truth(g, f, D, n):
    """Ground truth via canonical forms: is the pushforward n-invariant
    in the (non-strict) blockwise sense used by the verifier?"""
    h = {}
    for v, q in f.values.items():
        c = g.canon(v)
        h[c] = h.get(c, Fraction(0)) + q
    total = sum(h.values(), Fraction(0))
    for x in D:
        shifted = {g.canon(g.mult(x, v)): q for v, q in h.items()}
        num = sum(
            (abs(h.get(v, Fraction(0)) - shifted.get(v, Fraction(0)))
             for v in set(h) | set(shifted)),
            Fraction(0),
        )
        if num > Fraction(total, n):
            return False
    return True


def test_invariance_verifier_mixed_spellings(rz):
    # characteristic function of ten codes spelling x^0..x^9; the small
    # exponents use mixed x/y spellings whose fibers the verifier must merge
    words = ["", "y", "yx", "yxx", "x^4", "x^5", "x^6", "x^7", "x^8", "x^9"]
    codes = tuple(sorted(parse_element(rz, w) for w in words))
    assert sorted(rz.value(c) for c in codes) == list(range(10))
    f = ReiterFunction.characteristic(codes)
    x = parse_element(rz, "x")
    # true shift defect of the pushforward is 2/10
    assert verify_invariance_ce(rz, 4, (x,), f, Budget(10**5)) == "INVARIANT"
    assert verify_invariance_ce(rz, 10, (x,), f, Budget(10**5)) == "NOT_INVARIANT"
    assert verify_invariance_ce(rz, 10, (x,), f, Budget(3)) is UNKNOWN


def test_invariance_verifier_agrees_with_truth(rz):
    rng = random.Random(17)
    agree = 0
    for _ in range(50):
        supp = tuple(sorted(rng.sample(range(40), rng.randint(1, 5))))
        f = ReiterFunction(supp, {v: Fraction(rng.randint(1, 4)) for v in supp})
        D = tuple(sorted(rng.sample(range(12), rng.randint(1, 2))))
        n = rng.randint(1, 6)
        verdict = verify_invariance_ce(rz, n, D, f, Budget(10**6))
        truth = rz_truth(rz, f, D, n)
        assert verdict is not UNKNOWN
        assert (verdict == "INVARIANT") == truth
        agree += 1
    assert agree == 50


def _verify_invariance_reference(g, n, D, f, b):
    """``verify_invariance_ce`` reading ``eq_enum`` one entry at a time,
    with one meter charge per entry."""
    meter = b.meter()
    D = canonical_subset(D)
    codes = set(f.support)
    for x in D:
        codes.update(g.mult(x, v) for v in f.support)
    part = UnionFind()
    blocks = len(codes)
    fibers = len({g.canon(c) for c in codes})

    def passes():
        return all(within(partition_defect(f, part, x, g.mult), n) for x in D)

    if passes():
        return "INVARIANT"
    if blocks == fibers:
        return "NOT_INVARIANT"
    for m in itertools.count():
        if not meter.charge():
            return UNKNOWN
        n1, n2 = g.eq_enum(m)
        if n1 in codes and n2 in codes and part.union(n1, n2):
            blocks -= 1
            if passes():
                return "INVARIANT"
            if blocks == fibers:
                return "NOT_INVARIANT"


class _DiagonalRZ(RedundantZOracle):
    """redundant-z whose equal-codes enumeration is only the diagonal, read
    through the default ``eq_entries_within``: its fibers never merge."""

    def eq_enum(self, m):
        return m, m

    eq_entries_within = GroupOracle.eq_entries_within


def _verify_both(g, n, D, f, steps):
    """(outcome, steps consumed) of the verifier and of the reference; both
    read the one stream of g."""
    out = []
    for verify in (verify_invariance_ce, _verify_invariance_reference):
        meter = Budget(steps).meter()
        out.append((verify(g, n, D, f, meter), meter.consumed))
    return out


# the ten spellings of x^0..x^9 of the mixed-spellings test, with value 1 each
TEN_SPELLINGS = [
    ("", 1), ("y", 1), ("yx", 1), ("yxx", 1), ("x^4", 1), ("x^5", 1),
    ("x^6", 1), ("x^7", 1), ("x^8", 1), ("x^9", 1),
]
# (oracle, support words and values, shifts, n, outcome at 10**5 steps)
KAPPA_INPUTS = [
    (RedundantZOracle, [("", 1), ("y", 1), ("yx", 1), ("x^3", 1)], "x", 2, "INVARIANT"),
    (RedundantZOracle, TEN_SPELLINGS, "x", 4, "INVARIANT"),
    (RedundantZOracle, TEN_SPELLINGS, "x", 10, "NOT_INVARIANT"),
    (RedundantZOracle, [("y", 2), ("x^-1y", 3), ("yy", 1)], "x,y^-1", 3, "NOT_INVARIANT"),
    (RedundantZOracle, [("x", 1), ("y", 1)], "x", 1, "NOT_INVARIANT"),
    (_DiagonalRZ, [("x", 1), ("y", 1), ("xy", 1)], "x", 2, UNKNOWN),
]
# shaped as the benchmark's kappa queries: supports within the first 85
# codes, one-letter shifts, n from 1 to 8; (values by code, shifts, n,
# outcome), with the steps the outcome takes
KAPPA_CORPUS = [
    ({7: 3, 14: 4, 22: 5}, "y", 1, "INVARIANT"),  # 764
    ({0: 5, 16: 4, 20: 5, 36: 5, 77: 4}, "x^-1", 1, "INVARIANT"),  # 256
    ({22: 4, 74: 5, 77: 1}, "y", 1, "NOT_INVARIANT"),  # 1279
    ({2: 3, 6: 3}, "x,y", 2, "NOT_INVARIANT"),  # 48
    ({28: 5, 30: 4, 54: 2, 76: 4}, "x^-1,x", 2, "NOT_INVARIANT"),  # 3146
    ({0: 3, 7: 2, 37: 5, 53: 4, 54: 5}, "y", 3, "NOT_INVARIANT"),  # 585
    ({38: 4, 80: 4}, "y,x", 4, "NOT_INVARIANT"),  # 1432
    ({11: 5, 71: 3}, "y,x", 4, "NOT_INVARIANT"),  # 2913
    ({61: 4, 63: 2, 83: 3}, "y^-1", 5, "NOT_INVARIANT"),  # 809
    ({5: 5, 24: 3}, "x^-1,x", 6, "NOT_INVARIANT"),  # 1608
    ({16: 4, 27: 1, 39: 1, 44: 3, 70: 2}, "y", 7, "NOT_INVARIANT"),  # 303
    ({18: 5, 84: 2}, "x,y^-1", 8, "NOT_INVARIANT"),  # 3544
]
KAPPA_INPUTS += [
    (RedundantZOracle, list(values.items()), shifts, n, outcome)
    for values, shifts, n, outcome in KAPPA_CORPUS
]


def _kappa_input(case):
    """(oracle, f, D, n, outcome) of a case; a support is given by words or
    by codes."""
    oracle, support, shifts, n, outcome = KAPPA_INPUTS[case]
    rz = RedundantZOracle()
    codes = [w if isinstance(w, int) else parse_element(rz, w) for w, _ in support]
    f = ReiterFunction(
        tuple(codes), {c: Fraction(q) for c, (_, q) in zip(codes, support)})
    D = [parse_element(rz, w) for w in shifts.split(",")]
    return oracle(), f, D, n, outcome


@pytest.mark.parametrize("case", range(len(KAPPA_INPUTS)))
def test_invariance_scan_charges_as_one_charge_per_entry(case):
    g, f, D, n, outcome = _kappa_input(case)
    got, ref = _verify_both(g, n, D, f, 10**5)
    assert got == ref and got[0] == outcome
    edge = got[1] if outcome is not UNKNOWN else 300
    # every budget up to the edge; past 1000 steps, every 37th, and those
    # whose last entry is an entry between the codes or one of the next two
    budgets = set(range(1, edge + 2) if edge < 1000 else range(1, edge, 37))
    budgets |= {edge - 1, edge, edge + 1}
    codes = set(f.support) | {g.mult(x, v) for x in D for v in f.support}
    for m, _, _ in GroupOracle.eq_entries_within(type(g)(), codes, edge):
        budgets |= {m + 1, m + 2, m + 3}
    for steps in sorted(budgets):
        got, ref = _verify_both(g, n, D, f, steps)
        assert got == ref, steps
        assert (got[0] is UNKNOWN) == (steps < edge or outcome is UNKNOWN)


def _mixed_reiter(rng, codes):
    """A Reiter function on a few of ``codes`` with mixed denominators."""
    supp = tuple(sorted(rng.sample(codes, rng.randint(1, 6))))
    return ReiterFunction(supp, {
        v: Fraction(rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6, 7, 10)))
        for v in supp})


def test_integer_block_masses_equal_partition_defect():
    # the verifier's bookkeeping under any merge order, not only enumerated
    # pairs: integer masses of f scaled by the lcm of its denominators, kept
    # by _merge_masses, against partition_defect regrouping from scratch
    rz = RedundantZOracle()
    rng = random.Random(29)
    for _ in range(80):
        f = _mixed_reiter(rng, range(60))
        D = sorted(rng.sample(range(12), rng.randint(1, 3)))
        shift = {(x, v): rz.mult(x, v) for x in D for v in f.support}
        star = lambda x, v: shift[x, v]
        codes = sorted({*f.support, *shift.values()})
        scale = math.lcm(*(q.denominator for q in f.values.values()))
        ints = {v: int(q * scale) for v, q in f.values.items()}
        part = UnionFind()
        mass = {x: _block_masses(ints, part, x, star) for x in D}
        spread = {x: sum(map(abs, block.values())) for x, block in mass.items()}
        for step in range(2 * len(codes)):
            for x in D:
                want = partition_defect(f, part, x, star)
                assert Fraction(spread[x], sum(ints.values())) == want
                # a block no code of mass[x] reaches may hold a kept 0
                fresh = _block_masses(f.values, part, x, star)
                assert {k: m for k, m in mass[x].items() if m} == {
                    k: m * scale for k, m in fresh.items() if m}
            merged = part.union(*rng.sample(codes, 2)) if len(codes) > 1 else None
            if merged:
                keep, gone = merged
                assert keep < gone and part.find(gone) == keep
                _merge_masses(mass, spread, keep, gone)


def test_invariance_verifier_with_mixed_denominators_equals_the_reference():
    rng = random.Random(31)
    for _ in range(40):
        g = RedundantZOracle()
        f = _mixed_reiter(rng, range(40))
        D = sorted(rng.sample(range(12), rng.randint(1, 2)))
        n = rng.randint(1, 8)
        got, ref = _verify_both(g, n, D, f, 10**5)
        assert got == ref and got[0] is not UNKNOWN
        assert (got[0] == "INVARIANT") == rz_truth(g, f, D, n)
        # a verdict before any entry is read needs no step of the budget
        edge = max(1, got[1])
        for steps in sorted({1, edge // 2, edge - 1, edge} - {0}):
            want = (got[0], got[1]) if steps == edge else (UNKNOWN, steps)
            assert _verify_both(g, n, D, f, steps) == [want] * 2


def test_invariance_scan_builds_no_stream():
    # the scan runs walks of its own; the equal-codes stream stays empty,
    # and the walk that would grow it never starts
    for case, (oracle, *_) in enumerate(KAPPA_INPUTS):
        if oracle is RedundantZOracle:
            g, f, D, n, outcome = _kappa_input(case)
            assert verify_invariance_ce(g, n, D, f, Budget(10**5)) == outcome
            assert g._eq_stream == []
            assert inspect.getgeneratorstate(g._eq_walk) == inspect.GEN_CREATED


# ---------------------------------------------------------------------------
# level-set extraction


def test_extract_returns_folner_set_itself():
    F = interval(0, 12)
    f = ReiterFunction.characteristic(F)
    out = extract_folner_from_reiter(Z1, f, zcodes(1), 5)
    assert out == F


def test_extract_tent():
    m = 8
    supp = interval(-m, m + 1)
    vals = {c: Fraction(m + 1 - abs(Z1.decode_vector(c)[0])) for c in supp}
    f = ReiterFunction(supp, vals)
    D = zcodes(1)
    defects = reiter_defect(Z1, f, D)
    n = 4
    assert all(d < Fraction(1, n) for d in defects.values())
    out = extract_folner_from_reiter(Z1, f, D, n)
    ints = sorted(Z1.decode_vector(c)[0] for c in out)
    assert ints == list(range(ints[0], ints[0] + len(ints)))  # an interval
    _, ds = is_n_folner(Z1, out, D, 1)
    assert all(d < Fraction(len(D), 2 * n) for d in ds.values())


def test_extract_constant_function_returns_support():
    F = interval(0, 10)
    vals = {c: Fraction(3, 7) for c in F}
    out = extract_folner_from_reiter(Z1, ReiterFunction(F, vals), zcodes(1), 4)
    assert out == F


# ---------------------------------------------------------------------------
# word problem from a Folner oracle


def test_box_folner_strict():
    D = parse_elements(Z2, "(1,0),(0,1),(1,1)")
    F = box_folner(Z2, D, 4)
    ok, defects = is_n_folner(Z2, F, D, 4)
    assert ok and all(d < Fraction(1, 4) for d in defects.values())


def test_decide_mult_examples():
    g = CEView(Z2)
    b = Budget(10**6)
    oracle = folner_oracle(g, b)
    c = lambda t: parse_element(Z2, t)
    assert decide_mult_from_folner(g, oracle, c("(1,0)"), c("(0,1)"), c("(1,1)"), b)
    assert not decide_mult_from_folner(g, oracle, c("(1,0)"), c("(0,1)"), c("(2,2)"), b)
    assert decide_mult_from_folner(g, oracle, 0, 0, 0, b)


def test_decide_mult_random_triples():
    g = CEView(Z2)
    budget = Budget(10**6)
    oracle = folner_oracle(g, budget)
    rng = random.Random(23)
    for trial in range(12):
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        if trial % 2 == 0:
            c = (a[0] + b[0], a[1] + b[1])
        else:
            c = (rng.randint(-3, 3), rng.randint(-3, 3))
        truth = c == (a[0] + b[0], a[1] + b[1])
        codes = [Z2.encode_vector(v) for v in (a, b, c)]
        assert decide_mult_from_folner(g, oracle, *codes, budget) == truth


def test_decide_mult_argument_order_non_abelian():
    lam = make_group("lamplighter")
    s, t = lam.generator_names["s"], lam.generator_names["t"]
    st, ts = lam.mult(s, t), lam.mult(t, s)
    assert st != ts
    # inverses of {(L, c) : L within {0..5}, c in {0..5}}: 384 codes, largest
    # 946010, every left defect against {s, t, st, ts} at most 1/6
    box = [
        lam.encode_element(frozenset(L), c)
        for k in range(7)
        for L in itertools.combinations(range(6), k)
        for c in range(6)
    ]
    F = tuple(sorted(lam.inv(x) for x in box))
    assert len(F) == 384 and F[-1] == 946010
    for d in (s, t, st, ts):
        assert 6 * sum(lam.mult(d, f) not in F for f in F) <= len(F)
    g, b = CEView(lam), Budget(10**6)
    assert decide_mult_from_folner(g, lambda n, D: F, s, t, st, b) is True
    assert decide_mult_from_folner(g, lambda n, D: F, s, t, ts, b) is False


def test_decide_mult_rejects_oracle_set_that_is_not_folner():
    with pytest.raises(PreconditionError):
        decide_mult_from_folner(CEView(Z2), lambda n, D: (0,), 1, 2, 3, Budget(10**6))


class _ReadCountingRZ(RedundantZOracle):
    """redundant-z that fails any scan reading past 10**4 table entries."""

    reads = 0

    def multt_enum(self, m):
        self.reads += 1
        assert self.reads <= 10**4, "the scan read past its budget"
        return super().multt_enum(m)


def test_decide_mult_scan_of_a_ce_oracle_stops_at_its_budget():
    # a one-element set is never 4-Folner, so the injections never fill up;
    # the scan of a non-CEView enumeration ends only when the budget does
    g = _ReadCountingRZ()
    verdict = decide_mult_from_folner(g, lambda n, D: (0,), 1, 3, 5, Budget(10**4))
    assert verdict is UNKNOWN
    assert g.reads == 10**4


def _decide_mult_reference(g, folner, n1, n2, n3, b):
    """``decide_mult_from_folner`` testing every injection for density
    before each entry it reads."""
    meter = b.meter()
    D = canonical_subset({n1, n2, n3})
    F = canonical_subset(folner(4, D))
    pos = {f: i for i, f in enumerate(F)}
    graphs = {d: {} for d in D}

    def done():
        return all(4 * len(graphs[d]) >= 3 * len(F) for d in D)

    if isinstance(g, CEView):
        entries = sorted(cantor_pair(d, f) for d in D for f in F)
    else:
        entries = itertools.count()
    for m in entries:
        if done():
            break
        if not meter.charge():
            return UNKNOWN
        i, j, prod = g.multt_enum(m)
        if i in graphs and j in pos and prod in pos:
            graphs[i][pos[j]] = pos[prod]
    if not done():
        raise PreconditionError("not 4-Folner")
    s1, s2, s3 = graphs[n1], graphs[n2], graphs[n3]
    return any(s1.get(j) is not None and s3.get(i) == s1[j] for i, j in s2.items())


def _decide_both(make_oracle, folner, triple, steps):
    """(outcome, steps consumed) of the library and of the reference, each
    on a fresh oracle; the outcome of a PreconditionError is its type."""
    out = []
    for decide in (decide_mult_from_folner, _decide_mult_reference):
        meter = Budget(steps).meter()
        try:
            verdict = decide(make_oracle(), folner, *triple, meter)
        except PreconditionError:
            verdict = PreconditionError
        out.append((verdict, meter.consumed))
    return out


class _TableCE(GroupOracle):
    """A CE oracle whose table enumeration is a fixed list of entries; past
    its end it repeats (0, 0, 0), which no injection uses."""

    mode = CE
    spec = "table"

    def __init__(self, entries):
        self.entries = entries

    def multt_enum(self, m):
        return self.entries[m] if m < len(self.entries) else (0, 0, 0)


# n1 = 1, n2 = 2, n3 = 3 on F = 10..13: (3, 10) is listed twice, and its
# second product overwrites the first without making the 3-graph denser
REPEATED_PAIR = [
    (2, 10, 11), (2, 11, 12), (2, 12, 13),
    (1, 11, 12), (1, 12, 13), (1, 13, 10),
    (3, 10, 12), (3, 10, 13), (3, 11, 10), (3, 12, 11),
]


def test_decide_mult_counts_a_repeated_pair_once():
    F = lambda n, D: (10, 11, 12, 13)
    # the first product of (3, 10) chains 10 -> 11 -> 12, the second does not
    got, ref = _decide_both(lambda: _TableCE(REPEATED_PAIR), F, (1, 2, 3), 100)
    assert got == ref == (False, 10)
    first_only = [e for e in REPEATED_PAIR if e != (3, 10, 13)]
    got, ref = _decide_both(lambda: _TableCE(first_only), F, (1, 2, 3), 100)
    assert got == ref == (True, 9)
    for steps in range(1, 12):
        got, ref = _decide_both(lambda: _TableCE(REPEATED_PAIR), F, (1, 2, 3), steps)
        assert got == ref


def test_decide_mult_density_count_equals_the_reference():
    rng = random.Random(16)
    F = tuple(range(10, 18))
    for _ in range(300):
        entries = [
            (rng.choice((1, 2, 3, 4)), rng.choice(F + (9,)), rng.choice(F + (19,)))
            for _ in range(rng.randrange(20, 160))
        ]
        steps = rng.randrange(1, 170)
        table = lambda: _TableCE(entries)
        got, ref = _decide_both(table, lambda n, D: F, (1, 2, 3), steps)
        assert got == ref, (entries, steps)


@pytest.mark.parametrize("triple", [(1, 3, 5), (1, 3, 6), (2, 4, 0), (3, 2, 0)])
def test_decide_mult_density_count_on_redundant_z(triple):
    # F is every word of length at most 1 and the first length-2 words; the
    # scan reads the enumeration from index 0 and stops at dense injections
    # or at the budget, never past 10**4 entries
    for F in ((0,), tuple(range(12))):
        got, ref = _decide_both(_ReadCountingRZ, lambda n, D: F, triple, 10**4)
        assert got == ref


def test_decide_mult_rejection_equals_the_reference():
    for F in ((0,), (0, 1), tuple(range(9))):
        got, ref = _decide_both(lambda: CEView(Z2), lambda n, D: F, (1, 2, 3), 10**6)
        assert got == ref and got[0] is PreconditionError
        # the rejection reads all 3 |F| entries; a budget short of them is UNKNOWN
        for steps in range(1, 3 * len(F) + 2):
            got, ref = _decide_both(lambda: CEView(Z2), lambda n, D: F, (1, 2, 3), steps)
            assert got == ref, (F, steps)


class _RowCountingZd(ZdOracle):
    """zd:2 that counts the products its rows make."""

    def __init__(self):
        super().__init__(2)
        self.products = 0

    def mult_row(self, a, codes):
        codes = list(codes)
        self.products += len(codes)
        return super().mult_row(a, codes)


# zd:2 triples as vectors, true and false, with one repeated element
VIEW_TRIPLES = [
    ((1, 0), (0, 1), (1, 1)), ((1, 0), (0, 1), (2, 2)), ((0, 0), (0, 0), (0, 0)),
    ((2, -1), (-1, 1), (1, 0)), ((2, -1), (-1, 1), (0, 1)), ((1, 1), (1, 1), (2, 2)),
]


@pytest.mark.parametrize("triple", VIEW_TRIPLES)
def test_decide_mult_rows_on_a_view_equal_the_reference(triple):
    codes = [Z2.encode_vector(v) for v in triple]
    box = lambda n, D: box_folner(Z2, D, n)
    seen = []

    def view():
        seen.append(_RowCountingZd())
        return CEView(seen[-1])

    (verdict, edge), ref = _decide_both(view, box, codes, 10**6)
    assert (verdict, edge) == ref
    assert verdict == (Z2.mult(codes[0], codes[1]) == codes[2])
    # every budget below a small edge, every 17th below a larger one, and
    # one step short of every entry of the rows
    size = len(set(codes)) * len(box(4, canonical_subset(set(codes))))
    budgets = {*range(1, edge + 1, 1 if edge < 300 else 17), edge - 1, edge,
               size - 1, 10**6}
    for steps in sorted(b for b in budgets if b >= 1):
        got, ref = _decide_both(view, box, codes, steps)
        assert got == ref, steps
        assert (got[0] is UNKNOWN) == (steps < edge)
        # the scan made no product beyond what its budget could pay for
        assert seen[-2].products <= steps


def test_decide_mult_rows_make_no_product_past_the_budget():
    codes = [Z2.encode_vector(v) for v in ((2, -1), (-1, 1), (1, 0))]
    F = box_folner(Z2, codes, 4)
    for steps in (1, 2, 5, 100, len(F), 2 * len(F) + 1):
        g = _RowCountingZd()
        meter = Budget(steps).meter()
        assert decide_mult_from_folner(CEView(g), lambda n, D: F, *codes, meter) is UNKNOWN
        assert meter.consumed == steps and g.products <= steps
