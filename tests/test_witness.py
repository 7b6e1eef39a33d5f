"""Witness deciders, subgroup membership, and the coset restriction."""

import itertools
import random

import pytest

from folnerlab import Budget, UNKNOWN, make_group
from folnerlab.folner import FolnerCertificate, is_n_folner
from folnerlab.groups import parse_element, parse_elements
from folnerlab.witness import (
    SubgroupRestrictionError,
    UnsupportedFamilyError,
    decide_witness_commutation,
    refute_witness_bounded,
    restrict_folner_to_subgroup,
    subgroup_membership,
)

F2 = make_group("free:2")
Z1 = make_group("zd:1")
Z2 = make_group("zd:2")


# ---------------------------------------------------------------------------
# commutation decider


def test_witness_free_generators():
    v = decide_witness_commutation(F2, parse_elements(F2, "a,b"))
    assert v.verdict == "WITNESS"
    x, y = v.evidence
    assert F2.mult(x, y) != F2.mult(y, x)


def test_not_witness_powers():
    K = parse_elements(F2, "a,a^2")
    assert decide_witness_commutation(F2, K).verdict == "NOT_WITNESS"
    assert decide_witness_commutation(F2, (0,)).verdict == "NOT_WITNESS"


def test_abelian_family_negative_branch():
    K = parse_elements(Z2, "(1,0),(0,1)")
    v = decide_witness_commutation(Z2, K)
    assert v.verdict == "NOT_WITNESS" and "abelian" in v.rationale


def test_amenable_family_short_circuit():
    lam = make_group("lamplighter")
    v = decide_witness_commutation(lam, (1, 2))
    assert v.verdict == "NOT_WITNESS" and v.rationale == "amenable family"
    cyc = make_group("cyclic:12")
    assert decide_witness_commutation(cyc, (1, 5)).rationale == "amenable family"


def test_commutation_agrees_with_brute_force():
    rng = random.Random(41)
    words = [c for c in range(150) if F2.word_length(c) <= 4]
    for _ in range(120):
        K = tuple(sorted(rng.sample(words, rng.randint(1, 4))))
        verdict = decide_witness_commutation(F2, K).verdict
        brute = any(
            F2.mult(x, y) != F2.mult(y, x) for x, y in itertools.combinations(K, 2)
        )
        assert (verdict == "WITNESS") == brute


def test_verdict_json_shape():
    v = decide_witness_commutation(F2, parse_elements(F2, "a,b"))
    d = v.to_json_dict()
    assert d["verdict"] == "WITNESS" and "pair" in d["evidence"]


# ---------------------------------------------------------------------------
# bounded refutation


def test_refute_zd_interval():
    K = (Z1.encode_vector((1,)),)
    cert = refute_witness_bounded(Z1, K, 5, 5, Budget(10**6), radius=3)
    assert isinstance(cert, FolnerCertificate)
    assert len(cert.F) == 5
    ok, _ = is_n_folner(Z1, cert.F, K, 5)
    assert ok


def test_refute_identity_key():
    cert = refute_witness_bounded(F2, (0,), 1, 1, Budget(1000))
    assert cert.F == (0,)


def test_refute_free_generators_none_found():
    K = parse_elements(F2, "a,a^-1,b,b^-1")
    out = refute_witness_bounded(F2, K, 4, 3, Budget(10**6))
    assert out is None  # the subsets ran out, not the budget


def test_refute_keeps_the_two_ends_apart():
    # UNKNOWN only when the meter runs out; None when the subsets do
    K = (Z1.encode_vector((1,)),)
    for steps in (1, 20, 88):
        assert refute_witness_bounded(Z1, K, 5, 5, Budget(steps)) is UNKNOWN
    assert len(refute_witness_bounded(Z1, K, 5, 5, Budget(89)).F) == 5
    meter = Budget(10**6).meter()
    assert refute_witness_bounded(Z1, K, 100, 10**6, meter) is None
    assert meter.remaining > 0


def test_refute_rejects_n_below_one_before_any_charge():
    meter = Budget(100).meter()
    with pytest.raises(ValueError, match="n must be >= 1"):
        refute_witness_bounded(F2, parse_elements(F2, "a,b"), 0, 2, meter)
    assert meter.consumed == 0


# ---------------------------------------------------------------------------
# subgroup membership


def test_stallings_single_generator():
    sub = subgroup_membership(F2, parse_elements(F2, "a"))
    assert sub.membership(parse_element(F2, "a^3"))
    assert sub.membership(parse_element(F2, "a^-2"))
    assert not sub.membership(parse_element(F2, "b"))
    assert sub.membership(0)


def test_stallings_conjugate_generators():
    K = parse_elements(F2, "ab,a^2")
    sub = subgroup_membership(F2, K)
    w1 = F2.mult(parse_element(F2, "ab"), parse_element(F2, "a^2"))
    assert sub.membership(w1)
    assert not sub.membership(parse_element(F2, "a"))
    assert not sub.membership(parse_element(F2, "b"))


def bounded_subgroup_search(gens, window, cap=25000):
    """Fixpoint of products of generator elements whose reduced length stays
    within the window; None when the closure overflows the cap."""
    gens = set(gens) | {F2.inv(k) for k in gens}
    closure = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for w in frontier:
            for a in gens:
                p = F2.mult(a, w)
                if p not in closure and F2.word_length(p) <= window:
                    nxt.add(p)
        closure |= nxt
        if len(closure) > cap:
            return None
        frontier = nxt
    return closure


def test_stallings_agrees_with_bounded_word_search():
    # two-sided agreement against a naive search: closure elements of length
    # <= 8 must be accepted, and accepted short words must appear in the
    # window-12 closure (the folded core for keys this small has diameter
    # well under the window slack)
    rng = random.Random(7)
    words = [c for c in range(161) if 1 <= F2.word_length(c) <= 3]
    done = 0
    while done < 100:
        K = tuple(sorted(rng.sample(words, rng.randint(1, 2))))
        closure = bounded_subgroup_search(K, 12)
        if closure is None:
            continue
        sub = subgroup_membership(F2, K)
        for c in closure:
            if F2.word_length(c) <= 8:
                assert sub.membership(c), (K, c)
        for probe in range(161):
            if F2.word_length(probe) <= 4 and sub.membership(probe):
                assert probe in closure, (K, probe)
        done += 1


def test_witness_refutation_never_coexists():
    # a commutation WITNESS and a bounded Folner refutation never co-occur
    rng = random.Random(71)
    words = [c for c in range(161) if F2.word_length(c) <= 4]
    for _ in range(200):
        K = tuple(sorted(rng.sample(words, rng.randint(1, 4))))
        verdict = decide_witness_commutation(F2, K)
        refutation = refute_witness_bounded(F2, K, 4, 3, Budget(10**6), radius=1)
        assert refutation is not UNKNOWN
        assert not (verdict.verdict == "WITNESS" and refutation is not None), K


def test_lattice_membership():
    K = parse_elements(Z2, "(2,0),(0,3)")
    sub = subgroup_membership(Z2, K)
    assert sub.membership(Z2.encode_vector((4, 3)))
    assert not sub.membership(Z2.encode_vector((1, 0)))
    assert sub.membership(0)


def test_lattice_membership_mixed_basis():
    K = parse_elements(Z2, "(2,1),(0,5)")
    sub = subgroup_membership(Z2, K)
    for a in range(-3, 4):
        for b in range(-3, 4):
            v = (2 * a, a + 5 * b)
            assert sub.membership(Z2.encode_vector(v))
    assert not sub.membership(Z2.encode_vector((1, 0)))
    assert not sub.membership(Z2.encode_vector((2, 2)))


def _echelon(vectors, dim):
    """Echelon basis of the lattice the vectors span, by Euclid's algorithm
    on each column: reduce every other row by the row of least nonzero
    entry there until one row is left with a nonzero entry."""
    rows, basis = [list(v) for v in vectors], []
    for col in range(dim):
        while len(live := [r for r in rows if r[col]]) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r[:] = [x - q * y for x, y in zip(r, p)]
        if live:
            basis.append(live[0])
            rows = [r for r in rows if r is not live[0]]
    return basis


def _in_lattice(basis, v):
    v = list(v)
    for row in basis:
        j = next(i for i, x in enumerate(row) if x)
        if v[j] % row[j]:
            return False
        q = v[j] // row[j]
        v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


@pytest.mark.parametrize("dim, key, side", [
    (2, [(4, 6), (6, 9)], 7),
    (2, [(4, 6), (6, 9), (10, 0)], 7),
    (3, [(2, 0, 0), (3, 0, 0), (0, 5, 1)], 5),
    (3, [(6, 4, 0), (9, 0, 2), (0, 3, 3)], 3),
])
def test_lattice_membership_shared_pivot(dim, key, side):
    # keys that share a pivot column, so the basis pivots by xgcd
    g = make_group("zd:%d" % dim)
    sub = subgroup_membership(g, [g.encode_vector(v) for v in key])
    basis = _echelon(key, dim)
    box = list(itertools.product(range(-side, side + 1), repeat=dim))
    combos = [tuple(sum(c * k[i] for c, k in zip(cs, key)) for i in range(dim))
              for cs in itertools.product(range(-2, 3), repeat=len(key))]
    seen = set()
    for v in box + combos:
        member = sub.membership(g.encode_vector(v))
        assert member == _in_lattice(basis, v), v
        seen.add(member)
    assert seen == {True, False}
    assert all(sub.membership(g.encode_vector(v)) for v in combos)


def test_lattice_membership_random_keys():
    rng = random.Random(7)
    for _ in range(60):
        dim = rng.choice((2, 3))
        g = make_group("zd:%d" % dim)
        key = sorted({tuple(rng.randint(-6, 6) for _ in range(dim))
                      for _ in range(rng.randint(1, 4))})
        sub = subgroup_membership(g, [g.encode_vector(v) for v in key])
        basis = _echelon(key, dim)
        for _ in range(40):
            v = tuple(rng.randint(-9, 9) for _ in range(dim))
            assert sub.membership(g.encode_vector(v)) == _in_lattice(basis, v), (key, v)


def test_membership_requires_supported_family():
    with pytest.raises(UnsupportedFamilyError):
        subgroup_membership(make_group("lamplighter"), (1,))


# ---------------------------------------------------------------------------
# coset restriction


def test_restrict_zd2_strip():
    K = parse_elements(Z2, "(1,0)")
    for n in range(1, 7):
        m = n * len(K)
        F_m = tuple(
            sorted(
                Z2.encode_vector((i, j)) for i in range(m) for j in (0, 1)
            )
        )
        ok, _ = is_n_folner(Z2, F_m, K, m)
        assert ok
        S = restrict_folner_to_subgroup(Z2, K, n, F_m)
        sub = subgroup_membership(Z2, K)
        assert all(sub.membership(c) for c in S)
        ok, _ = is_n_folner(Z2, S, K, n)
        assert ok


def test_restrict_single_coset_identity():
    K = parse_elements(Z2, "(1,0)")
    F = tuple(sorted(Z2.encode_vector((i, 0)) for i in range(6)))
    S = restrict_folner_to_subgroup(Z2, K, 6, F)
    assert S == F  # already inside <K>, slice through t0 = first element


def test_restrict_free_group_a_powers():
    K = parse_elements(F2, "a")
    m = 8
    F_m = tuple(sorted([parse_element(F2, "a^%d" % i) for i in range(m)]
                       + [parse_element(F2, "b")]))
    S = restrict_folner_to_subgroup(F2, K, m, F_m)
    powers = tuple(sorted(parse_element(F2, "a^%d" % i) for i in range(m)))
    assert S == powers


def test_restrict_raises_on_bad_input():
    K = parse_elements(F2, "a")
    bad = tuple(sorted(parse_elements(F2, "b,ab,ba")))
    with pytest.raises(SubgroupRestrictionError):
        restrict_folner_to_subgroup(F2, K, 3, bad)
