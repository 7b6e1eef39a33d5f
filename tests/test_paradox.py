"""Paradoxical decomposition pipeline and its prefix verifier."""

import random
import sys

import pytest

from folnerlab import Budget, UNKNOWN, make_group
from folnerlab.groups import ball, parse_elements
from folnerlab.harem import BipartiteGraphOracle
from folnerlab.paradox import (
    KeyNotInKError,
    build_decomposition,
    cayley_bipartite,
    check_decomposition_records,
    decomp_membership,
    expand_key,
    verify_decomposition_prefix,
)

F2 = make_group("free:2")
GENS = parse_elements(F2, "a,a^-1,b,b^-1")


# ---------------------------------------------------------------------------
# key expansion


def test_expand_key_exponents():
    assert expand_key(F2, GENS, 1).n1 == 2  # 2^1 < 3 <= 2^2
    assert expand_key(F2, GENS, 2).n1 == 3  # (3/2)^2 < 3 <= (3/2)^3


def test_expand_key_free_group_is_ball():
    key = expand_key(F2, GENS, 1)
    assert key.K == ball(F2, parse_elements(F2, "a,b"), 2)
    assert len(key.K) == 17


def test_expansion_bounds_sampled():
    rng = random.Random(31)
    key = expand_key(F2, GENS, 1)
    K1 = ball(F2, parse_elements(F2, "a,b"), 1)
    for _ in range(50):
        F = set(rng.sample(range(60), rng.randint(1, 8)))
        KF = {F2.mult(k, f) for k in key.K for f in F}
        K1F = {F2.mult(k, f) for k in K1 for f in F}
        assert len(KF) >= 3 * len(F)
        assert len(K1F) >= 2 * len(F)


# ---------------------------------------------------------------------------
# doubling graph


def test_cayley_bipartite_structure():
    K = expand_key(F2, GENS, 1).K
    gamma = cayley_bipartite(F2, K)
    assert len(gamma.neighbors(0)) == len(K)  # left code of identity
    # adjacency symmetry
    for v in gamma.neighbors(0):
        assert 0 in gamma.neighbors(v)
    solo = cayley_bipartite(F2, (0,))
    g_code = 7
    assert solo.neighbors(2 * g_code) == (2 * g_code + 1,)


class PathGraph(BipartiteGraphOracle):
    """The path 0 - 1 - 2 - ...: even codes on the left, odd on the right;
    ``neighbor_rows`` is the base class's."""

    def is_left(self, v):
        return v % 2 == 0

    def neighbors(self, v):
        return tuple(w for w in (v - 1, v + 1) if w >= 0)


@pytest.mark.parametrize("spec,k0,n,size", [
    ("free:2", "a,a^-1,b,b^-1", 1, 17),
    ("free:2", "a,b,b^-1", 2, 28),
    ("zd:2", "(1,0),(0,1)", 1, 6),
])
def test_neighbor_rows_equal_neighbors(spec, k0, n, size):
    g = make_group(spec)
    K = expand_key(g, parse_elements(g, k0), n).K
    assert len(K) == size
    K_inv = [g.inv(k) for k in K]

    def defined(v):  # left g ~ right kg, right h ~ left k^-1 h, by mult
        if v % 2 == 0:
            return tuple(sorted({2 * g.mult(k, v // 2) + 1 for k in K}))
        return tuple(sorted({2 * g.mult(k, v // 2) for k in K_inv}))

    graph, ref = cayley_bipartite(g, K), cayley_bipartite(g, K)
    rng = random.Random(size)
    # both sides in one call, repeats, and codes out of order
    vs = [rng.randrange(4000) for _ in range(300)] + [0, 1, 0, 1]
    want = list(map(defined, vs))
    assert graph.neighbor_rows(vs) == want  # cold
    assert graph.neighbor_rows(vs) == want  # from the cache
    assert graph.neighbor_rows([]) == []
    assert list(map(ref.neighbors, vs)) == want  # one vertex at a time
    assert graph._cache == ref._cache


def test_neighbor_rows_list_each_neighbour_once():
    # on cyclic:6 the codes 1 and 7 of the key are one element
    graph = cayley_bipartite(make_group("cyclic:6"), (1, 7))
    assert graph.neighbor_rows([0, 1, 4]) == [(3,), (10,), (7,)]


def test_neighbor_rows_default_maps_neighbors():
    graph = PathGraph()
    vs = [3, 0, 3, 8, 1]
    assert graph.neighbor_rows(vs) == list(map(graph.neighbors, vs))
    assert graph.neighbor_rows(vs) == [(2, 4), (1,), (2, 4), (7, 9), (0, 2)]
    assert graph.neighbor_rows(()) == []


def test_cehhc_identity_sample_slack():
    # |N({left identity})| - 2 = |K| - 2 = 15 >= 1: no violation at k=2, h=2n
    from folnerlab.harem import cehhc_spot_check, linear_witness

    key = expand_key(F2, GENS, 1)
    gamma = cayley_bipartite(F2, key.K)
    assert len(gamma.neighbors(0)) == 17
    assert cehhc_spot_check(gamma, linear_witness(2), 2, [(0,)]) == []


def test_cehhc_margins_on_doubling_graph():
    # left: |N(X)| - 2|X| >= |X|; right: |N(Y)| >= |Y|
    key = expand_key(F2, GENS, 1)
    gamma = cayley_bipartite(F2, key.K)
    rng = random.Random(13)
    for _ in range(40):
        X = {2 * c for c in rng.sample(range(40), rng.randint(1, 6))}
        NX = set()
        for v in X:
            NX.update(gamma.neighbors(v))
        assert len(NX) - 2 * len(X) >= len(X)
        Y = {2 * c + 1 for c in rng.sample(range(40), rng.randint(1, 6))}
        NY = set()
        for v in Y:
            NY.update(gamma.neighbors(v))
        assert len(NY) >= len(Y)


# ---------------------------------------------------------------------------
# the pipeline


@pytest.fixture(scope="module")
def decomp():
    return build_decomposition(F2, GENS, 1)


def test_pipeline_parameters(decomp):
    assert decomp.key.n1 == 2
    assert len(decomp.key.K) == 17


def test_theta_psi_basics(decomp):
    b = Budget(50)
    pair = decomp.psi_pair(0, b)
    assert pair is not UNKNOWN
    p1, p2 = pair
    assert p1 < p2
    t1, t2 = decomp.theta_pair(0, b)
    assert t1 in decomp.key.K and t2 in decomp.key.K
    assert decomp.phi(p1, b) == 0 and decomp.phi(p2, b) == 0


def test_membership_partition(decomp):
    b = Budget(50)
    t1, t2 = decomp.theta_pair(3, b)
    hits_a = [
        k for k in decomp.key.K if decomp_membership(decomp, k, 3, "A", b) == "IN"
    ]
    hits_b = [
        k for k in decomp.key.K if decomp_membership(decomp, k, 3, "B", b) == "IN"
    ]
    assert hits_a == [t1] and hits_b == [t2]
    with pytest.raises(KeyNotInKError):
        decomp_membership(decomp, 10**9, 3, "A", b)


def test_membership_unknown_on_tiny_budget():
    d = build_decomposition(F2, GENS, 1)
    far = 900
    assert decomp_membership(d, d.key.K[0], far, "A", Budget(1)) is UNKNOWN


def test_verify_prefix_small(decomp):
    report = verify_decomposition_prefix(decomp, 4, Budget(400))
    assert report["violations"] == []
    assert [r["m"] for r in report["resolved"]] == [0, 1, 2, 3]


def test_verifier_rejects_corruption(decomp):
    report = verify_decomposition_prefix(decomp, 4, Budget(400))
    records = [dict(r) for r in report["resolved"]]
    records[0]["psi1"], records[1]["psi1"] = records[1]["psi1"], records[0]["psi1"]
    violations = check_decomposition_records(F2, decomp.key.K, records)
    assert violations


def _record(m, theta1, theta2):
    """A record whose psi are its thetas times m."""
    return {"m": m, "theta1": theta1, "theta2": theta2,
            "psi1": F2.mult(theta1, m), "psi2": F2.mult(theta2, m)}


A, A3 = parse_elements(F2, "a")[0], parse_elements(F2, "a^3")[0]  # a^3 is not in K
# each corruption of the four resolved records, and the checks it must raise
RECORD_CORRUPTIONS = {
    "theta_outside_key": (
        lambda rs: [_record(rs[0]["m"], rs[0]["theta1"], A3)] + rs[1:],
        {"theta_in_key"}),
    "thetas_swapped": (
        lambda rs: rs[:1] + [{**rs[1], "theta1": rs[1]["theta2"],
                              "theta2": rs[1]["theta1"]}] + rs[2:],
        {"theta_times_m"}),
    "sides_swapped": (
        lambda rs: rs[:1] + [_record(rs[1]["m"], rs[1]["theta2"],
                                     rs[1]["theta1"])] + rs[2:],
        {"psi_order"}),
    "record_repeated": (
        lambda rs: rs + rs[:1],
        {"psi1_injective", "psi2_injective"}),
    # a record whose psi1 is record 2's psi2
    "psi2_taken_as_psi1": (
        lambda rs: rs + [_record(rs[2]["psi2"], F2.identity, A)],
        {"psi_images_disjoint"}),
}


@pytest.mark.parametrize("name", sorted(RECORD_CORRUPTIONS))
def test_verifier_names_each_corruption_of_the_records(decomp, name):
    records = verify_decomposition_prefix(decomp, 4, Budget(400))["resolved"]
    assert check_decomposition_records(F2, decomp.key.K, records) == []
    corrupt, checks = RECORD_CORRUPTIONS[name]
    violations = check_decomposition_records(F2, decomp.key.K, corrupt(records))
    assert {v["check"] for v in violations} == checks


# each corruption of the matching behind the 4-code prefix, as updates of
# left_pairs and right_pair, and the checks it must raise; ``far`` is the last
# left vertex matched, whose code is past the prefix, and ``free`` and ``new``
# are a left and a right vertex that the matching has not reached
STATE_CORRUPTIONS = {
    "left_with_three_rights": (
        lambda lp, far, free, new: ({far: lp[far] + (new,)}, {new: far}),
        {"left_multiplicity"}),
    "right_under_two_lefts": (
        lambda lp, far, free, new: ({free: (lp[far][0], new)}, {new: free}),
        {"right_multiplicity", "inverse_map"}),
    "right_points_at_another_left": (
        lambda lp, far, free, new: ({}, {lp[far][0]: free}),
        {"inverse_map"}),
    "right_matched_to_no_left": (
        lambda lp, far, free, new: ({}, {new: far}),
        {"right_bookkeeping"}),
    # phi reads right_pair, so psi1(0) now leads back to far
    "psi_moved_to_another_left": (
        lambda lp, far, free, new: ({}, {lp[0][0]: far}),
        {"phi_inverts_psi", "inverse_map"}),
}


@pytest.mark.parametrize("name", sorted(STATE_CORRUPTIONS))
def test_verifier_names_each_corruption_of_the_matching(decomp, monkeypatch, name):
    report = verify_decomposition_prefix(decomp, 4, Budget(400))
    assert report["violations"] == []
    st = decomp.state
    far, free, new = max(st.left_pairs), max(st.left_pairs) + 2, max(st.right_pair) + 2
    # far is past the prefix, and the verifier asks phi of none of its rights
    rights = {2 * r[psi] + 1 for r in report["resolved"] for psi in ("psi1", "psi2")}
    assert far // 2 >= 4 and rights.isdisjoint(st.left_pairs[far])
    corrupt, checks = STATE_CORRUPTIONS[name]
    left, right = corrupt(st.left_pairs, far, free, new)
    monkeypatch.setattr(st, "left_pairs", {**st.left_pairs, **left})
    monkeypatch.setattr(st, "right_pair", {**st.right_pair, **right})
    report = verify_decomposition_prefix(decomp, 4, Budget(1))
    assert {v["check"] for v in report["violations"]} == checks


@pytest.mark.parametrize("budget", [4, 14, 40])
def test_prefix_report_once_the_budget_is_spent(budget):
    # the psi pairs of the codes asked one by one under the same budget: the
    # verifier's theta and phi of a resolved code read the matching and take
    # no step, so the same codes resolve
    count = 60
    d = build_decomposition(F2, GENS, 1)
    meter = Budget(budget).meter()
    pairs = {m: d.psi_pair(m, meter) for m in range(count)}
    unresolved = [m for m, pair in pairs.items() if pair is UNKNOWN]
    report = verify_decomposition_prefix(
        build_decomposition(F2, GENS, 1), count, Budget(budget))
    assert {r["m"]: (r["psi1"], r["psi2"]) for r in report["resolved"]} == {
        m: pair for m, pair in pairs.items() if pair is not UNKNOWN}
    # codes matched past the first unresolved one are reported too
    assert unresolved[0] < report["resolved"][-1]["m"]
    want = {"check": "unresolved", "m": unresolved[0], "codes": len(unresolved)}
    assert report["violations"] == [want]


def test_prefix_report_grows_with_the_steps_not_the_count():
    d = build_decomposition(F2, GENS, 1)
    report = verify_decomposition_prefix(d, sys.maxsize, Budget(1))
    resolved = [r["m"] for r in report["resolved"]]
    assert resolved == sorted(resolved) and len(resolved) <= len(d.state.left_pairs)
    (unresolved,) = report["violations"]
    assert unresolved["check"] == "unresolved"
    assert unresolved["codes"] == sys.maxsize - len(resolved)


# ---------------------------------------------------------------------------
# classical first-letter decomposition as an independent verifier fixture


def first_letter_records(count):
    """The textbook doubling of the rank-2 free group, in code form.

    psi1 keeps words starting with 'a' together with all powers a^-n (the
    absorbed identity chain) and prepends a^-1 otherwise; psi2 keeps words
    starting with 'b' and prepends b^-1 otherwise.  Images are disjoint and
    cover the group, so the same record checks must pass."""
    g = F2
    a_inv = parse_elements(g, "a^-1")[0]
    b_inv = parse_elements(g, "b^-1")[0]

    def in_A1(code):
        word = g.decode_word(code)
        return (not word) or word[0] == 0 or all(l == 1 for l in word)

    def in_B1(code):
        word = g.decode_word(code)
        return bool(word) and word[0] == 2

    records = []
    for m in range(count):
        psi1 = m if in_A1(m) else g.mult(a_inv, m)
        psi2 = m if in_B1(m) else g.mult(b_inv, m)
        lo, hi = sorted((psi1, psi2))
        records.append(
            {
                "m": m,
                "theta1": g.mult(lo, g.inv(m)),
                "theta2": g.mult(hi, g.inv(m)),
                "psi1": lo,
                "psi2": hi,
            }
        )
    return records


def test_first_letter_fixture_passes_checks():
    K_fix = (0, parse_elements(F2, "a^-1")[0], parse_elements(F2, "b^-1")[0])
    records = first_letter_records(60)
    assert check_decomposition_records(F2, K_fix, records) == []


def test_first_letter_fixture_detects_swap():
    K_fix = (0, parse_elements(F2, "a^-1")[0], parse_elements(F2, "b^-1")[0])
    records = first_letter_records(20)
    records[3]["psi1"] = records[5]["psi1"]
    assert check_decomposition_records(F2, K_fix, records)
