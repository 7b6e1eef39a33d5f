"""Acceptance suite: one test per criterion, exact tolerances, independent
oracles computed in-test (plain integer arithmetic, bitmask DP, brute-force
scans).  Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion."""

import itertools
import json
import random
import time
from fractions import Fraction

from folnerlab import Budget, UNKNOWN, CEView, make_group
from folnerlab.cli import main as cli_main
from folnerlab.folner import (
    ReiterFunction,
    decide_mult_from_folner,
    extract_folner_from_reiter,
    folner_oracle,
    is_n_folner,
    is_n_folner_complement,
    reiter_defect,
    verify_invariance_ce,
)
from folnerlab.groups import ball, parse_element, parse_elements
from folnerlab.harem import (
    FiniteBipartite,
    finite_harem_match,
    harem_new,
    harem_step,
    matching_dump,
)
from folnerlab.paradox import (
    build_decomposition,
    cayley_bipartite,
    check_decomposition_records,
    expand_key,
    verify_decomposition_prefix,
)
from folnerlab.witness import (
    decide_witness_commutation,
    refute_witness_bounded,
    restrict_folner_to_subgroup,
    subgroup_membership,
)

F2 = make_group("free:2")
Z1 = make_group("zd:1")
Z2 = make_group("zd:2")
C12 = make_group("cyclic:12")
LAMP = make_group("lamplighter")


def _passed(name):
    print("PASS %s" % name)


# ---------------------------------------------------------------------------
# criterion 1: Folner function of Z, CLI vs exhaustive subset-scan oracle


def brute_min_folner_size_z(n):
    """Independent oracle in plain integer arithmetic.

    Sets are normalised to contain 0 (translation leaves defects unchanged)
    and scanned inside the window [0, 2n+2): for D = {+1} the defect of a
    size-s set is (#blocks of consecutive runs)/s, so any candidate of size
    s <= n+1 with defect <= 1/n is a single run, which fits the window."""
    window = list(range(2 * n + 2))
    for size in range(1, n + 2):
        for rest in itertools.combinations(window[1:], size - 1):
            F = {0, *rest}
            shifted = {z + 1 for z in F}
            if n * len(F - shifted) <= size:
                return size
    raise AssertionError("oracle failed to find any candidate")


def test_criterion_01_folner_function_of_z(capsys):
    start = time.monotonic()
    for n in range(1, 9):
        code = cli_main(
            ["folner-function", "--group", "zd:1", "--d", "+1", "--n", str(n),
             "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["min_size"] == n == brute_min_folner_size_z(n)
    assert time.monotonic() - start < 60
    _passed("criterion 1: Folner function of Z equals n for n in 1..8")


# ---------------------------------------------------------------------------
# criterion 2: translation/complement/Reiter/extraction properties


FAMILY_POOLS = {}


def _family_instances(g, rng, count):
    """Random (F, D, n) triples with codes canonical for the family."""
    key = g.spec
    if key not in FAMILY_POOLS:
        if g.spec == "zd:1":
            pool = [g.encode_vector((z,)) for z in range(-15, 16)]
        elif g.spec == "zd:2":
            pool = [g.encode_vector((a, b)) for a in range(-4, 5) for b in range(-4, 5)]
        elif g.spec == "cyclic:12":
            pool = list(range(12))
        else:  # lamplighter
            pool = list(ball(g, (g.generator_names["s"], g.generator_names["t"]), 3))
        FAMILY_POOLS[key] = pool
    pool = FAMILY_POOLS[key]
    non_id = [c for c in pool if c != g.identity]
    out = []
    for _ in range(count):
        F = tuple(sorted(rng.sample(pool, rng.randint(1, min(8, len(pool))))))
        D = tuple(sorted(rng.sample(non_id, rng.randint(1, 3))))
        out.append((F, D, rng.randint(1, 6)))
    return out


ALL_FAMILIES = [Z1, Z2, C12, LAMP]


def test_criterion_02_translation_invariance():
    rng = random.Random(202)
    for g in ALL_FAMILIES:
        for F, D, n in _family_instances(g, rng, 30):
            _, defects = is_n_folner(g, F, D, n)
            pool = FAMILY_POOLS[g.spec]
            for t in rng.sample(pool, min(20, len(pool))):
                Ft = sorted(g.mult(f, t) for f in F)
                assert len(set(Ft)) == len(F)
                _, d2 = is_n_folner(g, tuple(Ft), D, n)
                assert d2 == defects
    _passed("criterion 2(i): right translation preserves defects exactly")


def test_criterion_02_complement_form():
    rng = random.Random(203)
    boundary_seen = 0
    for g in ALL_FAMILIES:
        for F, D, n in _family_instances(g, rng, 30):
            ok, defects = is_n_folner(g, F, D, n)
            # the strict printed form n |F & xF| > (n - 1) |F|, counted directly
            strict = all(
                n * len(set(F) & {g.mult(x, f) for f in F}) > (n - 1) * len(F)
                for x in D
            )
            assert ok == all(d <= Fraction(1, n) for d in defects.values())
            assert strict == all(d < Fraction(1, n) for d in defects.values())
            assert is_n_folner_complement(g, F, D, n) == ok
            if all(d != Fraction(1, n) for d in defects.values()):
                assert ok == strict
            else:
                boundary_seen += 1
                assert not strict  # the strict printed form fails on the boundary
    assert boundary_seen > 0
    _passed("criterion 2(ii): complement form is the same check; "
            "the strict printed form differs only on the 1/n boundary")


def test_criterion_02_characteristic_reiter_defect():
    rng = random.Random(204)
    for g in ALL_FAMILIES:
        for F, D, n in _family_instances(g, rng, 30):
            _, defects = is_n_folner(g, F, D, n)
            rd = reiter_defect(g, ReiterFunction.characteristic(F), D)
            for x in D:
                assert rd[x] == 2 * defects[x]
            # hence: F is 2n-Folner iff the characteristic defect is <= 1/n,
            # with the strict form holding exactly off the boundary
            ok2n, d2n = is_n_folner(g, F, D, 2 * n)
            assert ok2n == all(rd[x] <= Fraction(1, n) for x in D)
    _passed("criterion 2(iii): characteristic defect is exactly twice the set defect")


def _smooth_instance(g, rng):
    """Hat-shaped finitely supported functions whose shift defects are small
    enough that a valid invariance level n >= 1 exists."""
    if g.spec == "zd:1":
        L = rng.randint(4, 10)
        supp = [g.encode_vector((z,)) for z in range(-L, L + 1)]
        vals = {
            c: Fraction(L + 1 - abs(g.decode_vector(c)[0]), rng.randint(1, 2))
            for c in supp
        }
        D = [g.encode_vector((z,)) for z in rng.sample([-2, -1, 1, 2], rng.randint(1, 2))]
    elif g.spec == "zd:2":
        L = rng.randint(2, 4)
        supp = [
            g.encode_vector((a, b))
            for a in range(-L, L + 1)
            for b in range(-L, L + 1)
        ]
        vals = {}
        for c in supp:
            a, b = g.decode_vector(c)
            vals[c] = Fraction((L + 1 - abs(a)) * (L + 1 - abs(b)))
        D = [
            g.encode_vector(v)
            for v in rng.sample([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)], 2)
        ]
    elif g.spec == "cyclic:12":
        length = rng.randint(8, 12)
        start = rng.randrange(12)
        supp = sorted({(start + i) % 12 for i in range(length)})
        vals = {c: Fraction(rng.randint(1, 3)) for c in supp}
        D = rng.sample(range(1, 3), 1)
    else:  # lamplighter
        s, t = g.generator_names["s"], g.generator_names["t"]
        supp = list(ball(g, (s, t), 3))
        vals = {c: Fraction(1) for c in supp}
        D = rng.sample([s, t], rng.randint(1, 2))
    return ReiterFunction(tuple(sorted(supp)), vals), tuple(sorted(set(D)))


def test_criterion_02_level_set_extraction():
    rng = random.Random(205)
    for g in ALL_FAMILIES:
        done = 0
        attempts = 0
        while done < 30 and attempts < 500:
            attempts += 1
            f, D = _smooth_instance(g, rng)
            defects = reiter_defect(g, f, D)
            maxd = max(defects.values())
            if maxd == 0:
                n = 5
            else:
                inv = 1 / maxd
                n = int(inv) if inv != int(inv) else int(inv) - 1
            if n < 1:
                continue
            out = extract_folner_from_reiter(g, f, D, n)
            assert set(out) <= {g.canon(c) for c in f.support}
            _, ds = is_n_folner(g, out, D, 1)
            bound = Fraction(len(D), 2 * n)
            assert all(d < bound for d in ds.values())
            done += 1
        assert done >= 30, g.spec
    _passed("criterion 2(iv): level-set extraction meets the |D|/(2n) bound")


# ---------------------------------------------------------------------------
# criterion 3: CE invariance verifier vs canonical-form computation


def test_criterion_03_ce_invariance_agrees():
    rz = make_group("redundant-z")
    rng = random.Random(303)

    def truth(f, D, n):
        # canonical-form pushforward defect, non-strict <= 1/n as the
        # merge procedure tests it
        h = {}
        for v, q in f.values.items():
            c = rz.canon(v)
            h[c] = h.get(c, Fraction(0)) + q
        total = sum(h.values(), Fraction(0))
        for x in D:
            shifted = {rz.canon(rz.mult(x, v)): q for v, q in h.items()}
            num = sum(
                (abs(h.get(v, Fraction(0)) - shifted.get(v, Fraction(0)))
                 for v in set(h) | set(shifted)),
                Fraction(0),
            )
            if num > Fraction(total, n):
                return False
        return True

    for trial in range(50):
        supp = tuple(sorted(rng.sample(range(85), rng.randint(1, 6))))
        f = ReiterFunction(
            supp, {v: Fraction(rng.randint(1, 5)) for v in supp}
        )
        D = tuple(sorted(rng.sample(range(1, 21), rng.randint(1, 2))))
        n = rng.randint(1, 8)
        verdict = verify_invariance_ce(rz, n, D, f, Budget(10**6))
        assert verdict is not UNKNOWN, (supp, D, n)
        assert (verdict == "INVARIANT") == truth(f, D, n), (supp, D, n)
    # deliberately small budgets may return UNKNOWN but never a wrong answer
    supp = (1, 13, 53)
    f = ReiterFunction.characteristic(supp)
    assert verify_invariance_ce(rz, 3, (1,), f, Budget(2)) in (
        UNKNOWN, "INVARIANT", "NOT_INVARIANT",
    )
    _passed("criterion 3: CE verifier agrees with canonical-form Reiter values")


# ---------------------------------------------------------------------------
# criterion 4: word problem from a Folner oracle on zd:2


def test_criterion_04_word_problem_from_folner():
    start = time.monotonic()
    g = CEView(Z2)
    budget = Budget(10**6)
    oracle = folner_oracle(g, budget)
    rng = random.Random(404)
    checked = 0
    for trial in range(100):
        a = (rng.randint(-2, 2), rng.randint(-2, 2))
        b = (rng.randint(-2, 2), rng.randint(-2, 2))
        if trial % 2 == 0:
            c = (a[0] + b[0], a[1] + b[1])
        else:
            c = (rng.randint(-4, 4), rng.randint(-4, 4))
        truth = c == (a[0] + b[0], a[1] + b[1])
        codes = [Z2.encode_vector(v) for v in (a, b, c)]
        # the 4-Folner oracle must hand back a genuinely 4-Folner set
        F = oracle(4, tuple(sorted(set(codes))))
        ok, _ = is_n_folner(Z2, F, tuple(sorted(set(codes))), 4)
        assert ok
        assert decide_mult_from_folner(g, oracle, *codes, budget) == truth
        checked += 1
    assert checked == 100
    assert time.monotonic() - start < 60
    _passed("criterion 4: 100 triples decided correctly from the Folner oracle")


# ---------------------------------------------------------------------------
# criterion 5: finite harem solver vs brute-force existence


def _dp_feasible(nb_masks, interior_mask, k, combos_cache):
    frontier = {0}
    for mask in nb_masks:
        options = combos_cache.get((mask, k))
        if options is None:
            bits = [1 << i for i in range(6) if mask >> i & 1]
            options = [
                sum(c) for c in itertools.combinations(bits, k)
            ]
            combos_cache[(mask, k)] = options
        nxt = set()
        for used in frontier:
            for opt in options:
                if not used & opt:
                    nxt.add(used | opt)
        if not nxt:
            return False
        frontier = nxt
    return any(used & interior_mask == interior_mask for used in frontier)


def _run_solver(nb_masks, boundary_mask, k):
    A = tuple(2 * i for i in range(len(nb_masks)))
    B = tuple(2 * j + 1 for j in range(6))
    adj = {
        2 * i: tuple(2 * j + 1 for j in range(6) if m >> j & 1)
        for i, m in enumerate(nb_masks)
    }
    boundary = frozenset(2 * j + 1 for j in range(6) if boundary_mask >> j & 1)
    fg = FiniteBipartite(A, B, adj, boundary)
    return finite_harem_match(fg, k)


def test_criterion_05_finite_solver_exhaustive():
    combos_cache = {}
    mismatches = 0
    checked = 0
    # all bipartite graphs with |A| = 3, |B| = 6 and at most 10 edges
    positions = list(range(18))
    for edge_count in range(0, 11):
        for chosen in itertools.combinations(positions, edge_count):
            masks = [0, 0, 0]
            for p in chosen:
                masks[p // 6] |= 1 << (p % 6)
            for k in (1, 2):
                want = _dp_feasible(masks, 0b111111, k, combos_cache)
                got = _run_solver(masks, 0, k)
                checked += 1
                if (got is not None) != want:
                    mismatches += 1
    # plus 1000 random denser graphs with random boundaries
    rng = random.Random(505)
    for _ in range(1000):
        masks = [rng.randrange(64) for _ in range(3)]
        boundary = rng.randrange(64)
        k = rng.randint(1, 2)
        interior = 0b111111 & ~boundary
        want = _dp_feasible(masks, interior, k, combos_cache)
        got = _run_solver(masks, boundary, k)
        checked += 1
        if (got is not None) != want:
            mismatches += 1
        if got is not None:
            used = [b for bs in got.values() for b in bs]
            assert len(used) == len(set(used))
            assert all(len(bs) == k for bs in got.values())
    assert mismatches == 0
    assert checked > 300000
    _passed("criterion 5: solver feasibility equals brute force on %d graphs"
            % checked)


# ---------------------------------------------------------------------------
# criterion 6: infinite matching determinism and soundness


def test_criterion_06_matching_determinism():
    K = ball(F2, parse_elements(F2, "a,b"), 1)
    dumps = []
    states = []
    for _ in range(2):
        gamma = cayley_bipartite(F2, K)  # fresh oracle: truly independent runs
        st = harem_new(gamma, 1)
        for _ in range(10):
            harem_step(st)
        dumps.append(matching_dump(st))
        states.append(st)
    assert dumps[0] == dumps[1]
    st = states[0]
    K_set = set(K)
    assert len(st.left_pairs) == 10 and len(st.right_pair) == 10
    for a, bs in st.left_pairs.items():
        assert len(bs) == 1  # k = 1 exactly
        for b in bs:
            assert F2.mult(b // 2, F2.inv(a // 2)) in K_set  # committed pair is an edge
            assert st.right_pair[b] == a
    _passed("criterion 6: two 10-step runs identical; pairs are edges; "
            "multiplicities exact")


# ---------------------------------------------------------------------------
# criterion 7: the paradox pipeline end to end


def test_criterion_07_paradox_pipeline(capsys):
    start = time.monotonic()
    K0 = parse_elements(F2, "a,a^-1,b,b^-1")
    d = build_decomposition(F2, K0, 1)
    assert d.key.n1 == 2
    assert len(d.key.K) == 17
    report = verify_decomposition_prefix(d, 12, Budget(10**6))
    assert report["violations"] == []
    assert [r["m"] for r in report["resolved"]] == list(range(12))
    # same run through the CLI surface
    code = cli_main(
        ["paradox", "--group", "free:2", "--k0", "a,a^-1,b,b^-1",
         "--n", "1", "--verify", "12", "--json"]
    )
    cli_report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert cli_report["n1"] == 2 and len(cli_report["K"]) == 17
    assert cli_report["violations"] == []
    assert cli_report["resolved"] == report["resolved"]
    assert time.monotonic() - start < 600
    # the classical first-letter decomposition validates the verifier itself
    a_inv = parse_element(F2, "a^-1")
    b_inv = parse_element(F2, "b^-1")

    def in_A1(code):
        word = F2.decode_word(code)
        return (not word) or word[0] == 0 or all(l == 1 for l in word)

    def in_B1(code):
        word = F2.decode_word(code)
        return bool(word) and word[0] == 2

    records = []
    for m in range(40):
        psi1 = m if in_A1(m) else F2.mult(a_inv, m)
        psi2 = m if in_B1(m) else F2.mult(b_inv, m)
        lo, hi = sorted((psi1, psi2))
        records.append({
            "m": m,
            "theta1": F2.mult(lo, F2.inv(m)),
            "theta2": F2.mult(hi, F2.inv(m)),
            "psi1": lo,
            "psi2": hi,
        })
    assert check_decomposition_records(F2, (0, a_inv, b_inv), records) == []
    corrupted = [dict(r) for r in records]
    corrupted[2]["psi1"] = corrupted[4]["psi1"]
    assert check_decomposition_records(F2, (0, a_inv, b_inv), corrupted)
    _passed("criterion 7: decomposition verified on 12 codes; verifier "
            "cross-checked against the first-letter fixture")


# ---------------------------------------------------------------------------
# criterion 8: expansion bounds of the key


def test_criterion_08_expansion_bounds():
    rng = random.Random(808)
    K0 = parse_elements(F2, "a,a^-1,b,b^-1")
    key = expand_key(F2, K0, 1)
    K1 = ball(F2, parse_elements(F2, "a,b"), 1)
    for _ in range(50):
        F = set(rng.sample(range(120), rng.randint(1, 8)))
        KF = {F2.mult(k, f) for k in key.K for f in F}
        K1F = {F2.mult(k, f) for k in K1 for f in F}
        assert len(KF) >= 3 * len(F)
        assert len(K1F) >= 2 * len(F)
    _passed("criterion 8: |KF| >= 3|F| and |K1 F| >= 2|F| on 50 samples")


# ---------------------------------------------------------------------------
# criterion 9: witness deciders


def test_criterion_09_witness_deciders():
    rng = random.Random(909)
    words = [c for c in range(161) if F2.word_length(c) <= 4]
    for _ in range(200):
        K = tuple(sorted(rng.sample(words, rng.randint(1, 5))))
        verdict = decide_witness_commutation(F2, K).verdict
        brute = any(
            F2.mult(x, y) != F2.mult(y, x)
            for x, y in itertools.combinations(K, 2)
        )
        assert (verdict == "WITNESS") == brute
    K = parse_elements(F2, "a,a^-1,b,b^-1")
    out = refute_witness_bounded(F2, K, 4, 6, Budget(10**7), radius=2)
    assert out is None  # the subsets ran out, not the budget
    _passed("criterion 9: commutation matches brute force on 200 keys; "
            "no 4-Folner subset of size <= 6 in the radius-2 ball")


# ---------------------------------------------------------------------------
# criterion 10: subgroup restriction


def test_criterion_10_subgroup_restriction():
    K = parse_elements(Z2, "(1,0)")
    sub = subgroup_membership(Z2, K)
    for n in range(1, 7):
        m = n * len(K)
        F_m = tuple(sorted(
            Z2.encode_vector((i, j)) for i in range(m) for j in (0, 1)
        ))
        ok, _ = is_n_folner(Z2, F_m, K, m)
        assert ok
        S = restrict_folner_to_subgroup(Z2, K, n, F_m)
        assert all(sub.membership(c) for c in S)
        ok, _ = is_n_folner(Z2, S, K, n)
        assert ok
    # free group: the a-power slice is returned
    Ka = parse_elements(F2, "a")
    m = 8
    F_m = tuple(sorted(
        [parse_element(F2, "a^%d" % i) for i in range(m)]
        + [parse_element(F2, "b")]
    ))
    S = restrict_folner_to_subgroup(F2, Ka, m, F_m)
    assert S == tuple(sorted(parse_element(F2, "a^%d" % i) for i in range(m)))
    _passed("criterion 10: coset slices stay in <K> and are n-Folner")
