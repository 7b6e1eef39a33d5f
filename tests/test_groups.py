"""Group-core contract: codings, group laws, CE enumerations."""

import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folnerlab import Budget, UNKNOWN, ball, eq_semidecide, groups, make_group
from folnerlab import cli
from folnerlab.folner import (
    ReiterFunction,
    box_folner,
    decide_mult_from_folner,
    extract_folner_from_reiter,
    folner_function,
    folner_sequence,
    is_n_folner,
    reiter_defect,
    search_folner,
    verify_invariance_ce,
)
from folnerlab.groups import (
    MAX_WORD_FACTORS,
    MAX_ZD_DIM,
    CE,
    COMPUTABLE,
    CEView,
    CyclicOracle,
    FreeGroupOracle,
    LamplighterOracle,
    MalformedSpecError,
    PreconditionError,
    RedundantZOracle,
    ZdOracle,
    _word_factors,
    ball_layers,
    cantor_pair,
    cantor_unpair,
    pack_vector,
    parse_element,
    parse_elements,
    subset_code,
    subset_decode,
    unpack_vector,
    unzigzag,
    zigzag,
)
from folnerlab.paradox import cayley_bipartite, expand_key
from folnerlab.witness import refute_witness_bounded

FAMILIES = ["free:2", "zd:1", "zd:2", "cyclic:12", "lamplighter", "redundant-z"]


def code_of(g, text):
    return parse_element(g, text)


# ---------------------------------------------------------------------------
# codings


@given(st.integers(min_value=-10**6, max_value=10**6))
def test_zigzag_roundtrip(z):
    assert unzigzag(zigzag(z)) == z


@given(st.integers(min_value=0, max_value=10**9))
def test_cantor_roundtrip(m):
    x, y = cantor_unpair(m)
    assert cantor_pair(x, y) == m


@given(st.sets(st.integers(min_value=0, max_value=60)))
def test_subset_code_roundtrip(s):
    assert set(subset_decode(subset_code(s))) == s


@given(st.integers(min_value=0, max_value=50000))
def test_free_word_coding_bijective(code):
    g = FreeGroupOracle(2)
    word = g.decode_word(code)
    assert g.encode_word(word) == code
    # words are reduced
    for a, b in zip(word, word[1:]):
        assert b != a ^ 1


def test_free_length_lex_order():
    g = FreeGroupOracle(2)
    # eps, a, a^-1, b, b^-1 then length-2 words
    assert [g.decode_word(c) for c in range(5)] == [(), (0,), (1,), (2,), (3,)]
    assert g.decode_word(5) == (0, 0)  # "aa" is the first length-2 word


def test_free_decode_cache_stays_bounded():
    g = FreeGroupOracle(2)
    size = groups._DECODE_CACHE_SIZE
    codes = range(1, size + 1000)
    words = [g.decode_word(c) for c in codes]
    assert 0 < len(g._decode_cache) <= size
    assert [g.encode_word(w) for w in words] == list(codes)
    # words decoded before the cache started over decode alike again
    assert [g.decode_word(c) for c in range(1, 500)] == words[:499]
    fresh = FreeGroupOracle(2)
    rng = random.Random(3)
    pairs = [(rng.randrange(4 * size), rng.randrange(4 * size)) for _ in range(500)]
    assert [g.mult(x, y) for x, y in pairs] == [
        fresh.encode_word(fresh.reduce(fresh.decode_word(x) + fresh.decode_word(y)))
        for x, y in pairs
    ]
    assert len(g._decode_cache) <= size


@given(st.integers(min_value=0, max_value=30000))
def test_zd2_coding_bijective(code):
    g = ZdOracle(2)
    assert g.encode_vector(g.decode_vector(code)) == code


def test_spec_parsing():
    for spec in FAMILIES:
        assert make_group(spec).spec == spec
    for bad in ["free:0", "zd:0", "cyclic:1", "nope", "free:x", "free", ""]:
        with pytest.raises(MalformedSpecError):
            make_group(bad)


# ---------------------------------------------------------------------------
# group laws through the numbering


@pytest.mark.parametrize("spec", FAMILIES)
def test_group_axioms_on_small_codes(spec):
    # the laws hold through the numbering: compare canonical forms
    g = make_group(spec)
    for x in range(201):
        assert g.canon(g.mult(x, g.identity)) == g.canon(x)
        assert g.canon(g.mult(g.identity, x)) == g.canon(x)
        assert g.canon(g.mult(x, g.inv(x))) == g.identity
    for x in range(0, 201, 23):
        for y in range(0, 201, 31):
            for z in range(0, 201, 41):
                assert g.mult(g.mult(x, y), z) == g.mult(x, g.mult(y, z))


@pytest.mark.parametrize("spec", ["free:2", "zd:1", "zd:2", "lamplighter"])
def test_identity_law_exact(spec):
    # infinite bijective families: identity law holds on the nose
    g = make_group(spec)
    for x in range(200):
        assert g.mult(x, 0) == x
        assert g.mult(0, x) == x
        assert g.mult(x, g.inv(x)) == 0


def test_free_examples():
    g = make_group("free:2")
    a, b = code_of(g, "a"), code_of(g, "b")
    assert g.mult(a, g.inv(a)) == 0
    assert g.mult(a, b) == code_of(g, "ab")
    assert g.inv(code_of(g, "ab")) == code_of(g, "b^-1a^-1")


# free:1 codes grow linearly with word length, so its bound stays small
FREE_CODE_BOUNDS = {1: 4000, 2: 10**12, 3: 10**12}


@given(st.data())
def test_free_mult_is_reduced_concatenation(data):
    rank = data.draw(st.sampled_from(sorted(FREE_CODE_BOUNDS)))
    g = FreeGroupOracle(rank)
    codes = st.integers(min_value=0, max_value=FREE_CODE_BOUNDS[rank])
    x, z = data.draw(codes), data.draw(codes)
    wx = g.decode_word(x)
    # y cancels a drawn suffix of x's word, then continues with z's
    cut = data.draw(st.integers(min_value=0, max_value=len(wx)))
    y = g.encode_word(
        g.reduce(tuple(l ^ 1 for l in reversed(wx[cut:])) + g.decode_word(z))
    )

    def reference(u, v):
        return g.encode_word(g.reduce(g.decode_word(u) + g.decode_word(v)))

    for u, v in ((x, y), (y, x), (x, z), (0, x), (x, 0), (x, g.inv(x))):
        assert g.mult(u, v) == reference(u, v)
    assert g.mult(x, g.inv(x)) == 0


def test_zd_dimension_is_capped():
    assert make_group("zd:%d" % MAX_ZD_DIM).dim == MAX_ZD_DIM
    for spec in ("zd:0", "zd:%d" % (MAX_ZD_DIM + 1), "zd:100000000", "zd:" + "9" * 5000,
                 "cyclic:" + "9" * 5000):
        with pytest.raises(MalformedSpecError):
            make_group(spec)


def test_zd_examples():
    g1 = make_group("zd:1")
    assert g1.mult(code_of(g1, "+1"), code_of(g1, "+1")) == code_of(g1, "+2")
    assert g1.inv(code_of(g1, "+3")) == code_of(g1, "-3")
    g2 = make_group("zd:2")
    assert g2.mult(code_of(g2, "(1,0)"), code_of(g2, "(0,1)")) == code_of(g2, "(1,1)")


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10**6))
def test_zd_decode_vector_is_unpack_vector(dim, code):
    g = ZdOracle(dim)
    assert g.decode_vector(code) == unpack_vector(code, dim)
    # the second read comes from the memo
    assert g.decode_vector(code) == unpack_vector(code, dim)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zd_mult_and_inv_agree_with_the_coding(dim):
    g = ZdOracle(dim)
    codes = [*range(40), *range(997, 1010), 123456]
    for x in codes:
        u = unpack_vector(x, dim)
        assert g.inv(x) == pack_vector(tuple(-a for a in u))
        for y in codes:
            v = unpack_vector(y, dim)
            assert g.mult(x, y) == pack_vector(tuple(a + b for a, b in zip(u, v)))


def test_zd_decode_memo_stays_bounded(monkeypatch):
    monkeypatch.setattr(groups, "_DECODE_CACHE_SIZE", 16)
    g = ZdOracle(2)
    fresh = ZdOracle(2)
    for x in range(0, 200, 3):
        for y in range(0, 200, 7):
            assert g.mult(x, y) == pack_vector(
                tuple(a + b for a, b in zip(unpack_vector(x, 2), unpack_vector(y, 2)))
            )
            assert 0 < len(g._decode_cache) <= 16
    assert [g.decode_vector(c) for c in range(50)] == [
        fresh.decode_vector(c) for c in range(50)
    ]
    assert len(g._decode_cache) <= 16 and len(fresh._decode_cache) <= 16


BOXES = [
    [range(-3, 4)], [range(0, 1)], [range(5, 6)],
    [range(-2, 3), range(-1, 2)], [range(4, 5), range(-4, 0)], [range(0, 1)] * 2,
    [range(-1, 2), range(0, 1), range(-2, 2)], [range(2, 3)] * 3,
]


@pytest.mark.parametrize("ranges", BOXES)
def test_box_codes_equal_the_encoded_points(ranges):
    g = ZdOracle(len(ranges))
    points = list(itertools.product(*ranges))
    codes = g.box_codes(ranges)
    assert codes == tuple(sorted(g.encode_vector(v) for v in points))
    # every point entered the memo, and decodes through it
    assert all(g._decode_cache[pack_vector(v)] == v for v in points)
    assert [g.decode_vector(c) for c in codes] == [
        unpack_vector(c, g.dim) for c in codes]


def test_box_codes_memo_stays_bounded_and_correct(monkeypatch):
    monkeypatch.setattr(groups, "_DECODE_CACHE_SIZE", 16)
    g = ZdOracle(2)
    g.decode_vector(1000)
    small = [range(-1, 2), range(-1, 2)]  # 9 points fit beside the one code
    assert g.box_codes(small) == tuple(sorted(map(pack_vector, itertools.product(*small))))
    assert len(g._decode_cache) == 10
    for ranges in ([range(0, 3), range(3, 6)], [range(-2, 3), range(-2, 3)], small):
        codes = g.box_codes(ranges)  # overflows: the memo starts over first
        assert codes == tuple(sorted(map(pack_vector, itertools.product(*ranges))))
        assert 0 < len(g._decode_cache) <= 16
        assert all(pack_vector(v) == c for c, v in g._decode_cache.items())
        assert [g.decode_vector(c) for c in codes] == [unpack_vector(c, 2) for c in codes]


def test_lamplighter_relations():
    g = make_group("lamplighter")
    s, t = g.generator_names["s"], g.generator_names["t"]
    assert g.mult(s, s) == 0  # lamps are Z2
    assert g.mult(t, g.inv(t)) == 0
    # s and t s t^-1 toggle different lamps, hence commute
    sts = g.mult(g.mult(t, s), g.inv(t))
    assert g.mult(s, sts) == g.mult(sts, s)
    assert g.mult(s, sts) != 0


def _lamplighter_mult_reference(x, y):
    """The lamplighter product on lamp sets: shift y's lamps by x's cursor
    and take the symmetric difference."""
    la, ca = LamplighterOracle.decode_element(x)
    lb, cb = LamplighterOracle.decode_element(y)
    shifted = frozenset(p + ca for p in lb)
    return LamplighterOracle.encode_element(la ^ shifted, ca + cb)


def _lamplighter_inv_reference(x):
    lamps, c = LamplighterOracle.decode_element(x)
    return LamplighterOracle.encode_element(frozenset(p - c for p in lamps), -c)


lamplighter_elements = st.builds(
    LamplighterOracle.encode_element,
    st.frozensets(st.integers(min_value=-12, max_value=12), max_size=8),
    st.integers(min_value=-12, max_value=12),
)


@given(lamplighter_elements, st.lists(lamplighter_elements, max_size=12))
def test_lamplighter_mask_arithmetic_equals_the_lamp_sets(x, ys):
    g = make_group("lamplighter")
    want = [_lamplighter_mult_reference(x, y) for y in ys]
    assert [g.mult(x, y) for y in ys] == want
    assert g.mult_row(x, ys) == want
    assert g.inv(x) == _lamplighter_inv_reference(x)


def _moved_lamps_reference(mask, by):
    """The lamp mask moved lamp by lamp: each set bit's lamp, moved by
    ``by``, lands on its own bit."""
    if not by:
        return mask
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << zigzag(unzigzag(low.bit_length() - 1) + by)
        mask ^= low
    return out


def test_whole_mask_move_equals_the_lamp_by_lamp_move():
    # masks of up to 200 bits and shifts up to 70 lamps, so lamps cross 0
    # both ways and the masks pass any fixed width
    rng = random.Random(5)
    g = make_group("lamplighter")
    for _ in range(3000):
        mask = rng.getrandbits(rng.randint(0, 200))
        by = rng.randint(-70, 70)
        assert groups._moved_lamps(mask, by) == _moved_lamps_reference(mask, by)
        assert groups._moved_lamps(mask, 0) == mask
        zc = rng.randint(0, 141)
        want = cantor_pair(_moved_lamps_reference(mask, -unzigzag(zc)),
                           zigzag(-unzigzag(zc)))
        assert g.inv(cantor_pair(mask, zc)) == want
    everything = (1 << 200) - 1
    for by in range(-70, 71):
        assert groups._moved_lamps(0, by) == 0
        assert groups._moved_lamps(everything, by) == _moved_lamps_reference(everything, by)


# ---------------------------------------------------------------------------
# rows of products


def _zd_mult_reference(g, x, y):
    """The Z^d product by its definition: the sum of the decoded vectors,
    packed by ``pack_vector``."""
    a, b = unpack_vector(x, g.dim), unpack_vector(y, g.dim)
    return pack_vector(tuple(u + v for u, v in zip(a, b)))


ROW_CODES = list(range(40)) + [97, 1234, 10**5 + 7, 987654]


@pytest.mark.parametrize(
    "spec",
    ["free:2", "zd:1", "zd:2", "zd:3", "cyclic:6", "lamplighter", "redundant-z",
     "ce:zd:2"],
)
def test_mult_row_equals_mult(spec):
    # cyclic:6 takes non-canonical codes too (7 = 1, 1234 = 4)
    g = CEView(make_group(spec[3:])) if spec.startswith("ce:") else make_group(spec)
    # zd's mult is its one-element row; its reference is the vector sum
    zd = isinstance(g, ZdOracle)
    mult = functools.partial(_zd_mult_reference, g) if zd else g.mult
    for a in ROW_CODES[::3]:
        want = [mult(a, c) for c in ROW_CODES]
        assert g.mult_row(a, ROW_CODES) == want, (spec, a)
        assert g.mult_row(a, iter(ROW_CODES)) == want
        assert g.mult_row(a, ()) == []


def _free_word(rng, rank, length):
    """A random reduced word of the given length."""
    word = []
    while len(word) < length:
        letter = rng.randrange(2 * rank)
        if not word or letter != word[-1] ^ 1:
            word.append(letter)
    return tuple(word)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_mult_row_equals_mult_on_random_rows(rank):
    # each row has the identity, a's inverse (everything cancels), words
    # that cancel part of a or all of it and go on, and words longer than
    # a; the row runs first on a fresh oracle, so its products are longer
    # than any word its offsets table was grown for
    rng = random.Random(rank)
    grown = 0  # rows that grew their oracle's offsets table
    for _ in range(150):
        g, ref = FreeGroupOracle(rank), FreeGroupOracle(rank)
        wa = _free_word(rng, rank, rng.randint(0, 6))
        words = [(), tuple(l ^ 1 for l in reversed(wa))]
        for _ in range(12):
            cut = rng.randint(0, len(wa))  # y starts by cancelling cut letters
            head = tuple(l ^ 1 for l in reversed(wa[len(wa) - cut:]))
            tail = _free_word(rng, rank, rng.randint(0, 8))
            words.append(FreeGroupOracle.reduce(head + tail))
        codes = [g.encode_word(w) for w in words]
        a = g.encode_word(wa)
        rng.shuffle(codes)
        short = len(g._offsets)
        got = g.mult_row(a, codes)
        assert got == [ref.mult(a, c) for c in codes], (wa, words)
        assert g.mult_row(0, codes) == codes
        grown += len(g._offsets) > short
    assert grown > 100


@pytest.mark.parametrize("spec", ["free:2", "zd:2", "zd:3", "cyclic:6", "lamplighter"])
def test_mult_rows_equal_one_row_per_step(spec):
    g = make_group(spec)
    # the identity, a repeated step and codes out of order
    steps = [0, 5, 2, 5, 97, 1, 0, 1234]
    codes = tuple(reversed(ROW_CODES))
    assert g.mult_rows(steps, codes) == [g.mult_row(a, codes) for a in steps]
    assert g.mult_rows(steps, ()) == [[] for _ in steps]
    assert g.mult_rows((), codes) == []
    assert g.mult_rows((0,), codes) == [list(map(g.canon, codes))]


# ---------------------------------------------------------------------------
# balls


def test_ball_free_group_sizes():
    g = make_group("free:2")
    gens = parse_elements(g, "a,b")
    assert ball(g, gens, 0) == (0,)
    assert len(ball(g, gens, 1)) == 5
    assert set(ball(g, gens, 1)) == {0, 1, 2, 3, 4}
    assert len(ball(g, gens, 2)) == 17


def test_ball_cyclic_saturates():
    g = make_group("cyclic:12")
    assert ball(g, (1,), 20) == tuple(range(12))


class CountingCyclic(CyclicOracle):
    calls = 0

    def mult(self, x, y):
        self.calls += 1
        return super().mult(x, y)


def test_ball_layers_stop_growing_and_charge_mult_calls():
    g = make_group("cyclic:12")
    layers = list(ball_layers(g, (1,)))
    assert [len(B) for B in layers] == [1, 3, 5, 7, 9, 11, 12]
    assert all(B == ball(g, (1,), r) for r, B in enumerate(layers))
    assert list(ball_layers(g, ())) == [(0,)]
    # one step per product of a step with the layer, paid before the layer
    # is built; the identity's products are paid for but never made
    counted = CountingCyclic(12)
    meter = Budget(10**6).meter()
    assert list(ball_layers(counted, (1,), meter)) == layers
    assert meter.consumed == 3 * 12
    assert counted.calls == 2 * 12
    # layers cost 3, 6, 6, ...: 14 steps pay for two, then None ends the run
    meter = Budget(14).meter()
    sizes = [B and len(B) for B in ball_layers(g, (1,), meter)]
    assert sizes == [1, 3, 5, None] and meter.remaining == 0


def test_ball_requires_computable_mode():
    with pytest.raises(PreconditionError):
        ball(make_group("redundant-z"), (1,), 1)


# ---------------------------------------------------------------------------
# redundant-z CE surface


@pytest.fixture(scope="module")
def rz():
    return RedundantZOracle()


def test_rz_word_coding(rz):
    assert rz.decode_word(0) == ()
    # x, x^-1, y, y^-1
    assert [rz.decode_word(c) for c in range(1, 5)] == [(0,), (1,), (2,), (3,)]
    for code in range(300):
        assert rz.encode_word(rz.decode_word(code)) == code


def _rz_words_by_length(top):
    """Every word over the four letters, length-lexicographically, up to
    length ``top``: the word of code c is the c-th."""
    for length in range(top + 1):
        yield from itertools.product(range(4), repeat=length)


def test_rz_value_and_decode_word_read_the_word():
    # offset(8) = 21,845 codes: every word of length at most 7
    g = RedundantZOracle()
    words = list(_rz_words_by_length(7))
    assert len(words) == g._offset(8) == 21845
    for code, word in enumerate(words):
        assert g.decode_word(code) == word
        assert g.encode_word(word) == code
        assert g.value(code) == sum(1 if l % 2 == 0 else -1 for l in word)


def test_rz_values_and_canon(rz):
    x, y = 1, 3
    assert rz.value(x) == rz.value(y) == 1
    assert rz.canon(x) == rz.canon(y) == x
    xx = rz.mult(x, x)
    assert rz.value(xx) == 2
    assert rz.canon(rz.mult(x, rz.inv(y))) == 0


def test_rz_eq_semidecide(rz):
    x, y = 1, 3
    assert eq_semidecide(rz, x, x, Budget(1)) == "EQUAL"
    assert eq_semidecide(rz, x, y, Budget(200)) == "EQUAL"
    # x vs x^2: never enumerated
    assert eq_semidecide(rz, x, rz.mult(x, x), Budget(5000)) is UNKNOWN


def test_rz_eq_enum_sound_and_complete(rz):
    seen = set()
    for m in range(4000):
        i, j = rz.eq_enum(m)
        assert rz.value(i) == rz.value(j)
        seen.add((i, j))
    for i in range(30):
        for j in range(30):
            if rz.value(i) == rz.value(j):
                assert (i, j) in seen


def test_rz_multt_enum_sound_and_complete_small(rz):
    seen = set()
    m = 0
    # consume the stream until every triple with codes <= 20 must have appeared
    while rz._multt_level <= 21:
        seen.add(rz.multt_enum(m))
        m += 1
    for i in range(21):
        for j in range(21):
            k_true = rz.value(i) + rz.value(j)
            for k in range(21):
                if rz.value(k) == k_true:
                    assert (i, j, k) in seen
    for (i, j, k) in seen:
        assert rz.value(i) + rz.value(j) == rz.value(k)


def test_rz_multt_enum_complete_to_50(rz):
    # soundness plus coverage of all true triples with codes <= 50
    want = set()
    for i in range(51):
        for j in range(51):
            v = rz.value(i) + rz.value(j)
            for k in range(51):
                if rz.value(k) == v:
                    want.add((i, j, k))
    m = 0
    while rz._multt_level <= 51:
        t = rz.multt_enum(m)
        want.discard(t)
        m += 1
    assert not want


class _LoopRZ(RedundantZOracle):
    """redundant-z with its enumerations built by scanning every code of
    a level, the reference for the value-bucket streams."""

    def __init__(self):
        super().__init__()
        self._eq_level = 0

    def eq_enum(self, m):
        while len(self._eq_stream) <= m:
            n = self._eq_level
            self._eq_stream.append((n, n))
            vn = self.value(n)
            for i in range(n):
                if self.value(i) == vn:
                    self._eq_stream.append((i, n))
                    self._eq_stream.append((n, i))
            self._eq_level += 1
        return self._eq_stream[m]

    def multt_enum(self, m):
        while len(self._multt_stream) <= m:
            n = self._multt_level
            for i in range(n + 1):
                vi = self.value(i)
                for j in range(n + 1):
                    vj = vi + self.value(j)
                    for k in range(n + 1):
                        if max(i, j, k) == n and self.value(k) == vj:
                            self._multt_stream.append((i, j, k))
            self._multt_level += 1
        return self._multt_stream[m]


def test_rz_bucketed_streams_equal_the_level_loops():
    ref, g = _LoopRZ(), RedundantZOracle()
    got = [g.eq_enum(m) for m in range(10**5)]
    assert got == [ref.eq_enum(m) for m in range(10**5)]
    ref, g = _LoopRZ(), RedundantZOracle()
    got = [g.multt_enum(m) for m in range(2 * 10**4)]
    assert got == [ref.multt_enum(m) for m in range(2 * 10**4)]
    assert g._multt_level == ref._multt_level == 53


def test_rz_streams_read_alternately_keep_to_their_own_levels():
    # each stream keeps its own buckets; first multt_enum leads by far, then
    # eq_enum overtakes it, and neither may see a code above its level
    ref, g = _LoopRZ(), RedundantZOracle()
    reads = [("multt_enum", m) for m in range(4000)]
    reads[::40] = [("eq_enum", m) for m in range(len(reads[::40]))]
    for m in range(100, 30000):
        reads.append(("eq_enum", m))
        if m % 10 == 0:
            reads.append(("multt_enum", 4000 + m // 10))
    leads = set()
    for name, m in reads:
        assert getattr(g, name)(m) == getattr(ref, name)(m), (name, m)
        leads.add(ref._eq_level > ref._multt_level)
    assert leads == {False, True}


def test_rz_eq_entries_equal_eq_enum():
    ref, g = _LoopRZ(), RedundantZOracle()
    entries = [g.eq_enum(m) for m in range(10**5)]
    assert entries == [ref.eq_enum(m) for m in range(10**5)]
    # a second walk reads the stream the first one built
    assert [g.eq_enum(m) for m in range(10**5)] == entries


def test_rz_eq_entries_read_between_other_reads():
    # the walk is interleaved with multt_enum reads and with eq_enum reads
    # that run ahead of it, as in the alternating test above
    ref, g = _LoopRZ(), RedundantZOracle()
    walk = map(g.eq_enum, itertools.count())
    for m in range(30000):
        assert next(walk) == ref.eq_enum(m), m
        if m % 10 == 0:
            assert g.multt_enum(m // 5) == ref.multt_enum(m // 5)
        if m % 997 == 0:
            ahead = m + 500 + m // 3
            assert g.eq_enum(ahead) == ref.eq_enum(ahead)


def _filter_within(rz, codes, limit):
    """The default ``eq_entries_within`` of redundant-z: its stream read
    entry by entry and filtered."""
    return list(groups.GroupOracle.eq_entries_within(rz, codes, limit))


def _level_start(rz, n):
    """The index of the entry (n, n), which starts level n of the stream."""
    rz.eq_enum(10**5)
    return rz._eq_stream.index((n, n))


def _random_code_sets(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield set(rng.sample(range(400), rng.randint(1, 12)))


def test_rz_eq_entries_within_equal_the_filtered_stream(rz):
    for codes in _random_code_sets(18, 25):
        n = max(codes)
        start, end = _level_start(rz, n), _level_start(rz, n + 1)
        assert end - start == 1 + 2 * sum(rz.value(i) == rz.value(n) for i in range(n))
        # a limit that cuts the level of max(codes) in half, and one that
        # cuts the last pair (i, n), (n, i) between its two entries
        last = _filter_within(rz, codes, 10**5)[-1][0]
        for limit in (0, 1, (start + end) // 2, last, 10**5):
            want = _filter_within(rz, codes, limit)
            assert list(RedundantZOracle().eq_entries_within(codes, limit)) == want
    # the empty set has no entry; a set with one code only its diagonal entry
    assert list(RedundantZOracle().eq_entries_within(set(), 10**5)) == []
    assert list(RedundantZOracle().eq_entries_within({5}, 10**5)) == [
        (_level_start(rz, 5), 5, 5)]


def test_rz_eq_entries_within_share_the_buckets_with_the_streams(rz):
    # other reads run ahead of a walk, or between its entries; the walk
    # keeps buckets of its own, and must read the same entries
    for k, codes in enumerate(_random_code_sets(81, 12)):
        want = _filter_within(rz, codes, 10**5)
        g = RedundantZOracle()
        if k % 3 == 0:  # both streams far ahead
            g.multt_enum(2 * 10**4)
            g.eq_enum(5 * 10**4)
        elif k % 3 == 1:  # multt_enum ahead, eq_enum behind
            g.multt_enum(10**4)
            g.eq_enum(100)
        got = []
        for step, entry in enumerate(g.eq_entries_within(codes, 10**5)):
            got.append(entry)
            if k % 3 == 2:
                g.multt_enum(50 * step)
                g.eq_enum(300 * step)
        assert got == want


def test_rz_eq_levels_read_each_value_and_start_as_counted():
    # every code of length at most 6: its level's bucket holds the lower
    # codes of its value by ``value``, and the level starts after the
    # entries (i, m) of the codes below it with v(i) = v(m), one per pair,
    # so at the sum of the squares of the counts of the values below it
    g = RedundantZOracle()
    assert g._offset(7) == 5461
    seen = {}
    levels = g._eq_levels()
    for n in range(5461):
        start, got_n, below = next(levels)
        same = seen.setdefault(g.value(n), [])
        assert (start, got_n, below) == (sum(len(c) ** 2 for c in seen.values()), n, same), n
        same.append(n)


def _eq_semidecide_reference(g, x, y, b):
    """``eq_semidecide`` reading ``eq_enum`` one entry at a time, with one
    meter charge per entry."""
    meter = b.meter()
    if x == y:
        return "EQUAL"
    for m in itertools.count():
        if not meter.charge():
            return UNKNOWN
        if g.eq_enum(m) in ((x, y), (y, x)):
            return "EQUAL"


@pytest.mark.parametrize("x, y", [(1, 3), (3, 1), (5, 13), (9, 21), (1, 2), (0, 85), (40, 7)])
def test_rz_eq_semidecide_charges_as_one_charge_per_entry(x, y):
    g = RedundantZOracle()

    def both(steps):
        out = []
        for decide in (eq_semidecide, _eq_semidecide_reference):
            meter = Budget(steps).meter()
            out.append((decide(g, x, y, meter), meter.consumed))
        return out

    got, ref = both(10**5)
    assert got == ref
    equal = g.value(x) == g.value(y)
    assert (got[0] == "EQUAL") == equal
    edge = got[1] if equal else 300
    for steps in range(1, edge + 2):
        got, ref = both(steps)
        assert got == ref, steps
        assert (got[0] is UNKNOWN) == (steps < edge or not equal)


def test_ce_view_enumerations():
    g = CEView(make_group("zd:2"))
    for m in range(500):
        i, j, k = g.multt_enum(m)
        assert g.base.mult(i, j) == k
    assert g.eq_enum(7) == (7, 7)
    assert [g.eq_enum(m) for m in range(50)] == [(m, m) for m in range(50)]
    assert eq_semidecide(g, 3, 3, Budget(1)) == "EQUAL"
    assert eq_semidecide(g, 3, 4, Budget(100)) is UNKNOWN


@pytest.mark.parametrize("spec", ["zd:1", "zd:2", "free:2", "lamplighter"])
def test_ce_view_eq_entries_within_equal_the_default_scan(spec):
    g = CEView(make_group(spec))
    rng = random.Random(3)
    for _ in range(40):
        codes = set(rng.sample(range(60), rng.randint(0, 5)))
        for limit in (0, 1, 7, 30, 61, 100):
            want = list(groups.GroupOracle.eq_entries_within(g, codes, limit))
            assert list(g.eq_entries_within(codes, limit)) == want


class _ShortCEView(CEView):
    """A view whose equal-codes enumeration fails after 10^4 reads."""

    reads = 0

    def eq_enum(self, m):
        self.reads += 1
        if self.reads > 10**4:
            raise RuntimeError("the scan read past 10^4 entries")
        return super().eq_enum(m)


def test_ce_view_eq_scan_skips_the_diagonal_between_the_codes():
    # the scan would read every diagonal entry up to the budget, so a
    # budget of 10^12 would never return
    meter = Budget(10**12).meter()
    assert eq_semidecide(_ShortCEView(make_group("zd:1")), 1, 2, meter) is UNKNOWN
    assert meter.consumed == 10**12


def test_ce_view_multt_complete_to_50():
    # injective numbering: the only true triples are (i, j, i*j), and the
    # pair schedule places each at its Cantor index, within (50+50+1)^2/2
    g = CEView(make_group("zd:2"))
    for i in range(0, 51, 7):
        for j in range(0, 51, 5):
            idx = cantor_pair(i, j)
            assert g.multt_enum(idx) == (i, j, g.base.mult(i, j))
            assert idx <= cantor_pair(50, 50)


def test_ce_view_rejects_finite_or_ce():
    with pytest.raises(PreconditionError):
        CEView(make_group("cyclic:12"))
    with pytest.raises(PreconditionError):
        CEView(make_group("redundant-z"))


# ---------------------------------------------------------------------------
# the mode contract


_F1 = ReiterFunction.characteristic((0, 1))
# each entry point, the mode it requires, and its call on an oracle g with a
# meter m; the call also runs on an oracle of the right mode
WRONG_MODE_CALLS = [
    ("is_n_folner", COMPUTABLE, lambda g, m: is_n_folner(g, (0, 1), (1,), 1)),
    ("search_folner", COMPUTABLE, lambda g, m: search_folner(g, (1,), 1, m)),
    ("folner_function", COMPUTABLE, lambda g, m: folner_function(g, (1,), 2, m)),
    ("folner_sequence", COMPUTABLE, lambda g, m: folner_sequence(g, 1, m)),
    ("reiter_defect", COMPUTABLE, lambda g, m: reiter_defect(g, _F1, (1,))),
    ("verify_invariance_ce", CE,
     lambda g, m: verify_invariance_ce(g, 1, (1,), _F1, m)),
    ("extract_folner_from_reiter", COMPUTABLE,
     lambda g, m: extract_folner_from_reiter(g, _F1, (1,), 1)),
    ("decide_mult_from_folner", CE,
     lambda g, m: decide_mult_from_folner(g, lambda n, D: UNKNOWN, 1, 1, 1, m)),
    ("eq_semidecide", CE, lambda g, m: eq_semidecide(g, 1, 3, m)),
    ("ball", COMPUTABLE, lambda g, m: ball(g, (1,), 2)),
    ("expand_key", COMPUTABLE, lambda g, m: expand_key(g, (1,), 1)),
    ("cayley_bipartite", COMPUTABLE, lambda g, m: cayley_bipartite(g, (1,))),
    ("refute_witness_bounded", COMPUTABLE,
     lambda g, m: refute_witness_bounded(g, (1,), 1, 2, m)),
]


@pytest.mark.parametrize("name, mode, call", WRONG_MODE_CALLS,
                         ids=[name for name, _, _ in WRONG_MODE_CALLS])
def test_wrong_mode_raises_one_message_before_any_charge(name, mode, call):
    g = make_group("redundant-z" if mode == COMPUTABLE else "zd:1")
    meter = Budget(100).meter()
    with pytest.raises(PreconditionError) as exc:
        call(g, meter)
    assert str(exc.value) == "%s requires a %s-mode oracle" % (name, mode)
    assert meter.remaining == 100
    call(CEView(g) if mode == CE else make_group("zd:1"), Budget(100).meter())


_ZD1, _ZD2 = make_group("zd:1"), make_group("zd:2")
# each error exit on bad input: the entry point, the error it raises, and its
# call on a meter m, with bad input unless ok; the call with ok passes
BAD_INPUT_CALLS = [
    ("is_n_folner", ValueError,
     lambda m, ok: is_n_folner(_ZD1, (0, 1), (1,), int(ok))),
    ("folner_function", ValueError,
     lambda m, ok: folner_function(_ZD1, (1,), int(ok), m)),
    ("folner_sequence", ValueError, lambda m, ok: folner_sequence(_ZD1, int(ok), m)),
    ("refute_witness_bounded", ValueError,
     lambda m, ok: refute_witness_bounded(_ZD1, (1,), int(ok), 2, m)),
    # the point mass at 0 has defect 2 against +1; the interval -1..2 has 1/2
    ("extract_folner_from_reiter", PreconditionError,
     lambda m, ok: extract_folner_from_reiter(
         _ZD1, ReiterFunction.characteristic((0, 1, 2, 3) if ok else (0,)), (1,), 2)),
    ("box_folner", PreconditionError,
     lambda m, ok: box_folner(_ZD1 if ok else make_group("free:2"), (1,), 2)),
    ("cli wp-from-folner", cli._MalformedInput,
     lambda m, ok: cli._run(cli._read(
         ["wp-from-folner", "--group", "zd:2",
          "--d", "(1,0),(0,%s),(1,1)" % ("1" if ok else "x")]), _ZD2, m)),
]


@pytest.mark.parametrize("name, error, call", BAD_INPUT_CALLS,
                         ids=[name for name, _, _ in BAD_INPUT_CALLS])
def test_bad_input_raises_before_any_charge(name, error, call):
    meter = Budget(100).meter()
    with pytest.raises(error):
        call(meter, False)
    assert meter.remaining == 100
    call(Budget(10**6).meter(), True)


# ---------------------------------------------------------------------------
# element literals


# literals on each family that has a CEView
VIEW_LITERALS = {
    "zd:1": ["+1", "-3", "7", "0"],
    "zd:2": ["(1,0)", "(-2,3)", "(0,0)"],
    "lamplighter": ["s", "t^-1st", "e"],
    "free:2": ["a", "ab^-1", "1"],
}


@pytest.mark.parametrize("spec", sorted(VIEW_LITERALS))
def test_view_literals_parse_to_the_base_codes(spec):
    g = make_group(spec)
    view, texts = CEView(g), VIEW_LITERALS[spec]
    for text in texts:
        assert parse_element(view, text) == parse_element(g, text)
    assert parse_elements(view, ",".join(texts)) == parse_elements(g, ",".join(texts))


def test_parse_elements_splits_tuples():
    g = make_group("zd:2")
    codes = parse_elements(g, "(1,0),(0,1),(1,1)")
    assert codes == tuple(sorted(g.encode_vector(v) for v in [(1, 0), (0, 1), (1, 1)]))


def test_parse_free_words():
    g = make_group("free:2")
    assert parse_element(g, "a^-1") == 2
    assert parse_element(g, "a^2b^-1") == g.mult(g.mult(1, 1), g.inv(3))
    assert parse_element(g, "aa^-1") == parse_element(g, "a^2a^-2") == 0
    for text in ("q", "a^", "ab^"):
        with pytest.raises(ValueError):
            parse_element(g, text)


@pytest.mark.parametrize("spec", ["free:1", "free:2", "free:3"])
def test_free_literals_equal_the_fold_of_their_factors(spec):
    # a free word is coded once from its freely reduced letters; the fold
    # of its factors by ``mult`` is the reference
    g = make_group(spec)
    names = sorted(g.generator_names)
    rng = random.Random(spec)
    for _ in range(300):
        text = "".join("%s^%d" % (rng.choice(names), rng.randint(-3, 3))
                       if rng.random() < 0.5 else rng.choice(names)
                       for _ in range(rng.randint(1, 12)))
        fold = functools.reduce(g.mult, _word_factors(g, text), g.identity)
        assert parse_element(g, text) == fold, text


def test_free_literal_makes_no_product(monkeypatch):
    g = make_group("free:2")
    words = {"a" * 1000: ("a",) * 1000, "ab" * 500: ("a", "b") * 500,
             "a^500b^-250a^-250": ("a",) * 500 + ("b^-1",) * 250 + ("a^-1",) * 250}
    want = {text: functools.reduce(g.mult, map(functools.partial(parse_element, g), w))
            for text, w in words.items()}

    def no_mult(x, y):
        raise AssertionError("a literal folded its factors")

    monkeypatch.setattr(g, "mult", no_mult)
    for text, code in want.items():
        assert len(_word_factors(g, text)) == 1000
        assert parse_element(g, text) == code


def test_lamplighter_literals_equal_the_fold_of_their_factors():
    # a lamplighter word is walked token by token; the fold of its factors
    # by ``mult`` is the reference
    g = make_group("lamplighter")
    rng = random.Random("lamplighter")
    for _ in range(600):
        text = "".join("%s^%d" % (rng.choice("st"), rng.randint(-5, 5))
                       if rng.random() < 0.5 else rng.choice("st")
                       for _ in range(rng.randint(1, 14)))
        fold = functools.reduce(g.mult, _word_factors(g, text), g.identity)
        assert parse_element(g, text) == fold, text


def test_lamplighter_literal_makes_no_product(monkeypatch):
    g = make_group("lamplighter")
    words = ["t" * 1000, "st" * 500, "s^499t^-250st^-250", "t^-500s^500"]
    want = {text: functools.reduce(g.mult, _word_factors(g, text), g.identity)
            for text in words}

    def no_product(*args):
        raise AssertionError("a literal folded its factors")

    for name in ("mult", "mult_row", "mult_rows"):
        monkeypatch.setattr(g, name, no_product)
    for text, code in want.items():
        assert parse_element(g, text) == code, text[:12]
    # the cursor ends 1,000 to the right, and "st" * 500 lights every lamp
    # from 0 to 499
    assert g.decode_element(want["t" * 1000]) == (frozenset(), 1000)
    assert g.decode_element(want["st" * 500]) == (frozenset(range(500)), 500)


def test_parse_redundant_z_words_stay_unreduced():
    g = make_group("redundant-z")
    assert parse_element(g, "x") == 1
    assert parse_element(g, "y") == 3
    xy = parse_element(g, "xy")
    assert g.decode_word(xy) == (0, 2)
    assert parse_element(g, "xx^-1") == 6
    assert parse_element(g, "x^-2") == 10
    assert g.decode_word(parse_element(g, "y^-1x^2y")) == (3, 0, 0, 2)


# the generator letters of each word family
WORD_LETTERS = {"free:2": "ab", "lamplighter": "st", "redundant-z": "xy"}


@pytest.mark.parametrize("spec", ["free:2", "lamplighter", "redundant-z"])
def test_identity_literal_on_word_families(spec):
    g = make_group(spec)
    assert parse_element(g, "e") == parse_element(g, "1") == g.identity == 0
    a, b = WORD_LETTERS[spec]
    assert parse_element(g, a + "^0") == parse_element(g, " %s^0%s^0 " % (a, b)) == 0
    # one token loop: a token that does not parse, and a letter that is not
    # a generator, anywhere in the word
    for text in (a + "^", a + b + "^", a + "^-", "^2", a + "-1", "q", a + "q", b + "^2q"):
        with pytest.raises(ValueError):
            parse_element(g, text)
    A, B = g.generator_names[a], g.generator_names[b]
    word = parse_element(g, "%s%s^-2" % (a, b))
    if spec == "redundant-z":
        assert g.decode_word(word) == g.decode_word(A) + g.decode_word(g.inv(B)) * 2
    else:
        assert word == g.mult(g.mult(A, g.inv(B)), g.inv(B))


@pytest.mark.parametrize("spec", ["free:2", "lamplighter", "redundant-z"])
def test_word_factor_count_is_capped(spec):
    # the cap counts |k| over every token a^k, whatever its sign, before
    # any factor is made
    g = make_group(spec)
    a, b = WORD_LETTERS[spec]
    half = MAX_WORD_FACTORS // 2
    rest = MAX_WORD_FACTORS - half
    at_cap = "%s^%d%s^-%d" % (a, half, b, rest)
    word = parse_element(g, at_cap)
    if spec == "redundant-z":
        assert len(g.decode_word(word)) == MAX_WORD_FACTORS
    else:
        assert word == g.mult(parse_element(g, "%s^%d" % (a, half)),
                              parse_element(g, "%s^-%d" % (b, rest)))
    for text in ("%s^%d" % (a, MAX_WORD_FACTORS + 1), at_cap + b,
                 a * (MAX_WORD_FACTORS + 1), "%s^-999999999" % b):
        with pytest.raises(ValueError, match="factors"):
            parse_element(g, text)

