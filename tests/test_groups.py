"""Group-core contract: codings, group laws, CE enumerations."""

import functools
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from folnerlab import Budget, UNKNOWN, ball, eq_semidecide, groups, make_group
from folnerlab.groups import (
    CEView,
    CyclicOracle,
    FreeGroupOracle,
    LamplighterOracle,
    MalformedSpecError,
    PreconditionError,
    RedundantZOracle,
    ZdOracle,
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
    entries = list(itertools.islice(g.eq_entries(), 10**5))
    assert entries == [ref.eq_enum(m) for m in range(10**5)]
    # a second walk reads the stream the first one built
    assert list(itertools.islice(g.eq_entries(), 10**5)) == entries


def test_rz_eq_entries_read_between_other_reads():
    # the walk is interleaved with multt_enum reads and with eq_enum reads
    # that run ahead of it, as in the alternating test above
    ref, g = _LoopRZ(), RedundantZOracle()
    walk = g.eq_entries()
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
    assert list(itertools.islice(g.eq_entries(), 50)) == [(m, m) for m in range(50)]
    assert eq_semidecide(g, 3, 3, Budget(1)) == "EQUAL"
    assert eq_semidecide(g, 3, 4, Budget(100)) is UNKNOWN


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
# element literals


def test_parse_elements_splits_tuples():
    g = make_group("zd:2")
    codes = parse_elements(g, "(1,0),(0,1),(1,1)")
    assert codes == tuple(sorted(g.encode_vector(v) for v in [(1, 0), (0, 1), (1, 1)]))


def test_parse_free_words():
    g = make_group("free:2")
    assert parse_element(g, "a^-1") == 2
    assert parse_element(g, "a^2b^-1") == g.mult(g.mult(1, 1), g.inv(3))
    with pytest.raises(ValueError):
        parse_element(g, "q")


def test_parse_redundant_z_words_stay_unreduced():
    g = make_group("redundant-z")
    assert parse_element(g, "x") == 1
    assert parse_element(g, "y") == 3
    xy = parse_element(g, "xy")
    assert g.decode_word(xy) == (0, 2)


@pytest.mark.parametrize("spec", ["free:2", "lamplighter", "redundant-z"])
def test_identity_literal_on_word_families(spec):
    g = make_group(spec)
    assert parse_element(g, "e") == parse_element(g, "1") == g.identity == 0
