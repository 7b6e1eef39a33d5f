"""Numbered-group oracles over concrete group families.

Every group element is addressed by a natural number code.  A family in
COMPUTABLE mode exposes total ``mult``/``inv``/``canon`` on codes with a
bijective numbering (code 0 is always the identity); a family in CE mode
only promises enumerations of the multiplication table and of the
equal-codes relation, while ``mult``/``inv`` stay total and deterministic
because the built-in presentations compute canonical forms internally.

Codings are fixed so that certificates are reproducible:

* ``free:k``     length-lexicographic reduced words, generator order
                 a < a^-1 < b < b^-1 < ...
* ``zd:d``       per-coordinate zig-zag (0, 1, -1, 2, -2, ...) followed by
                 an iterated Cantor pairing of the d coordinates,
* ``cyclic:m``   residues 0..m-1,
* ``lamplighter``  Z2 wr Z, elements (lamp set, cursor) paired as
                 (bitmask over zig-zagged positions, zig-zag cursor),
* ``redundant-z``  a CE presentation of Z on generators x, y with x = y;
                 codes enumerate all words over {x, x^-1, y, y^-1}
                 length-lexicographically.
"""

from __future__ import annotations

import itertools
import math
import re

from .budget import Budget, UNKNOWN

COMPUTABLE = "COMPUTABLE"
CE = "CE"


class MalformedSpecError(ValueError):
    """Raised when a group spec string does not parse."""


class PreconditionError(RuntimeError):
    """An operation was invoked outside its contract (wrong mode, bad input)."""


def require_mode(g: GroupOracle, mode: str, operation: str):
    """The one wrong-mode check: PreconditionError unless g has ``mode``."""
    if g.mode != mode:
        raise PreconditionError("%s requires a %s-mode oracle" % (operation, mode))


# ---------------------------------------------------------------------------
# integer codings


def zigzag(z: int) -> int:
    """Bijection Z -> N with 0, 1, -1, 2, -2, ... mapping to 0, 1, 2, 3, 4."""
    return 2 * z - 1 if z > 0 else -2 * z


def unzigzag(m: int) -> int:
    return (m + 1) // 2 if m % 2 else -(m // 2)


def cantor_pair(x: int, y: int) -> int:
    s = x + y
    return s * (s + 1) // 2 + y


def cantor_unpair(m: int) -> tuple[int, int]:
    s = (math.isqrt(8 * m + 1) - 1) // 2
    y = m - s * (s + 1) // 2
    return s - y, y


def pack_vector(coords: tuple[int, ...]) -> int:
    """Code of an integer vector: zig-zag each coordinate, fold with pairing."""
    parts = [zigzag(c) for c in coords]
    code = parts[-1]
    for p in reversed(parts[:-1]):
        code = cantor_pair(p, code)
    return code


def unpack_vector(code: int, dim: int) -> tuple[int, ...]:
    parts = []
    for _ in range(dim - 1):
        p, code = cantor_unpair(code)
        parts.append(p)
    parts.append(code)
    return tuple(unzigzag(p) for p in parts)


def subset_code(codes) -> int:
    """Goedel number of a finite subset of N (bitmask coding)."""
    mask = 0
    for c in codes:
        mask |= 1 << c
    return mask


def subset_decode(mask: int) -> tuple[int, ...]:
    out = []
    pos = 0
    while mask:
        if mask & 1:
            out.append(pos)
        mask >>= 1
        pos += 1
    return tuple(out)


def canonical_subset(codes) -> tuple[int, ...]:
    """Strictly increasing code tuple; rejects non-integer, negative and
    duplicate codes.  A bool is not a code."""
    out = tuple(sorted(codes))
    if out and set(map(type, out)) != {int}:
        raise ValueError("non-integer code in finite subset")
    if out and out[0] < 0:
        raise ValueError("negative code %d in finite subset" % out[0])
    if len(set(out)) != len(out):
        twin = next(a for a, b in zip(out, out[1:]) if a == b)
        raise ValueError("duplicate code %d in finite subset" % twin)
    return out


# ---------------------------------------------------------------------------
# oracles


class GroupOracle:
    """Base class for numbered-group oracles.

    Subclasses fix ``spec``, ``mode`` and the element coding.  ``canon``
    returns the canonical code of the element a code denotes; in COMPUTABLE
    mode it is the identity map except for the mod-m normalisation of
    finite cyclic groups.
    """

    spec: str
    mode: str
    identity = 0
    element_count: int | None = None  # None = infinite
    generator_names: dict[str, int] = {}

    def mult(self, x: int, y: int) -> int:
        raise NotImplementedError

    def inv(self, x: int) -> int:
        raise NotImplementedError

    def canon(self, x: int) -> int:
        return x

    def mult_row(self, a: int, codes) -> list[int]:
        """The products a * c for c in codes, in order; families override it
        to decode a once."""
        return list(map(self.mult, itertools.repeat(a), codes))

    def mult_rows(self, steps, codes) -> list[list[int]]:
        """The rows ``mult_row(a, codes)`` for a in steps, in order, read
        from a collection of codes.  A :class:`BallLayer` makes the rows it
        lacks with one call, so a family that decodes codes (the
        lamplighter) overrides it to decode each code once for all rows."""
        return [self.mult_row(a, codes) for a in steps]

    # CE-mode surface; COMPUTABLE families leave these unimplemented.
    def multt_enum(self, m: int) -> tuple[int, int, int]:
        raise PreconditionError("multt_enum requires a CE-mode oracle")

    def eq_enum(self, m: int) -> tuple[int, int]:
        raise PreconditionError("eq_enum requires a CE-mode oracle")

    def eq_entries_within(self, codes, limit: int):
        """(m, i, j) for each entry m < limit of the equal-codes enumeration
        with both codes in ``codes``, ascending in m; families override it
        to skip the entries that cannot qualify."""
        for m, (i, j) in enumerate(map(self.eq_enum, range(limit))):
            if i in codes and j in codes:
                yield m, i, j

    def __repr__(self):
        return "<%s %s mode=%s>" % (type(self).__name__, self.spec, self.mode)


# an oracle's decode memo keeps at most this many codes; it starts over past it
_DECODE_CACHE_SIZE = 1 << 16


class FreeGroupOracle(GroupOracle):
    """Free group of rank k under the length-lex reduced word coding.

    Letters are numbered 0..2k-1 with letter 2i the i-th generator and
    letter 2i+1 its inverse; the inverse of a letter is its xor with 1.
    ``mult`` computes a product from the two codes' digits, and
    ``mult_row`` is the same arithmetic for a row of products a * c with a
    decoded once, as the doubling graph of a key asks for its neighbours
    (``mult_rows`` over the key).
    """

    mode = COMPUTABLE

    def __init__(self, rank: int):
        if rank < 1:
            raise MalformedSpecError("free group rank must be >= 1")
        self.rank = rank
        self.spec = "free:%d" % rank
        self._alphabet = 2 * rank
        # cumulative counts of reduced words of length < L, and the powers
        # (2k-1)^L, grown together
        self._offsets = [0, 1]
        self._powers = [1, self._alphabet - 1]
        self._decode_cache: dict[int, tuple[int, ...]] = {}
        names = "abcdefghijklmnopqrstuvwxyz"
        self.generator_names = {
            names[i]: self.encode_word((2 * i,)) for i in range(min(rank, 26))
        }

    def _offset(self, length: int) -> int:
        offsets, powers = self._offsets, self._powers
        while len(offsets) <= length:
            n = len(offsets) - 1
            offsets.append(offsets[-1] + self._alphabet * powers[n - 1])
            powers.append(powers[-1] * (self._alphabet - 1))
        return offsets[length]

    def encode_word(self, word: tuple[int, ...]) -> int:
        if not word:
            return 0
        a = self._alphabet
        idx = word[0]
        for prev, cur in zip(word, word[1:]):
            bad = prev ^ 1
            r = cur if cur < bad else cur - 1
            idx = idx * (a - 1) + r
        return self._offset(len(word)) + idx

    def decode_word(self, code: int) -> tuple[int, ...]:
        if code == 0:
            return ()
        cached = self._decode_cache.get(code)
        if cached is not None:
            return cached
        length = 1
        while self._offset(length + 1) <= code:
            length += 1
        idx = code - self._offset(length)
        a = self._alphabet
        rs = []
        for _ in range(length - 1):
            idx, r = divmod(idx, a - 1)
            rs.append(r)
        word = [idx]
        for r in reversed(rs):
            bad = word[-1] ^ 1
            word.append(r if r < bad else r + 1)
        out = tuple(word)
        if len(self._decode_cache) >= _DECODE_CACHE_SIZE:
            self._decode_cache.clear()
        self._decode_cache[code] = out
        return out

    @staticmethod
    def reduce(letters) -> tuple[int, ...]:
        out = []
        for l in letters:
            if out and out[-1] == l ^ 1:
                out.pop()
            else:
                out.append(l)
        return tuple(out)

    def mult(self, x: int, y: int) -> int:
        """Code of the reduced product, computed from the two codes.

        A word of length L >= 1 has code offset(L) + index, and its index
        has the first letter as its top digit, in base 2k, and then one
        digit in base 2k-1 per further letter: the letter's rank among the
        2k-1 letters that do not cancel the one before it.  With c letters
        cancelling where x meets y, the product keeps the top len(x) - c
        digits of x's index (x's index divided by (2k-1)^c) and the low
        len(y) - c - 1 digits of y's index (y's index modulo (2k-1) to that
        power).  The one digit between them, for y's first surviving letter,
        is recomputed against x's last surviving letter, or is the letter
        itself when nothing of x survives.  Equal to
        ``encode_word(reduce(decode_word(x) + decode_word(y)))``.
        """
        if not x:
            return y
        if not y:
            return x
        cache = self._decode_cache
        wx = cache.get(x) or self.decode_word(x)
        wy = cache.get(y) or self.decode_word(y)
        lx, ly = len(wx), len(wy)
        c = 0
        while c < lx and c < ly and wx[lx - 1 - c] == wy[c] ^ 1:
            c += 1
        keep_x, keep_y = lx - c, ly - c
        offsets, powers = self._offsets, self._powers
        if not keep_y:
            if not keep_x:
                return 0
            return offsets[keep_x] + (x - offsets[lx]) // powers[c]
        low = (y - offsets[ly]) % powers[keep_y - 1]
        letter = wy[c]
        if keep_x:
            bad = wx[keep_x - 1] ^ 1
            digit = letter if letter < bad else letter - 1
            high = (x - offsets[lx]) // powers[c] * (self._alphabet - 1) + digit
        else:
            high = letter
        length = keep_x + keep_y
        if length >= len(offsets):
            self._offset(length)
        return offsets[length] + high * powers[keep_y - 1] + low

    def mult_row(self, a: int, codes) -> list[int]:
        """The products a * c for c in codes, by ``mult``'s code arithmetic
        with a decoded once: for each number c of a's letters that may
        cancel, the code of a's surviving part and its top digits are
        computed before the row."""
        if not a:
            return list(codes)
        cache, decode = self._decode_cache, self.decode_word
        wa = cache.get(a) or decode(a)
        la = len(wa)
        offsets, powers = self._offsets, self._powers
        top, m = a - offsets[la], self._alphabet - 1
        undo = [l ^ 1 for l in reversed(wa)]  # y's letters that cancel a's
        # per c: a's top la - c digits, shifted one digit up, the letter
        # that its last surviving letter forbids next, and the product when
        # all of y cancels
        high = [top // powers[c] * m for c in range(la)]
        bad = [wa[la - 1 - c] ^ 1 for c in range(la)]
        whole = [offsets[la - c] + top // powers[c] for c in range(la)] + [0]
        out = []
        for y in codes:
            if not y:
                out.append(a)
                continue
            wy = cache.get(y) or decode(y)
            ly = len(wy)
            c = 0
            while c < la and c < ly and undo[c] == wy[c]:
                c += 1
            keep_y = ly - c
            if not keep_y:
                out.append(whole[c])
                continue
            letter = wy[c]
            if c < la:
                letter = high[c] + (letter if letter < bad[c] else letter - 1)
            length = la - c + keep_y
            if length >= len(offsets):
                self._offset(length)
            p = powers[keep_y - 1]
            out.append(offsets[length] + letter * p + (y - offsets[ly]) % p)
        return out

    def inv(self, x: int) -> int:
        return self.encode_word(tuple(l ^ 1 for l in reversed(self.decode_word(x))))

    def word_length(self, x: int) -> int:
        return len(self.decode_word(x))


# the largest zd dimension: a product decodes all d coordinates before any
# charge, so a larger d would make each step cost time in proportion to d
MAX_ZD_DIM = 64


class ZdOracle(GroupOracle):
    """Free abelian group Z^d with the zig-zag/Cantor coding, 1 <= d <=
    ``MAX_ZD_DIM``."""

    mode = COMPUTABLE

    def __init__(self, dim: int):
        if not 1 <= dim <= MAX_ZD_DIM:
            raise MalformedSpecError("zd dimension must be 1 to %d, got %d"
                                     % (MAX_ZD_DIM, dim))
        self.dim = dim
        self.spec = "zd:%d" % dim
        self._decode_cache: dict[int, tuple[int, ...]] = {}

    def encode_vector(self, coords) -> int:
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError("expected %d coordinates" % self.dim)
        return pack_vector(coords)

    def decode_vector(self, code: int) -> tuple[int, ...]:
        """``unpack_vector`` of the code, memoised like ``decode_word``;
        :meth:`box_codes` puts a box's vectors into the memo in bulk."""
        out = self._decode_cache.get(code)
        if out is None:
            out = unpack_vector(code, self.dim)
            if len(self._decode_cache) >= _DECODE_CACHE_SIZE:
                self._decode_cache.clear()
            self._decode_cache[code] = out
        return out

    def mult(self, x: int, y: int) -> int:
        return self.mult_row(x, (y,))[0]

    def box_codes(self, ranges) -> tuple[int, ...]:
        """Sorted codes of the box ``itertools.product(*ranges)``, for a
        sequence of ranges: each axis is zig-zagged once, and the codes are
        folded from the right with the Cantor pairing, as
        :func:`pack_vector` does, in the product's order.  The box's vectors
        enter the decode memo in bulk, which starts over first when they
        would not fit."""
        *axes, codes = [list(map(zigzag, r)) for r in ranges]
        for axis in reversed(axes):
            codes = [(s := p + c) * (s + 1) // 2 + c for p in axis for c in codes]
        if len(self._decode_cache) + len(codes) > _DECODE_CACHE_SIZE:
            self._decode_cache.clear()
        points = zip(codes, itertools.product(*ranges))
        self._decode_cache.update(itertools.islice(points, _DECODE_CACHE_SIZE))
        return tuple(sorted(codes))

    def mult_row(self, a: int, codes) -> list[int]:
        """The products a * c, decoding a once and packing each sum of
        vectors as :func:`pack_vector` does: the last coordinate's zig-zag,
        folded from the right with the Cantor pairing, reading both vectors
        by index.  ``mult`` is a one-element row."""
        va, rest = self.decode_vector(a), range(self.dim - 2, -1, -1)
        cache, decode, out = self._decode_cache, self.decode_vector, []
        for c in codes:
            vc = cache.get(c) or decode(c)
            z = va[-1] + vc[-1]
            code = 2 * z - 1 if z > 0 else -2 * z
            for i in rest:
                z = va[i] + vc[i]
                s = code + (2 * z - 1 if z > 0 else -2 * z)
                code += s * (s + 1) >> 1
            out.append(code)
        return out

    def inv(self, x: int) -> int:
        return pack_vector(tuple(-u for u in self.decode_vector(x)))


class CyclicOracle(GroupOracle):
    """Z/mZ with residue codes 0..m-1.

    A finite group admits no bijective numbering of all of N, so the
    canonical code range is finite and ``canon`` reduces mod m (the mod-map
    constructivization); on canonical codes the numbering is a bijection.
    """

    mode = COMPUTABLE

    def __init__(self, modulus: int):
        if modulus < 2:
            raise MalformedSpecError("cyclic modulus must be >= 2")
        self.modulus = modulus
        self.spec = "cyclic:%d" % modulus
        self.element_count = modulus

    def canon(self, x: int) -> int:
        return x % self.modulus

    def mult(self, x: int, y: int) -> int:
        return (x + y) % self.modulus

    def inv(self, x: int) -> int:
        return (-x) % self.modulus


def _moved_lamps(mask: int, by: int) -> int:
    """The lamplighter lamp mask of the lamps of ``mask`` moved by ``by``,
    with whole-mask bit operations.

    Lamp p is bit zigzag(p): the lamps p >= 1 are the odd bits 2p - 1 and
    the lamps p <= 0 the even bits -2p.  A move by b = |by| away from 0
    (the odd bits for by > 0, the even bits for by < 0) shifts that class up
    by 2b.  The other class shifts down by 2b, except for its bits below 2b:
    those are the b lamps that cross 0, and bit i of them lands on bit
    2b - 1 - i of the first class, placed one by one.
    """
    shift = 2 * abs(by)
    # 0b0101...01 with at least mask.bit_length() digits
    evens = mask & ((1 << (mask.bit_length() | 1) + 1) - 1) // 3
    up, down = (mask ^ evens, evens) if by > 0 else (evens, mask ^ evens)
    out = up << shift | down >> shift
    cross = down & (1 << shift) - 1
    while cross:
        low = cross & -cross
        out |= 1 << shift - low.bit_length()
        cross ^= low
    return out


def _lamplighter_rows(steps, codes) -> list[list[int]]:
    """Lamplighter rows a * c for c in codes, one per step a.

    Each code is decoded once for all the rows, into a lamp mask and a
    cursor, and each step once.  The steps of one cursor share the codes'
    moved masks, each distinct mask moved once (:func:`_moved_lamps`; a
    cursor of 0 moves none), and the zig-zags of the product cursors.  So a
    row is one xor with the step's mask and one Cantor pairing per code.
    """
    masks, cursors = [], []
    # cantor_unpair, the cursor's zig-zag both ways and cantor_pair, inlined
    for c in codes:
        s = math.isqrt(8 * c + 1) - 1 >> 1
        zc = c - (s * (s + 1) >> 1)
        masks.append(s - zc)
        cursors.append(-(zc >> 1) if zc & 1 == 0 else zc + 1 >> 1)
    by_cursor, rows = {}, []
    for a in steps:
        mask_a, za = cantor_unpair(a)
        ca = unzigzag(za)
        if ca not in by_cursor:
            memo = {}
            moved = [memo[m] if m in memo else memo.setdefault(m, _moved_lamps(m, ca))
                     for m in masks] if ca else masks
            zps = [2 * z - 1 if (z := ca + cc) > 0 else -2 * z for cc in cursors]
            by_cursor[ca] = moved, zps
        moved, zps = by_cursor[ca]
        rows.append([((s := (mask_a ^ m) + zp) * (s + 1) >> 1) + zp
                     for m, zp in zip(moved, zps)])
    return rows


class LamplighterOracle(GroupOracle):
    """Z2 wr Z: elements are (finite lamp set, cursor) pairs.

    Multiplication shifts the right factor's lamps by the left cursor and
    takes the symmetric difference.  Generators: ``t`` moves the cursor,
    ``s`` toggles the lamp at position 0.

    The arithmetic works on the codes' lamp masks, where lamp p is bit
    zigzag(p).  Zig-zag is a bijection, so the symmetric difference of two
    lamp sets is the xor of their masks, and the shifted factor's mask is
    moved whole, two shifts and the lamps that cross 0 (:func:`_moved_lamps`).
    ``mult_rows`` is the one kernel (:func:`_lamplighter_rows`): a ball
    layer's rows come from one call that decodes each code once;
    ``mult_row`` is a one-step ``mult_rows`` and ``mult`` a one-element row.
    """

    mode = COMPUTABLE

    def __init__(self):
        self.spec = "lamplighter"
        self.generator_names = {
            "s": self.encode_element(frozenset([0]), 0),
            "t": self.encode_element(frozenset(), 1),
        }

    @staticmethod
    def encode_element(lamps: frozenset, cursor: int) -> int:
        return cantor_pair(subset_code(map(zigzag, lamps)), zigzag(cursor))

    @staticmethod
    def decode_element(code: int) -> tuple[frozenset, int]:
        mask, zc = cantor_unpair(code)
        lamps = frozenset(unzigzag(p) for p in subset_decode(mask))
        return lamps, unzigzag(zc)

    mult_rows = staticmethod(_lamplighter_rows)

    def mult_row(self, a: int, codes) -> list[int]:
        return _lamplighter_rows((a,), codes)[0]

    def mult(self, x: int, y: int) -> int:
        return _lamplighter_rows((x,), (y,))[0][0]

    def inv(self, x: int) -> int:
        mask, zc = cantor_unpair(x)
        c = unzigzag(zc)
        return cantor_pair(_moved_lamps(mask, -c), zigzag(-c))


class RedundantZOracle(GroupOracle):
    """CE presentation of Z on two generators x, y subject to x = y.

    Codes enumerate all words over x, x^-1, y, y^-1 length-lexicographically
    (letters 0..3 in that order), so the numbering is far from injective:
    the value of a word is its exponent sum.  ``mult`` concatenates and
    freely reduces (in the rank-2 free group, never using x = y), which
    keeps the group laws exact on codes.

    Enumeration schedules are level-based and therefore reach all pairs and
    triples of bounded codes within a quadratic/cubic number of entries:

    * ``eq_enum`` emits, for N = 0, 1, ..., first the reflexive pair (N, N)
      and then (i, N), (N, i) for each i < N of equal value;
    * ``multt_enum`` emits all true triples with max coordinate N in
      lexicographic order.

    Both levels are read off value buckets, the codes 0, 1, ... sorted into
    one ascending list per value.  :meth:`_eq_levels` walks the eq levels
    with buckets of its own: the i of level N are the bucket of v(N) below
    N, O(output) per level, with each code's value read from a block of the
    values of one length, made from the block before it; no code is
    decoded.  ``eq_enum`` grows its stream from one walk that the oracle
    keeps, and each ``eq_entries_within`` runs a fresh one.
    ``multt_enum`` keeps the buckets of the codes up to its level N.  At
    multt level N, a first coordinate i < N is followed by the j < N of the
    bucket of v(N) - v(i), each with k = N, and then by j = N with the k <= N
    of the bucket of v(i) + v(N); i = N takes every j <= N with the k <= N of
    the bucket of v(N) + v(j).  That is the lexicographic order, in
    O(N + output) per level.
    """

    mode = CE

    def __init__(self):
        self.spec = "redundant-z"
        self.generator_names = {"x": 1, "y": 3}
        self._eq_stream: list[tuple[int, int]] = []
        self._eq_walk = self._eq_levels()
        self._multt_stream: list[tuple[int, int, int]] = []
        self._multt_buckets: dict[int, list[int]] = {}
        self._multt_level = 0

    # words over 4 letters; offset(L) = (4^L - 1) / 3, which is also the
    # mask 0b0101...01 of the low bit of each of L base-4 digits
    @staticmethod
    def _offset(length: int) -> int:
        return ((4 ** length) - 1) // 3

    @staticmethod
    def _length(code: int) -> int:
        """The length L of the word, from offset(L) <= code < offset(L + 1),
        that is 4^L <= 3 code + 1 < 4^(L + 1)."""
        return ((3 * code + 1).bit_length() - 1) // 2

    def encode_word(self, word: tuple[int, ...]) -> int:
        code = 0
        for l in word:
            code = code * 4 + l
        return self._offset(len(word)) + code

    def decode_word(self, code: int) -> tuple[int, ...]:
        length = self._length(code)
        rest = code - self._offset(length)
        word = []
        for _ in range(length):
            rest, l = divmod(rest, 4)
            word.append(l)
        return tuple(reversed(word))

    def value(self, code: int) -> int:
        """Exponent sum of the word, i.e. the integer the code denotes: the
        length less twice the number of inverse letters, which are the odd
        base-4 digits of code - offset(length)."""
        length = self._length(code)
        odd = self._offset(length)
        return length - 2 * ((code - odd) & odd).bit_count()

    def canon(self, x: int) -> int:
        v = self.value(x)
        return self.encode_word((0,) * v if v >= 0 else (1,) * (-v))

    def mult(self, x: int, y: int) -> int:
        word = FreeGroupOracle.reduce(self.decode_word(x) + self.decode_word(y))
        return self.encode_word(word)

    inv = FreeGroupOracle.inv  # x, x^-1, y, y^-1 are letters 0..3, as in free:2

    def _eq_levels(self):
        """The levels n = 0, 1, ... of the equal-codes stream, as
        (start, n, below).  Level n begins at entry ``start`` with (n, n),
        and then holds (i, n), (n, i) at offsets 1 + 2 j and 2 + 2 j for the
        j-th code i of ``below``: the codes i < n of value v(n), ascending.
        The walk keeps its own value buckets; ``below`` is one of them, and
        gains n when the walk moves on to the next level.

        Block L holds the values of the length-L codes in code order, from
        [0] for the empty word.  A word's last letter is its low base-4
        digit, and x, x^-1, y, y^-1 add 1, -1, 1, -1, so block L + 1 lists
        v + 1, v - 1, v + 1, v - 1 for each v of block L: about three times
        as many values as the codes before it."""
        buckets, start, n, block = {}, 0, -1, [0]  # n: the last code walked
        while True:
            for n, v in enumerate(block, n + 1):
                below = buckets.setdefault(v, [])
                yield start, n, below
                start += 1 + 2 * len(below)
                below.append(n)
            block = [v + s for v in block for s in (1, -1, 1, -1)]

    def eq_enum(self, m: int) -> tuple[int, int]:
        stream = self._eq_stream
        while len(stream) <= m:
            _, n, below = next(self._eq_walk)
            stream.append((n, n))
            for i in below:
                stream += ((i, n), (n, i))
        return stream[m]

    def eq_entries_within(self, codes, limit: int):
        """A fresh walk of :meth:`_eq_levels` that reads entries only at the
        levels in ``codes``; a level above max(codes) holds its own code, so
        nothing past it qualifies."""
        top = max(codes, default=-1)
        for start, n, below in self._eq_levels():
            if n > top or start >= limit:
                return
            if n in codes:
                yield start, n, n
                for j, i in enumerate(below):
                    if i in codes:
                        m = start + 1 + 2 * j
                        if m >= limit:
                            return
                        yield m, i, n
                        if m + 1 < limit:
                            yield m + 1, n, i

    def multt_enum(self, m: int) -> tuple[int, int, int]:
        stream, buckets = self._multt_stream, self._multt_buckets
        while len(stream) <= m:
            n = self._multt_level
            vn = self.value(n)
            buckets.setdefault(vn, []).append(n)  # the codes up to n, by value
            for i in range(n):
                vi = self.value(i)
                stream += ((i, j, n) for j in buckets.get(vn - vi, ()) if j < n)
                stream += ((i, n, k) for k in buckets.get(vi + vn, ()))
            for j in range(n + 1):
                stream += ((n, j, k) for k in buckets.get(vn + self.value(j), ()))
            self._multt_level += 1
        return stream[m]


class CEView(GroupOracle):
    """A computable oracle with injective numbering re-exposed in CE mode.

    The multiplication table {(i, j, k) : v(i)v(j) = v(k)} has exactly one k
    per pair, so the fixed dovetail enumerates Cantor pairs (i, j) and emits
    (i, j, i*j); the equal-codes relation is the diagonal.
    """

    mode = CE

    def __init__(self, base: GroupOracle):
        if base.mode != COMPUTABLE or base.element_count is not None:
            raise PreconditionError(
                "CEView wraps infinite computable families with bijective numbering"
            )
        self.base = base
        self.spec = base.spec
        self.generator_names = base.generator_names

    def mult(self, x: int, y: int) -> int:
        return self.base.mult(x, y)

    def inv(self, x: int) -> int:
        return self.base.inv(x)

    def multt_enum(self, m: int) -> tuple[int, int, int]:
        i, j = cantor_unpair(m)
        return i, j, self.base.mult(i, j)

    def eq_enum(self, m: int) -> tuple[int, int]:
        return m, m

    def eq_entries_within(self, codes, limit: int):
        """The diagonal entries (m, m, m) for m in ``codes`` below
        ``limit``, ascending: the default's sequence, without reading the
        entries between them."""
        return ((m, m, m) for m in sorted(codes) if m < limit)


# ---------------------------------------------------------------------------
# spec parsing and module-level operation surface

_SPEC_RE = re.compile(r"^(free|zd|cyclic):(\d+)$")


def make_group(spec: str) -> GroupOracle:
    """Build the oracle named by the group DSL.

    Grammar: ``free:<k>=1..> | zd:<d>=1..> | cyclic:<m>=2..> | lamplighter |
    redundant-z``.
    """
    if not isinstance(spec, str):
        raise MalformedSpecError("group spec must be a string")
    s = spec.strip()
    if s == "lamplighter":
        return LamplighterOracle()
    if s == "redundant-z":
        return RedundantZOracle()
    m = _SPEC_RE.match(s)
    if not m:
        raise MalformedSpecError("unrecognised group spec %r" % spec)
    try:
        kind, num = m.group(1), int(m.group(2))
    except ValueError:  # more digits than int() reads
        raise MalformedSpecError("group spec %r... has too many digits" % spec[:20])
    if kind == "free":
        return FreeGroupOracle(num)
    if kind == "zd":
        return ZdOracle(num)
    return CyclicOracle(num)


def eq_semidecide(g: GroupOracle, x: int, y: int, b: Budget):
    """Scan the equal-codes enumeration for (x, y); EQUAL or UNKNOWN.

    Identical codes are equal outright (the enumeration starts every level
    with its reflexive pair, so this only short-circuits the scan).  Budget
    counts enumeration entries, read or skipped by ``eq_entries_within``:
    the entries up to (x, y) or (y, x), or all of them plus one.
    """
    require_mode(g, CE, "eq_semidecide")
    meter = b.meter()
    if x == y:
        return "EQUAL"
    for m, i, j in g.eq_entries_within({x, y}, meter.remaining):
        if i != j:
            meter.charge(m + 1)
            return "EQUAL"
    meter.charge(meter.remaining + 1)  # fails, and empties the meter
    return UNKNOWN


class BallLayer:
    """The newest layer L_r of a ball B_r, multiplied by its steps on demand.

    ``ball`` is B_r as a set and ``codes`` is L_r.  :meth:`make` makes the
    rows a L_r of the steps it is given that no call has made yet, all with
    one ``mult_rows`` call, and keeps the products outside B_r in
    ``outside``, which is the next layer once every step has been made.
    The caller charges for the rows before it asks for them.
    """

    def __init__(self, g: GroupOracle, codes, ball: set):
        self.g, self.codes, self.ball = g, codes, ball
        self.outside, self._leaving = set(), {g.identity: 0}

    def make(self, steps):
        """Make the rows of the distinct steps not made yet, |L_r| products
        each, in one ``mult_rows`` call; the identity's row is never made."""
        todo = [a for a in steps if a not in self._leaving]
        for a, row in zip(todo, self.g.mult_rows(todo, self.codes)):
            out = set(row) - self.ball
            self.outside |= out
            self._leaving[a] = len(out)

    def leaving(self, a: int) -> int:
        """|a L_r \\ B_r| for a step a that :meth:`make` has made."""
        return self._leaving[a]


def ball_growth(g: GroupOracle, gens, meter=None):
    """The balls of :func:`ball_layers` as :class:`BallLayer` states.

    With step = {e} u gens u gens^-1, the ball B_{r+1} = step B_r adds to
    B_r only products a f with f in L_r, since step B_{r-1} = B_r; the
    identity adds none.  So L_{r+1} is the ``outside`` of L_r once every
    other step is made.  With a meter, that layer is charged |step| x |L_r|
    first; then one :meth:`BallLayer.make` call makes the rest of the step,
    the rows the consumer has not already made (see
    :func:`folnerlab.folner.search_folner`).  Once the meter cannot pay,
    the generator yields None and stops before that call.  Drawing the
    next state extends the last one's ball in place.
    """
    step = {g.identity, *gens, *(g.inv(x) for x in gens)}
    ball = {g.identity}
    layer = BallLayer(g, (g.identity,) if gens else (), ball)
    yield layer
    while layer.codes:
        if meter is not None and not meter.charge(len(step) * len(layer.codes)):
            yield None
            return
        layer.make(step)
        if not layer.outside:
            return
        ball |= layer.outside
        layer = BallLayer(g, layer.outside, ball)
        yield layer


def ball_layers(g: GroupOracle, gens, meter=None):
    """Balls of radius 0, 1, 2, ... in the subgroup generated by gens, as
    sorted code tuples, until they stop growing.

    Each ball adds the products a * s of a step a (a generator or an
    inverse) with a code s new in the previous ball.  With a meter, each
    layer is charged one step per product a * s, the identity's included,
    before it is built; once the meter cannot pay, the generator yields None
    and stops.  :func:`ball_growth` builds the balls.
    """
    for layer in ball_growth(g, gens, meter):
        yield None if layer is None else tuple(sorted(layer.ball))


def ball(g: GroupOracle, gens, radius: int) -> tuple[int, ...]:
    """All products of at most ``radius`` factors from gens, their inverses
    and the identity, as a sorted code tuple."""
    require_mode(g, COMPUTABLE, "ball")
    layers = ball_layers(g, canonical_subset(gens))
    *_, last = itertools.islice(layers, max(radius, 0) + 1)
    return last


# ---------------------------------------------------------------------------
# element literals (used by the CLI and the demos)

_WORD_TOKEN = re.compile(r"([a-zA-Z])(?:\^(-?\d+))?")

# the most factors one generator word may expand to, the sum of |k| over its
# tokens a^k: a free-group word of this many factors parses in well under a
# second, and a longer one is malformed input before any factor is made
MAX_WORD_FACTORS = 1000


def _word_tokens(g: GroupOracle, text: str) -> list[tuple[str, int]]:
    """The tokens a^k of a generator word such as "ab^-1", in order, as
    (a, k).  ValueError for a token that does not parse, for a letter that
    is not one of the family's generators and for a word of more than
    ``MAX_WORD_FACTORS`` factors, the sum of |k| over its tokens."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if not m:
            raise ValueError("cannot parse element %r for %s" % (text, g.spec))
        name, exp = m.group(1), int(m.group(2) or 1)
        if name not in g.generator_names:
            raise ValueError("unknown generator %r for %s" % (name, g.spec))
        tokens.append((name, exp))
        pos = m.end()
    if sum(abs(exp) for _, exp in tokens) > MAX_WORD_FACTORS:
        raise ValueError("element %r has more than %d factors"
                         % (text, MAX_WORD_FACTORS))
    return tokens


def _word_factors(g: GroupOracle, text: str) -> list:
    """The factors of a generator word, in order: a token a^k gives |k|
    copies of the generator a, or of its inverse for k < 0."""
    factors = []
    for name, exp in _word_tokens(g, text):
        gen = g.generator_names[name]
        factors += [gen if exp >= 0 else g.inv(gen)] * abs(exp)
    return factors


def parse_element(g: GroupOracle, text: str) -> int:
    """Parse one element literal appropriate for the family of ``g``.

    Free, lamplighter and redundant-z take generator words ("a", "ab^-1"),
    with "1" and "e" for the identity; free and lamplighter words are the
    product of their factors, and redundant-z words are kept unreduced
    ("xx^-1" is the two-letter word of code 6).  A free or redundant-z
    word is coded once from its letters, freely reduced on free groups;
    a lamplighter word is walked token by token, with no product.  zd:1
    and cyclic take integers ("+1", "-3", "7"); zd:d with d >= 2 takes
    coordinate tuples ("(1,0)").
    """
    text = text.strip()
    g = g.base if isinstance(g, CEView) else g  # a view's literals are its base's
    if isinstance(g, ZdOracle):
        if g.dim == 1:
            try:
                return g.encode_vector((int(text),))
            except ValueError:
                raise ValueError("zd:1 elements are integers, got %r" % text)
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("zd:%d elements are tuples like (1,0)" % g.dim)
        try:
            coords = tuple(int(p) for p in text[1:-1].split(","))
        except ValueError:
            raise ValueError("bad coordinates in %r" % text)
        return g.encode_vector(coords)
    if isinstance(g, CyclicOracle):
        try:
            return int(text) % g.modulus
        except ValueError:
            raise ValueError("cyclic elements are integers, got %r" % text)
    if text in ("1", "e"):
        return g.identity
    if isinstance(g, LamplighterOracle):
        # one walk: s^k toggles the lamp under the cursor for odd k, t^k
        # moves the cursor by k
        mask = cursor = 0
        for name, exp in _word_tokens(g, text):
            if name == "t":
                cursor += exp
            elif exp & 1:
                mask ^= 1 << zigzag(cursor)
        return cantor_pair(mask, zigzag(cursor))
    letters = tuple(l for f in _word_factors(g, text) for l in g.decode_word(f))
    return g.encode_word(g.reduce(letters) if isinstance(g, FreeGroupOracle) else letters)


def split_element_list(text: str) -> list[str]:
    """Split a comma-separated element list, respecting parentheses."""
    parts = []
    depth = 0
    cur = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    if cur.strip() or not parts:
        parts.append(cur)
    return parts


def parse_elements(g: GroupOracle, text: str) -> tuple[int, ...]:
    """Parse a comma-separated element list into a sorted code set."""
    return canonical_subset(parse_element(g, p) for p in split_element_list(text))
