"""Independent reference answers for the benchmark's correctness checks.

Nothing here imports folnerlab.  The integer codings are re-derived from
their documented definitions (README.md and the ``groups`` module
docstring), so a fault in the library cannot vouch for itself.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# integer codings


def zigzag(z: int) -> int:
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


# ---------------------------------------------------------------------------
# Z^d: zig-zag per coordinate, folded right to left with Cantor pairing


def zd_encode(vec) -> int:
    parts = [zigzag(c) for c in vec]
    code = parts[-1]
    for p in reversed(parts[:-1]):
        code = cantor_pair(p, code)
    return code


def zd_decode(code: int, dim: int) -> tuple[int, ...]:
    parts = []
    for _ in range(dim - 1):
        p, code = cantor_unpair(code)
        parts.append(p)
    parts.append(code)
    return tuple(unzigzag(p) for p in parts)


def zd_literal(vec) -> str:
    """CLI element literal: "+3" on zd:1, "(1,-2)" otherwise."""
    if len(vec) == 1:
        return "%+d" % vec[0]
    return "(%s)" % ",".join(str(c) for c in vec)


def zd_mult(dim: int):
    def mult(x: int, y: int) -> int:
        a, b = zd_decode(x, dim), zd_decode(y, dim)
        return zd_encode(tuple(u + v for u, v in zip(a, b)))

    return mult


# ---------------------------------------------------------------------------
# lamplighter Z2 wr Z: (lamp bitmask over zig-zagged positions, zig-zag cursor)


def lamp_decode(code: int) -> tuple[frozenset, int]:
    mask, zc = cantor_unpair(code)
    lamps = set()
    pos = 0
    while mask:
        if mask & 1:
            lamps.add(unzigzag(pos))
        mask >>= 1
        pos += 1
    return frozenset(lamps), unzigzag(zc)


def lamp_encode(lamps, cursor: int) -> int:
    mask = 0
    for p in lamps:
        mask |= 1 << zigzag(p)
    return cantor_pair(mask, zigzag(cursor))


def lamp_mult(x: int, y: int) -> int:
    la, ca = lamp_decode(x)
    lb, cb = lamp_decode(y)
    return lamp_encode(la ^ frozenset(p + ca for p in lb), ca + cb)


# ---------------------------------------------------------------------------
# Folner defects, non-strict: F is n-Folner for D when n|F \ xF| <= |F|


def is_n_folner(mult, F, D, n: int) -> bool:
    F_set = set(F)
    if not F_set or len(F_set) != len(F):
        return False
    for x in D:
        moved = {mult(x, f) for f in F_set}
        if n * len(F_set - moved) > len(F_set):
            return False
    return True


# ---------------------------------------------------------------------------
# redundant-z: length-lex words over x, x^-1, y, y^-1 (letters 0..3)


def rz_encode(word) -> int:
    code = 0
    for letter in word:
        code = code * 4 + letter
    return (4 ** len(word) - 1) // 3 + code


def rz_value(code: int) -> int:
    """Exponent sum of the word a redundant-z code names."""
    length = 0
    while (4 ** (length + 1) - 1) // 3 <= code:
        length += 1
    rest = code - (4 ** length - 1) // 3
    value = 0
    for _ in range(length):
        rest, letter = divmod(rest, 4)
        value += 1 if letter % 2 == 0 else -1
    return value


def rz_literal(word) -> str:
    return "".join(("x", "x^-1", "y", "y^-1")[letter] for letter in word)


def kappa_invariant(values: dict, D, n: int) -> bool:
    """Canonical-form verdict for ``kappa``: the pushforward h of f to Z is
    n-invariant when sum |h - x.h| <= |h| / n for every x in D (non-strict,
    the convention ``verify_invariance_ce`` documents)."""
    h: dict[int, Fraction] = {}
    for code, q in values.items():
        v = rz_value(code)
        h[v] = h.get(v, Fraction(0)) + q
    total = sum(h.values(), Fraction(0))
    for x in D:
        s = rz_value(x)
        shifted = {v + s: q for v, q in h.items()}
        num = sum(
            (abs(h.get(v, Fraction(0)) - shifted.get(v, Fraction(0)))
             for v in set(h) | set(shifted)),
            Fraction(0),
        )
        if num * n > total:
            return False
    return True


# ---------------------------------------------------------------------------
# finite harem pieces


def harem_feasible(nb_masks, interior_mask: int, k: int) -> bool:
    """Brute force over B-side bitmasks: can every A-vertex take exactly k
    distinct neighbours, no B-vertex used twice, all interior ones used?"""
    frontier = {0}
    for mask in nb_masks:
        bits = [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
        options = [sum(c) for c in itertools.combinations(bits, k)]
        frontier = {used | opt for used in frontier for opt in options
                    if not used & opt}
        if not frontier:
            return False
    return any(used & interior_mask == interior_mask for used in frontier)


def harem_matching_ok(A, B, adj, boundary, k: int, matching) -> bool:
    """Exact multiplicity k on A, each B at most once, interior B saturated."""
    if set(matching) != set(A):
        return False
    used = []
    for a in A:
        bs = matching[a]
        if len(bs) != k or len(set(bs)) != k or not set(bs) <= set(adj[a]):
            return False
        used.extend(bs)
    if len(used) != len(set(used)):
        return False
    return set(B) - set(boundary) <= set(used)


def harem_feasible_maxflow(A, B, adj, boundary, k: int) -> bool:
    """Feasibility of the lower-bounded network by scipy's max flow.

    S -> a carries exactly k, a -> b at most 1, interior b -> T exactly 1,
    boundary b -> T at most 1, T -> S unbounded.  The standard reduction
    moves the lower bounds to a super source SS and super sink TT; the
    network is feasible iff the SS-TT flow saturates every SS arc.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_flow

    a_index = {a: 2 + i for i, a in enumerate(A)}
    b_index = {b: 2 + len(A) + i for i, b in enumerate(B)}
    n = 2 + len(A) + len(B) + 2
    S, T, SS, TT = 0, 1, n - 2, n - 1
    arcs: dict[tuple[int, int], int] = {}

    def add(u, v, cap):
        arcs[(u, v)] = arcs.get((u, v), 0) + cap

    interior = [b for b in B if b not in boundary]
    for a in A:
        add(SS, a_index[a], k)
        for b in adj[a]:
            add(a_index[a], b_index[b], 1)
    for b in B:
        if b in boundary:
            add(b_index[b], T, 1)
        else:
            add(b_index[b], TT, 1)
    if A:
        add(S, TT, k * len(A))
    if interior:
        add(SS, T, len(interior))
    add(T, S, 1 << 30)
    need = k * len(A) + len(interior)
    if need == 0:
        return True
    rows = [u for u, _ in arcs]
    cols = [v for _, v in arcs]
    caps = np.array(list(arcs.values()), dtype=np.int32)
    graph = csr_matrix((caps, (rows, cols)), shape=(n, n))
    return bool(maximum_flow(graph, SS, TT).flow_value == need)
