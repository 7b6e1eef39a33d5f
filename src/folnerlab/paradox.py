"""Effective paradoxical decompositions of non-amenable computable groups.

Given a key seed K0 witnessing expansion at level n, the pipeline expands
the key until |KF| >= 3|F| is guaranteed, builds the bipartite doubling
graph on two code copies of the group (edges g ~ h for h in Kg), runs the
computable perfect (1,2)-matching, and reads off the derived maps: each
code m has two matched partners psi1(m) < psi2(m) on the right copy, and
theta_i(m) = psi_i(m) * m^-1 always lands in the key.  The families
A_k = theta1^-1(k) and B_k = theta2^-1(k) then partition the group twice
over, which is what the prefix verifier checks on resolved codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget, UNKNOWN
from .folner import require_level
from .groups import COMPUTABLE, GroupOracle, canonical_subset, require_mode
from .harem import BipartiteGraphOracle, HaremMatchingState, harem_new, harem_query


class KeyNotInKError(ValueError):
    """Membership query against a code outside the expanded key."""


@dataclass(frozen=True)
class ExpandedKey:
    """Expanded key: all products of exactly n1 factors from K0 + identity."""

    K: tuple[int, ...]
    n1: int


def expand_key(g: GroupOracle, K0, n: int) -> ExpandedKey:
    """Minimal n1 with (1 + 1/n)^n1 >= 3, and the n1-fold product set of
    K0 + identity (deduplicated through the numbering)."""
    require_mode(g, COMPUTABLE, "expand_key")
    require_level(n)
    K0 = canonical_subset(K0)
    if not K0:
        raise ValueError("K0 must be non-empty")
    ratio = 1 + Fraction(1, n)
    n1 = 1
    power = ratio
    while power < 3:
        power *= ratio
        n1 += 1
    K1 = set(K0) | {g.identity}
    prod = {g.identity}
    for _ in range(n1):
        prod = {g.mult(a, p) for a in K1 for p in prod}
    return ExpandedKey(tuple(sorted(prod)), n1)


class CayleyBipartite(BipartiteGraphOracle):
    """Doubling graph on two copies of the group: left g ~ right h iff
    h lies in Kg.  Side tagging: left g is code 2g, right h is code 2h+1."""

    def __init__(self, g: GroupOracle, K):
        require_mode(g, COMPUTABLE, "cayley_bipartite")
        self.group = g
        self.K = canonical_subset(K)
        self._K_inv = tuple(sorted(g.inv(k) for k in self.K))
        self._cache: dict[int, tuple[int, ...]] = {}

    def is_left(self, v: int) -> bool:
        return v % 2 == 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._cache.get(v) or self.neighbor_rows((v,))[0]

    def neighbor_rows(self, vs) -> list[tuple[int, ...]]:
        """The neighbours of each vertex in vs, in code order: left g has
        right kg for k in K, and right h has left k^-1 h.  Those not cached
        are made with one ``mult_rows`` call per side, each column of the
        rows one vertex's neighbours, once each (two codes of K may name one
        element of a finite cyclic group)."""
        cache = self._cache
        for side, keys in ((0, self.K), (1, self._K_inv)):
            new = [v for v in vs if v % 2 == side and v not in cache]
            if new:
                rows = self.group.mult_rows(keys, [v // 2 for v in new])
                for v, column in zip(new, zip(*rows)):
                    cache[v] = tuple(sorted({2 * p + 1 - side for p in column}))
        return list(map(cache.__getitem__, vs))

    def left_enum(self, i: int) -> int:
        return 2 * i

    def right_enum(self, i: int) -> int:
        return 2 * i + 1

    def translate(self, u: int, h: int) -> int:
        return 2 * self.group.mult(u // 2, h) + u % 2

    def inv(self, h: int) -> int:
        return self.group.inv(h)


def cayley_bipartite(g: GroupOracle, K) -> CayleyBipartite:
    return CayleyBipartite(g, K)


class ParadoxicalDecomposition:
    """Expanded key plus the (1,2)-matching state and its derived maps.

    All queries are budgeted: resolution may need more matching steps than
    the budget allows, in which case UNKNOWN is returned and the state is
    simply further advanced on the next call.
    """

    def __init__(self, g: GroupOracle, key: ExpandedKey, state: HaremMatchingState):
        self.group = g
        self.key = key
        self.state = state
        self._K_set = set(key.K)

    # -- derived maps -------------------------------------------------

    def psi_pair(self, m: int, b: Budget):
        """The two right-copy codes matched to left m, ascending."""
        partners = harem_query(self.state, 2 * m, b)
        if partners is UNKNOWN:
            return UNKNOWN
        p1, p2 = sorted(p // 2 for p in partners)
        return p1, p2

    def phi(self, m: int, b: Budget):
        """The left-copy code matched to right m (the 2-to-1 covering map)."""
        a = harem_query(self.state, 2 * m + 1, b)
        if a is UNKNOWN:
            return UNKNOWN
        return a // 2

    def theta_pair(self, m: int, b: Budget):
        """(theta1, theta2): the key elements carrying m to its two images."""
        pair = self.psi_pair(m, b)
        if pair is UNKNOWN:
            return UNKNOWN
        g = self.group
        m_inv = g.inv(m)
        return tuple(g.mult(p, m_inv) for p in pair)


def build_decomposition(g: GroupOracle, K0, n: int) -> ParadoxicalDecomposition:
    """Wire key expansion, the doubling graph and the (1,2)-matching.

    The caller asserts the witness property of (K0, n); a false assertion
    surfaces as InternalInfeasibleError from the matching."""
    key = expand_key(g, K0, n)
    graph = cayley_bipartite(g, key.K)
    return ParadoxicalDecomposition(g, key, harem_new(graph, 2))


def decomp_membership(
    d: ParadoxicalDecomposition, k: int, m: int, side: str, b: Budget
):
    """Is m in A_k (side "A") or B_k (side "B")?  IN/OUT/UNKNOWN."""
    if k not in d._K_set:
        raise KeyNotInKError("code %d is not in the expanded key" % k)
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    thetas = d.theta_pair(m, b)
    if thetas is UNKNOWN:
        return UNKNOWN
    want = thetas[0] if side == "A" else thetas[1]
    return "IN" if want == k else "OUT"


def check_decomposition_records(g: GroupOracle, K, records) -> list[dict]:
    """Structural checks of resolved decomposition records.

    Each record is a dict with keys m, theta1, theta2, psi1, psi2.  Checks:
    the thetas lie in the key, theta_i * m recovers psi_i, each psi column
    is injective, and the two psi images are disjoint (the finite shadow of
    the doubled partition of the group)."""
    K_set = set(K)
    violations = []
    seen1: dict[int, int] = {}
    seen2: dict[int, int] = {}
    for rec in records:
        m = rec["m"]
        for i, (theta, psi) in enumerate(
            [(rec["theta1"], rec["psi1"]), (rec["theta2"], rec["psi2"])], start=1
        ):
            if theta not in K_set:
                violations.append({"check": "theta_in_key", "m": m, "i": i})
            if g.mult(theta, m) != psi:
                violations.append({"check": "theta_times_m", "m": m, "i": i})
        if rec["psi1"] >= rec["psi2"]:
            violations.append({"check": "psi_order", "m": m})
        for column, seen in (("psi1", seen1), ("psi2", seen2)):
            v = rec[column]
            if v in seen:
                violations.append(
                    {"check": column + "_injective", "m": m, "clash": seen[v]}
                )
            seen[v] = m
    overlap = set(seen1) & set(seen2)
    for v in sorted(overlap):
        violations.append(
            {"check": "psi_images_disjoint", "value": v, "m": seen1[v]}
        )
    return violations


def verify_decomposition_prefix(
    d: ParadoxicalDecomposition, count: int, b: Budget
) -> dict:
    """Resolve codes 0..count-1 and check the decomposition laws on them.

    Returns a report dict with the resolved records and a violation list
    (empty for a correct build).  On top of the record checks this
    verifies that phi inverts both psi maps and that the matching
    bookkeeping is consistent (every committed right code hit once).
    Every code the matching has resolved is reported, even once the budget is spent.
    Once it is spent, at the first code m left unresolved, the codes after m
    that are matched already are read off the matching's left pairs, and
    one violation ``{"check": "unresolved", "m": m}`` stands for every code
    left open; when more than one is, it carries their number in "codes".
    The report therefore grows with the steps taken, not with ``count``."""
    meter = b.meter()
    st = d.state
    records = []
    violations = []

    def record(m, pair):
        thetas = d.theta_pair(m, meter)
        records.append(
            {
                "m": m,
                "theta1": thetas[0],
                "theta2": thetas[1],
                "psi1": pair[0],
                "psi2": pair[1],
            }
        )
        for p in pair:
            back = d.phi(p, meter)
            if back != m:
                violations.append({"check": "phi_inverts_psi", "m": m, "psi": p})

    for m in range(count):
        pair = d.psi_pair(m, meter)
        if pair is UNKNOWN:  # the meter is empty: no further step is taken
            matched = sorted(a // 2 for a in st.left_pairs if m < a // 2 < count)
            for n in matched:
                record(n, d.psi_pair(n, meter))
            unresolved = {"check": "unresolved", "m": m}
            if (left := count - m - len(matched)) > 1:
                unresolved["codes"] = left
            violations.append(unresolved)
            break
        record(m, pair)
    violations.extend(check_decomposition_records(d.group, d.key.K, records))
    # matching bookkeeping: committed rights hit exactly once, stars consistent
    hit: dict[int, int] = {}
    for a, bs in st.left_pairs.items():
        if len(bs) != st.k or len(set(bs)) != st.k:
            violations.append({"check": "left_multiplicity", "vertex": a})
        for bb in bs:
            if bb in hit:
                violations.append({"check": "right_multiplicity", "vertex": bb})
            hit[bb] = a
            if st.right_pair.get(bb) != a:
                violations.append({"check": "inverse_map", "vertex": bb})
    if set(st.right_pair) != set(hit):
        violations.append({"check": "right_bookkeeping"})
    return {
        "n1": d.key.n1,
        "K": list(d.key.K),
        "resolved": records,
        "violations": violations,
    }
