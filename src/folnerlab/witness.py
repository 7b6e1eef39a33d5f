"""Deciders for witnesses of the Banach-Tarski paradox and the subgroup
restriction of Folner sets.

A finite key K witnesses the paradox exactly when the subgroup it
generates is non-amenable.  Over free groups (and free abelian groups,
which are fully residually free) that reduces to a commutation check:
some non-commuting pair in K spans a rank-2 free subgroup.  The bounded
refuter searches a declared finite universe for an n-Folner set with
respect to K, which disproves witnessing at level n.

Subgroup membership is decided by Stallings folding for free groups and
by integer lattice reduction (Hermite-style pivots) for Z^d.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .budget import Budget, UNKNOWN
from .groups import (
    COMPUTABLE,
    CyclicOracle,
    FreeGroupOracle,
    GroupOracle,
    LamplighterOracle,
    PreconditionError,
    RedundantZOracle,
    ZdOracle,
    ball_layers,
    canonical_subset,
)
from .folner import FolnerCertificate, UnionFind, _first_folner, is_n_folner


class UnsupportedFamilyError(PreconditionError):
    """The requested decider has no correctness guarantee for this family."""


@dataclass
class WitnessVerdict:
    verdict: str  # WITNESS | NOT_WITNESS | UNKNOWN
    evidence: object = None  # (x, y) pair, FolnerCertificate, or None
    rationale: str = ""

    def to_json_dict(self) -> dict:
        evidence = None
        if isinstance(self.evidence, tuple):
            evidence = {"pair": list(self.evidence)}
        elif isinstance(self.evidence, FolnerCertificate):
            evidence = {"certificate": self.evidence.to_json_dict()}
        return {
            "verdict": self.verdict,
            "evidence": evidence,
            "rationale": self.rationale,
        }


def decide_witness_commutation(g: GroupOracle, K) -> WitnessVerdict:
    """Witness decision by pairwise commutation, valid on free and free
    abelian families; the remaining built-ins are amenable, so every key
    is refuted outright (flagged as family knowledge, not commutation)."""
    K = canonical_subset(K)
    if isinstance(g, (CyclicOracle, LamplighterOracle, RedundantZOracle)):
        return WitnessVerdict("NOT_WITNESS", None, "amenable family")
    if not isinstance(g, (FreeGroupOracle, ZdOracle)):
        raise UnsupportedFamilyError(
            "commutation criterion only certified for free:k and zd:d"
        )
    for x, y in itertools.combinations(K, 2):
        if g.mult(x, y) != g.mult(y, x):
            return WitnessVerdict(
                "WITNESS", (x, y), "non-commuting pair generates a free subgroup"
            )
    return WitnessVerdict(
        "NOT_WITNESS", None, "all pairs commute; the subgroup is abelian"
    )


def refute_witness_bounded(
    g: GroupOracle, K, n: int, size_bound: int, b: Budget, *, radius: int = 2
):
    """Search subsets of the radius-r ball around K, by size then code
    order, for an n-Folner set with respect to K; such a set refutes the
    witness property of (K, n).  The subsets go through the scan of
    :func:`folnerlab.folner._first_folner`, whose counts give the
    certificate's defects.  Budget counts steps priced as multiplication
    calls, as :func:`folnerlab.folner.search_folner` prices them: the ball
    layers, then |F| x max(1, |K|) per subset F before its test; UNKNOWN
    when no such set turns up within the size bound or the budget.  Sizes
    past the ball's own hold no subset, so the scan stops there.  Raises
    ValueError for n < 1, before any charge."""
    if g.mode != COMPUTABLE:
        raise PreconditionError("refute_witness_bounded needs a COMPUTABLE oracle")
    if n < 1:
        raise ValueError("n must be >= 1")
    K = canonical_subset(K)
    meter = b.meter()
    *_, universe = itertools.islice(ball_layers(g, K, meter), radius + 1)
    if universe is None:
        return UNKNOWN
    subsets = (F for size in range(1, min(size_bound, len(universe)) + 1)
               for F in itertools.combinations(universe, size))
    return _first_folner(g, subsets, K, n, meter) or UNKNOWN


# ---------------------------------------------------------------------------
# subgroup membership


class _StallingsAutomaton:
    """Folded subgroup graph of <K> in a free group; accepts exactly the
    reduced words lying in the subgroup."""

    def __init__(self, g: FreeGroupOracle, K):
        self.group = g
        states = itertools.count(1)
        self.root = 0
        edges: dict[tuple[int, int], int] = {}
        uf = UnionFind()
        for code in K:
            cur = self.root
            for letter in g.decode_word(code):
                nxt = edges.get((cur, letter))
                if nxt is None:
                    nxt = next(states)
                    edges[(cur, letter)] = nxt
                    edges[(nxt, letter ^ 1)] = cur
                cur = nxt
            uf.union(cur, self.root)
        # fold until deterministic
        changed = True
        while changed:
            changed = False
            grouped: dict[tuple[int, int], int] = {}
            for (s, letter), t in edges.items():
                key = (uf.find(s), letter)
                t = uf.find(t)
                other = grouped.get(key)
                if other is None:
                    grouped[key] = t
                elif other != t:
                    uf.union(other, t)
                    changed = True
            edges = {k: uf.find(v) for k, v in grouped.items()}
        self.edges = edges
        self.root = uf.find(self.root)

    def membership(self, code: int) -> bool:
        cur = self.root
        for letter in self.group.decode_word(code):
            cur = self.edges.get((cur, letter))
            if cur is None:
                return False
        return cur == self.root


class _IntegerLattice:
    """Echelon integer lattice basis of <K> in Z^d (Hermite-style xgcd
    pivoting) with exact membership by successive divisibility reduction."""

    def __init__(self, g: ZdOracle, K):
        self.group = g
        self.dim = g.dim
        rows = [list(v) for v in map(g.decode_vector, K) if any(v)]
        self.rows: list[list[int]] = []
        for col in range(self.dim):
            pivot = None
            for r in rows:
                if r[col] == 0:
                    continue
                if pivot is None:
                    pivot = r
                    continue
                a, b = pivot[col], r[col]
                x, y, gcd = _xgcd(a, b)
                new_pivot = [x * p + y * q for p, q in zip(pivot, r)]
                new_r = [(a // gcd) * q - (b // gcd) * p for p, q in zip(pivot, r)]
                pivot[:] = new_pivot
                r[:] = new_r
            if pivot is not None:
                self.rows.append(pivot)
                rows = [r for r in rows if r is not pivot]

    def membership(self, code: int) -> bool:
        vec = list(self.group.decode_vector(code))
        for row in self.rows:
            j = next(i for i, x in enumerate(row) if x)
            if vec[j] == 0:
                continue
            if vec[j] % row[j] != 0:
                return False
            q = vec[j] // row[j]
            for i in range(self.dim):
                vec[i] -= q * row[i]
        return not any(vec)


def _xgcd(a: int, b: int):
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


def subgroup_membership(g: GroupOracle, K):
    """Decidable membership in <K>: an engine whose ``membership(code)``
    folds (free groups) or reduces against a lattice basis (Z^d)."""
    K = canonical_subset(K)
    if isinstance(g, FreeGroupOracle):
        return _StallingsAutomaton(g, K)
    if isinstance(g, ZdOracle):
        return _IntegerLattice(g, K)
    raise UnsupportedFamilyError(
        "subgroup membership implemented for free:k and zd:d only"
    )


class SubgroupRestrictionError(PreconditionError):
    """No coset slice of the supplied set was n-Folner: the input cannot
    have been m-Folner for m = n|K| (PRECONDITION_FAILED)."""


def restrict_folner_to_subgroup(g: GroupOracle, K, n: int, F_m) -> tuple[int, ...]:
    """Slice an m-Folner set (m = n|K|) along right cosets of <K> and return
    the first slice, in representative code order, that is n-Folner with
    respect to K.  The pigeonhole argument guarantees one exists."""
    K = canonical_subset(K)
    F_m = canonical_subset(F_m)
    sub = subgroup_membership(g, K)
    reps: list[int] = []
    slices: dict[int, list[int]] = {}
    for f in F_m:
        for t in reps:
            shifted = g.mult(f, g.inv(t))
            if sub.membership(shifted):
                slices[t].append(shifted)
                break
        else:
            reps.append(f)
            slices[f] = [g.identity]
    for t in reps:
        S = tuple(sorted(slices[t]))
        if is_n_folner(g, S, K, n)[0]:
            return S
    raise SubgroupRestrictionError(
        "no coset slice was %d-Folner; input was not %d-Folner" % (n, n * len(K))
    )
