"""Effective Hall harem machinery: finite (1,k)-matchings by feasible flow,
expansion witness functions, and the deterministic back-and-forth that
extends them to a computable perfect (1,k)-matching on an infinite
bipartite graph oracle.

The back-and-forth alternates sides, always processing the lowest
unresolved code of the due side, solves a relaxed perfect matching on a
ball around it (interior right vertices must be saturated, boundary ones
may stay free), commits only the star of the processed vertex, and deletes
it from the residual graph.  Committed answers never change.

Ball radii: the expansion-witness argument guarantees feasibility for
radii max(2*h(k)+1, 3) on A-steps and max(2*h(k)+2, 4) on B-steps, with h
the witness shifted by the stars already removed, but those balls grow
exponentially in graphs of free-group type.  The radii here are fixed at
the base values 3 and 4; on the strongly expanding graphs this package
builds they stay feasible, and any infeasibility aborts loudly instead of
being retried.  The witness is therefore the caller's assertion and is not
part of the matching state; ``cehhc_spot_check`` tests it on finite samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .budget import Budget, UNKNOWN
from .groups import PreconditionError


class InternalInfeasibleError(PreconditionError):
    """The finite solver failed mid-construction: the caller's expansion
    assertion was false (or the radius bookkeeping is buggy)."""


RADIUS_A = 3
RADIUS_B = 4


# ---------------------------------------------------------------------------
# witness functions


@dataclass(frozen=True)
class HallWitness:
    """Monotone witness h with h(0) = 0: finite table plus an affine tail.

    ``h(n) = table[n]`` for n < len(table), else ``slope * n + intercept``.
    """

    table: tuple[int, ...] = (0,)
    slope: int = 0
    intercept: int = 0

    def __post_init__(self):
        if not self.table or self.table[0] != 0:
            raise ValueError("witness table must start with h(0) = 0")

    def __call__(self, n: int) -> int:
        if n == 0:
            return 0
        if n < len(self.table):
            return self.table[n]
        return self.slope * n + self.intercept


def linear_witness(slope: int) -> HallWitness:
    return HallWitness((0,), slope, 0)


# ---------------------------------------------------------------------------
# graph oracles and finite pieces


class BipartiteGraphOracle:
    """Locally finite bipartite graph addressed by integer codes.

    ``left_enum``/``right_enum`` are the fixed computable enumerations of
    the two sides used by the back-and-forth.
    """

    def is_left(self, v: int) -> bool:
        raise NotImplementedError

    def neighbors(self, v: int) -> tuple[int, ...]:
        raise NotImplementedError

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def left_enum(self, i: int) -> int:
        raise NotImplementedError

    def right_enum(self, i: int) -> int:
        raise NotImplementedError


@dataclass
class FiniteBipartite:
    """Finite bipartite chunk with a marked relaxed boundary on the B side."""

    A: tuple[int, ...]
    B: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]  # A-side adjacency into B
    boundary_B: frozenset

    def __post_init__(self):
        b_set = set(self.B)
        for a, nbs in self.adj.items():
            if set(nbs) - b_set:
                raise ValueError("edge leaves the B side of the piece")
        if self.boundary_B - b_set:
            raise ValueError("boundary_B must be a subset of B")


def induced_ball(
    g: BipartiteGraphOracle, v: int, r: int, removed: set | frozenset = frozenset()
) -> FiniteBipartite:
    """Induced subgraph on the radius-r ball around v in the residual graph,
    with boundary_B the B-side vertices at distance exactly r."""
    if r < 1:
        raise ValueError("radius must be >= 1")
    dist = {v: 0}
    frontier = [v]
    for d in range(1, r + 1):
        nxt = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in dist and w not in removed:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    A = tuple(sorted(u for u in dist if g.is_left(u)))
    B = tuple(sorted(u for u in dist if not g.is_left(u)))
    adj = {
        a: tuple(
            w for w in g.neighbors(a) if w in dist and w not in removed
        )
        for a in A
    }
    boundary = frozenset(u for u in B if dist[u] == r)
    return FiniteBipartite(A, B, adj, boundary)


# ---------------------------------------------------------------------------
# finite solver: feasible flow with lower bounds, deterministic


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add(self, u: int, v: int, cap: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.head[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(idx + 1)
        return idx

    def maxflow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for e in self.head[u]:
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    e = self.head[u][it[u]]
                    v = self.to[e]
                    if self.cap[e] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[e]))
                        if got:
                            self.cap[e] -= got
                            self.cap[e ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def finite_harem_match(fg: FiniteBipartite, k: int):
    """Matching giving every A-vertex exactly k partners, every interior
    B-vertex exactly one and every boundary B-vertex at most one, or None
    when no such matching exists.

    Solved as a feasible flow with lower bounds (left supply exactly k,
    interior-right demand exactly 1); arcs are added in ascending code
    order, so the matching is reproducible.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a_index = {a: 2 + i for i, a in enumerate(fg.A)}
    b_index = {b: 2 + len(fg.A) + i for i, b in enumerate(fg.B)}
    n = 2 + len(fg.A) + len(fg.B) + 2
    ss, tt = n - 2, n - 1
    net = _Dinic(n)
    excess = [0] * (2 + len(fg.A) + len(fg.B))
    S, T = 0, 1
    # S -> a with bounds [k, k]
    for a in fg.A:
        excess[a_index[a]] += k
        excess[S] -= k
    edge_arcs: list[tuple[int, int, int]] = []
    for a in fg.A:
        for b in fg.adj[a]:
            edge_arcs.append((a, b, net.add(a_index[a], b_index[b], 1)))
    for b in fg.B:
        if b in fg.boundary_B:
            net.add(b_index[b], T, 1)
        else:
            # bounds [1, 1]
            excess[T] += 1
            excess[b_index[b]] -= 1
    net.add(T, S, 1 << 60)
    need = 0
    for v, ex in enumerate(excess):
        if ex > 0:
            net.add(ss, v, ex)
            need += ex
        elif ex < 0:
            net.add(v, tt, -ex)
    if net.maxflow(ss, tt) != need:
        return None
    matching: dict[int, list[int]] = {a: [] for a in fg.A}
    for a, b, arc in edge_arcs:
        if net.cap[arc] == 0:  # saturated
            matching[a].append(b)
    return {a: tuple(sorted(bs)) for a, bs in matching.items()}


# ---------------------------------------------------------------------------
# the infinite back-and-forth


@dataclass
class HaremMatchingState:
    """Deterministic, resumable state of the back-and-forth (1,k)-matching.

    The state after s steps is a pure function of (graph, k, s); committed
    pairs never change as more steps run.
    """

    graph: BipartiteGraphOracle
    k: int
    step_count: int = 0
    removed: set = field(default_factory=set)
    left_pairs: dict = field(default_factory=dict)
    right_pair: dict = field(default_factory=dict)
    _cursor_a: int = 0
    _cursor_b: int = 0


def harem_new(g: BipartiteGraphOracle, k: int) -> HaremMatchingState:
    """Fresh state at step 0.  The caller asserts that g satisfies the
    expanding Hall condition for k (see cehhc_spot_check)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return HaremMatchingState(g, k)


def _next_unremoved(st: HaremMatchingState, left: bool) -> int:
    enum = st.graph.left_enum if left else st.graph.right_enum
    idx = st._cursor_a if left else st._cursor_b
    while enum(idx) in st.removed:
        idx += 1
    if left:
        st._cursor_a = idx
    else:
        st._cursor_b = idx
    return enum(idx)


def harem_step(st: HaremMatchingState) -> HaremMatchingState:
    """One back-and-forth step: resolve the star of the next vertex."""
    a_side = st.step_count % 2 == 0
    v = _next_unremoved(st, left=a_side)
    r = RADIUS_A if a_side else RADIUS_B
    piece = induced_ball(st.graph, v, r, st.removed)
    matching = finite_harem_match(piece, st.k)
    if matching is None:
        raise InternalInfeasibleError(
            "finite matching infeasible at step %d around code %d"
            % (st.step_count, v)
        )
    if a_side:
        star_left = v
    else:
        star_left = next(a for a, bs in sorted(matching.items()) if v in bs)
    partners = matching[star_left]
    st.left_pairs[star_left] = partners
    for b in partners:
        st.right_pair[b] = star_left
    st.removed.add(star_left)
    st.removed.update(partners)
    st.step_count += 1
    return st


def harem_query(st: HaremMatchingState, v: int, b: Budget):
    """Partners of v (k-tuple for a left vertex, single code for a right),
    running at most b.steps further matching steps; UNKNOWN if unresolved."""
    pairs = st.left_pairs if st.graph.is_left(v) else st.right_pair
    for _ in range(b.steps):
        if v in pairs:
            break
        harem_step(st)
    return pairs.get(v, UNKNOWN)


def matching_dump(st: HaremMatchingState) -> str:
    """Cross-run comparable dump: 'L a -> b,...' and 'R b -> a' lines."""
    lines = [
        "L %d -> %s" % (a, ",".join(str(b) for b in bs))
        for a, bs in sorted(st.left_pairs.items())
    ]
    lines += ["R %d -> %d" % (b, a) for b, a in sorted(st.right_pair.items())]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# spot checks of the expanding Hall condition


def cehhc_spot_check(g: BipartiteGraphOracle, h: HallWitness, k: int, samples):
    """Check the witness inequalities on finite one-sided samples.

    For each sample X and each n with h(n) <= |X| <= h(n+1), the left form
    requires n <= |N(X)| - k|X| and the right form n <= |N(Y)| - |Y|/k
    (evaluated over exact rationals).  Returns the list of violations.
    """
    violations = []
    for sample in samples:
        sample = tuple(sorted(set(sample)))
        if not sample:
            continue
        sides = {g.is_left(v) for v in sample}
        if len(sides) != 1:
            raise ValueError("sample must lie wholly on one side")
        left = sides.pop()
        nbhd = set()
        for v in sample:
            nbhd.update(g.neighbors(v))
        size = len(sample)
        if left:
            slack = Fraction(len(nbhd) - k * size)
        else:
            slack = Fraction(len(nbhd)) - Fraction(size, k)
        for n in range(0, size + 2):
            if h(n) <= size <= h(n + 1) and n > slack:
                violations.append(
                    {"sample": list(sample), "n": n, "slack": str(slack), "left": left}
                )
    return violations
