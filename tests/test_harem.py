"""Finite and infinite harem matching: solver vs brute force, determinism,
spot checks of the expansion condition."""

import itertools
import random

import pytest

from folnerlab import Budget, UNKNOWN, harem, make_group
from folnerlab.groups import ball, parse_elements
from folnerlab.harem import (
    FiniteBipartite,
    HallWitness,
    _SMALL_NETWORK,
    _arcs,
    _maxflow,
    cehhc_spot_check,
    finite_harem_match,
    harem_new,
    harem_query,
    harem_step,
    induced_ball,
    linear_witness,
    matching_dump,
)
from folnerlab.paradox import cayley_bipartite


# ---------------------------------------------------------------------------
# witness functions


def test_linear_witness_evaluation():
    assert [linear_witness(2)(n) for n in range(4)] == [0, 2, 4, 6]
    assert [linear_witness(1)(n) for n in (1, 5, 9)] == [1, 5, 9]


def test_witness_zero_and_table_evaluation():
    assert HallWitness()(5) == 0
    t = HallWitness((0, 1, 3, 9), slope=3, intercept=2)
    assert [t(n) for n in range(4)] == [0, 1, 3, 9]  # the table
    assert [t(n) for n in (4, 5)] == [14, 17]  # then 3n + 2


def test_witness_table_must_anchor_zero():
    with pytest.raises(ValueError):
        HallWitness((1, 2))


def test_harem_rejects_k_zero(gamma_ball1):
    with pytest.raises(ValueError):
        harem_new(gamma_ball1, 0)
    with pytest.raises(ValueError):
        finite_harem_match(
            FiniteBipartite((0,), (1,), {0: (1,)}, frozenset()), 0
        )


# ---------------------------------------------------------------------------
# finite pieces and the solver


def graph_from_edges(A, B, edges, boundary=frozenset()):
    adj = {a: tuple(sorted(b for (x, b) in edges if x == a)) for a in A}
    return FiniteBipartite(tuple(A), tuple(B), adj, frozenset(boundary))


@pytest.mark.parametrize("A,B,adj,boundary", [
    ((0, 2), (1,), {0: (1,)}, ()),  # 2 has no adjacency entry
    ((0,), (1,), {0: (1,), 2: (1,)}, ()),  # a key outside A
    ((0, 0), (1,), {0: (1,)}, ()),  # a repeated A vertex
    ((0,), (1, 1), {0: (1,)}, ()),  # a repeated B vertex
    ((0, 1), (1,), {0: (1,), 1: ()}, ()),  # a vertex on both sides
    ((0,), (1,), {0: (1, 3)}, ()),  # an edge out of B
    ((0,), (1,), {0: (1,)}, (3,)),  # a boundary vertex out of B
])
def test_malformed_pieces_are_rejected(A, B, adj, boundary):
    with pytest.raises(ValueError):
        FiniteBipartite(A, B, adj, frozenset(boundary))


def test_star_graph_matching():
    fg = graph_from_edges([0], [1, 3], [(0, 1), (0, 3)])
    assert finite_harem_match(fg, 2) == {0: (1, 3)}


def test_counting_infeasible():
    fg = graph_from_edges(
        [0, 2], [1, 3, 5], [(a, b) for a in (0, 2) for b in (1, 3, 5)]
    )
    assert finite_harem_match(fg, 2) is None  # 4 > 3 by counting


def test_boundary_relaxation():
    # two lefts, three rights, k=1: with no boundary the third right starves
    edges = [(a, b) for a in (0, 2) for b in (1, 3, 5)]
    strict = graph_from_edges([0, 2], [1, 3, 5], edges)
    assert finite_harem_match(strict, 1) is None
    relaxed = graph_from_edges([0, 2], [1, 3, 5], edges, boundary={5})
    m = finite_harem_match(relaxed, 1)
    assert m is not None
    used = [b for bs in m.values() for b in bs]
    assert len(used) == len(set(used)) == 2
    assert {1, 3} <= set(used) or 5 not in used


def brute_force_feasible(A, B, adj, boundary, k):
    """Bitmask DP over used rights; interior rights must end covered."""
    b_pos = {b: i for i, b in enumerate(B)}
    interior = 0
    for b in B:
        if b not in boundary:
            interior |= 1 << b_pos[b]
    frontier = {0}
    for a in A:
        nbs = [b_pos[b] for b in adj[a]]
        if len(nbs) < k:
            return False
        nxt = set()
        for used in frontier:
            for combo in itertools.combinations(nbs, k):
                mask = 0
                for i in combo:
                    mask |= 1 << i
                if not (used & mask):
                    nxt.add(used | mask)
        frontier = nxt
        if not frontier:
            return False
    return any(used & interior == interior for used in frontier)


def test_solver_matches_brute_force_randomised():
    rng = random.Random(99)
    for _ in range(400):
        na, nb = rng.randint(1, 3), rng.randint(1, 6)
        A = [2 * i for i in range(na)]
        B = [2 * j + 1 for j in range(nb)]
        edges = [(a, b) for a in A for b in B if rng.random() < 0.5]
        boundary = {b for b in B if rng.random() < 0.3}
        k = rng.randint(1, 2)
        fg = graph_from_edges(A, B, edges, boundary)
        got = finite_harem_match(fg, k)
        want = brute_force_feasible(A, B, fg.adj, boundary, k)
        assert (got is not None) == want
        if got is not None:
            used = [b for bs in got.values() for b in bs]
            assert len(used) == len(set(used))
            assert all(len(got[a]) == k for a in A)
            covered = set(used)
            assert all(b in covered for b in B if b not in boundary)


class _RecursiveDinic:
    """The textbook Dinic with a recursive depth-first search: the reference
    the iterative solver must reproduce, arc for arc."""

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


def forward_maxflow(head: list, to: list, cap: list, s: int, t: int) -> int:
    """The iterative Dinic with each phase labelled from s alone: the
    reference that the labelling from both ends must reproduce, residual
    network and all.

    A phase labels nodes by breadth-first distance from s over arcs with
    spare capacity and stops once t is labelled; the depth-first search is
    the one ``_maxflow`` runs."""
    n = len(head)
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            nxt = level[u] + 1
            for e in head[u]:
                if cap[e]:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = nxt
                        queue.append(v)
            if level[t] >= 0:
                break
        else:
            return flow
        ptr = [0] * n
        nodes = [s]
        arcs: list[int] = []
        u = s
        while True:
            if u == t:
                pushed = min(map(cap.__getitem__, arcs))
                flow += pushed
                cut = -1
                for i, e in enumerate(arcs):
                    cap[e] -= pushed
                    cap[~e] += pushed
                    if cut < 0 and not cap[e]:
                        cut = i
                del arcs[cut:]
                del nodes[cut + 1 :]
                u = nodes[-1]
                continue
            hu = head[u]
            i = ptr[u]
            end = len(hu)
            nxt = level[u] + 1
            while i < end:
                e = hu[i]
                if cap[e] and level[to[e]] == nxt:
                    ptr[u] = i
                    arcs.append(e)
                    u = to[e]
                    nodes.append(u)
                    break
                i += 1
            else:
                if u == s:
                    break
                level[u] = -1
                nodes.pop()
                arcs.pop()
                u = nodes[-1]
                ptr[u] += 1


def reference_harem_match(fg: FiniteBipartite, k: int):
    """The lower-bound flow network built arc by arc, solved recursively."""
    a_index = {a: 2 + i for i, a in enumerate(fg.A)}
    b_index = {b: 2 + len(fg.A) + i for i, b in enumerate(fg.B)}
    n = 2 + len(fg.A) + len(fg.B) + 2
    ss, tt = n - 2, n - 1
    net = _RecursiveDinic(n)
    excess = [0] * (2 + len(fg.A) + len(fg.B))
    S, T = 0, 1
    for a in fg.A:
        excess[a_index[a]] += k
        excess[S] -= k
    edge_arcs = []
    for a in fg.A:
        for b in fg.adj[a]:
            edge_arcs.append((a, b, net.add(a_index[a], b_index[b], 1)))
    for b in fg.B:
        if b in fg.boundary_B:
            net.add(b_index[b], T, 1)
        else:
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
    matching = {a: [] for a in fg.A}
    for a, b, arc in edge_arcs:
        if net.cap[arc] == 0:
            matching[a].append(b)
    return {a: tuple(sorted(bs)) for a, bs in matching.items()}


def reference_pieces():
    """The 5,000 random pieces, each with its k, on which the solver must
    reproduce the recursive reference."""
    rng = random.Random(20260418)
    for _ in range(5000):
        A = [2 * i for i in range(rng.randint(0, 6))]
        B = [2 * j + 1 for j in range(rng.randint(0, 14))]
        density = rng.uniform(0.3, 1.0)
        adj = {}
        for a in A:
            nbs = [] if rng.random() < 0.04 else [b for b in B if rng.random() < density]
            rng.shuffle(nbs)
            adj[a] = tuple(nbs)
        relaxed = rng.random()
        boundary = frozenset(b for b in B if rng.random() < relaxed)
        yield FiniteBipartite(tuple(A), tuple(B), adj, boundary), rng.randint(1, 3)


def test_solver_reproduces_recursive_reference():
    outcomes = {True: 0, False: 0}
    for fg, k in reference_pieces():
        want = reference_harem_match(fg, k)
        assert finite_harem_match(fg, k) == want
        outcomes[want is None] += 1
    assert min(outcomes.values()) > 500  # both verdicts are exercised


def test_long_augmenting_path_needs_no_recursion():
    # the only feasible matching pairs 2i with 2i+1, but each 2i lists 2i+3
    # first, so the last augmenting path runs the whole chain
    n = 2000
    adj = {2 * i: (2 * i + 3, 2 * i + 1) for i in range(n)}
    fg = FiniteBipartite(
        tuple(range(0, 2 * n, 2)),
        tuple(range(1, 2 * n + 2, 2)),
        adj,
        frozenset([2 * n + 1]),
    )
    assert finite_harem_match(fg, 1) == {2 * i: (2 * i + 1,) for i in range(n)}


def failed_counts(fg: FiniteBipartite, k: int) -> list:
    """The counts of ``finite_harem_match``'s docstring that the piece
    fails, by name, each read off the piece on its own."""
    interior = [b for b in fg.B if b not in fg.boundary_B]
    heads = {b for a in fg.A for b in fg.adj[a]}
    failed = {
        "interior": len(interior) > k * len(fg.A),
        "degree": any(len(fg.adj[a]) < k for a in fg.A),
        "neighbours": len(heads) < k * len(fg.A),
        "reached": any(b not in heads for b in interior),
    }
    return [name for name, fails in failed.items() if fails]


# count -> (k, A, B, edges, boundary) of a piece only that count refutes,
# and the edges and boundary of a feasible piece one edge or flag away
ONE_COUNT_PIECES = {
    "interior": (1, [0], [1, 3], [(0, 1), (0, 3)], set(), [(0, 1), (0, 3)], {3}),
    "degree": (2, [0, 2], [1, 3, 5, 7], [(0, 1), (2, 1), (2, 3), (2, 5), (2, 7)],
               {1, 3, 5, 7},
               [(0, 1), (0, 3), (2, 1), (2, 3), (2, 5), (2, 7)], {1, 3, 5, 7}),
    "neighbours": (1, [0, 2], [1, 3], [(0, 1), (2, 1)], {1, 3},
                   [(0, 1), (2, 3)], {1, 3}),
    "reached": (2, [0], [1, 3, 5], [(0, 1), (0, 3)], {3}, [(0, 1), (0, 3)], {3, 5}),
}


def no_count_refutes(fg, k):
    return False


@pytest.mark.parametrize("count", sorted(ONE_COUNT_PIECES))
def test_each_count_refutes_a_piece_alone(count, monkeypatch):
    k, A, B, edges, boundary, fixed_edges, fixed_boundary = ONE_COUNT_PIECES[count]
    fg = graph_from_edges(A, B, edges, boundary)
    fixed = graph_from_edges(A, B, fixed_edges, fixed_boundary)
    assert failed_counts(fg, k) == [count] and failed_counts(fixed, k) == []
    assert harem._refuted_by_counts(fg, k)
    assert finite_harem_match(fg, k) is None
    matching = finite_harem_match(fixed, k)
    assert matching is not None and all(len(bs) == k for bs in matching.values())
    # the count is a necessary condition: the flow alone agrees
    monkeypatch.setattr(harem, "_refuted_by_counts", no_count_refutes)
    assert finite_harem_match(fg, k) is None
    assert finite_harem_match(fixed, k) == matching


def test_hall_on_a_pair_is_left_to_the_flow():
    # 0 and 2 list only right 1: every count passes, Hall's condition fails
    # on {0, 2}, and the flow returns None
    fg = graph_from_edges([0, 2, 4], [1, 3, 5], [(0, 1), (2, 1), (4, 1), (4, 3), (4, 5)],
                          boundary={3, 5})
    assert failed_counts(fg, 1) == []
    assert not harem._refuted_by_counts(fg, 1)
    assert finite_harem_match(fg, 1) is None


def sized_pieces(seed, count, a_sizes, b_sizes, whole_boundary):
    """``count`` random pieces, each with its k in 1 .. 3, with |A| and |B|
    drawn from the ranges ``a_sizes`` and ``b_sizes``; every B-vertex is on
    the boundary when ``whole_boundary``."""
    rng = random.Random(seed)
    for _ in range(count):
        A = [2 * i for i in range(rng.randint(*a_sizes))]
        B = [2 * j + 1 for j in range(rng.randint(*b_sizes))]
        density = rng.uniform(0.02, 0.5)
        adj = {a: tuple(b for b in B if rng.random() < density) for a in A}
        relaxed = 1.0 if whole_boundary else rng.random()
        boundary = frozenset(b for b in B if rng.random() < relaxed)
        yield FiniteBipartite(tuple(A), tuple(B), adj, boundary), rng.randint(1, 3)


@pytest.mark.parametrize("family,pieces", [
    ("reference", reference_pieces),
    ("whole boundary", lambda: sized_pieces(36, 1000, (1, 6), (1, 14), True)),
    ("|B| > 64", lambda: sized_pieces(64, 300, (1, 40), (65, 100), False)),
])
def test_counts_read_off_sizes_equal_each_count_read_alone(family, pieces):
    # the counts read |B| - |boundary_B| and |heads | boundary_B| for the
    # interior and the cover; each count read off the piece on its own
    # must give the same verdict
    failed = {}
    for fg, k in pieces():
        names = failed_counts(fg, k)
        assert harem._refuted_by_counts(fg, k) == (names != [])
        failed[tuple(names)] = failed.get(tuple(names), 0) + 1
    assert failed.get((), 0) > 0 and sum(failed.values()) > failed[()]
    if family == "whole boundary":  # no interior vertex to count or reach
        assert all("interior" not in x and "reached" not in x for x in failed)
    else:
        names = set(itertools.chain(*failed))
        assert names == {"interior", "degree", "neighbours", "reached"}


def test_flow_alone_reproduces_the_recursive_reference(monkeypatch):
    # the 5,000 pieces of test_solver_reproduces_recursive_reference, every
    # one solved by the flow: its outputs, the None of each infeasible piece
    # included, equal the reference's, as the outputs with the counts do
    refuted = []

    def never_refutes(fg, k):
        refuted.append(plain(fg, k))
        return False

    plain = harem._refuted_by_counts
    monkeypatch.setattr(harem, "_refuted_by_counts", never_refutes)
    test_solver_reproduces_recursive_reference()
    # with the counts, 3,933 of the 3,952 infeasible pieces get None
    # before any network is built
    assert (len(refuted), sum(refuted)) == (5000, 3933)


def solve_arcs(nodes, arcs, s, t):
    """``_maxflow`` on the network with the given (tail, head, capacity)
    arcs, checked against ``forward_maxflow``: the value, after checking
    that the residual capacities left are those of a flow of that value
    (0 <= flow <= capacity on every arc, conservation at every node but s
    and t).  The network is solved as drawn, small enough to be labelled
    from s alone, and again with isolated nodes added up to
    ``_SMALL_NETWORK``, so that it is labelled from both ends."""
    assert nodes < _SMALL_NETWORK
    tails, heads, caps = (list(x) for x in zip(*arcs))
    values = []
    for size in (nodes, _SMALL_NETWORK):
        head, to, cap, _ = _arcs([(tails, heads, caps)], size)
        ref = cap[:]
        value = _maxflow(head, to, cap, s, t)
        assert forward_maxflow(head, to, ref, s, t) == value and ref == cap
        excess = [0] * size
        for e, (u, w, c) in enumerate(arcs):
            flow = cap[~e]
            assert 0 <= flow <= c and cap[e] == c - flow
            excess[u] -= flow
            excess[w] += flow
        assert all(x == 0 for v, x in enumerate(excess) if v not in (s, t))
        assert excess[t] == -excess[s] == value
        values.append(value)
    assert values[0] == values[1]
    return value


def test_maxflow_when_s_has_no_spare_arc():
    # s's only arc has capacity 0, and its other arc is the reverse of one
    # into s
    assert solve_arcs(4, [(0, 2, 0), (2, 3, 1), (3, 0, 1), (2, 1, 5)], 0, 1) == 0


def test_maxflow_when_no_arc_into_t_has_spare_capacity():
    # t's arcs are an arc out of it and an arc into it of capacity 0
    assert solve_arcs(4, [(0, 2, 3), (2, 3, 2), (3, 1, 0), (1, 3, 4)], 0, 1) == 0


def test_maxflow_when_s_side_runs_out_first():
    # s -> 2 -> t carries one unit; then, labelled from both ends, s, with
    # one arc against t's six, is the side that grows, and its level comes
    # out empty.  Nodes 3..7 each feed t but are reached from nowhere.
    arcs = [(0, 2, 1), (2, 1, 2)] + [(v, 1, 1) for v in range(3, 8)]
    assert solve_arcs(8, arcs, 0, 1) == 1


def test_maxflow_when_t_side_runs_out_first():
    # three paths s -> a -> 5 -> t share the arc 5 -> t of capacity 1; after
    # one unit, labelled from both ends, t, with one arc against s's three,
    # is the side that grows, and its level comes out empty
    arcs = [(0, a, 1) for a in (2, 3, 4)] + [(a, 5, 1) for a in (2, 3, 4)]
    assert solve_arcs(6, arcs + [(5, 1, 1)], 0, 1) == 1


def test_maxflow_with_one_arc_from_s_to_t():
    # the shortest augmenting path has one arc (L = 1), then three
    assert solve_arcs(2, [(0, 1, 3)], 0, 1) == 3
    arcs = [(0, 2, 2), (2, 3, 2), (3, 1, 2), (0, 1, 3)]
    assert solve_arcs(4, arcs, 0, 1) == 5


def hub_network(rng):
    """A random network of 16 to 300 nodes, s = 0 and t = 1, whose arcs
    mostly run to or from one hub node, as the template's arcs run to or
    from its aggregate node T: the hub is s, t or another node, some arcs
    repeat the arc before them, and some run into s or out of t.  Returns
    the node count and the (tail, head, capacity) arcs; a hub that is
    neither s nor t gets one to three arcs into t."""
    nodes = rng.randint(_SMALL_NETWORK, 300)
    hub = rng.choice((0, 1, rng.randrange(2, nodes)))
    arcs = []
    for _ in range(rng.randint(nodes, 4 * nodes)):
        u, v = rng.sample(range(nodes), 2)
        if rng.random() < 0.8:  # the hub at one end, mostly the head
            u, v = (hub, v) if rng.random() < 0.3 else (u, hub)
        if rng.random() < 0.05:
            u, v = v, 0  # into s
        elif rng.random() < 0.05:
            u, v = 1, u  # out of t
        if u != v:
            arcs.append((u, v, rng.randint(0, 3)))
            if rng.random() < 0.1:  # a parallel arc
                arcs.append((u, v, rng.randint(1, 3)))
    if hub > 1:  # a hub one arc from t, as T is from tt through S
        arcs += [(hub, 1, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    return nodes, arcs


def test_maxflow_equals_the_forward_reference_around_a_hub(monkeypatch):
    # the search leaves the hub by reading the next level's arcs back into
    # it; values and whole residual networks equal the search from s alone
    found = []  # per read from the next level: whether it found an arc

    def counted(head, to, cap, level, layer, p, u, i):
        i = first_arc_into(head, to, cap, level, layer, p, u, i)
        found.append(i < len(head[u]))
        return i

    first_arc_into = harem._first_arc_into
    monkeypatch.setattr(harem, "_first_arc_into", counted)
    rng = random.Random(32)
    flows = 0
    for _ in range(300):
        nodes, arcs = hub_network(rng)
        tails, heads, caps = (list(x) for x in zip(*arcs))
        head, to, cap, _ = _arcs([(tails, heads, caps)], nodes)
        ref = cap[:]
        value = _maxflow(head, to, cap, 0, 1)
        assert value == forward_maxflow(head, to, ref, 0, 1) and cap == ref
        flows += value > 0
    # reads that find an arc and reads that find a dead end both occur
    assert flows > 150 and sum(found) > 150 and found.count(False) > 50


class RaisingPaths(list):
    """A ``paths`` list that raises at the first augmentation, once the
    phase has labelled its network and its search has advanced."""

    def append(self, item):
        raise MemoryError


def test_maxflow_hands_back_its_lists_on_every_exit(monkeypatch):
    # hub networks solved with the caller's level and pointer lists: after
    # the whole flow, after a labelling that raises and after a search that
    # raises, the lists are -1 and 0 at every node again
    labelled = harem._label_from_both_ends

    def raising(*args):
        layers, reads = labelled(*args)
        if reads is not None:  # it labelled a path
            raise MemoryError
        return layers, reads

    rng = random.Random(34)
    raised = {"label": 0, "search": 0}
    for _ in range(60):
        nodes, arcs = hub_network(rng)
        tails, heads, caps = (list(x) for x in zip(*arcs))
        head, to, cap, _ = _arcs([(tails, heads, caps)], nodes)
        for how in ("none", "label", "search"):
            level, ptr = [-1] * nodes, [0] * nodes
            if how == "label":
                monkeypatch.setattr(harem, "_label_from_both_ends", raising)
            paths = RaisingPaths() if how == "search" else None
            try:
                _maxflow(head, to, cap[:], 0, 1, paths, level, ptr)
            except MemoryError:
                raised[how] += 1
            monkeypatch.undo()
            assert level == [-1] * nodes and ptr == [0] * nodes, how
    assert min(raised.values()) > 20


# ---------------------------------------------------------------------------
# induced balls


@pytest.fixture(scope="module")
def gamma_ball1():
    g = make_group("free:2")
    return cayley_bipartite(g, ball(g, parse_elements(g, "a,b"), 1))


def test_induced_ball_star(gamma_ball1):
    piece = induced_ball(gamma_ball1, 0, 1)
    assert piece.A == (0,)
    assert len(piece.B) == 5  # degree equals |K| = 5
    assert piece.boundary_B == frozenset(piece.B)


def test_induced_ball_radius3_matches_bfs(gamma_ball1):
    piece = induced_ball(gamma_ball1, 0, 3)
    # independent BFS oracle
    dist = {0: 0}
    frontier = [0]
    for d in (1, 2, 3):
        nxt = []
        for u in frontier:
            for w in gamma_ball1.neighbors(u):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    assert set(piece.A) | set(piece.B) == set(dist)
    assert piece.boundary_B == frozenset(
        v for v, d in dist.items() if d == 3 and not gamma_ball1.is_left(v)
    )


def test_induced_ball_respects_removals(gamma_ball1):
    full = induced_ball(gamma_ball1, 0, 1)
    removed = frozenset([full.B[0]])
    piece = induced_ball(gamma_ball1, 0, 1, removed)
    assert full.B[0] not in piece.B
    assert full.B[0] not in piece.adj[0]


# ---------------------------------------------------------------------------
# back-and-forth state


def test_steps_commit_stars_and_alternate(gamma_ball1):
    st = harem_new(gamma_ball1, 1)
    harem_step(st)
    assert 0 in st.left_pairs and len(st.left_pairs[0]) == 1
    partner = st.left_pairs[0][0]
    assert {*st.left_pairs, *st.right_pair} == {0, partner}
    harem_step(st)
    assert st.step_count == 2


def test_determinism_and_soundness(gamma_ball1):
    g = make_group("free:2")
    K = set(ball(g, parse_elements(g, "a,b"), 1))
    runs = []
    for _ in range(2):
        st = harem_new(gamma_ball1, 1)
        for _ in range(10):
            harem_step(st)
        runs.append(st)
    assert matching_dump(runs[0]) == matching_dump(runs[1])
    st = runs[0]
    for a, bs in st.left_pairs.items():
        assert len(bs) == 1
        for b in bs:
            # committed pairs are edges: right b in K * left a
            assert g.mult(b // 2, g.inv(a // 2)) in K
            assert st.right_pair[b] == a
    assert len(st.right_pair) == len(st.left_pairs)


def test_progress_first_vertices_resolved(gamma_ball1):
    st = harem_new(gamma_ball1, 1)
    for _ in range(14):
        harem_step(st)
    resolved = {*st.left_pairs, *st.right_pair}
    for i in range(6):
        assert gamma_ball1.left_enum(i) in resolved or gamma_ball1.right_enum(
            i
        ) in resolved
    # first six of each side resolved within an explicit bound
    st2 = harem_new(gamma_ball1, 1)
    for _ in range(24):
        harem_step(st2)
    for i in range(6):
        assert gamma_ball1.left_enum(i) in st2.left_pairs
        assert gamma_ball1.right_enum(i) in st2.right_pair


def test_query_stability(gamma_ball1):
    st = harem_new(gamma_ball1, 1)
    far = gamma_ball1.left_enum(40)
    assert harem_query(st, far, Budget(1)) is UNKNOWN
    first = harem_query(st, 0, Budget(5))
    assert first is not UNKNOWN
    for extra in (5, 10):
        assert harem_query(st, 0, Budget(extra)) == first


# ---------------------------------------------------------------------------
# expansion spot checks


def test_cehhc_passes_on_free_group(gamma_ball1):
    rng = random.Random(5)
    samples = []
    for _ in range(200):
        side_left = rng.random() < 0.5
        v = (gamma_ball1.left_enum if side_left else gamma_ball1.right_enum)(
            rng.randrange(8)
        )
        sample = {v}
        while len(sample) < rng.randint(1, 6):
            u = rng.choice(sorted(sample))
            two_step = set()
            for w in gamma_ball1.neighbors(u):
                two_step.update(gamma_ball1.neighbors(w))
            sample.add(rng.choice(sorted(two_step)))
        samples.append(sample)
    assert cehhc_spot_check(gamma_ball1, linear_witness(1), 1, samples) == []


def test_cehhc_flags_path_graph():
    z = make_group("zd:1")
    line = cayley_bipartite(z, ball(z, (z.encode_vector((1,)),), 1))
    interval = [2 * z.encode_vector((i,)) for i in range(8)]
    violations = cehhc_spot_check(line, linear_witness(1), 1, [interval])
    assert violations  # interval boundary is exactly 2, expansion fails


def test_cehhc_empty_sample_list():
    z = make_group("zd:1")
    line = cayley_bipartite(z, ball(z, (z.encode_vector((1,)),), 1))
    assert cehhc_spot_check(line, linear_witness(1), 1, []) == []
