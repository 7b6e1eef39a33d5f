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

The back-and-forth requires a group acting on the graph by right
translations that are automorphisms: u ~ w exactly when u*h ~ w*h.  The
doubling graph of a key K is such a graph, since left x is joined to right
kx for k in K and right multiplication keeps that relation.  Each step is
therefore solved in the frame of the identity.  With the centre v = o*c,
for o the identity's vertex of v's side, the residual ball around v is the
translate by c of the residual ball around o in which the removed vertices
are moved by c^-1.  The full ball around o, and its flow network, is built
once per side and per matching state, from one breadth-first search over
``neighbors``: the template.  A step maps only the removed vertices into
the frame and describes its residual ball by a change map: the nodes
whose distance from the origin differs from the template's, found by a
decremental search that starts at the dead nodes and visits only the
nodes that leave the ball.  The graph is bipartite, so a lost node's
distance grows by at least 2 and only lost nodes within r - 2 of the
origin can come back inside the radius.  The search stops at r - 1, so a
node at the radius that loses every parent gets no entry: its parents,
its only neighbours in the ball, are dead or lost and have their arcs
zeroed, so nothing flows into it, and it can never come back.  The
template also holds its network's maximum flow and that flow's value, and
every step starts from that flow: at the nodes of the change map it
cancels the flow and patches the capacities, counts the cancelled units
off the value, then augments to a maximum flow and maps only the
committed star back.  A B node lost from inside the radius has only A
neighbours that left the ball too, since A nodes never lie at the radius,
so their cancellations already free it.  Each phase of the augmenting search labels the
network from both ends, so its work grows with the step's few augmenting
paths, not with the template.  A step never starts from the previous step's flow,
so the state stays a pure function of (graph, k, steps).  Both networks,
the template's and the one ``finite_harem_match`` builds from zero flow,
share one flat arc format (``_arcs``) and one flow readout
(``_flow_partners``).
For the paradoxical decomposition of free:2 (17-element key, k = 2) the
templates have 1,618 vertices (radius 3) and 14,578 vertices (radius 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

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
    the two sides used by the back-and-forth.  A group, coded like its
    oracle with 0 the identity, acts on the graph on the right: index h of
    either enumeration is the vertex of group element h on that side, and
    ``translate`` is an automorphism for every h.
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

    def translate(self, u: int, h: int) -> int:
        """u moved by right multiplication by the group element h, its side
        kept."""
        raise NotImplementedError

    def inv(self, h: int) -> int:
        """The inverse of the group element h."""
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


def _distances(
    g: BipartiteGraphOracle, v: int, r: int, removed: set | frozenset = frozenset()
) -> dict:
    """Vertex -> distance from v, for the vertices within distance r of v
    in the graph less ``removed``, by one breadth-first search over
    ``g.neighbors``; v itself is never tested against ``removed``."""
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
    return dist


def induced_ball(
    g: BipartiteGraphOracle, v: int, r: int, removed: set | frozenset = frozenset()
) -> FiniteBipartite:
    """Induced subgraph on the radius-r ball around v in the residual graph,
    with boundary_B the B-side vertices at distance exactly r.

    The back-and-forth does not call it: ``_template`` takes its ball from
    :func:`_distances` as well.  It is the reference that the tests
    compare the templates and each step's residual piece with, and the
    benchmark's tracer records it by name."""
    if r < 1:
        raise ValueError("radius must be >= 1")
    dist = _distances(g, v, r, removed)
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
# finite solver: feasible flow with lower bounds, by an iterative Dinic over
# flat arc arrays


def _arcs(blocks, nodes: int):
    """The flat arc arrays of a network on nodes 0 .. nodes-1: ``head``,
    ``to``, ``cap`` and the first arc number of each block.

    A block is ``(tails, heads, capacities)`` of forward arcs.  Forward arcs
    are numbered 0, 1, ... in block order, and the reverse of arc e is arc
    ~e, so ``to[~e]`` and ``cap[~e]`` index the same lists from the end.
    ``head[u]`` lists u's arcs in the order they were numbered, and that
    order alone fixes which maximum flow, and so which matching, is found.
    """
    tail, to, cap, starts = [], [], [], []
    for us, vs, cs in blocks:
        starts.append(len(tail))
        tail += us
        to += vs
        cap += cs
    head: list[list[int]] = [[] for _ in range(nodes)]
    for e, (u, v) in enumerate(zip(tail, to)):
        head[u].append(e)
        head[v].append(~e)
    to += reversed(tail)
    cap += [0] * len(tail)
    return head, to, cap, starts


def _flow_partners(head: list, to: list, cap: list, u: int) -> list:
    """The heads of u's forward arcs that carry flow: the flow on arc e is
    the residual capacity of its reverse ~e."""
    return [to[e] for e in head[u] if e >= 0 and cap[~e]]


# a network with fewer nodes is labelled from s alone (see _maxflow)
_SMALL_NETWORK = 16


def _label_from_s(head: list, to: list, cap: list, s: int, t: int, n: int):
    """Node -> breadth-first distance from s over arcs with spare capacity,
    labelled until t is; -1 for a node not labelled.  None when t is not
    reached."""
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
            return level
    return None


def _label_from_both_ends(head: list, to: list, cap: list, s: int, t: int, n: int):
    """Node -> position on the shortest augmenting paths, labelled from
    both ends as ``_maxflow`` describes; -1 for a node with no position.
    None when there is no augmenting path."""
    # s's labels are ds >= 0, t's are -2 - dt, and -1 is no label
    level = [-1] * n
    level[s], level[t] = 0, -2
    s_front, t_front, t_seen = [s], [t], [t]
    ls, d = 0, -2  # s's last level and t's last label
    s_arcs, t_arcs = len(head[s]), len(head[t])
    while True:
        if s_arcs <= t_arcs:
            ls += 1
            nxt = []
            s_arcs = 0
            for u in s_front:
                for e in head[u]:
                    if cap[e]:
                        v = to[e]
                        x = level[v]
                        if x == -1:
                            level[v] = ls
                            nxt.append(v)
                            s_arcs += len(head[v])
                        elif x < -1:  # labelled from t: the ends meet
                            break
                else:
                    continue
                break
            else:
                if not nxt:
                    return None
                s_front = nxt
                continue
            for v in nxt:  # s's last level
                level[v] = -1
            break
        d -= 1
        nxt = []
        t_arcs = 0
        meet = False
        for u in t_front:
            for e in head[u]:
                if cap[~e]:
                    v = to[e]
                    x = level[v]
                    if x >= -1:
                        level[v] = d
                        nxt.append(v)
                        t_arcs += len(head[v])
                        if x >= 0:
                            meet = True
        t_seen += nxt
        if meet:
            for v in s_front:  # s's last level, less the meeting nodes
                if level[v] >= 0:
                    level[v] = -1
            break
        if not nxt:
            return None
        t_front = nxt
    shift = ls - d  # a label -2 - dt becomes L - dt, for L = ls - d - 2
    for v in t_seen:
        level[v] += shift
    return level


def _maxflow(head: list, to: list, cap: list, s: int, t: int) -> int:
    """Dinic's maximum flow from s to t; leaves the residual capacities in cap.

    Each phase labels nodes from both ends, one whole level at a time: from
    s by the distance ds from s over arcs with spare capacity, and from t by
    the distance dt to t, growing over the arcs ~e into a labelled node that
    have ``cap[~e] > 0``.  The side that grows is the one whose next level
    scans fewer arcs, the sum of ``len(head[u])`` over its frontier, so the
    phase follows the few augmenting paths of a warm-started step and not
    the whole template, whose aggregate nodes T and tt each hold thousands
    of arcs.  Once a level comes out empty, no augmenting path is left and
    the flow is maximum.  Labelling stops at the first level that reaches a
    node labelled from the other end: with ls and lt the levels grown,
    L = ls + lt is then the length of the shortest augmenting paths, and
    ds(v) + dt(v) >= L for every node v.  A level of s stops at the first
    such node, as the rest of it gets no position below.

    Each node then gets its position on the shortest paths: L - dt if it is
    labelled from t, ds if it is labelled from s alone short of s's last
    level, and none otherwise (an s-only node on s's last level has no arc
    into a node at distance lt - 1 from t, or it would carry a label from
    t).  The search steps from position p to p + 1 over arcs with spare
    capacity, and a node it enters at position p lies at distance exactly p
    from s: at most p along the search's path, and at least L - dt = p for
    a node labelled from t.  So the admissible s-t paths are exactly the
    shortest augmenting paths, every node of which is labelled at its
    distance since ds <= ls or dt <= lt; the forward-only level graph of the
    textbook Dinic admits the same paths.

    A network of fewer than ``_SMALL_NETWORK`` nodes, such as a piece of a
    few vertices, is labelled from s alone, by breadth-first search until t
    is labelled: there the two frontiers soon cover the whole network, and
    the second frontier costs more than it saves.  Its admissible paths are
    the same.

    The depth-first search keeps a current-arc pointer per node and the path
    as two stacks, its nodes and its arcs.  After an augmentation it resumes
    at the tail of the first arc the augmentation saturated, which is where a
    restart from s would arrive again, and a node found to be a dead end is
    unlabelled so it is never entered again.  It takes the first admissible
    path in arc order at every augmentation, so the flow found is the one the
    recursive textbook search finds with the same arc order.
    """
    n = len(head)
    label = _label_from_s if n < _SMALL_NETWORK else _label_from_both_ends
    flow = 0
    while True:
        level = label(head, to, cap, s, t, n)
        if level is None:
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


def finite_harem_match(fg: FiniteBipartite, k: int):
    """Matching giving every A-vertex exactly k partners, every interior
    B-vertex exactly one and every boundary B-vertex at most one, or None
    when no such matching exists.

    Solved as a feasible flow with lower bounds (left supply exactly k,
    interior-right demand exactly 1) by the iterative Dinic ``_maxflow``.
    The network is built in one pass, its arcs numbered in a fixed order:
    the edges (A in the given order, each vertex's partners in adjacency
    order), the boundary arcs in B order, then the arcs that carry the
    bounds.  The matching is therefore reproducible, and equal to the one
    the recursive Dinic finds on the same arc order.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # nodes: source S, sink T, the A side, the B side, then the super
    # source ss and super sink tt that carry the lower bounds
    S, T = 0, 1
    n_a, n_b = len(fg.A), len(fg.B)
    b0, ss, tt = 2 + n_a, 2 + n_a + n_b, 3 + n_a + n_b
    a_nodes = range(2, b0)
    b_index = {b: v for v, b in enumerate(fg.B, b0)}
    boundary = [b_index[b] for b in fg.B if b in fg.boundary_B]
    interior = [b_index[b] for b in fg.B if b not in fg.boundary_B]
    edge_tail = [u for u, a in zip(a_nodes, fg.A) for _ in fg.adj[a]]
    edge_head = [b_index[b] for a in fg.A for b in fg.adj[a]]
    # S -> tt (no A side) and ss -> T (no interior) may get capacity 0; such
    # an arc is never traversed in either direction
    blocks = (
        (edge_tail, edge_head, [1] * len(edge_tail)),
        (boundary, [T] * len(boundary), [1] * len(boundary)),
        ((T,), (S,), (1 << 60,)),
        # S -> a has bounds [k, k] and interior b -> T has bounds [1, 1]
        ((S,), (tt,), (k * n_a,)),
        ((ss,), (T,), (len(interior),)),
        ([ss] * n_a, a_nodes, [k] * n_a),
        (interior, [tt] * len(interior), [1] * len(interior)),
    )
    head, to, cap, _ = _arcs(blocks, tt + 1)
    if _maxflow(head, to, cap, ss, tt) != k * n_a + len(interior):
        return None
    return {
        a: tuple(sorted(fg.B[v - b0] for v in _flow_partners(head, to, cap, u)))
        for u, a in zip(a_nodes, fg.A)
    }


# ---------------------------------------------------------------------------
# the infinite back-and-forth, solved in the frame of the identity


class _Template(NamedTuple):
    """The full radius-r ball around one side's origin, the identity's
    vertex, with its flow network solved.

    Nodes and arc blocks are those of ``finite_harem_match``, each side in
    code order, except that every B node has both its boundary arc and its
    interior arc, with the capacities of the full ball.  ``cap`` is the
    residual network of the ball's maximum flow: the capacity of arc e is
    ``cap[e] + cap[~e]`` and its flow ``cap[~e]``; ``value`` is the value of
    that flow, the flow out of ss.
    ``dist`` is the ball's distance list and ``parents`` counts, per node,
    its neighbours one step nearer the origin; its children are the
    neighbours one step further.  A step's change map from ``_frame`` holds
    only the nodes whose distance the removed vertices changed, less the
    radius nodes that lost every parent, and ``_capacities`` patches those
    nodes alone, cancelling the flow through them, so every step starts
    from this flow and computes its value from ``value``.
    """

    radius: int
    origin: int  # the origin's node
    codes: list  # node -> frame code (A and B nodes)
    index: dict  # frame code -> node
    dist: list  # node -> distance from the origin in the full graph
    nbrs: list  # node -> its neighbours in the ball
    parents: list  # node -> its neighbours at distance dist - 1
    head: list
    to: list
    cap: list
    value: int  # the value of the flow that cap carries
    b0: int  # the first B node
    to_t: int  # the arc b -> T is b + to_t
    to_tt: int  # the arc b -> tt is b + to_tt
    t_s: int  # the arc T -> S
    s_tt: int  # the arc S -> tt
    ss_t: int  # the arc ss -> T
    interior: int  # B nodes closer to the origin than the radius


def _template(g: BipartiteGraphOracle, origin: int, r: int, k: int) -> _Template:
    """The template of the radius-r ball around ``origin``, on the
    distances of :func:`_distances` in the full graph."""
    around = _distances(g, origin, r)  # code -> distance from the origin
    A = sorted(u for u in around if g.is_left(u))
    B = sorted(u for u in around if not g.is_left(u))
    S, T = 0, 1
    n_a, n_b = len(A), len(B)
    b0, ss, tt = 2 + n_a, 2 + n_a + n_b, 3 + n_a + n_b
    codes = [None, None, *A, *B]
    index = {c: u for u, c in enumerate(codes[2:], 2)}
    dist = [-1, -1, *map(around.__getitem__, codes[2:]), -1, -1]
    a_nodes, b_nodes = range(2, b0), range(b0, ss)
    edge_tail, edge_head = [], []
    for u, a in zip(a_nodes, A):
        for w in g.neighbors(a):
            if w in around:
                edge_tail.append(u)
                edge_head.append(index[w])
    nbrs: list[list[int]] = [[] for _ in range(tt + 1)]
    parents = [0] * (tt + 1)
    for u, w in zip(edge_tail, edge_head):
        nbrs[u].append(w)
        nbrs[w].append(u)
        parents[u if dist[u] > dist[w] else w] += 1
    on_boundary = [int(dist[b] == r) for b in b_nodes]
    interior = n_b - sum(on_boundary)
    # the blocks of finite_harem_match, with both arcs at every B node
    blocks = (
        (edge_tail, edge_head, [1] * len(edge_tail)),
        (b_nodes, [T] * n_b, on_boundary),
        ((T,), (S,), (1 << 60,)),
        ((S,), (tt,), (k * n_a,)),
        ((ss,), (T,), (interior,)),
        ([ss] * n_a, a_nodes, [k] * n_a),
        (b_nodes, [tt] * n_b, [1 - x for x in on_boundary]),
    )
    head, to, cap, starts = _arcs(blocks, tt + 1)
    value = _maxflow(head, to, cap, ss, tt)  # cap keeps the flow
    return _Template(
        radius=r, origin=index[origin], codes=codes, index=index, dist=dist,
        nbrs=nbrs, parents=parents, head=head, to=to, cap=cap, value=value,
        b0=b0, to_t=starts[1] - b0, to_tt=starts[6] - b0, t_s=starts[2],
        s_tt=starts[3], ss_t=starts[4], interior=interior,
    )


@dataclass
class HaremMatchingState:
    """Deterministic, resumable state of the back-and-forth (1,k)-matching.

    The state after s steps is a pure function of (graph, k, s); committed
    pairs never change as more steps run.  The state holds only the
    matching: the removed vertices are the keys of ``left_pairs`` and
    ``right_pair``.

    Each step is solved in the frame of the identity.  Right translation by
    a group element is a graph automorphism, so the residual ball around
    the centre o*c (o the identity's vertex of its side) is the residual
    ball around o, with the removed vertices moved by c^-1, translated by
    c.  ``_templates`` holds each side's full ball around o with its flow
    network and that network's maximum flow, the start of every step on
    the side, keyed by whether the side is A and built at the side's first
    step.  It is owned by this state alone, so a fresh state builds its
    own.  For the free:2 decomposition (17-element key, k = 2) the
    templates have 1,618 vertices (radius 3) and 14,578 (radius 4).
    """

    graph: BipartiteGraphOracle
    k: int
    step_count: int = 0
    left_pairs: dict = field(default_factory=dict)
    right_pair: dict = field(default_factory=dict)
    _cursor_a: int = 0
    _cursor_b: int = 0
    _templates: dict = field(default_factory=dict, repr=False, compare=False)


def harem_new(g: BipartiteGraphOracle, k: int) -> HaremMatchingState:
    """Fresh state at step 0.  The caller asserts that g satisfies the
    expanding Hall condition for k (see cehhc_spot_check)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return HaremMatchingState(g, k)


def _next_unremoved(st: HaremMatchingState, left: bool) -> tuple[int, int]:
    """The due side's lowest unremoved vertex and its enumeration index,
    that is its group element: (index, vertex)."""
    enum = st.graph.left_enum if left else st.graph.right_enum
    pairs = st.left_pairs if left else st.right_pair
    idx = st._cursor_a if left else st._cursor_b
    while enum(idx) in pairs:
        idx += 1
    if left:
        st._cursor_a = idx
    else:
        st._cursor_b = idx
    return idx, enum(idx)


def _frame(st: HaremMatchingState, a_side: bool, c: int):
    """The due side's template and the step's change map: node -> None for
    a dead node (a removed vertex taken into the frame by c^-1), -1 for a
    node inside the radius that now lies beyond it and its new distance
    from the origin for a node that moved further inside the ball.  Every
    other node keeps the template's distance, except a node at the radius
    whose parents are all dead or lost: it is beyond the radius too, but
    has no entry.

    The map is built by a decremental search.  The dead nodes, and then the
    nodes found lost, are walked in order of template distance up to
    r - 2, and each takes one from the parent count of its children: a
    node whose count reaches 0 has lost every shortest path, and is lost.
    The graph is bipartite, so a lost node's distance grows by at least 2
    and only one within r - 2 of the origin can come back inside the
    radius; those are labelled again, level by level, from their kept
    neighbours.  The nodes at r - 1 are not walked, so no node at the
    radius is marked lost.  Such a node's neighbours in the ball are its
    parents, at r - 1; when all of them are dead or lost, ``_capacities``
    zeroes every arc between them and it, so no arc with spare capacity
    enters it and it carries no flow, and it can never come back, since a
    lost node at r - 1 can only move past the radius."""
    g = st.graph
    tpl = st._templates.get(a_side)
    if tpl is None:
        origin = g.left_enum(0) if a_side else g.right_enum(0)
        r = RADIUS_A if a_side else RADIUS_B
        tpl = st._templates[a_side] = _template(g, origin, r, st.k)
    c_inv = g.inv(c)
    frame = (g.translate(u, c_inv) for u in chain(st.left_pairs, st.right_pair))
    dead = [tpl.index[f] for f in frame if f in tpl.index]
    dist, nbrs, parents, r = tpl.dist, tpl.nbrs, tpl.parents, tpl.radius
    changes = dict.fromkeys(dead)
    levels: list[list[int]] = [[] for _ in range(r + 1)]
    for u in dead:
        levels[dist[u]].append(u)
    left = {}  # node -> its parents not yet lost, once it has lost one
    for d in range(r - 1):
        for u in levels[d]:
            for w in nbrs[u]:
                if dist[w] > d and w not in changes:
                    left[w] = n = left.get(w, parents[w]) - 1
                    if not n:
                        changes[w] = -1
                        levels[d + 1].append(w)
    regrow: list[list[int]] = [[] for _ in range(r + 2)]
    for u in chain(*levels[1 : r - 1]):
        if changes[u] == -1:
            near = [dist[w] for w in nbrs[u] if w not in changes]
            regrow[min(near, default=r) + 1].append(u)
    for d in range(r + 1):
        for u in regrow[d]:
            if changes[u] == -1:  # not yet labelled nearer
                changes[u] = d
                regrow[d + 1] += [w for w in nbrs[u] if changes.get(w, 0) == -1]
    return tpl, changes


def _capacities(tpl: _Template, changes: dict, k: int):
    """The template's residual network for the residual ball with change
    map ``changes`` (see ``_frame``), its demand (the flow value that
    saturates the lower bounds) and the value of the flow it already
    carries.

    The flow is the template's, changed only at the nodes of the map.  A
    node that has left the ball (dead, or lost from inside the radius) has
    the path ss -> a -> b -> (tt | T) of each unit through it cancelled and
    then every arc zeroed, and it leaves the A or interior count; a B node
    pushed out to the radius trades its interior arc for its boundary arc
    and moves its unit along.  A lost B node that is not dead needs less: A
    nodes never lie at the radius, so every A neighbour of it has left the
    ball too, and their cancellations cancel its unit and zero its edge
    arcs.  Only its arcs b -> T and b -> tt are zeroed, after all
    cancellations, since a cancellation reads the flow on b -> tt.  A
    radius node that lost every parent has no entry; its edge arcs are
    zeroed with its parents' arcs, and its boundary arc keeps capacity 1
    with no flow and no arc with spare capacity into it, so no augmenting
    path reaches it.  With y units left on boundary arcs, ss -> T keeps
    x = min(its flow, interior, k*n_a - y) and T -> S and S -> tt carry
    x + y.  Each cancelled unit leaves ss through an arc ss -> a, so the
    flow out of ss is the template's value less the cancelled units, with
    the flow on ss -> T changed to x.
    """
    cap = tpl.cap[:]
    head, to, r, was = tpl.head, tpl.to, tpl.radius, tpl.dist
    b0, to_t, to_tt = tpl.b0, tpl.to_t, tpl.to_tt
    n_a, interior = b0 - 2, tpl.interior
    x0 = x = cap[~tpl.ss_t]
    y = cap[~tpl.t_s] - x
    cancelled = 0
    beyond = []  # B nodes lost from inside the radius that are not dead
    for u, d in changes.items():
        if d == r:  # only B nodes lie at the radius; u was interior
            f = cap[~(u + to_tt)]
            cap[u + to_tt] = cap[~(u + to_tt)] = 0
            cap[u + to_t], cap[~(u + to_t)] = 1 - f, f
            y += f
            interior -= 1
        elif d == -1 and u >= b0:
            beyond.append(u)
            interior -= 1
        elif d is None or d < 0:
            if u < b0:  # its edge arcs that carry flow
                edges = [e for e in head[u] if e >= 0 and cap[~e]]
            else:  # the edge arc into it that carries flow, if any
                edges = [~e for e in head[u] if e < 0 and cap[e]]
            cancelled += len(edges)
            for e in edges:
                out = to[e] + to_tt
                if not cap[~out]:
                    out = to[e] + to_t
                    y -= 1
                # a -> b, ss -> a (the last arc at a is its reverse), b's out
                for f in (e, ~head[to[~e]][-1], out):
                    cap[f] += 1
                    cap[~f] -= 1
            for e in head[u]:
                cap[e] = cap[~e] = 0
            if u < b0:
                n_a -= 1
            elif was[u] < r:
                interior -= 1
    for u in beyond:
        cap[u + to_t] = cap[~(u + to_t)] = cap[u + to_tt] = cap[~(u + to_tt)] = 0
    x = min(x, interior, k * n_a - y)
    cap[tpl.ss_t], cap[~tpl.ss_t] = interior - x, x
    cap[tpl.t_s] += cap[~tpl.t_s] - x - y
    cap[~tpl.t_s] = x + y
    cap[tpl.s_tt], cap[~tpl.s_tt] = k * n_a - x - y, x + y
    return cap, k * n_a + interior, tpl.value - cancelled - x0 + x


def harem_step(st: HaremMatchingState) -> HaremMatchingState:
    """One back-and-forth step: resolve the star of the next vertex."""
    a_side = st.step_count % 2 == 0
    c, v = _next_unremoved(st, left=a_side)
    tpl, changes = _frame(st, a_side, c)
    head, to = tpl.head, tpl.to
    translate = st.graph.translate
    cap, demand, value = _capacities(tpl, changes, st.k)
    where = "at step %d around code %d" % (st.step_count, v)
    # past a finite group's last code, v is no vertex: c moves the origin elsewhere
    if translate(tpl.codes[tpl.origin], c) != v:
        raise InternalInfeasibleError("finite graph's side has no vertex left " + where)
    ss = len(head) - 2
    if value + _maxflow(head, to, cap, ss, ss + 1) != demand:
        raise InternalInfeasibleError("finite matching infeasible " + where)
    a = tpl.origin
    if not a_side:  # the A node whose edge arc into the origin carries flow
        a = next(to[e] for e in head[a] if e < 0 and cap[e])
    star_left = translate(tpl.codes[a], c)
    partners = tuple(
        sorted(translate(tpl.codes[w], c) for w in _flow_partners(head, to, cap, a))
    )
    st.left_pairs[star_left] = partners
    for b in partners:
        st.right_pair[b] = star_left
    st.step_count += 1
    return st


def harem_query(st: HaremMatchingState, v: int, b: Budget):
    """Partners of v (k-tuple for a left vertex, single code for a right),
    one budget step per further matching step; UNKNOWN if unresolved."""
    meter = b.meter()
    pairs = st.left_pairs if st.graph.is_left(v) else st.right_pair
    while v not in pairs and meter.charge():
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
