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
once per side and per matching state, from one breadth-first search that
asks ``neighbor_rows`` for a whole frontier at once: the template.  The
graph is bipartite, so the ball's two sides are the vertices at even and
at odd distance from the origin.  The template keeps the ball's edges
once, as arcs of that network: a node's neighbours in the ball are the
heads of its arcs, less the four terminals S, T, ss and tt, which have
distance -1.  A step maps only the removed vertices into the frame and
describes its residual ball by a change map: the nodes whose distance
from the origin differs from the template's, found by a decremental
search that starts at the dead nodes and visits only the nodes that leave
the ball.  By parity, a lost node's distance grows by at least 2, and
only lost nodes within r - 2 of the origin can come back inside the
radius.  The search stops at r - 1, so a node at the radius that loses
every parent gets no entry: its parents, its only neighbours in the ball,
are dead or lost and have their arcs zeroed, so nothing flows into it,
and it can never come back.  The template also holds its network's
maximum flow and that flow's value, and every step starts from that flow:
at the nodes of the change map it cancels the flow and patches the
capacities, counts the cancelled units off the value, then augments to a
maximum flow and maps only the committed star back.  It does so in the
template's own residual list, and an undo log takes back exactly the
entries it wrote when the step ends, commit or error, so a step pays for
what it changes and not for a copy of the template.  Each phase of the
augmenting search labels the network from both ends, in level and pointer
lists that the template keeps and ``_maxflow`` hands back unchanged, so
its work grows with the step's few augmenting paths, not with the
template, and the search leaves a node with more unread arcs than the
next level holds, such as the aggregate node T, by reading that level's
arcs back into it.  For the same reason a B node at the radius has no arc
b -> tt in the arc lists, at either end: that arc has capacity 0 both
ways in the template, a step only lengthens distances, so a radius node
never becomes interior, and ``_capacities`` only reads the arc's flow (0)
before it falls back to the arc b -> T, or zeroes it again.  No
augmenting path can use it, so the flows and matchings are those of the
full lists.  A step never starts from the previous step's flow, so the
state stays a pure function of (graph, k, steps).  Both networks, the
template's and the one ``finite_harem_match`` builds from zero flow,
share one flat arc format and arc numbering.  ``finite_harem_match``
numbers its blocks of arcs with ``_arcs``; the template writes its lists
straight in that numbering, in which every node below ss has its
lower-bound arc at one offset from its own number (see ``_Template``) and
an A node's edge arcs are one run of numbers.  So both read a matching
off that run, its flows one reverse slice of the residual list
(``_run_flows``), and a step patches the A nodes that leave the ball
together, reading their flows and zeroing their arcs by slices.
``finite_harem_match`` first tries four counts that read only the sizes
of the piece, its sides, its boundary and the set of A's partners, and
builds no network for a piece they refute.  For the
paradoxical decomposition of free:2 (17-element key, k = 2) the
templates have 1,618 vertices (radius 3) and 14,578 vertices (radius 4),
and tt heads 18 and 162 arcs.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress
from operator import invert
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

    def neighbor_rows(self, vs) -> list[tuple[int, ...]]:
        """``neighbors(v)`` for each v in vs, in order; a graph whose
        neighbours are products overrides it to make them in rows."""
        return list(map(self.neighbors, vs))

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
    """Finite bipartite chunk with a marked relaxed boundary on the B side.
    Each vertex lies in A or in B, once, and ``adj`` lists the partners of
    exactly the vertices of A; a piece that breaks either rule raises
    ValueError."""

    A: tuple[int, ...]
    B: tuple[int, ...]
    adj: dict[int, tuple[int, ...]]  # A-side adjacency into B
    boundary_B: frozenset

    def __post_init__(self):
        a_set, b_set = set(self.A), set(self.B)
        if len(a_set | b_set) < len(self.A) + len(self.B):
            raise ValueError("a vertex repeats in A or B, or lies in both")
        if self.adj.keys() != a_set:
            raise ValueError("the adjacency keys must be exactly A")
        if not b_set.issuperset(chain.from_iterable(self.adj.values())):
            raise ValueError("edge leaves the B side of the piece")
        if self.boundary_B - b_set:
            raise ValueError("boundary_B must be a subset of B")


def _distances(
    g: BipartiteGraphOracle, v: int, r: int, removed: set | frozenset = frozenset()
) -> dict:
    """Vertex -> distance from v, for the vertices within distance r of v
    in the graph less ``removed``, by one breadth-first search that asks
    ``g.neighbor_rows`` for each frontier at once; v itself is never tested
    against ``removed``."""
    dist = {v: 0}
    frontier = [v]
    for d in range(1, r + 1):
        nxt = []
        for ws in g.neighbor_rows(frontier):
            for w in ws:
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


def _run_flows(cap: list, hu: list) -> list:
    """The flows on an A node's edge arcs, in the order of ``hu``, the
    node's arc list: its edge arcs are one run of numbers e0 .. e1 - 1,
    followed by the reverse of ss -> a, in both networks, and the flow on
    arc e is ``cap[~e]``, the entry ``len(cap) - 1 - e``, so one reverse
    slice of ``cap`` reads the whole run."""
    top = len(cap) - 1 - hu[0]
    return cap[top : top + 1 - len(hu) : -1]


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


def _label_from_both_ends(head: list, to: list, cap: list, s: int, t: int, level: list):
    """Label ``level``, -1 at every node on entry, with each node's
    position on the shortest augmenting paths, from both ends as
    ``_maxflow`` describes; a node with no position keeps -1.  Returns
    ``(layers, reads)``: ``layers[p]`` lists the nodes labelled at
    position p, one level of either end, and every labelled node is in
    some layer; ``reads[p]`` is the sum of ``len(head[v])`` over them, the
    count that chose which end grew.  When there is no augmenting path,
    ``reads`` is None and ``layers`` lists every node labelled, by end
    and level.  ``level`` is left labelled: ``_maxflow`` hands it back."""
    # s's labels are ds >= 0, t's are -2 - dt, and -1 is no label
    level[s], level[t] = 0, -2
    s_front, t_front = [s], [t]
    ls, d = 0, -2  # s's last level and t's last label
    s_arcs, t_arcs = len(head[s]), len(head[t])
    s_layers, s_reads = [s_front], [s_arcs]
    t_layers, t_reads = [t_front], [t_arcs]
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
                if not nxt:  # no augmenting path
                    return s_layers + t_layers, None
                s_front = nxt
                s_layers.append(nxt)
                s_reads.append(s_arcs)
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
        t_layers.append(nxt)
        t_reads.append(t_arcs)
        if meet:
            for v in s_front:  # s's last level, less the meeting nodes
                if level[v] >= 0:
                    level[v] = -1
            break
        if not nxt:  # no augmenting path
            return s_layers + t_layers, None
        t_front = nxt
    shift = ls - d  # a label -2 - dt becomes L - dt, for L = ls - d - 2
    for v in chain(*t_layers):
        level[v] += shift
    # positions 0 .. ls - 1 are s's levels, ls .. L are t's, nearest t last
    return s_layers[:ls] + t_layers[::-1], s_reads[:ls] + t_reads[::-1]


def _arc_number(e: int) -> int:
    """The number of the forward arc that e is, or is the reverse of."""
    return e if e >= 0 else ~e


def _first_arc_into(head: list, to: list, cap: list, level: list, layer: list,
                    p: int, u: int, i: int) -> int:
    """The index of the first arc at or after index i of ``head[u]`` with
    spare capacity into a node at position p, ``len(head[u])`` for none,
    read from the other end: ``layer`` lists the nodes labelled at p, and
    the arcs f back into u of those that keep their label are the reverses
    of u's arcs into them.  ``head[u]`` lists u's arcs in order of their
    numbers, so the earliest index is the least number at or above that of
    ``head[u][i]``, and bisection finds it in the list."""
    hu = head[u]
    first = _arc_number(hu[i])
    best = len(cap)  # above every arc number
    for v in layer:
        if level[v] == p:
            for f in head[v]:
                if to[f] == u and cap[~f]:
                    number = f if f >= 0 else ~f
                    if first <= number < best:
                        best = number
    if best == len(cap):
        return len(hu)
    return bisect_left(hu, best, i, key=_arc_number)


def _maxflow(head: list, to: list, cap: list, s: int, t: int, paths=None,
             level=None, ptr=None) -> int:
    """Dinic's maximum flow from s to t; leaves the residual capacities in cap.

    Each phase labels nodes from both ends, one whole level at a time: from
    s by the distance ds from s over arcs with spare capacity, and from t by
    the distance dt to t, growing over the arcs ~e into a labelled node that
    have ``cap[~e] > 0``.  The side that grows is the one whose next level
    scans fewer arcs, the sum of ``len(head[u])`` over its frontier, so the
    phase follows the few augmenting paths of a warm-started step and not
    the whole template, whose aggregate node T holds thousands of arcs.
    Once a level comes out empty, no augmenting path is left and the flow
    is maximum.  Labelling stops at the first level that reaches a
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

    At a node u at position p, the search reads u's arcs from its pointer
    on, unless those unread arcs outnumber the arcs of all the nodes
    labelled at p + 1, the count the labelling kept for that level: then it
    reads those nodes' arcs back into u instead (``_first_arc_into``), as a
    layered search needs only the arcs into the next layer.  That finds the
    same arc, the first admissible one at or after the pointer, provided
    each list ``head[u]`` holds u's arcs in the order of their numbers, the
    number of e and of ~e being e; the lists of ``_arcs`` and of
    ``_template`` do.  So the aggregate node T, with one arc per B node, is
    left by its arc to S after a read of that level's few arcs.  A network
    labelled from s alone has no level lists and reads its own arcs.

    With ``paths`` a list, each augmentation appends its arcs and the units
    it pushed, so a caller can take the flow back (see ``_undo``).

    A network labelled from both ends keeps one level list and one pointer
    list for all its phases, -1 and 0 at every node between phases, so a
    phase costs what it labels and not the network's size.  A caller that
    solves the same network many times, as the steps solve their
    template's, passes its own two lists as ``level`` and ``ptr``;
    otherwise they are made once per call.  ``_maxflow`` alone hands them
    back as it got them, after every phase: one that found paths puts -1
    and 0 back at the nodes of its layers, one that found none puts -1
    back at the nodes it labelled, and one that raised, say a
    ``MemoryError`` after its labelling, fills both lists whole before the
    error goes on.
    """
    n = len(head)
    small = n < _SMALL_NETWORK
    if not small and level is None:
        level, ptr = [-1] * n, [0] * n
    flow = 0
    layers = None
    try:
        while True:
            if small:
                level = _label_from_s(head, to, cap, s, t, n)
                if level is None:
                    return flow
                ptr = [0] * n
            else:
                layers, reads = _label_from_both_ends(head, to, cap, s, t, level)
                if reads is None:  # no augmenting path
                    for v in chain(*layers):
                        level[v] = -1
                    return flow
            nodes = [s]
            arcs: list[int] = []
            u = s
            while True:
                if u == t:
                    pushed = min(map(cap.__getitem__, arcs))
                    flow += pushed
                    if paths is not None:
                        paths.append((arcs[:], pushed))
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
                if layers and end - i > reads[nxt]:
                    # the index of the first admissible arc, or end: the scan
                    # below takes that arc at once
                    i = _first_arc_into(head, to, cap, level, layers[nxt], nxt, u, i)
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
            if layers:  # the search entered only labelled nodes
                for v in chain(*layers):
                    level[v] = -1
                    ptr[v] = 0
    except BaseException:  # the phase's lists, whole
        if not small:
            level[:], ptr[:] = [-1] * n, [0] * n
        raise


def _refuted_by_counts(fg: FiniteBipartite, k: int) -> bool:
    """True when a count rules out every relaxed (1,k)-matching of the
    piece: more interior B-vertices than the k|A| units A supplies, a
    vertex of A listing fewer than k partners, fewer than k|A| distinct
    neighbours of A, or an interior B-vertex that no vertex of A lists.
    The counts read sizes alone: a piece's vertices are distinct, its
    boundary and A's partners lie in B (``FiniteBipartite``), so B has
    |B| - |boundary_B| interior vertices, and A's partners reach them all
    exactly when they and the boundary make up |B| vertices."""
    units = k * len(fg.A)
    if len(fg.B) - len(fg.boundary_B) > units:
        return True
    heads = set()
    for partners in map(fg.adj.__getitem__, fg.A):
        if len(partners) < k:
            return True
        heads.update(partners)
    return len(heads) < units or len(heads | fg.boundary_B) < len(fg.B)


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

    Before any network is built, four counts may return None at once
    (``_refuted_by_counts``), read off sizes alone.  Each is a necessary
    condition, so every output is the flow's.  A supplies exactly k|A|
    units and a B-vertex takes at most one, so there are at most k|A|
    interior B-vertices and A has at least k|A| distinct neighbours; a
    vertex of A listing fewer than k partners cannot take k of them; an
    interior B-vertex that no vertex of A lists can never be saturated.
    Each A-vertex's partners are read off the run of its edge arcs
    (``_run_flows``).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if _refuted_by_counts(fg, k):
        return None
    # nodes: source S, sink T, the A side, the B side, then the super
    # source ss and super sink tt that carry the lower bounds
    S, T = 0, 1
    n_a, n_b = len(fg.A), len(fg.B)
    b0, ss, tt = 2 + n_a, 2 + n_a + n_b, 3 + n_a + n_b
    a_nodes = range(2, b0)
    b_index = {b: v for v, b in enumerate(fg.B, b0)}
    boundary = [v for v, b in enumerate(fg.B, b0) if b in fg.boundary_B]
    interior = [v for v, b in enumerate(fg.B, b0) if b not in fg.boundary_B]
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
    # a's edge arcs are numbered in the order of its partners
    return {
        a: tuple(sorted(compress(fg.adj[a], _run_flows(cap, hu))))
        for a, hu in zip(fg.A, head[2:b0])
    }


# ---------------------------------------------------------------------------
# the infinite back-and-forth, solved in the frame of the identity


class _Template(NamedTuple):
    """The full radius-r ball around one side's origin, the identity's
    vertex, with its flow network solved.

    Nodes and arc blocks are those of ``finite_harem_match``, each side in
    code order, except that every B node has both its boundary arc and its
    interior arc, with the capacities of the full ball.  So every node u
    below ss has its lower-bound arc at u + ``to_tt``: S -> tt, ss -> T,
    ss -> a at an A node and b -> tt at a B node.  The arcs b -> T come
    just before T -> S, which is ``to_tt - 1``, so b -> T is
    b + ``to_tt`` + 1 - ``len(head)``; and tt heads S -> tt and the arc
    of each interior B node, so there are ``len(head[tt]) - 1`` of those.
    The interior arc b -> tt of a node at the radius keeps its number,
    ``to`` entries and capacity 0 both ways, but ``head`` lists it at
    neither end: no step brings a radius node inside the radius, so the arc
    never gets capacity, and every other entry of ``head`` keeps its
    order.  ``cap`` is the residual network of the ball's maximum flow:
    the capacity of arc e is ``cap[e] + cap[~e]`` and its flow
    ``cap[~e]``; ``value`` is the value of that flow, the flow out of ss.
    The arc lists are the ball's adjacency: a node's neighbours in the
    ball are the heads ``to[e]`` of its arcs e in ``head[u]``, in edge
    order, less the four terminals S, T, ss and tt, which have distance -1
    in ``dist``, the ball's distance list.  ``parents`` counts, per node,
    its neighbours one step nearer the origin; its children are the
    neighbours one step further.  A step's change map from ``_frame`` holds
    only the nodes whose distance the removed vertices changed, less the
    radius nodes that lost every parent, and ``_capacities`` patches those
    nodes alone, cancelling the flow through them, so every step starts
    from this flow and computes its value from ``value``.  A step writes
    its network into ``cap`` itself and ``_undo`` restores it before the
    step returns or raises, so between steps ``cap`` holds this flow.
    ``level`` and ``ptr`` are the level and pointer lists of every maximum
    flow on the network, the template's own and each step's, which
    ``_maxflow`` hands back -1 and 0 at every node.
    """

    radius: int
    origin: int  # the origin's node
    codes: list  # node -> frame code (A and B nodes)
    index: dict  # frame code -> node
    dist: list  # node -> distance from the origin in the full graph
    parents: list  # node -> its neighbours at distance dist - 1
    head: list
    to: list
    cap: list
    value: int  # the value of the flow that cap carries
    b0: int  # the first B node
    to_tt: int  # the lower-bound arc of node u < ss is u + to_tt
    level: list  # node -> -1, the level list of every flow on this network
    ptr: list  # node -> 0, the pointer list of every flow on this network


def _template(g: BipartiteGraphOracle, origin: int, r: int, k: int) -> _Template:
    """The template of the radius-r ball around ``origin``, on the
    distances of :func:`_distances` in the full graph.  The graph is
    bipartite, so a vertex lies on the origin's side exactly when its
    distance from the origin is even: one ``is_left`` call, on the origin,
    splits the ball.

    The A nodes' neighbours come from one ``neighbor_rows`` call, and the
    arc lists are written straight in the numbering that ``_arcs`` gives
    the blocks of ``finite_harem_match``: the edges, A node by A node in
    code order and each node's in the order of its neighbours, then b -> T
    at every B node, T -> S, S -> tt and ss -> T, then ss -> a at every A
    node and b -> tt at every B node.  So an A node's edge arcs are one
    run of numbers, followed in ``head`` by the reverse of ss -> a, and a
    B node lists the reverses of its edge arcs, b -> T and then b -> tt,
    which a radius node leaves out as its list is made."""
    around = _distances(g, origin, r)  # code -> distance from the origin
    odd = not g.is_left(origin)  # the parity of the A nodes' distances
    A = sorted(u for u, d in around.items() if d % 2 == odd)
    B = sorted(u for u, d in around.items() if d % 2 != odd)
    S, T = 0, 1
    n_a, n_b = len(A), len(B)
    b0, ss, tt = 2 + n_a, 2 + n_a + n_b, 3 + n_a + n_b
    codes = [None, None, *A, *B]
    index = {c: u for u, c in enumerate(codes[2:], 2)}
    dist = [-1, -1, *map(around.__getitem__, codes[2:]), -1, -1]
    a_nodes, b_nodes = range(2, b0), range(b0, ss)
    # each A node's edges: the nodes of its neighbours in the ball
    get = index.get
    rows = [[w for w in map(get, ws) if w is not None] for ws in g.neighbor_rows(A)]
    edges = sum(map(len, rows))
    to_t, t_s = edges - b0, edges + n_b  # b -> T, then T -> S
    to_tt = t_s + 1  # then S -> tt, ss -> T, ss -> a and b -> tt, by node
    inside = [int(dist[b] < r) for b in b_nodes]
    interior = sum(inside)
    parents = [0] * (tt + 1)
    head = [[~t_s, to_tt], [*range(~edges, ~t_s, -1), t_s, ~(to_tt + 1)]]
    b_arcs: list[list[int]] = [[] for _ in b_nodes]  # ~e for each edge e into b
    e = 0
    for u, row in enumerate(rows, 2):
        head.append([*range(e, e + len(row)), ~(u + to_tt)])
        du = dist[u]
        for w in row:
            parents[u if du > dist[w] else w] += 1
            b_arcs[w - b0].append(~e)
            e += 1
    for b, arcs, x in zip(b_nodes, b_arcs, inside):
        # a radius node's arc b -> tt has capacity 0 both ways for good: it
        # is left out of the arc lists, its number and capacities kept
        arcs += (b + to_t, b + to_tt) if x else (b + to_t,)
        head.append(arcs)
    head.append([*range(1 + to_tt, b0 + to_tt)])
    head.append([~to_tt, *(~(b + to_tt) for b in compress(b_nodes, inside))])
    # the heads of the forward arcs, then the tails of the reverse arcs,
    # numbered from the end, in one extension that leaves no spare room
    to = [*chain(*rows), *[T] * n_b, S, tt, T, *a_nodes, *[tt] * n_b]
    m = len(to)
    to += [*reversed(b_nodes), *[ss] * (n_a + 1), S, T, *reversed(b_nodes),
           *(u for u in reversed(a_nodes) for _ in rows[u - 2])]
    cap = [1] * edges
    cap += [1 - x for x in inside]
    cap += [1 << 60, k * n_a, interior, *[k] * n_a, *inside]
    cap += [0] * m
    level, ptr = [-1] * (tt + 1), [0] * (tt + 1)
    value = _maxflow(head, to, cap, ss, tt, None, level, ptr)  # cap keeps the flow
    return _Template(
        radius=r, origin=index[origin], codes=codes, index=index, dist=dist,
        parents=parents, head=head, to=to, cap=cap, value=value,
        b0=b0, to_tt=to_tt, level=level, ptr=ptr,
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
    own.  ``_cursors`` holds each side's lowest enumeration index that may
    still be unremoved, indexed the same way.  For the free:2 decomposition
    (17-element key, k = 2) the templates have 1,618 vertices (radius 3)
    and 14,578 (radius 4).
    """

    graph: BipartiteGraphOracle
    k: int
    step_count: int = 0
    left_pairs: dict = field(default_factory=dict)
    right_pair: dict = field(default_factory=dict)
    _cursors: list = field(default_factory=lambda: [0, 0])
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
    idx = st._cursors[left]
    while enum(idx) in pairs:
        idx += 1
    st._cursors[left] = idx
    return idx, enum(idx)


def _frame(st: HaremMatchingState, a_side: bool, c: int):
    """The due side's template and the step's change map: node -> None for
    a dead node (a removed vertex taken into the frame by c^-1), -1 for a
    node inside the radius that now lies beyond it and its new distance
    from the origin for a node that moved further inside the ball.  Every
    other node keeps the template's distance, except a node at the radius
    whose parents are all dead or lost: it is beyond the radius too, but
    has no entry.

    The map is built by a decremental search over the template's arc
    lists.  The dead nodes, and then the nodes found lost, are walked in
    order of template distance up to r - 2, and each takes one from the
    parent count of its children: a node whose count reaches 0 has lost
    every shortest path, and is lost.  The terminals' distance, -1, keeps
    them out of the walk, which only steps further out, and out of the
    nearest distances that the regrow reads.
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
    dist, parents, r, head, to = tpl.dist, tpl.parents, tpl.radius, tpl.head, tpl.to
    changes = dict.fromkeys(dead)
    levels: list[list[int]] = [[] for _ in range(r + 1)]
    for u in dead:
        levels[dist[u]].append(u)
    left = {}  # node -> its parents not yet lost, once it has lost one
    for d in range(r - 1):
        for u in levels[d]:
            for w in map(to.__getitem__, head[u]):
                if dist[w] > d and w not in changes:
                    left[w] = n = left.get(w, parents[w]) - 1
                    if not n:
                        changes[w] = -1
                        levels[d + 1].append(w)
    regrow: list[list[int]] = [[] for _ in range(r + 2)]
    for u in chain(*levels[1 : r - 1]):
        if changes[u] == -1:
            near = [dist[w] for w in map(to.__getitem__, head[u]) if w not in changes]
            # the terminals S, T, ss and tt have distance -1
            regrow[min([x for x in near if x >= 0], default=r) + 1].append(u)
    for d in range(r + 1):
        for u in regrow[d]:
            if changes[u] == -1:  # not yet labelled nearer
                changes[u] = d
                regrow[d + 1] += [to[e] for e in head[u] if changes.get(to[e]) == -1]
    return tpl, changes


def _capacities(tpl: _Template, changes: dict, k: int, log: tuple):
    """Write the residual network of the residual ball with change map
    ``changes`` (see ``_frame``) into the template's own residual list
    ``tpl.cap``; return its demand (the flow value that saturates the lower
    bounds) and the value of the flow it already carries.  The arcs
    b -> T, T -> S, S -> tt and ss -> T and the count of interior B nodes
    are derived once per step from ``tpl.to_tt`` and ``tpl.head``, by the
    numbering rule of ``_Template``.

    ``log`` is the undo log ``(keys, old, units, outs)``, four lists that
    ``_undo`` reads.  Before most writes, the arc number or slice of
    ``cap`` written goes to ``keys`` and the value it held to ``old``; the
    units cancelled at the A nodes that left go to ``units`` (their edge
    arcs) and ``outs`` (the arcs out of their B nodes), as the template's
    flow fixes what those arcs held.  So ``_undo`` restores the template
    exactly, and only the entries the step wrote.

    The flow is the template's, changed only at the nodes of the map, by
    two rules.  A B node pushed out to the radius trades its interior arc
    for its boundary arc and moves its unit along.  A node that has left
    the ball (dead, or lost from inside the radius) has the path
    ss -> a -> b -> (tt | T) of each unit through it cancelled and then
    every arc zeroed, and it leaves the A or interior count.  The result
    does not depend on the order of the map: a unit already cancelled
    through a neighbour no longer sits on an arc with flow, and a zeroed
    arc carries none, so each unit is cancelled once.  So the nodes that
    left are patched by kind, the A nodes first, in bulk, while every arc
    they touch holds the template's flow.  An A node's edge arcs are one
    run of numbers (see ``_template``): one reverse slice of ``cap`` reads
    their flows (``_run_flows``), and a slice assignment zeroes their
    forward entries.  Its arc ss -> a is zeroed both ways, and each unit's
    reverse entry too, the rest of the unit's path; the unit's B node b is
    interior in the template, its unit leaving by b -> tt, or at the
    radius, leaving by b -> T, and that arc gets its unit of capacity
    back.  Then the pushed nodes, then the B nodes, which cancel their
    unit at its A end only: the flow on the edge a -> b and the arc
    ss -> a.  Their arcs are zeroed after the loop, all B nodes' at once,
    and as no unit is left on them, zeroing each arc's forward entry and
    each out arc's reverse entry zeroes it both ways.
    A radius node that lost every parent has no entry; its edge arcs are
    zeroed with its parents' arcs, and its boundary arc keeps capacity 1
    with no flow and no arc with spare capacity into it, so no augmenting
    path reaches it.  With y units left on boundary arcs, ss -> T keeps
    x = min(its flow, interior, k*n_a - y) and T -> S and S -> tt carry
    x + y.  Each cancelled unit leaves ss through an arc ss -> a, so the
    flow out of ss is the template's value less the cancelled units, with
    the flow on ss -> T changed to x.
    """
    cap = tpl.cap
    keys, old, units, outs = log
    head, to, r, was = tpl.head, tpl.to, tpl.radius, tpl.dist
    b0, to_tt = tpl.b0, tpl.to_tt
    # the arcs b -> T, T -> S, S -> tt and ss -> T (see _Template)
    to_t, t_s, s_tt, ss_t = to_tt + 1 - len(head), to_tt - 1, to_tt, to_tt + 1
    interior = len(head[-1]) - 1
    x0 = x = cap[~ss_t]
    y = cap[~t_s] - x
    gone = sorted([u for u, d in changes.items() if d is None or d < 0])
    i = bisect_left(gone, b0)  # gone[:i] are A nodes, gone[i:] B nodes
    n_a = b0 - 2 - i
    for hu in map(head.__getitem__, gone[:i]):
        flows = _run_flows(cap, hu)
        units += compress(hu, flows)
        run = slice(hu[0], hu[0] + len(flows))
        keys.append(run)
        old.append(cap[run])
        cap[run] = [0] * len(flows)
    ss_a = [u + to_tt for u in gone[:i]]
    ss_a += [~e for e in ss_a]
    keys += ss_a
    old += map(cap.__getitem__, ss_a)
    for e in ss_a:
        cap[e] = 0
    for e in units:
        cap[~e] = 0
        b = to[e]
        out = b + to_tt
        if was[b] == r:
            out = b + to_t
            y -= 1
        outs.append(out)
        cap[out] = 1
        cap[~out] = 0
    cancelled = len(units)
    for u, d in changes.items():
        if d == r:  # only B nodes lie at the radius; u was interior
            into, out = u + to_t, u + to_tt
            f = cap[~out]
            keys += (out, ~out, into, ~into)
            old += (cap[out], f, cap[into], cap[~into])
            cap[out] = cap[~out] = 0
            cap[into], cap[~into] = 1 - f, f
            y += f
            interior -= 1
    zeroed = gone[i:]
    for u in zeroed:
        # the edge arc into it that carries flow, if any
        edges = [~e for e in head[u] if e < 0 and cap[e]]
        cancelled += len(edges)
        for e in edges:
            if not cap[~(u + to_tt)]:  # the unit leaves by u -> T
                y -= 1
            # the unit's flow on a -> u, then ss -> a moved one unit back;
            # the rest of its path is zeroed below
            f = to[~e] + to_tt
            keys += (~e, f, ~f)
            old += (cap[~e], cap[f], cap[~f])
            cap[~e], cap[f], cap[~f] = 0, cap[f] + 1, cap[~f] - 1
        if was[u] < r:
            interior -= 1
    # no unit is left on those B nodes' edge arcs, so zeroing an edge's
    # forward entry zeroes it both ways: for each entry f of u's list, ~f
    # is the edge a -> u or the reverse of u -> T or u -> tt, and the
    # forward entries of u -> T and u -> tt come after them
    arcs = list(map(invert, chain.from_iterable(map(head.__getitem__, zeroed))))
    arcs += map(to_t.__add__, zeroed)
    arcs += map(to_tt.__add__, zeroed)
    keys += arcs
    old += map(cap.__getitem__, arcs)
    for e in arcs:
        cap[e] = 0
    x = min(x, interior, k * n_a - y)
    ends = (ss_t, ~ss_t, t_s, ~t_s, s_tt, ~s_tt)
    keys += ends
    old += map(cap.__getitem__, ends)
    cap[ss_t], cap[~ss_t] = interior - x, x
    cap[t_s] += cap[~t_s] - x - y
    cap[~t_s] = x + y
    cap[s_tt], cap[~s_tt] = k * n_a - x - y, x + y
    return k * n_a + interior, tpl.value - cancelled - x0 + x


def _undo(cap: list, log: tuple, paths: list):
    """Restore ``cap`` as it was before ``_capacities`` wrote it with the
    log ``log`` and ``_maxflow`` pushed the augmenting paths ``paths``, the
    latest write first: each path's units are taken back along its arcs,
    then each logged entry or slice gets back the value it held, the latest
    first, and last the units cancelled at the A nodes that left, which
    were written first, when every arc held the template's flow: each
    edge arc in ``units`` carries its unit again (its forward entry, 0,
    came back with its node's slice), and each arc in ``outs`` carries the
    unit of its B node, at capacity 1."""
    for arcs, pushed in paths:
        for e in arcs:
            cap[e] += pushed
            cap[~e] -= pushed
    keys, old, units, outs = log
    for key, value in zip(reversed(keys), reversed(old)):
        cap[key] = value
    for e in units:
        cap[~e] = 1
    for e in outs:
        cap[e] = 0
        cap[~e] = 1


def harem_step(st: HaremMatchingState) -> HaremMatchingState:
    """One back-and-forth step: resolve the star of the next vertex.

    The step's network is written into the template's own residual list,
    and restored from the undo log when the step ends, whether it commits
    or raises; ``_maxflow`` hands back the template's level and pointer
    lists even when it raises, so the state can take the step again."""
    a_side = st.step_count % 2 == 0
    c, v = _next_unremoved(st, left=a_side)
    tpl, changes = _frame(st, a_side, c)
    head, to, cap = tpl.head, tpl.to, tpl.cap
    translate = st.graph.translate
    log, paths = ([], [], [], []), []
    try:
        demand, value = _capacities(tpl, changes, st.k, log)
        where = "at step %d around code %d" % (st.step_count, v)
        # past a finite group's last code, v is no vertex: c moves the origin elsewhere
        if translate(tpl.codes[tpl.origin], c) != v:
            raise InternalInfeasibleError("finite graph's side has no vertex left " + where)
        ss = len(head) - 2
        flow = _maxflow(head, to, cap, ss, ss + 1, paths, tpl.level, tpl.ptr)
        if value + flow != demand:
            raise InternalInfeasibleError("finite matching infeasible " + where)
        a = tpl.origin
        if not a_side:  # the A node whose edge arc into the origin carries flow
            a = next(to[e] for e in head[a] if e < 0 and cap[e])
        star_left = translate(tpl.codes[a], c)
        run = compress(head[a], _run_flows(cap, head[a]))
        partners = tuple(sorted(translate(tpl.codes[to[e]], c) for e in run))
    finally:
        _undo(cap, log, paths)
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
