"""The back-and-forth solved in the identity's frame.

At every step of a paradox prefix, the residual piece read off the side's
template and moved back by the centre's group element is the residual ball
that ``induced_ball`` builds around the centre.  Each step starts from the
template's own maximum flow with the flow through the changed nodes
cancelled, so its matching need not be the one ``finite_harem_match`` finds
on that piece.  What is checked instead needs no solver: the start and the
final flow are valid flows of the step's network, the final flow moved back
is a feasible relaxed (1,k)-matching of the piece, and the committed star
is its star at the centre.  Each step's change map and network are also
compared with full scans: a breadth-first search of the template with the
dead nodes removed, and ``full_scan_capacities``.  The change map leaves
out the radius nodes that lost every parent; the full scan names them,
and each must have every neighbour in the ball dead or lost.  Templates
are compared with ``_template_reference``, the build from ``induced_ball``,
whose neighbour lists must equal the adjacency read off the template's arc
lists, and whole matchings with pinned ``matching_dump`` hashes.  The arcs
that a template leaves out of its arc lists, the radius nodes' arcs
b -> tt, must have capacity 0 both ways in the template and in every
step's network.
"""

import hashlib
import random
from itertools import chain, compress

import pytest

from folnerlab import Budget, harem, make_group
from folnerlab.groups import ball, parse_elements
from folnerlab.harem import (
    RADIUS_A,
    RADIUS_B,
    FiniteBipartite,
    InternalInfeasibleError,
    _arc_number,
    _arcs,
    _capacities,
    _frame,
    _maxflow,
    _next_unremoved,
    _run_flows,
    _undo,
    _template,
    harem_new,
    harem_step,
    induced_ball,
    matching_dump,
)
from folnerlab.paradox import (
    CayleyBipartite,
    build_decomposition,
    cayley_bipartite,
    verify_decomposition_prefix,
)
from test_harem import forward_maxflow


def paradox_free2():
    g = make_group("free:2")
    return build_decomposition(g, parse_elements(g, "a,a^-1,b,b^-1"), 1)


def step_distances(tpl, changes):
    """The step's whole distance list: the change map laid over the
    template's distances."""
    dist = tpl.dist[:]
    for u, d in changes.items():
        dist[u] = d
    return dist


# id(template) -> (template, its ball adjacency); emptied after each test
ADJACENCY = {}


@pytest.fixture(autouse=True)
def forget_adjacency():
    yield
    ADJACENCY.clear()


def ball_adjacency(tpl):
    """Node -> its neighbours in the ball, read off the template's arc
    lists: the heads of its arcs less the terminals S, T, ss and tt, which
    have distance -1 and no neighbours in the ball.  Steps never write into
    a template, so it is read once per template and test."""
    held = ADJACENCY.get(id(tpl))
    if held is None or held[0] is not tpl:
        to, dist = tpl.to, tpl.dist
        held = ADJACENCY[id(tpl)] = tpl, [
            [w for w in map(to.__getitem__, arcs) if dist[w] >= 0] if dist[u] >= 0 else []
            for u, arcs in enumerate(tpl.head)
        ]
    return held[1]


def full_scan_distances(nbrs, origin, r, dead):
    """Node -> distance from the origin node by breadth-first search over
    ``nbrs``, entering no node beyond distance r: -1 for a node not
    reached.  The dead nodes are pre-marked None, so the search never
    enters them."""
    dist = [-1] * len(nbrs)
    for u in dead:
        dist[u] = None
    dist[origin] = 0
    queue = [origin]
    for u in queue:
        d = dist[u] + 1
        if d <= r:
            for w in nbrs[u]:
                if dist[w] == -1:
                    dist[w] = d
                    queue.append(w)
    return dist


def lost_radius_nodes(tpl, changes):
    """The radius nodes without a change-map entry whose every neighbour in
    the ball is dead or lost: beyond the radius for good."""
    dist = step_distances(tpl, changes)
    nbrs = ball_adjacency(tpl)
    return {
        u for u, d in enumerate(tpl.dist)
        if d == tpl.radius and u not in changes
        and all(dist[w] is None or dist[w] == -1 for w in nbrs[u])
    }


def frame_piece(graph, tpl, changes, lost):
    """The residual piece of the template in frame codes, with its
    adjacency read from the graph oracle: the nodes inside the radius by
    the change map, less the nodes ``lost``, the step's
    ``lost_radius_nodes``."""
    dist = step_distances(tpl, changes)
    for u in lost:
        dist[u] = -1
    dist = {tpl.codes[u]: d for u, d in enumerate(dist) if d is not None and d >= 0}
    A = tuple(sorted(f for f in dist if graph.is_left(f)))
    B = tuple(sorted(f for f in dist if not graph.is_left(f)))
    adj = {a: tuple(w for w in graph.neighbors(a) if w in dist) for a in A}
    boundary = frozenset(b for b in B if dist[b] == tpl.radius)
    return FiniteBipartite(A, B, adj, boundary)


def flow_value(tpl, cap):
    """The value of the flow that the residual capacities ``cap`` carry on
    the template's network, after checking it is one: 0 <= flow <= capacity
    on every arc, the flow on arc e being ``cap[~e]`` and its capacity
    ``cap[e] + cap[~e]``, and conservation at every node but ss and tt."""
    assert min(cap) >= 0
    m = len(cap) // 2
    # forward arc e runs from to[~e] to to[e] and carries cap[~e]
    excess = [0] * len(tpl.head)
    for u, w, f in zip(reversed(tpl.to[m:]), tpl.to[:m], reversed(cap[m:])):
        excess[u] -= f
        excess[w] += f
    ss = len(tpl.head) - 2
    assert not any(excess[:ss])
    return -excess[ss]


def flow_heads(head, to, cap, u):
    """The heads of u's forward arcs that carry flow, by a scan of its whole
    arc list: the flow on arc e is the residual capacity of its reverse."""
    return [to[e] for e in head[u] if e >= 0 and cap[~e]]


def check_run_readout(head, to, cap, a_nodes):
    """At each A node, ``_run_flows`` reads the flows of its forward arcs,
    in order, and the heads of the arcs with flow are the scan's; returns
    the units read."""
    units = 0
    for u in a_nodes:
        flows = _run_flows(cap, head[u])
        assert flows == [cap[~e] for e in head[u] if e >= 0]
        assert [to[e] for e in compress(head[u], flows)] == flow_heads(head, to, cap, u)
        units += sum(flows)
    return units


def fixed_arcs(tpl):
    """The offset of the arcs b -> T, the arcs T -> S, S -> tt and ss -> T
    and the number of interior B nodes, derived from ``to_tt`` by the
    numbering rule of ``_Template``; ``check_arc_numbers`` checks them."""
    to_tt = tpl.to_tt
    return to_tt + 1 - len(tpl.head), to_tt - 1, to_tt, to_tt + 1, len(tpl.head[-1]) - 1


def check_capacities(tpl, cap, demand, local, k, lost=frozenset()):
    """The step's network carries exactly the bounds of the piece.  The
    radius nodes ``lost`` for good keep their boundary arc, with no flow
    on it and no arc with spare capacity into them."""

    def capacity(e):
        return cap[e] + cap[~e]

    to_t, _, s_tt, ss_t, _ = fixed_arcs(tpl)
    live = {tpl.index[f] for f in local.A + local.B}
    boundary = {tpl.index[f] for f in local.boundary_B}
    for u in range(2, tpl.b0):
        # the last arc at an A node is the reverse of its arc ss -> a
        assert capacity(~tpl.head[u][-1]) == (k if u in live else 0)
    for b in range(tpl.b0, len(tpl.head) - 2):
        assert capacity(b + to_t) == (b in boundary or b in lost)
        assert capacity(b + tpl.to_tt) == (b in live and b not in boundary)
    for e, w in enumerate(tpl.to[: len(tpl.to) // 2]):
        u = tpl.to[~e]
        if 2 <= u < tpl.b0 and w >= tpl.b0:  # an edge arc
            assert capacity(e) == (u in live and w in live)
    for b in lost:
        assert not cap[~(b + to_t)]
    n_a, interior = len(local.A), len(local.B) - len(local.boundary_B)
    assert capacity(s_tt) == k * n_a and capacity(ss_t) == interior
    assert demand == k * n_a + interior


def full_scan_capacities(tpl, dist, k):
    """The step's network built from its whole distance list ``dist``,
    comparing every node's distance with the template's: the reference
    for ``_capacities``, which reads only the change map."""
    cap = tpl.cap[:]
    head, to, r, was = tpl.head, tpl.to, tpl.radius, tpl.dist
    b0, to_tt = tpl.b0, tpl.to_tt
    to_t, t_s, s_tt, ss_t, interior = fixed_arcs(tpl)
    n_a = b0 - 2
    x = cap[~ss_t]
    y = cap[~t_s] - x
    for u, d in enumerate(dist):
        if d == was[u]:
            continue
        if d == r:  # only B nodes lie at the radius; u was interior
            f = cap[~(u + to_tt)]
            cap[u + to_tt] = cap[~(u + to_tt)] = 0
            cap[u + to_t], cap[~(u + to_t)] = 1 - f, f
            y += f
            interior -= 1
        elif d is None or d < 0:
            if u < b0:  # its edge arcs that carry flow
                edges = [e for e in head[u] if e >= 0 and cap[~e]]
            else:  # the edge arc into it that carries flow, if any
                edges = [~e for e in head[u] if e < 0 and cap[e]]
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
    x = min(x, interior, k * n_a - y)
    cap[ss_t], cap[~ss_t] = interior - x, x
    cap[t_s] += cap[~t_s] - x - y
    cap[~t_s] = x + y
    cap[s_tt], cap[~s_tt] = k * n_a - x - y, x + y
    start = sum(cap[~e] for e in head[-2])  # the flow out of ss
    return cap, k * n_a + interior, start


def checked_step(st, ref):
    """One harem step, checked against the references on the oracle ref.

    The step's residual piece, read off the template and moved back by the
    centre's group element, must be ``induced_ball`` around the centre.  The
    warm start and the step's maximum flow must be flows of the piece's
    network, the final one moved back a feasible relaxed (1,k)-matching of
    the piece, and the committed star its star at the centre.  The network
    is written into the template's residual list, as the step writes it,
    and the undo must leave that list as it was."""
    graph = st.graph
    a_side = st.step_count % 2 == 0
    cursor = list(st._cursors)
    c, v = _next_unremoved(st, left=a_side)
    st._cursors = cursor
    r = RADIUS_A if a_side else RADIUS_B
    tpl, changes = _frame(st, a_side, c)
    lost = lost_radius_nodes(tpl, changes)
    local = frame_piece(ref, tpl, changes, lost)
    held, cap = tpl.cap[:], tpl.cap
    log, paths = ([], [], [], []), []
    try:
        demand, value = _capacities(tpl, changes, st.k, log)
        check_capacities(tpl, cap, demand, local, st.k, lost)
        assert flow_value(tpl, cap) == value
        ss = len(tpl.head) - 2
        assert value + _maxflow(tpl.head, tpl.to, cap, ss, ss + 1, paths) == demand
        assert flow_value(tpl, cap) == demand
        flows = {u: flow_heads(tpl.head, tpl.to, cap, u) for u in range(2, tpl.b0)}
    finally:
        _undo(cap, log, paths)
    assert cap == held

    # each frame code moved back by c once, in one pass: the template's A
    # nodes, whose flows are read below, and the piece's B nodes
    codes = chain(tpl.codes[2 : tpl.b0], local.B)
    back = {f: graph.translate(f, c) for f in codes}.__getitem__
    want = induced_ball(ref, v, r, {*st.left_pairs, *st.right_pair})
    assert set(map(back, local.A)) == set(want.A)
    assert set(map(back, local.B)) == set(want.B)
    assert {back(a): set(map(back, bs)) for a, bs in local.adj.items()} == {
        a: set(bs) for a, bs in want.adj.items()
    }
    assert set(map(back, local.boundary_B)) == set(want.boundary_B)

    # the whole flow, moved back, is a relaxed (1,k)-matching of the piece
    matching = {
        back(tpl.codes[u]): [back(tpl.codes[w]) for w in ws] for u, ws in flows.items()
    }
    taken = []
    for a, bs in matching.items():
        assert len(bs) == (st.k if a in want.A else 0)
        assert set(bs) <= set(want.adj.get(a, ()))
        taken += bs
    assert len(taken) == len(set(taken))
    assert set(want.B) - want.boundary_B <= set(taken) <= set(want.B)

    star = v if a_side else next(a for a, bs in matching.items() if v in bs)
    before = set(st.left_pairs)
    harem_step(st)
    assert set(st.left_pairs) - before == {star}
    assert st.left_pairs[star] == tuple(sorted(matching[star]))
    return tpl, changes


def test_frame_piece_is_the_residual_ball_at_every_step():
    d = paradox_free2()
    st = d.state
    # a second oracle for the references, so the state's own stays untouched
    ref = cayley_bipartite(d.group, d.key.K)
    for m in range(48):
        while 2 * m not in st.left_pairs:
            checked_step(st, ref)
    assert st.step_count == 61


def test_maxflow_equals_the_forward_reference_at_template_scale(monkeypatch):
    # every solve of a 48-code prefix, the two template builds and the 61
    # steps, is also run from s alone on a copy of the same network: the
    # values and the whole residual networks must agree
    solve = harem._maxflow
    nodes = []

    def checked(head, to, cap, s, t, paths=None, level=None, ptr=None):
        ref = cap[:]
        want = forward_maxflow(head, to, ref, s, t)
        value = solve(head, to, cap, s, t, paths, level, ptr)
        assert value == want and cap == ref
        nodes.append(len(head))
        return value

    monkeypatch.setattr(harem, "_maxflow", checked)
    d = paradox_free2()
    report = verify_decomposition_prefix(d, 48, Budget(10**4))
    assert report["violations"] == [] and d.state.step_count == 61
    # the templates' vertices and the four nodes S, T, ss and tt
    assert len(nodes) == 63 and set(nodes) == {1618 + 4, 14578 + 4}


def full_scan_steps(monkeypatch):
    """Check every step against the full scans: the change map must be the
    difference between a breadth-first search of the template with the
    dead nodes removed and the template's distances, less exactly the
    radius nodes that the search finds beyond the radius, each of which
    must have every neighbour in the ball dead or lost; the network built
    from it must equal ``full_scan_capacities``'s; and each step must find
    its template's residual list as the template was built.  Returns, one per
    step, the change-map sizes, the numbers of radius nodes left out of
    the map and the numbers of B nodes lost from inside the radius that
    are not dead."""
    frame, capacities = harem._frame, harem._capacities
    steps, omitted, lost_b = [], [], []
    held = {}  # side -> its template's residual list when first seen

    def checked_frame(st, a_side, c):
        tpl, changes = frame(st, a_side, c)
        # every step starts from the template's own flow: the undo of the
        # steps before restored it entry for entry
        assert held.setdefault(a_side, tpl.cap[:]) == tpl.cap
        g = st.graph
        c_inv = g.inv(c)
        moved = (g.translate(u, c_inv) for u in chain(st.left_pairs, st.right_pair))
        dead = [tpl.index[f] for f in moved if f in tpl.index]
        nbrs = ball_adjacency(tpl)
        dist = full_scan_distances(nbrs, tpl.origin, tpl.radius, dead)
        lost = {u for u, w in enumerate(tpl.dist) if w == tpl.radius and dist[u] == -1}
        assert changes == {
            u: d for u, (d, w) in enumerate(zip(dist, tpl.dist))
            if d != w and u not in lost
        }
        for u in lost:
            assert all(dist[w] is None or dist[w] == -1 for w in nbrs[u])
        assert lost == lost_radius_nodes(tpl, changes)
        omitted.append(len(lost))
        return tpl, changes

    def checked_capacities(tpl, changes, k, log):
        want = full_scan_capacities(tpl, step_distances(tpl, changes), k)
        got = capacities(tpl, changes, k, log)
        assert (tpl.cap, *got) == want
        steps.append(len(changes))
        lost_b.append(sum(d == -1 and u >= tpl.b0 for u, d in changes.items()))
        return got

    monkeypatch.setattr(harem, "_frame", checked_frame)
    monkeypatch.setattr(harem, "_capacities", checked_capacities)
    return steps, omitted, lost_b


# the B nodes lost from inside the radius that are not dead, over all the
# steps of each case below, by group, key and radii; each step's network is
# compared with the full scan's on these nodes too
LOST_B = {
    ("free:2", "a,a^-1,b,b^-1", (RADIUS_A, RADIUS_B)): 222,
    ("free:2", "a,b,b^-1", (RADIUS_A, RADIUS_B)): 23,
    ("zd:2", "(1,0),(0,1)", (RADIUS_A, RADIUS_B)): 0,
    ("free:2", "a,b,a^-1", (RADIUS_A, RADIUS_B)): 9,
    ("zd:2", "(1,0),(0,1)", (5, 6)): 17,
    ("zd:3", "(1,0,0),(0,1,0),(0,0,1)", (5, 6)): 8,
}


@pytest.mark.parametrize("spec,key,level,codes,steps", [
    ("free:2", "a,a^-1,b,b^-1", 1, 48, 61),
    ("free:2", "a,b,b^-1", 2, 12, 13),  # |K| = 28
])
def test_change_map_and_capacities_equal_the_full_scans(
        monkeypatch, spec, key, level, codes, steps):
    checked, omitted, lost_b = full_scan_steps(monkeypatch)
    g = make_group(spec)
    d = build_decomposition(g, parse_elements(g, key), level)
    report = verify_decomposition_prefix(d, codes, Budget(10**4))
    assert report["violations"] == []
    assert d.state.step_count == len(checked) == len(omitted) == len(lost_b) == steps
    assert any(omitted) and sum(lost_b) == LOST_B[spec, key, (RADIUS_A, RADIUS_B)]


@pytest.mark.parametrize("spec,key,radius1,steps,radii", [
    ("zd:2", "(1,0),(0,1)", True, 60, (RADIUS_A, RADIUS_B)),
    ("free:2", "a,b,a^-1", False, 40, (RADIUS_A, RADIUS_B)),
    # at radii 3 and 4 a lost node can only come back at the radius itself;
    # at 5 and 6 some come back nearer, through other lost nodes
    ("zd:2", "(1,0),(0,1)", True, 40, (5, 6)),
    ("zd:3", "(1,0,0),(0,1,0),(0,0,1)", True, 40, (5, 6)),
])
def test_change_map_and_capacities_equal_the_full_scans_on_steps(
        monkeypatch, spec, key, radius1, steps, radii):
    checked, omitted, lost_b = full_scan_steps(monkeypatch)
    monkeypatch.setattr(harem, "RADIUS_A", radii[0])
    monkeypatch.setattr(harem, "RADIUS_B", radii[1])
    g = make_group(spec)
    K = parse_elements(g, key)
    st = harem_new(cayley_bipartite(g, ball(g, K, 1) if radius1 else K), 1)
    for _ in range(steps):
        harem_step(st)
    assert len(checked) == len(omitted) == len(lost_b) == steps
    assert any(checked) and any(omitted) and sum(lost_b) == LOST_B[spec, key, radii]


def shuffled_maps_agree(monkeypatch, orders=3):
    """Check every step's ``_capacities`` against the same change map in
    ``orders`` seeded random orders: each must write the same residual
    list and give the same demand and value, and ``_undo`` must put back
    the list the step found.  Returns, one per step, the change-map
    sizes."""
    capacities = harem._capacities
    rng = random.Random(33)
    sizes = []

    def checked_capacities(tpl, changes, k, log):
        held = tpl.cap[:]
        written = []
        for _ in range(orders):
            items = list(changes.items())
            rng.shuffle(items)
            trial = ([], [], [], [])
            got = capacities(tpl, dict(items), k, trial)
            written.append((tpl.cap[:], *got))
            _undo(tpl.cap, trial, [])
            assert tpl.cap == held
        got = capacities(tpl, changes, k, log)
        assert all(w == (tpl.cap, *got) for w in written)
        sizes.append(len(changes))
        return got

    monkeypatch.setattr(harem, "_capacities", checked_capacities)
    return sizes


def test_capacities_do_not_depend_on_the_order_of_the_change_map(monkeypatch):
    sizes = shuffled_maps_agree(monkeypatch)
    d = paradox_free2()
    report = verify_decomposition_prefix(d, 48, Budget(10**4))
    assert report["violations"] == [] and d.state.step_count == len(sizes) == 61
    # at radii 5 and 6 some lost nodes come back nearer than the radius
    sizes[:] = []
    monkeypatch.setattr(harem, "RADIUS_A", 5)
    monkeypatch.setattr(harem, "RADIUS_B", 6)
    g = make_group("zd:2")
    st = harem_new(cayley_bipartite(g, ball(g, parse_elements(g, "(1,0),(0,1)"), 1)), 1)
    for _ in range(40):
        harem_step(st)
    assert len(sizes) == 40 and all(sizes[1:])


def check_lists_restored(st):
    """Every template of the state holds its level list at -1 and its
    pointer list at 0 on every node, as each flow phase leaves them."""
    for tpl in st._templates.values():
        assert tpl.level == [-1] * len(tpl.head)
        assert tpl.ptr == [0] * len(tpl.head)


def test_steps_put_back_the_level_and_pointer_lists():
    st = paradox_free2().state
    for _ in range(61):
        harem_step(st)
        check_lists_restored(st)
    assert set(st._templates) == {True, False}


def test_a_step_that_raises_inside_its_flow_can_be_taken_again(monkeypatch):
    # an error such as MemoryError after a phase labelled its network: the
    # step undoes its writes and puts the lists back, so a later retry
    # finds the matching a state that never failed finds
    labelled = harem._label_from_both_ends

    def interrupted(*args):
        layers, reads = labelled(*args)
        if reads is not None:  # it labelled a path
            raise MemoryError
        return layers, reads

    st, ref = paradox_free2().state, paradox_free2().state
    for _ in range(3):
        harem_step(st)
    monkeypatch.setattr(harem, "_label_from_both_ends", interrupted)
    with pytest.raises(MemoryError):
        harem_step(st)
    monkeypatch.undo()
    assert st.step_count == 3
    check_lists_restored(st)
    check_templates_hold_their_flow(st)
    for _ in range(20):
        harem_step(st)
    while ref.step_count < st.step_count:
        harem_step(ref)
    assert matching_dump(st) == matching_dump(ref)


def test_frame_piece_where_distances_grow_back_inside_the_ball():
    # on Z^2 some right vertices at distance 2 from a B-step's centre fall
    # to distance 4 and turn from interior into boundary vertices
    g = make_group("zd:2")
    K = ball(g, parse_elements(g, "(1,0),(0,1)"), 1)
    st = harem_new(cayley_bipartite(g, K), 1)
    ref = cayley_bipartite(g, K)
    regrown = pushed_out = 0
    for _ in range(60):
        tpl, changes = checked_step(st, ref)
        dist = step_distances(tpl, changes)
        regrown += sum(d is not None and d > w for d, w in zip(dist, tpl.dist))
        pushed_out += sum(d == tpl.radius > w for d, w in zip(dist, tpl.dist))
    assert regrown > 0 and pushed_out > 0


def test_frame_steps_on_a_key_without_the_identity():
    # B-step centres are then matched to left vertices other than their
    # own element's
    g = make_group("free:2")
    K = parse_elements(g, "a,b,a^-1")
    st = harem_new(cayley_bipartite(g, K), 1)
    ref = cayley_bipartite(g, K)
    for _ in range(40):
        checked_step(st, ref)
    assert any(st.right_pair[2 * c + 1] != 2 * c for c in range(10))


def test_hundred_code_prefix_keeps_the_neighbour_cache():
    d = paradox_free2()
    st = d.state
    harem_step(st)
    harem_step(st)
    assert set(st._templates) == {True, False}
    size = len(st.graph._cache)
    report = verify_decomposition_prefix(d, 100, Budget(10**4))
    assert report["violations"] == []
    assert [r["m"] for r in report["resolved"]] == list(range(100))
    assert len(st.graph._cache) == size == 1618


def test_template_sizes():
    st = paradox_free2().state
    harem_step(st)
    harem_step(st)
    sizes = {side: sum(d >= 0 for d in tpl.dist) for side, tpl in st._templates.items()}
    assert sizes == {True: 1618, False: 14578}


@pytest.mark.parametrize("spec,key,k", [("free:2", "a,a^-1,b,b^-1", 2),
                                        ("zd:2", "(1,0),(0,1)", 1)])
def test_template_holds_a_maximum_flow_of_the_full_ball(spec, key, k):
    g = make_group(spec)
    K = ball(g, parse_elements(g, key), 1)
    graph, ref = cayley_bipartite(g, K), cayley_bipartite(g, K)
    for origin, r in ((graph.left_enum(0), RADIUS_A), (graph.right_enum(0), RADIUS_B)):
        tpl = _template(graph, origin, r, k)
        check_sides(ref, tpl)
        local = frame_piece(ref, tpl, {}, lost_radius_nodes(tpl, {}))
        demand = k * len(local.A) + len(local.B) - len(local.boundary_B)
        check_capacities(tpl, tpl.cap, demand, local, k)
        assert flow_value(tpl, tpl.cap) == demand == tpl.value


def _template_reference(g, origin, r, k):
    """The fields of the template as built from ``induced_ball`` and a
    second breadth-first search over the ball's nodes, all but ``value``,
    the values ``fixed_arcs`` derives, read off the arc builder's blocks,
    and the ball's adjacency: the reference for ``_template``.  No B node
    at the radius has its arc b -> tt in ``head``, at either end."""
    ball = induced_ball(g, origin, r)
    S, T = 0, 1
    n_a, n_b = len(ball.A), len(ball.B)
    b0, ss, tt = 2 + n_a, 2 + n_a + n_b, 3 + n_a + n_b
    codes = [None, None, *ball.A, *ball.B]
    index = {c: u for u, c in enumerate(codes) if c is not None}
    a_nodes, b_nodes = range(2, b0), range(b0, ss)
    edge_tail = [u for u, a in zip(a_nodes, ball.A) for _ in ball.adj[a]]
    edge_head = [index[b] for a in ball.A for b in ball.adj[a]]
    nbrs = [[] for _ in range(tt + 1)]
    for u, w in zip(edge_tail, edge_head):
        nbrs[u].append(w)
        nbrs[w].append(u)
    dist = full_scan_distances(nbrs, index[origin], r, ())
    parents = [sum(dist[w] < dist[u] for w in ws) for u, ws in enumerate(nbrs)]
    on_boundary = [int(dist[b] == r) for b in b_nodes]
    interior = n_b - sum(on_boundary)
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
    radius_tt = {b + starts[6] - b0 for b in b_nodes if dist[b] == r}
    head = [[e for e in arcs if e not in radius_tt and ~e not in radius_tt]
            for arcs in head]
    _maxflow(head, to, cap, ss, tt)
    fixed = starts[1] - b0, starts[2], starts[3], starts[4], interior
    return dict(
        radius=r, origin=index[origin], codes=codes, index=index, dist=dist,
        parents=parents, head=head, to=to, cap=cap, b0=b0, to_tt=starts[6] - b0,
        level=[-1] * (tt + 1), ptr=[0] * (tt + 1),
    ), fixed, nbrs


@pytest.mark.parametrize("spec,key,level,k,sides,radii", [
    ("free:2", "a,a^-1,b,b^-1", 1, 2, (True, False), (RADIUS_A, RADIUS_B)),
    ("free:2", "a,b,b^-1", 2, 2, (True,), (RADIUS_A, RADIUS_B)),  # |K| = 28
    ("zd:2", "(1,0),(0,1)", None, 1, (True, False), (RADIUS_A, RADIUS_B)),
    ("zd:2", "(1,0),(0,1)", None, 1, (True, False), (5, 6)),
    ("zd:3", "(1,0,0),(0,1,0),(0,0,1)", None, 1, (True, False), (RADIUS_A, RADIUS_B)),
    ("zd:3", "(1,0,0),(0,1,0),(0,0,1)", None, 1, (True, False), (5, 6)),
])
def test_template_equals_the_induced_ball_build(spec, key, level, k, sides, radii):
    # level None: the key is the radius-1 ball of the elements, as in the
    # step tests; otherwise the decomposition's expanded key
    g = make_group(spec)
    K0 = parse_elements(g, key)
    K = ball(g, K0, 1) if level is None else build_decomposition(g, K0, level).key.K
    graph, ref = cayley_bipartite(g, K), cayley_bipartite(g, K)
    for a_side in sides:
        origin = graph.left_enum(0) if a_side else graph.right_enum(0)
        r = radii[0] if a_side else radii[1]
        tpl = _template(graph, origin, r, k)
        want, fixed, nbrs = _template_reference(ref, origin, r, k)
        assert set(tpl._fields) == {*want, "value"}
        for name, field in want.items():
            assert getattr(tpl, name) == field, name
        assert fixed_arcs(tpl) == fixed
        check_sides(ref, tpl)
        # the arc lists are the ball's adjacency, node for node and in order
        assert ball_adjacency(tpl) == nbrs
        ss = len(tpl.head) - 2
        assert tpl.value == sum(tpl.cap[~e] for e in tpl.head[ss])


def unlisted_arcs(head, to):
    """The forward arcs that ``head`` lists at neither end, after checking
    that it lists every other arc at both."""
    listed = set(chain(*head))
    assert all((e in listed) == (~e in listed) for e in listed)
    return [e for e in range(len(to) // 2) if e not in listed]


@pytest.mark.parametrize("spec,key,level,codes,steps", [
    ("free:2", "a,a^-1,b,b^-1", 1, 48, 61),
    ("free:2", "a,b,b^-1", 2, 12, 13),  # |K| = 28
    ("zd:2", "(1,0),(0,1)", None, None, 60),
])
def test_arcs_left_out_of_the_template_never_carry_capacity(
        monkeypatch, spec, key, level, codes, steps):
    # every arc missing from a network's arc lists has capacity 0 both ways,
    # before and after each maximum flow: the template's own and each step's
    solve = harem._maxflow
    unlisted = {}  # id(head) -> (head, its unlisted arcs)
    checked = []

    def zero(head, to, cap):
        if id(head) not in unlisted:
            unlisted[id(head)] = head, unlisted_arcs(head, to)
        for e in unlisted[id(head)][1]:
            assert cap[e] == cap[~e] == 0, e
        checked.append(head)

    def checked_maxflow(head, to, cap, s, t, paths=None, level=None, ptr=None):
        zero(head, to, cap)
        value = solve(head, to, cap, s, t, paths, level, ptr)
        zero(head, to, cap)
        return value

    monkeypatch.setattr(harem, "_maxflow", checked_maxflow)
    g = make_group(spec)
    K0 = parse_elements(g, key)
    if level is None:  # steps on the doubling graph of the radius-1 ball
        st = harem_new(cayley_bipartite(g, ball(g, K0, 1)), 1)
        for _ in range(steps):
            harem_step(st)
    else:
        d = build_decomposition(g, K0, level)
        report = verify_decomposition_prefix(d, codes, Budget(10**4))
        assert report["violations"] == []
        st = d.state
    assert st.step_count == steps and len(checked) == 2 * (steps + 2)
    for tpl in st._templates.values():
        # exactly the radius nodes' arcs b -> tt are left out
        radius = [b + tpl.to_tt for b in range(tpl.b0, len(tpl.head) - 2)
                  if tpl.dist[b] == tpl.radius]
        assert radius and unlisted_arcs(tpl.head, tpl.to) == radius


@pytest.mark.parametrize("spec,key,codes,steps,digest", [
    ("free:2", "a,a^-1,b,b^-1", 48, 61,
     "09d29dd9b25cf07fd479c7c18c8059e6e5be024a441442d70cec7b6798602650"),
    ("free:2", "a,a^-1,b,b^-1", 100, 119,
     "cbbfbf38fbb29451506b435fe9f54858f150c94ff18a48285c8c1e4a52c241b6"),
    ("free:2", "a,b", 60, 67,
     "65023a5f18dbbc28732353a5a001b0029b136bc5010b94b23c4d9bed41f94ffd"),
])
def test_prefix_matchings_equal_the_pinned_dumps(spec, key, codes, steps, digest):
    g = make_group(spec)
    d = build_decomposition(g, parse_elements(g, key), 1)
    report = verify_decomposition_prefix(d, codes, Budget(10**4))
    assert report["violations"] == [] and d.state.step_count == steps
    assert hashlib.sha256(matching_dump(d.state).encode()).hexdigest() == digest


def test_zd2_matching_equals_the_pinned_dump():
    g = make_group("zd:2")
    st = harem_new(cayley_bipartite(g, ball(g, parse_elements(g, "(1,0),(0,1)"), 1)), 1)
    for _ in range(60):
        harem_step(st)
    assert hashlib.sha256(matching_dump(st).encode()).hexdigest() == (
        "a25e171b5a9f13167b30a6fef7bae69cb46e9eadf0aa2cb66f3bd710686da2eb")


def test_steps_never_write_into_the_template():
    d = paradox_free2()
    st = d.state
    harem_step(st)
    harem_step(st)
    caps = {side: tpl.cap[:] for side, tpl in st._templates.items()}
    report = verify_decomposition_prefix(d, 48, Budget(10**4))
    assert report["violations"] == [] and st.step_count == 61
    assert {side: tpl.cap for side, tpl in st._templates.items()} == caps


def test_prefix_on_a_key_with_heavier_regrowth():
    # K0 = a,b,b^-1 at level 2: a 28-element key, templates of 6,147 and
    # 86,521 vertices
    g = make_group("free:2")
    d = build_decomposition(g, parse_elements(g, "a,b,b^-1"), 2)
    assert len(d.key.K) == 28
    report = verify_decomposition_prefix(d, 12, Budget(10**4))
    assert report["violations"] == []
    assert [r["m"] for r in report["resolved"]] == list(range(12))
    assert d.state.step_count == 13


def check_arc_numbers(tpl):
    """The numbering rule of ``_Template``: arc u + ``to_tt`` has u as an
    endpoint for every node u below ss, and the arcs ``fixed_arcs`` derives
    are the ones it claims: b -> T and b -> tt at every B node, T -> S,
    S -> tt and ss -> T, and the interior count is that of the B nodes
    inside the radius; and the arc lists are in number order."""
    S, T, ss, tt = 0, 1, len(tpl.head) - 2, len(tpl.head) - 1
    to, to_tt = tpl.to, tpl.to_tt
    to_t, t_s, s_tt, ss_t, interior = fixed_arcs(tpl)
    for u in range(ss):
        assert u in (to[~(u + to_tt)], to[u + to_tt])
    for b in range(tpl.b0, ss):
        assert (to[~(b + to_t)], to[b + to_t]) == (b, T)
        assert (to[~(b + to_tt)], to[b + to_tt]) == (b, tt)
    assert (to[~t_s], to[t_s]) == (T, S)
    assert (to[~s_tt], to[s_tt]) == (S, tt)
    assert (to[~ss_t], to[ss_t]) == (ss, T)
    assert interior == sum(d < tpl.radius for d in tpl.dist[tpl.b0 : ss])
    # each node lists its arcs in the order of their numbers, as the
    # search's reads from the next level require
    assert all(arcs == sorted(arcs, key=_arc_number) for arcs in tpl.head)


def test_run_readout_equals_the_scan(monkeypatch):
    # the two templates of the paradox-prefix bench, then pieces shaped as
    # harem-small's, each solved by the flow with its network recorded
    st = paradox_free2().state
    harem_step(st)
    harem_step(st)
    for tpl in st._templates.values():
        a_nodes = range(2, tpl.b0)
        assert check_run_readout(tpl.head, tpl.to, tpl.cap, a_nodes) == 2 * len(a_nodes)
    networks = []
    solve = harem._maxflow

    def recorded(head, to, cap, *args):
        networks.append((head, to, cap))
        return solve(head, to, cap, *args)

    monkeypatch.setattr(harem, "_maxflow", recorded)
    monkeypatch.setattr(harem, "_refuted_by_counts", lambda fg, k: False)
    rng = random.Random(36)
    units = 0
    for _ in range(200):
        A = tuple(sorted(2 * c for c in rng.sample(range(512), rng.randint(1, 3))))
        B = tuple(sorted(2 * c + 1 for c in rng.sample(range(512), 6)))
        adj = {a: tuple(b for b in B if rng.random() < 0.5) for a in A}
        boundary = frozenset(b for b in B if rng.random() < 0.5)
        del networks[:]
        harem.finite_harem_match(FiniteBipartite(A, B, adj, boundary), rng.choice((1, 2)))
        (head, to, cap), = networks
        units += check_run_readout(head, to, cap, range(2, 2 + len(A)))
    assert units > 200


def test_template_arc_numbers():
    st = paradox_free2().state
    harem_step(st)
    harem_step(st)
    for tpl in st._templates.values():
        check_arc_numbers(tpl)
        check_sides(st.graph, tpl)
    g = make_group("zd:2")
    graph = cayley_bipartite(g, ball(g, parse_elements(g, "(1,0),(0,1)"), 1))
    tpl = _template(graph, graph.right_enum(0), RADIUS_B, 1)
    check_arc_numbers(tpl)
    check_sides(graph, tpl)


def check_sides(graph, tpl):
    """The template's A nodes, split from the B nodes by the parity of
    their distance from the origin, are the ball's left vertices."""
    ss = len(tpl.head) - 2
    assert all(map(graph.is_left, tpl.codes[2 : tpl.b0]))
    assert not any(map(graph.is_left, tpl.codes[tpl.b0 : ss]))


def test_templates_ask_the_graph_for_one_side_per_build(monkeypatch):
    # a 48-code pass: its two template builds ask is_left once each, and
    # the other 192 calls are its queries' own
    calls = []
    is_left = CayleyBipartite.is_left

    def counted(self, v):
        calls.append(v)
        return is_left(self, v)

    monkeypatch.setattr(CayleyBipartite, "is_left", counted)
    d = paradox_free2()
    report = verify_decomposition_prefix(d, 48, Budget(10**4))
    assert report["violations"] == [] and d.state.step_count == 61
    assert len(calls) == 194


def test_each_state_builds_its_own_templates():
    d = paradox_free2()
    other = harem_new(d.state.graph, 2)
    harem_step(d.state)
    harem_step(other)
    assert d.state._templates[True] is not other._templates[True]
    assert d.state.left_pairs == other.left_pairs


@pytest.mark.parametrize("spec,key", [("free:2", "a,b"), ("zd:2", "(1,0),(0,1)")])
def test_translate_is_an_automorphism(spec, key):
    g = make_group(spec)
    graph = cayley_bipartite(g, ball(g, parse_elements(g, key), 1))
    rng = random.Random(5)
    for _ in range(40):
        u, h = rng.randrange(200), rng.randrange(60)
        moved = graph.translate(u, h)
        assert graph.is_left(moved) == graph.is_left(u)
        assert graph.translate(moved, graph.inv(h)) == u
        assert set(graph.neighbors(moved)) == {
            graph.translate(w, h) for w in graph.neighbors(u)
        }
    assert graph.translate(graph.left_enum(0), 7) == graph.left_enum(7)
    assert graph.translate(graph.right_enum(0), 7) == graph.right_enum(7)


def check_templates_hold_their_flow(st):
    """Every template of the state holds the flow it was built with: its
    residual list equals that of a fresh build, whatever the steps wrote
    into it."""
    graph = st.graph
    for a_side, tpl in st._templates.items():
        origin = graph.left_enum(0) if a_side else graph.right_enum(0)
        fresh = _template(graph, origin, RADIUS_A if a_side else RADIUS_B, st.k)
        assert tpl.cap == fresh.cap


def test_steps_past_a_finite_group_raise():
    # six steps match all of cyclic:6; the next A-step's code 12 is no vertex
    g = make_group("cyclic:6")
    st = harem_new(cayley_bipartite(g, ball(g, parse_elements(g, "1"), 1)), 1)
    for _ in range(6):
        harem_step(st)
    assert len(st.left_pairs) == len(st.right_pair) == 6
    with pytest.raises(InternalInfeasibleError, match="step 6 around code 12"):
        harem_step(st)
    # the raise came after the step wrote its network: the undo ran
    assert set(st._templates) == {True, False}
    check_templates_hold_their_flow(st)
    check_lists_restored(st)


def test_infeasible_step_raises():
    g = make_group("free:2")
    st = harem_new(cayley_bipartite(g, parse_elements(g, "a")), 2)
    with pytest.raises(InternalInfeasibleError, match="step 0 around code 0"):
        harem_step(st)
    # the raise came after the step's augmenting paths: the undo ran, and
    # the flow's last phase put its lists back
    assert set(st._templates) == {True}
    check_templates_hold_their_flow(st)
    check_lists_restored(st)
