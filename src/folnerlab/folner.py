"""Folner set verification and search, Reiter functions, and the word
problem from a Folner oracle.

All ratios are exact ``fractions.Fraction``.  Every level-n verdict has
one convention, a defect at most 1/n (ties count), and one predicate,
:func:`within`, decides it: a set F is n-Folner with respect to D when
every translate defect |F \\ xF| / |F| is within 1/n, and a Reiter
function is n-invariant when every l1 shift defect is.  One function,
:func:`translate_defects`, computes the set defects of a given set.  The
searches over subsets share one scan, :func:`_first_folner`: it charges
each candidate, tests it with the same inequality cleared of
denominators, and makes each product x f once per call, however many
candidates hold f.  The searches draw their candidate sets from the balls
of :func:`folnerlab.groups.ball_growth`.  :func:`search_folner` reads a
ball's defects off its outer layer: for B_r = B_{r-1} u L_r, built with
steps that include every x in D, |B_r \\ x B_r| = |x L_r \\ B_r|, because
|x B_r| = |B_r| and x B_{r-1} lies in B_r.  The products x f, f in L_r,
are also the ones that build the next layer, so they are made once.

The invariance verifier for c.e. groups works on the signed transport
measure of a finitely supported function: each support code v carries mass
+f(v) and its shift x*v carries -f(v).  Grouping that measure by a code
partition (:func:`partition_defect`) and summing block totals in absolute
value is monotone under merging and equals the exact l1 shift defect once
blocks are full fibers of the numbering, which is what makes the merge
procedure sound.  The verifier keeps its partition in a :class:`UnionFind`
and each block's mass beside it, in integers over the common denominator of
the values, so a merge adds two masses per shift instead of regrouping the
measure.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .budget import Budget, UNKNOWN
from .groups import (
    CE,
    COMPUTABLE,
    CEView,
    GroupOracle,
    PreconditionError,
    ZdOracle,
    ball_growth,
    canonical_subset,
    cantor_pair,
    require_mode,
    subset_decode,
)


class EmptySetError(ValueError):
    """A Folner check was asked about an empty candidate set."""


class EmptySupportError(ValueError):
    """A Reiter function with empty support was supplied."""


class NoLevelSetError(RuntimeError):
    """No level set satisfied the extraction bound; indicates a bug upstream."""


# ---------------------------------------------------------------------------
# domain types


@dataclass
class FolnerCertificate:
    """A finite set F together with its exact defects against D at level n."""

    spec: str
    D: tuple[int, ...]
    n: int
    F: tuple[int, ...]
    defects: dict[int, Fraction]

    def max_defect(self) -> Fraction:
        return max(self.defects.values()) if self.defects else Fraction(0)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "D": list(self.D),
            "n": self.n,
            "F": list(self.F),
            "defects": {str(x): str(d) for x, d in sorted(self.defects.items())},
        }


@dataclass
class ReiterFunction:
    """Finitely supported map from codes to positive rationals."""

    support: tuple[int, ...]
    values: dict[int, Fraction]

    def __post_init__(self):
        self.support = canonical_subset(self.support)
        if not self.support:
            raise EmptySupportError("Reiter function needs non-empty support")
        if set(self.values) != set(self.support):
            raise ValueError("support and value domain disagree")
        normalised = {}
        for v, q in self.values.items():
            q = Fraction(q)
            if q <= 0:
                raise ValueError("value at code %d must be positive" % v)
            normalised[v] = q
        self.values = normalised

    @classmethod
    def characteristic(cls, codes) -> "ReiterFunction":
        codes = canonical_subset(codes)
        return cls(codes, {c: Fraction(1) for c in codes})

    def total(self) -> Fraction:
        return sum(self.values.values(), Fraction(0))

    def to_json_dict(self) -> dict:
        return {
            "support": list(self.support),
            "values": {str(v): str(q) for v, q in sorted(self.values.items())},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ReiterFunction":
        values = {int(k): Fraction(v) for k, v in data["values"].items()}
        return cls(tuple(data["support"]), values)


# ---------------------------------------------------------------------------
# Folner verification


def within(defect: Fraction, n: int) -> bool:
    """Whether a rational defect is at most 1/n: the one level-n test."""
    return defect * n <= 1


def require_level(n: int, name: str = "n") -> None:
    """Raise ValueError unless the level n is at least 1: below it no
    defect bound 1/n exists."""
    if n < 1:
        raise ValueError(name + " must be >= 1")


def translate_defects(g: GroupOracle, F, D) -> dict[int, Fraction]:
    """Exact translate defects |F \\ xF| / |F| for every x in D, as a map."""
    F = set(F)
    return {x: Fraction(len(F - {g.mult(x, f) for f in F}), len(F)) for x in D}


def is_n_folner(g: GroupOracle, F, D, n: int):
    """Exact check of the defect bound; returns (verdict, defect map)."""
    require_mode(g, COMPUTABLE, "is_n_folner")
    require_level(n)
    F = canonical_subset(F)
    if not F:
        raise EmptySetError("F must be non-empty")
    defects = translate_defects(g, F, D)
    return all(within(d, n) for d in defects.values()), defects


def is_n_folner_complement(g: GroupOracle, F, D, n: int) -> bool:
    """The intersection form |F & xF| >= (1 - 1/n)|F| for every x in D.

    Since |F & xF| = |F| - |F \\ xF|, it is the check of
    :func:`is_n_folner`, whose verdict it returns.
    """
    return is_n_folner(g, F, D, n)[0]


def certificate(g: GroupOracle, F, D, n: int) -> FolnerCertificate:
    ok, defects = is_n_folner(g, F, D, n)
    if not ok:
        raise ValueError("set is not %d-Folner for the given D" % n)
    return FolnerCertificate(g.spec, canonical_subset(D), n, canonical_subset(F), defects)


# ---------------------------------------------------------------------------
# search


# search_folner tries at most n + |D| + BALL_SLACK balls before its Goedel tail
BALL_SLACK = 17


def _goedel_subsets(g: GroupOracle):
    """All non-empty finite subsets of the codes in bitmask order, the
    candidates of :func:`search_folner` after its balls."""
    limit = g.element_count
    masks = itertools.count(1) if limit is None else range(1, 1 << limit)
    return map(subset_decode, masks)


def _first_folner(g: GroupOracle, candidates, D, n: int, meter, star=None):
    """The subset scan of the searches: a certificate for the first
    n-Folner candidate, None once the candidates run out, or UNKNOWN once
    the meter cannot pay for the next one.

    Each candidate F, a sorted tuple of distinct codes, is charged
    |F| x max(1, |D|) steps, priced as ``mult`` calls, before it is tested.
    The test counts |F \\ xF| for x in D in order, and stops at the first x
    with n |F \\ xF| > |F|, the negation of :func:`within` cleared of
    denominators, so it needs at most |F| x |D| products after its charge.
    Those come from ``star``, a memo of ``g.mult`` that lives for one call
    of the caller (a fresh one by default), so each product x f is made once
    however many candidates hold f: the memo keeps at most |D| products per
    code the scan touches.  The certificate's exact defects are the
    winner's counts over |F|.
    """
    star = star or functools.cache(g.mult)
    for F in candidates:
        if not meter.charge(len(F) * max(1, len(D))):
            return UNKNOWN
        F_set, missing = set(F), {}
        for x in D:
            missing[x] = len(F_set - {star(x, f) for f in F})
            if n * missing[x] > len(F):
                break
        else:
            defects = {x: Fraction(m, len(F)) for x, m in missing.items()}
            return FolnerCertificate(g.spec, D, n, F, defects)
    return None


def search_folner(g: GroupOracle, D, n: int, b: Budget):
    """First n-Folner certificate in the fixed candidate order, or UNKNOWN.

    The candidates are the balls B_0, B_1, ... of :func:`ball_growth` over
    D, at most n + |D| + ``BALL_SLACK`` of them, then
    :func:`_goedel_subsets`.  A ball's defects are read off its outer layer
    L_r: for x in D,
    |B_r \\ x B_r| = |x L_r \\ B_r|, since |x B_r| = |B_r| and x B_{r-1}
    lies in B_r.  Those products x f are the ones that build the next layer,
    so each is made once, and the certificate's exact defects are the same
    counts over |B_r|.  The Goedel tail is the scan of :func:`_first_folner`.

    Budget counts steps, each priced as one ``mult`` call: each ball layer
    costs |step| x |L_r| before it is built, and each candidate F costs
    |F| x max(1, |D|) before it is tested.  The cost model bounds the calls
    made.  A ball's test makes |L_r| x |D| of the calls its candidate paid
    for, the rows of all of D in one :meth:`folnerlab.groups.BallLayer.make`
    call after that charge, and the next layer makes only the rest of its
    own after its charge, so no call is made before it is paid for.  A
    tail candidate's test makes at most |F| x |D| new calls, and its
    certificate reuses them.  Raises ValueError for n < 1, before any
    charge.
    """
    require_mode(g, COMPUTABLE, "search_folner")
    require_level(n)
    D = canonical_subset(D)
    meter = b.meter()
    cost = max(1, len(D))
    balls = min(n + len(D) + BALL_SLACK, sys.maxsize)
    for layer in itertools.islice(ball_growth(g, D, meter), balls):
        if layer is None or not meter.charge(len(layer.ball) * cost):
            return UNKNOWN
        layer.make(D)
        defects = {x: Fraction(layer.leaving(x), len(layer.ball)) for x in D}
        if all(within(d, n) for d in defects.values()):
            return FolnerCertificate(g.spec, D, n, tuple(sorted(layer.ball)), defects)
    return _first_folner(g, _goedel_subsets(g), D, n, meter) or UNKNOWN


def folner_function(g: GroupOracle, D, n: int, b: Budget):
    """Minimum size of an n-Folner set with respect to D, or UNKNOWN.

    The lower bound comes from an orbit argument: a set smaller than n must
    have all defects zero, hence be a union of right cosets of <D>, so its
    size is at least |<D>|; when the balls of <D> stop growing below n,
    <D> itself is the answer.  Otherwise n is the only size the search can
    certify: it scans the n-element subsets of the balls of radius 1..n
    (of :func:`ball_growth`), one :func:`_first_folner` scan per ball
    sharing one product memo, and answers n on the first n-Folner one, or
    UNKNOWN once those candidates are exhausted.  A ball with fewer than n
    elements holds no candidate and is passed over unsorted.  Each growing
    ball has at least one element more than the last, so balls that stop
    growing below n stop by radius n - 1.
    Budget counts steps priced as ``mult`` calls: those of the ball layers,
    as :func:`search_folner` prices them, and n x |D| per candidate, paid
    before its test makes any product of its own.
    """
    require_mode(g, COMPUTABLE, "folner_function")
    require_level(n)
    D = canonical_subset(D)
    meter = b.meter()
    D_eff = tuple(x for x in D if g.canon(x) != g.identity)
    if not D_eff:
        return 1
    star = functools.cache(g.mult)
    radii = itertools.islice(ball_growth(g, D_eff, meter), 1, min(n + 1, sys.maxsize))
    for layer in radii:
        if layer is None:
            return UNKNOWN
        if len(layer.ball) >= n:
            U = sorted(layer.ball)
            found = _first_folner(g, itertools.combinations(U, n), D, n, meter, star)
            if found is not None:
                return UNKNOWN if found is UNKNOWN else n
    return len(layer.ball) if len(layer.ball) < n else UNKNOWN


def folner_sequence(g: GroupOracle, j: int, b: Budget):
    """j-Folner certificate with respect to the first j codes, via search.

    On a finite group the codes below its order already name every
    element, so D is read off at most that many codes.  The search's first
    charge is its radius-0 ball's, |D| steps; a meter that cannot pay it is
    emptied by that failed charge, as the search would, before D is built.
    """
    require_mode(g, COMPUTABLE, "folner_sequence")
    require_level(j, "sequence index")
    meter, size = b.meter(), min(j, g.element_count or j)
    if meter.remaining < size:
        meter.charge(meter.remaining + 1)  # fails, and empties the meter
        return UNKNOWN
    D = canonical_subset({g.canon(c) for c in range(size)})
    return search_folner(g, D, j, meter)


# ---------------------------------------------------------------------------
# Reiter functions


def pushforward(g: GroupOracle, f: ReiterFunction) -> dict[int, Fraction]:
    """Sum f over each fiber of the numbering, keyed by canonical code."""
    out: dict[int, Fraction] = {}
    for v, q in f.values.items():
        c = g.canon(v)
        out[c] = out.get(c, Fraction(0)) + q
    return out


def reiter_defect(g: GroupOracle, f: ReiterFunction, D) -> dict[int, Fraction]:
    """Exact normalised l1 shift defect of the pushforward, per element of D:
    the partition defect over the fibers of the numbering.  Each shift x v
    is made once and looked up by :func:`partition_defect`."""
    require_mode(g, COMPUTABLE, "reiter_defect")
    shift = {(x, v): g.mult(x, v) for x in D for v in f.support}
    fiber = {c: g.canon(c) for c in (*f.support, *shift.values())}
    return {x: partition_defect(f, fiber, x, lambda a, v: shift[a, v]) for x in D}


class UnionFind:
    """Partition of integer codes into blocks, all singletons at first.

    ``uf[c]`` is the block of code c, named by its smallest member, so the
    structure is itself the code -> block map that :func:`partition_defect`
    reads.
    """

    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    __getitem__ = find

    def union(self, a: int, b: int):
        """Merge the blocks of a and b into the block of the smaller root:
        (kept root, gone root), or None when they were one block."""
        keep, gone = sorted((self.find(a), self.find(b)))
        if keep == gone:
            return None
        self.parent[gone] = keep
        return keep, gone


def partition_defect(f: ReiterFunction, block_of, x: int, star) -> Fraction:
    """Blockwise l1 defect of f under a partition of codes, exact rational.

    ``block_of[c]`` names the block of code c; it must cover the support
    together with its x-shifted image (codes ``star(x, v)``).  Each support
    code v carries mass +f(v) and star(x, v) carries -f(v); the value is the
    sum over blocks of the absolute block totals, over the total mass.  It
    is monotone non-increasing under merging blocks and equals the true
    shift defect of the pushforward once the blocks are full numbering
    fibers.
    """
    mass = _block_masses(f.values, block_of, x, star)
    return sum(map(abs, mass.values()), Fraction(0)) / f.total()


def _block_masses(values, block_of, x: int, star) -> dict:
    """The totals per block of the measure of :func:`partition_defect`:
    +values[v] at v and -values[v] at star(x, v), for v the keys of values,
    in the values' own number type."""
    mass = {}
    for v, q in values.items():
        for w, m in ((v, q), (star(x, v), -q)):
            block = block_of[w]
            mass[block] = mass.get(block, 0) + m
    return mass


def _merge_masses(mass, spread, keep: int, gone: int):
    """Add the masses of block gone into block keep for every x of mass[x],
    keeping spread[x] the sum of the absolute values of mass[x]."""
    for x, block in mass.items():
        gone_mass, kept_mass = block.pop(gone, 0), block.get(keep, 0)
        block[keep] = gone_mass + kept_mass
        spread[x] += abs(gone_mass + kept_mass) - abs(gone_mass) - abs(kept_mass)


def verify_invariance_ce(g: GroupOracle, n: int, D, f: ReiterFunction, b: Budget):
    """Semi-decide n-invariance of the pushforward of f over a c.e. group.

    Starts from the finest partition of the support and its D-shifted
    image, consumes the equal-codes enumeration, and merges the two blocks
    that split an enumerated pair.  Each block keeps its mass of the measure
    of :func:`partition_defect` per x in D (:func:`_block_masses`), with f
    scaled by the lcm of its denominators to integers, and spread[x] is the
    sum of their absolute values.  A merge adds the gone root's masses into
    the kept root's, the smaller code, as :meth:`UnionFind.union` returns
    them (:func:`_merge_masses`), so after each
    merge every partition defect is tested in O(|D|) as
    n x spread[x] <= total, the test of :func:`within` cleared of
    denominators.  Success is INVARIANT (sound, since the blockwise value
    only shrinks toward the true defect), failure at the full fiber
    partition is NOT_INVARIANT, and budget exhaustion is UNKNOWN.  Budget
    counts enumeration entries consumed, read or skipped:
    the scan walks ``eq_entries_within`` the codes, up to the meter's
    remaining steps, and charges up to the deciding entry at its end, or
    all of them plus one when it runs out.  Merges only join
    enumerated-equal codes, so the partition always refines the fiber
    partition and reaches it exactly when it has as many blocks; the fiber
    count comes from the oracle's internal canonical forms.  Each shift x v
    is made once.
    """
    require_mode(g, CE, "verify_invariance_ce")
    require_level(n)
    meter = b.meter()
    D = canonical_subset(D)
    shift = {(x, v): g.mult(x, v) for x in D for v in f.support}
    codes = {*f.support, *shift.values()}
    part = UnionFind()
    blocks = len(codes)
    fibers = len({g.canon(c) for c in codes})
    # block masses of the measure per shift, f scaled to integers
    scale = math.lcm(*(q.denominator for q in f.values.values()))
    ints = {v: int(q * scale) for v, q in f.values.items()}
    mass = {x: _block_masses(ints, part, x, lambda a, v: shift[a, v]) for x in D}
    spread = {x: sum(map(abs, block.values())) for x, block in mass.items()}
    total = sum(ints.values())
    if all(n * spread[x] <= total for x in D):
        return "INVARIANT"
    if blocks == fibers:
        return "NOT_INVARIANT"
    # The walk ends early only past max(codes), where the partition is the
    # fiber partition and the loop has answered; so falling through means
    # the budget ran out.
    for m, n1, n2 in g.eq_entries_within(codes, meter.remaining):
        merged = part.union(n1, n2)
        if merged:
            blocks -= 1
            _merge_masses(mass, spread, *merged)
            if all(n * spread[x] <= total for x in D):
                meter.charge(m + 1)
                return "INVARIANT"
            if blocks == fibers:
                meter.charge(m + 1)
                return "NOT_INVARIANT"
    meter.charge(meter.remaining + 1)  # fails, and empties the meter
    return UNKNOWN


def extract_folner_from_reiter(g: GroupOracle, h: ReiterFunction, D, n: int):
    """Level set of the pushforward with every defect at most |D|/(2n).

    Requires every shift defect of h within 1/n.  Scans thresholds from
    zero upward through the finitely many pushforward values and returns
    the first qualifying level set.  One exists, by the layer-cake
    formula: for p the pushforward and E_t = {p > t},
    ||p - xp||_1 = 2 * integral of |E_t \\ xE_t| dt and ||p||_1 = integral
    of |E_t| dt.  Summed over D, the precondition gives
    integral of sum_x |E_t \\ xE_t| dt <= (|D|/(2n)) * integral of |E_t| dt,
    so some non-empty level set E has sum_x |E \\ xE| <= |D||E|/(2n), and
    each of its defects is at most |D|/(2n).
    """
    require_mode(g, COMPUTABLE, "extract_folner_from_reiter")
    require_level(n)
    D = canonical_subset(D)
    defects = reiter_defect(g, h, D)
    if not all(within(d, n) for d in defects.values()):
        raise PreconditionError("input is not n-invariant; extraction unsound")
    p = pushforward(g, h)
    bound = Fraction(len(D), 2 * n)
    thresholds = [Fraction(0)] + sorted(set(p.values()))
    for eps in thresholds:
        F = tuple(sorted(v for v, q in p.items() if q > eps))
        if not F:
            continue
        ds = translate_defects(g, F, D)
        if all(d <= bound for d in ds.values()):
            return F
    raise NoLevelSetError("no level set met the bound; implementation bug")


# ---------------------------------------------------------------------------
# word problem from a Folner oracle


def box_folner(g: ZdOracle, D, n: int) -> tuple[int, ...]:
    """Centered box in Z^d whose defects against D are strictly below 1/n,
    so :func:`within` holds for each."""
    if not isinstance(g, ZdOracle):
        raise PreconditionError("box_folner only applies to zd families")
    require_level(n)
    vectors = [g.decode_vector(x) for x in D]
    sides = [n * g.dim * max((abs(v[axis]) for v in vectors), default=0) + 1
             for axis in range(g.dim)]
    return g.box_codes([range(-(L // 2), L - L // 2) for L in sides])


def folner_oracle(g: GroupOracle, b: Budget):
    """(n, D) -> F oracle: analytic boxes for zd, otherwise search.  The
    searches share one meter made from b; an exhausted one answers UNKNOWN."""
    meter = b.meter()
    base = g.base if isinstance(g, CEView) else g
    if isinstance(base, ZdOracle):
        return lambda n, D: box_folner(base, D, n)

    def from_search(n, D):
        cert = search_folner(base, D, n, meter)
        return cert if cert is UNKNOWN else cert.F

    return from_search


def decide_mult_from_folner(
    g: GroupOracle, folner, n1: int, n2: int, n3: int, b: Budget
):
    """Decide whether the product n1 * n2 of codes equals n3, reading the
    multiplication-table enumeration of a CE oracle; UNKNOWN when the
    budget, one step per entry read, runs out first, or when the Folner
    oracle answers UNKNOWN.

    The Folner oracle supplies a 4-Folner set F for D = {n1, n2, n3}.  Each
    entry (d, f, d * f) with d in D and f, d * f in F extends a partial
    injection of F for d, until each injection covers at least 3/4 of F:
    4 |graph| >= 3 |F|, the test of :func:`within` at n = 4 in integers, as
    a 4-Folner F has |F & dF| >= 3/4 |F|.  The answer is whether some f
    chains through the n2-graph, then the n1-graph, onto the n3-graph:
    n1 * (n2 * f) = n3 * f.  Each of the three links fails for at most |F|/4
    points f (the n2-graph is injective), so together they exclude at most
    3|F|/4 < |F| points and a chain exists in the true case; in the false
    case none does.

    A :class:`CEView` is decided by :func:`_decide_on_rows` on the three
    product rows.  Any other CE oracle's enumeration is scanned from index
    0.
    """
    require_mode(g, CE, "decide_mult_from_folner")
    meter = b.meter()
    D = canonical_subset({n1, n2, n3})
    F = folner(4, D)
    if F is UNKNOWN:
        return UNKNOWN
    F = canonical_subset(F)
    need = -(-3 * len(F) // 4)
    if isinstance(g, CEView):
        return _decide_on_rows(g, n1, n2, n3, D, F, need, meter)
    pos = {f: i for i, f in enumerate(F)}
    graphs = {d: {} for d in D}
    for m in itertools.count():
        if all(len(graph) >= need for graph in graphs.values()):
            break
        if not meter.charge():
            return UNKNOWN
        i, j, prod = g.multt_enum(m)
        if i in graphs and j in pos and prod in pos:
            graphs[i][pos[j]] = pos[prod]
    s1, s2, s3 = graphs[n1], graphs[n2], graphs[n3]
    for i, j in s2.items():
        k = s1.get(j)
        if k is not None and s3.get(i) == k:
            return True
    return False


def _decide_on_rows(g: CEView, n1: int, n2: int, n3: int, D, F, need: int, meter):
    """The answer of :func:`decide_mult_from_folner` on a CEView, read off
    the rows d * F, or UNKNOWN; charged once for the entries read, plus one
    when the meter runs out.

    A CEView lists (i, j, i * j) at index cantor_pair(i, j), which grows
    with j.  So the entries the injections use are the rows (d, f, d * f),
    f in F, each ascending in F's order, and the scan reads them in
    ascending index across the rows.  Each pair occurs once, so row d's
    injection is dense at its need-th hit, a position k with d * F[k] in F;
    the scan stops at the largest such index, having read the first
    ``ends[d]`` entries of each row.  Only the entries the meter can pay for
    have their products made, one ``mult_row`` per row.  Rows are cut by
    binary search on F keyed by cantor_pair(d, .), so only a budget short
    of all |D| x |F| entries lists their indices, to find the last one it
    pays for.  If the rows run out before the injections are dense, F was
    not 4-Folner and PreconditionError is raised.

    The chain f -> n2 * f -> n1 * (n2 * f) = n3 * f is read on the rows r1,
    r2, r3 of (n1, n2, n3): a hit i of r2 below its end, with j the position
    of r2[i], chains when j and i are below the ends of r1 and r3 and
    r1[j] == r3[i].
    """
    pos = {f: i for i, f in enumerate(F)}
    keys = [functools.partial(cantor_pair, d) for d in D]
    budget, size = meter.remaining, len(D) * len(F)
    # reach: the largest index among the first entries the budget can read
    if budget >= size:
        reach = max(key(F[-1]) for key in keys) if F else -1
    else:
        reach = sorted(key(f) for key in keys for f in F)[budget - 1] if budget else -1
    stop, rows, hits = -1, {}, {}
    for d, key in zip(D, keys):
        row = rows[d] = g.base.mult_row(d, F[: bisect.bisect_right(F, reach, key=key)])
        hits[d] = [*itertools.compress(itertools.count(), map(pos.__contains__, row))]
        if len(hits[d]) < need:
            if budget < size:
                meter.charge(budget + 1)  # fails, and empties the meter
                return UNKNOWN
            meter.charge(size)
            raise PreconditionError(
                "the Folner oracle's set is not 4-Folner for %r" % (D,)
            )
        if need:
            stop = max(stop, key(F[hits[d][need - 1]]))
    ends = {d: bisect.bisect_right(F, stop, key=key) for d, key in zip(D, keys)}
    meter.charge(sum(ends.values()))
    r1, r2, r3 = rows[n1], rows[n2], rows[n3]
    for i in itertools.takewhile(ends[n2].__gt__, hits[n2]):
        j = pos[r2[i]]
        if j < ends[n1] and i < ends[n3] and r1[j] == r3[i]:
            return True
    return False
