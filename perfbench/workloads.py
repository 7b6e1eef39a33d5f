"""The three benchmark workloads.

Each workload has ``setup(lib, seed, out_dir)`` (oracle construction,
input generation, reference answers), ``run_pass(lib, state, clock)``
(only calls into the library, each timed through the clock) and
``check(lib, state, result)`` (returns the set of query indices that
failed).  The library is reached through module attributes at call time,
so the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

import reference as ref


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)  # seconds, one per query
    scaled: list = field(default_factory=list)  # the same at reference speed
    outputs: list = field(default_factory=list)  # one per query
    other_s: float = 0.0  # timed pass-level library calls that are not queries
    scaled_other_s: float = 0.0
    extra: object = None  # pass-level output


class PassClock:
    """Times the library calls of one pass, one by one.

    Between calls it lets the speed gauge sample when a sample is due, and
    scales each call's time to reference speed (see speed.py).  Under a tracer a query becomes the root span of its library
    calls.
    """

    def __init__(self, tracer=None, gauge=None):
        self.tracer = tracer
        self.gauge = gauge
        self.result = PassResult()

    def _time(self, fn, args, qid=None):
        if self.gauge is not None:
            self.gauge.tick()
        t0 = perf_counter()
        try:
            if self.tracer is not None and qid is not None:
                out = self.tracer.query_span(qid, fn, *args)
            else:
                out = fn(*args)
        except Exception as exc:  # a raising call is a failed query
            out = exc
        dt = perf_counter() - t0
        if self.gauge is None:
            return dt, dt, out
        return dt, dt * self.gauge.factor_after(dt), out

    def query(self, qid, fn, *args):
        dt, scaled, out = self._time(fn, args, qid)
        self.result.latencies.append(dt)
        self.result.scaled.append(scaled)
        self.result.outputs.append(out)
        return out

    def call(self, fn, *args):
        """A pass-level library call that is not a query."""
        dt, scaled, out = self._time(fn, args)
        self.result.other_s += dt
        self.result.scaled_other_s += scaled
        return out


# ---------------------------------------------------------------------------
# paradox-prefix: the code-by-code verification of a paradoxical
# decomposition of the free group of rank 2


class ParadoxPrefix:
    name = "paradox-prefix"
    spec = "free:2"
    # a, a^-1, b, b^-1 are codes 1..4 in the length-lex reduced-word coding
    K0 = (1, 2, 3, 4)
    level = 1
    codes = tuple(range(48))
    query_budget = 10**4

    def setup(self, lib, seed, out_dir):
        # The inputs are pinned: the decomposition is a pure function of the
        # key, and which codes are asked is the workload.  The seed is
        # accepted for the common interface and changes nothing here.
        g = lib.groups.make_group(self.spec)
        return {"generators": lib.groups.parse_elements(g, "a,a^-1,b,b^-1")}

    def run_pass(self, lib, state, clock):
        Budget = lib.budget.Budget

        def build():
            # a fresh oracle per pass: its word caches start cold, as in one
            # paradox-verify invocation
            g = lib.groups.make_group(self.spec)
            return lib.paradox.build_decomposition(g, self.K0, self.level)

        d = clock.call(build)

        def query(m):
            b = Budget(self.query_budget)
            return d.psi_pair(m, b), d.theta_pair(m, b), d.phi(m, b)

        for qid, m in enumerate(self.codes):
            clock.query(qid, query, m)
        clock.result.extra = clock.call(
            lib.paradox.verify_decomposition_prefix,
            d, len(self.codes), Budget(self.query_budget))

    def check(self, lib, state, result):
        unknown = lib.budget.UNKNOWN
        failed = set()
        if state["generators"] != self.K0:
            return set(range(len(self.codes)))
        for qid, out in enumerate(result.outputs):
            if isinstance(out, Exception) or any(x is unknown for x in out):
                failed.add(qid)
                continue
            psi, theta, phi = out
            if len(psi) != 2 or psi[0] >= psi[1] or len(theta) != 2:
                failed.add(qid)
        report = result.extra
        if isinstance(report, Exception) or report["violations"] or (
                {rec["m"] for rec in report["resolved"]} != set(self.codes)):
            failed.update(range(len(self.codes)))
        return failed


# ---------------------------------------------------------------------------
# harem-small: the finite (1,k)-matching solver on many tiny pieces


class HaremSmall:
    name = "harem-small"
    pieces = 2048
    right_size = 6

    def setup(self, lib, seed, out_dir):
        rng = random.Random(seed)
        items = []
        for _ in range(self.pieces):
            left = rng.randint(1, 3)
            k = rng.choice((1, 2))
            masks = [rng.randrange(1 << self.right_size) for _ in range(left)]
            boundary_mask = rng.randrange(1 << self.right_size)
            A = tuple(sorted(2 * c for c in rng.sample(range(512), left)))
            B = tuple(sorted(2 * c + 1 for c in rng.sample(range(512), self.right_size)))
            adj = {a: tuple(B[j] for j in range(self.right_size) if mask >> j & 1)
                   for a, mask in zip(A, masks)}
            boundary = frozenset(B[j] for j in range(self.right_size)
                                 if boundary_mask >> j & 1)
            interior_mask = ((1 << self.right_size) - 1) & ~boundary_mask
            piece = lib.harem.FiniteBipartite(A, B, adj, boundary)
            feasible = ref.harem_feasible(masks, interior_mask, k)
            items.append((piece, k, feasible))
        return {"items": items}

    def run_pass(self, lib, state, clock):
        solve = lambda piece, k: lib.harem.finite_harem_match(piece, k)
        for qid, (piece, k, _) in enumerate(state["items"]):
            clock.query(qid, solve, piece, k)

    def check(self, lib, state, result):
        failed = set()
        for qid, ((piece, k, feasible), out) in enumerate(
                zip(state["items"], result.outputs)):
            if isinstance(out, Exception) or (out is not None) != feasible:
                failed.add(qid)
            elif out is not None and not ref.harem_matching_ok(
                    piece.A, piece.B, piece.adj, piece.boundary_B, k, out):
                failed.add(qid)
        return failed


# ---------------------------------------------------------------------------
# amenable: a corpus of CLI invocations on amenable groups


@dataclass
class Invocation:
    side: str  # "search" (Folner searches) or "ce" (word problem, kappa)
    argv: list
    check: object  # (exit code, parsed JSON report) -> bool


def _certificate_ok(mult, D, n):
    def check(code, report):
        cert = report.get("certificate", {})
        return (code == 0 and sorted(cert.get("D", ())) == sorted(D)
                and ref.is_n_folner(mult, cert.get("F", ()), D, n))

    return check


class Amenable:
    name = "amenable"
    wp_triples = 80
    kappa_queries = 100
    function_queries = 6
    search_queries = 8
    restrict_queries = 4
    witness_queries = 4

    def setup(self, lib, seed, out_dir):
        rng = random.Random(seed)
        corpus: list[Invocation] = []

        def add(side, argv, check):
            corpus.append(Invocation(side, argv + ["--json"], check))

        # -- Folner-search side ---------------------------------------------
        for j in range(1, 5):
            D = list(range(j))  # lamplighter codes are canonical
            add("search", ["folner-seq", "--group", "lamplighter", "--n", str(j)],
                _certificate_ok(ref.lamp_mult, D, j))
        for _ in range(self.function_queries):
            n = rng.randint(1, 8)
            d = rng.choice(("+1", "-1", "+1,-1"))
            add("search", ["folner-function", "--group", "zd:1", "--d", d,
                           "--n", str(n)],
                lambda code, report, n=n: code == 0 and report.get("min_size") == n)
        # no independent truth: the recorded verdict at this commit is UNKNOWN
        add("search", ["folner-function", "--group", "zd:2", "--d", "(1,0),(0,1)",
                       "--n", "3"],
            lambda code, report: code == 2 and report.get("result") == "UNKNOWN")
        for _ in range(self.search_queries):
            dim = rng.choice((2, 3))
            vecs = self._vectors(rng, dim, rng.randint(1, 2))
            n = rng.randint(2, 4)
            D = [ref.zd_encode(v) for v in vecs]
            add("search", ["folner-search", "--group", "zd:%d" % dim,
                           "--d", ",".join(ref.zd_literal(v) for v in vecs),
                           "--n", str(n)],
                _certificate_ok(ref.zd_mult(dim), D, n))
        for _ in range(self.restrict_queries):
            k = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1), (2, 1)))
            n = rng.randint(2, 4)
            add("search", ["restrict-folner", "--group", "zd:2",
                           "--k", ref.zd_literal(k), "--n", str(n)],
                self._restrict_check(k, n))
        for _ in range(self.witness_queries):
            u, v = self._vectors(rng, 2, 2, independent=True)
            K = [ref.zd_encode(u), ref.zd_encode(v)]
            add("search", ["witness", "--group", "zd:2",
                           "--k", "%s,%s" % (ref.zd_literal(u), ref.zd_literal(v)),
                           "--n", "2", "--size-bound", "4"],
                self._witness_check(K))

        # -- CE side: word problem and kappa --------------------------------
        for i in range(self.wp_triples):
            a, b, c, truth = self._triple(rng, 1 + i % 4, (i // 4) % 2 == 0)
            add("ce", ["wp-from-folner", "--group", "zd:2",
                       "--d", ",".join(ref.zd_literal(v) for v in (a, b, c))],
                lambda code, report, t=truth: code == 0 and report.get("equal") is t)
        for i in range(self.kappa_queries):
            # the support size and the level n follow a fixed schedule, so
            # every seed asks the same mix of kappa questions
            support = sorted(rng.sample(range(85), 1 + i % 6))
            values = {c: Fraction(rng.randint(1, 5)) for c in support}
            path = out_dir / ("reiter-%d-%d.json" % (seed, i))
            with open(path, "w") as fh:
                json.dump({"support": support,
                           "values": {str(c): str(q) for c, q in values.items()}}, fh)
            # one-letter shifts keep every product within words of length 4,
            # so each query's equal-codes scan has the same order of cost
            D_words = [(letter,) for letter in rng.sample(range(4), 1 + i % 2)]
            n = 1 + i % 8
            truth = ref.kappa_invariant(values, [ref.rz_encode(w) for w in D_words], n)
            want = "INVARIANT" if truth else "NOT_INVARIANT"
            add("ce", ["kappa", "--group", "redundant-z",
                       "--d", ",".join(ref.rz_literal(w) for w in D_words),
                       "--n", str(n), "--fn", str(path)],
                lambda code, report, w=want: code == 0 and report.get("result") == w)
        return {"corpus": corpus}

    @staticmethod
    def _vectors(rng, dim, count, independent=False):
        while True:
            vecs = [tuple(rng.randint(-1, 1) for _ in range(dim)) for _ in range(count)]
            if any(not any(v) for v in vecs) or len(set(vecs)) != count:
                continue
            if independent and vecs[0][0] * vecs[1][1] == vecs[0][1] * vecs[1][0]:
                continue
            return vecs

    @staticmethod
    def _triple(rng, m, true):
        """A triple a, b, c in Z^2 whose largest |coordinate| is m on both
        axes: the Folner box, and so the cost, depends only on m."""
        while True:
            a = (rng.randint(-2, 2), rng.randint(-2, 2))
            b = (rng.randint(-2, 2), rng.randint(-2, 2))
            s = (a[0] + b[0], a[1] + b[1])
            c = s if true else (rng.randint(-4, 4), rng.randint(-4, 4))
            if c == s and not true:
                continue
            if all(max(abs(v[axis]) for v in (a, b, c)) == m for axis in (0, 1)):
                return a, b, c, true

    @staticmethod
    def _restrict_check(k, n):
        K = [ref.zd_encode(k)]

        def check(code, report):
            S = report.get("subgroup_folner", ())
            on_line = all(  # every element is an integer multiple of k
                any(tuple(t * c for c in k) == ref.zd_decode(s, 2)
                    for t in range(-len(S) - 1, len(S) + 2))
                for s in S)
            return (code == 0 and report.get("verified") is True and on_line
                    and ref.is_n_folner(ref.zd_mult(2), S, K, n))

        return check

    @staticmethod
    def _witness_check(K):
        def check(code, report):
            # Z^2 is abelian: never a witness.  Two independent vectors u, v
            # always admit the 2-Folner square {0, u, v, u+v} inside the
            # radius-2 ball, so the bounded refuter must find a certificate.
            refutation = report.get("refutation") or {}
            return (code == 0 and report.get("verdict") == "NOT_WITNESS"
                    and sorted(refutation.get("D", ())) == sorted(K)
                    and ref.is_n_folner(ref.zd_mult(2), refutation.get("F", ()), K, 2))

        return check

    def run_pass(self, lib, state, clock):
        main = lambda argv: _invoke(lib.cli, argv)
        for qid, inv in enumerate(state["corpus"]):
            out = clock.query(qid, main, inv.argv)
            if clock.tracer is not None and not isinstance(out, Exception):
                clock.tracer.counts["cli.report_bytes"] += len(out[1])

    def check(self, lib, state, result):
        failed = set()
        for qid, (inv, out) in enumerate(zip(state["corpus"], result.outputs)):
            if isinstance(out, Exception):
                failed.add(qid)
                continue
            code, text = out
            try:
                report = json.loads(text)
            except ValueError:
                failed.add(qid)
                continue
            if not inv.check(code, report):
                failed.add(qid)
        return failed

    def side_seconds(self, state, result) -> dict:
        out: dict = {}
        for inv, dt in zip(state["corpus"], result.latencies):
            out[inv.side] = out.get(inv.side, 0.0) + dt
        return out


def _invoke(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


WORKLOADS = {w.name: w for w in (ParadoxPrefix(), HaremSmall(), Amenable())}
