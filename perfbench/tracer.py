"""Span tracer for the traced benchmark run.

The tracer wraps public call boundaries of folnerlab for the length of one
pass and removes the wrappers afterwards, so untimed and timed passes run
the library untouched.  Each wrapped call opens a span (name, start, end,
parent span, query id).  Self time is a span's duration minus the time
covered by its child spans.

Two kinds of span are kept:

* recorded spans (pipeline calls: searches, harem steps, solves, CLI
  commands) are stored one by one and written out when the run ends;
* folded spans (oracle methods, graph ``neighbors``, ``Meter.charge``),
  which run hundreds of thousands of times a pass, update per-name call
  counts, total time and self time only, so memory stays bounded.

Oracle and graph methods are wrapped on the instance that the library
creates (``make_group``, ``CEView``, ``cayley_bipartite``), never through a
delegating proxy: ``folner_oracle``, ``box_folner`` and the ``witness``
deciders dispatch on the oracle's class.  A wrapped module function is
rebound under every name that holds it in any folnerlab module, because
``cli``, ``paradox`` and ``witness`` import functions by name.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("groups", "folner", "harem", "paradox", "witness", "cli", "budget")

# (module, function, span name, family); a family marks spans whose nested
# oracle calls are attributed to a per-layer counter
RECORDED_FUNCTIONS = [
    ("groups", "make_group", "groups.make_group", None),
    ("groups", "ball", "groups.ball", None),
    ("groups", "eq_semidecide", "groups.eq_semidecide", None),
    ("groups", "parse_element", "groups.parse_element", None),
    ("groups", "parse_elements", "groups.parse_elements", None),
    ("folner", "is_n_folner", "folner.is_n_folner", None),
    ("folner", "is_n_folner_complement", "folner.is_n_folner_complement", None),
    ("folner", "certificate", "folner.certificate", None),
    ("folner", "search_folner", "folner.search_folner", "search"),
    ("folner", "folner_function", "folner.folner_function", "search"),
    ("folner", "folner_sequence", "folner.folner_sequence", "search"),
    ("folner", "pushforward", "folner.pushforward", None),
    ("folner", "reiter_defect", "folner.reiter_defect", None),
    ("folner", "partition_defect", "folner.partition_defect", None),
    ("folner", "verify_invariance_ce", "folner.verify_invariance_ce", "kappa"),
    ("folner", "extract_folner_from_reiter", "folner.extract_folner_from_reiter", None),
    ("folner", "box_folner", "folner.box_folner", None),
    ("folner", "folner_oracle", "folner.folner_oracle", None),
    ("folner", "decide_mult_from_folner", "folner.decide_mult_from_folner", None),
    ("harem", "induced_ball", "harem.induced_ball", None),
    ("harem", "finite_harem_match", "harem.finite_harem_match", None),
    ("harem", "harem_new", "harem.harem_new", None),
    ("harem", "harem_step", "harem.harem_step", None),
    ("harem", "harem_query", "harem.harem_query", None),
    ("harem", "matching_dump", "harem.matching_dump", None),
    ("harem", "cehhc_spot_check", "harem.cehhc_spot_check", None),
    ("paradox", "expand_key", "paradox.expand_key", None),
    ("paradox", "cayley_bipartite", "paradox.cayley_bipartite", None),
    ("paradox", "build_decomposition", "paradox.build_decomposition", None),
    ("paradox", "decomp_membership", "paradox.decomp_membership", None),
    ("paradox", "check_decomposition_records", "paradox.check_decomposition_records", None),
    ("paradox", "verify_decomposition_prefix", "paradox.verify_decomposition_prefix", None),
    ("witness", "decide_witness_commutation", "witness.decide_witness_commutation", None),
    ("witness", "refute_witness_bounded", "witness.refute_witness_bounded", None),
    ("witness", "subgroup_membership", "witness.subgroup_membership", None),
    ("witness", "restrict_folner_to_subgroup", "witness.restrict_folner_to_subgroup", None),
    ("cli", "main", "cli.main", None),
]

ORACLE_METHODS = {
    "mult": "groups.mult",
    "inv": "groups.inv",
    "canon": "groups.canon",
    "multt_enum": "groups.enum",
    "eq_enum": "groups.enum",
    "multt_enum_pair": "groups.enum",
}
# CEView forwards mult/inv to its base oracle, which is wrapped already
CEVIEW_METHODS = ("canon", "multt_enum", "eq_enum", "multt_enum_pair")
DECOMPOSITION_METHODS = ("psi_pair", "theta_pair", "phi")


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, query, self)
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.stack: list[list] = []  # open frames: [child_s, span_id]
        self.family = Counter()
        self.counts = Counter()
        self.step_ms: list[float] = []
        self.codes_queried: set = set()
        self.codes_resolved: set = set()
        self.pieces: list[tuple] = []  # (piece, k, feasible) for the cross-check
        self.meters: list = []
        self.query = None
        self.origin = perf_counter()
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def call(self, name, fn, args, kwargs, record, family, after):
        parent = self.stack[-1] if self.stack else None
        span_id = parent[1] if parent else None
        if record:
            span_id, parent_id = self._next_id, span_id
            self._next_id += 1
        frame = [0.0, span_id]
        self.stack.append(frame)
        outer = family is not None and self.family[family] == 0
        if family is not None:
            self.family[family] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            if family is not None:
                self.family[family] -= 1
            dur = end - start
            own = dur - frame[0]
            if self.stack:
                self.stack[-1][0] += dur
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += own
            if outer:
                self.counts[family + ".outer_s"] += dur
            if record:
                self.spans.append((span_id, name, start - self.origin,
                                   end - self.origin, parent_id, self.query, own))
        if after is not None:
            replaced = after(result, args, dur, outer)
            if replaced is not None:
                result = replaced
        return result

    def wrap(self, name, fn, *, record=True, family=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, record, family, after)

        traced.__wrapped__ = fn
        return traced

    def query_span(self, qid, fn, *args):
        """Run one benchmark query as the root span of its library calls."""
        self.query = qid
        try:
            return self.call("bench.query", fn, args, {}, True, None, None)
        finally:
            self.query = None

    # -- installation ----------------------------------------------------

    def install(self, lib):
        """Wrap the library's public boundaries; undone by :meth:`uninstall`."""
        hooks = self._hooks(lib)
        modules = [m for n, m in sys.modules.items()
                   if n == "folnerlab" or n.startswith("folnerlab.")]
        for mod_name, fn_name, span, family in RECORDED_FUNCTIONS:
            original = getattr(getattr(lib, mod_name), fn_name)
            wrapper = self.wrap(span, original, family=family,
                                after=hooks.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        real_ceview = lib.groups.CEView

        def ceview(base):
            view = real_ceview(base)
            self._wrap_methods(view, {m: ORACLE_METHODS[m] for m in CEVIEW_METHODS})
            return view

        self._undo.append((lib.cli, "CEView", real_ceview))
        lib.cli.CEView = ceview
        budget_cls, meter_cls = lib.budget.Budget, lib.budget.Meter
        self._undo.append((budget_cls, "meter", budget_cls.meter))
        budget_cls.meter = self.wrap("budget.meter", budget_cls.meter,
                                     after=hooks["budget.meter"])
        self._undo.append((meter_cls, "charge", meter_cls.charge))
        meter_cls.charge = self.wrap("budget.charge", meter_cls.charge,
                                     record=False)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap_methods(self, obj, names: dict, record=False, after=None):
        for method, span in names.items():
            bound = getattr(obj, method, None)
            if bound is not None:
                setattr(obj, method, self.wrap(
                    span, bound, record=record,
                    after=(after or {}).get(method)))

    def _hooks(self, lib):
        counts = self.counts
        unknown = lib.budget.UNKNOWN

        def make_group(g, args, dur, outer):
            self._wrap_methods(g, ORACLE_METHODS, after=oracle_hooks)

        def count_mult(result, args, dur, outer):
            if self.family["search"]:
                counts["folner.search_mult_calls"] += 1

        def count_enum(result, args, dur, outer):
            if self.family["kappa"]:
                counts["folner.kappa_eq_entries"] += 1

        oracle_hooks = {"mult": count_mult, "eq_enum": count_enum}

        def search(result, args, dur, outer):
            if outer and result is unknown:
                counts["folner.search_unknown"] += 1

        def set_size(F, args, dur, outer):
            counts["folner.oracle_set_size"] += len(F)

        def folner_oracle(oracle, args, dur, outer):
            # folner_oracle returns a closure: each (n, D) -> F call is a span
            return self.wrap("folner.oracle_call", oracle, after=set_size)

        def solve(matching, args, dur, outer):
            piece, k = args[0], args[1]
            counts["harem.piece_left"] += len(piece.A)
            counts["harem.piece_right"] += len(piece.B)
            counts["harem.piece_edges"] += sum(len(v) for v in piece.adj.values())
            counts["harem.solve_feasible"] += matching is not None
            self.pieces.append((piece, k, matching is not None))

        def step(st, args, dur, outer):
            self.step_ms.append(dur * 1e3)
            if self.family["code"]:
                counts["paradox.code_steps"] += 1

        def cayley(graph, args, dur, outer):
            self._wrap_methods(graph, {"neighbors": "harem.neighbors"})

        def code_query(result, args, dur, outer):
            self.codes_queried.add(args[0])
            if result is not unknown:
                self.codes_resolved.add(args[0])

        def decomposition(d, args, dur, outer):
            for method in DECOMPOSITION_METHODS:
                setattr(d, method, self.wrap(
                    "paradox." + method, getattr(d, method), family="code",
                    after=code_query if method == "psi_pair" else None))

        def meter(m, args, dur, outer):
            self.meters.append(m)

        hooks = {
            "groups.make_group": make_group,
            "folner.search_folner": search,
            "folner.folner_function": search,
            "folner.folner_sequence": search,
            "harem.finite_harem_match": solve,
            "harem.harem_step": step,
            "paradox.cayley_bipartite": cayley,
            "paradox.build_decomposition": decomposition,
            "folner.folner_oracle": folner_oracle,
            "budget.meter": meter,
        }
        return hooks

    # -- metrics ---------------------------------------------------------

    def total(self, name) -> float:
        entry = self.agg.get(name)
        return entry[1] if entry else 0.0

    def calls(self, name) -> int:
        entry = self.agg.get(name)
        return entry[0] if entry else 0

    def metrics(self, crosscheck_mismatch: int) -> dict:
        """Per-layer metrics of one traced pass: name -> (value, unit)."""
        self_s = Counter()
        for name, (_, _, own) in self.agg.items():
            self_s[name.split(".", 1)[0]] += own
        solves = self.calls("harem.finite_harem_match")
        codes = len(self.codes_queried)
        c = self.counts
        counts = {
            "groups.mult_calls": self.calls("groups.mult"),
            "groups.inv_calls": self.calls("groups.inv"),
            "groups.canon_calls": self.calls("groups.canon"),
            "groups.enum_calls": self.calls("groups.enum"),
            "harem.steps": self.calls("harem.harem_step"),
            "harem.ball_calls": self.calls("harem.induced_ball"),
            "harem.neighbors_calls": self.calls("harem.neighbors"),
            "harem.piece_left": c["harem.piece_left"],
            "harem.piece_right": c["harem.piece_right"],
            "harem.piece_edges": c["harem.piece_edges"],
            "harem.solve_calls": solves,
            "harem.solve_crosscheck_mismatch": crosscheck_mismatch,
            "paradox.codes_resolved": len(self.codes_resolved),
            "folner.search_mult_calls": c["folner.search_mult_calls"],
            "folner.search_unknown": c["folner.search_unknown"],
            "folner.oracle_set_size": c["folner.oracle_set_size"],
            "folner.kappa_eq_entries": c["folner.kappa_eq_entries"],
            "cli.report_bytes": c["cli.report_bytes"],
            "budget.meters": len(self.meters),
            "budget.steps_used": sum(m.consumed for m in self.meters),
        }
        seconds = {
            "harem.ball_s": self.total("harem.induced_ball"),
            "harem.solve_s": self.total("harem.finite_harem_match"),
            "paradox.expand_key_s": self.total("paradox.expand_key"),
            "paradox.verify_s": self.total("paradox.verify_decomposition_prefix"),
            "folner.search_s": c["search.outer_s"],
            "folner.oracle_s": (self.total("folner.folner_oracle")
                                + self.total("folner.oracle_call")),
            "folner.wp_s": self.total("folner.decide_mult_from_folner"),
            "folner.kappa_s": c["kappa.outer_s"],
            "witness.refute_s": self.total("witness.refute_witness_bounded"),
            "witness.restrict_s": self.total("witness.restrict_folner_to_subgroup"),
            "cli.main_s": self.total("cli.main"),
        }
        seconds.update({layer + ".self_s": self_s[layer] for layer in LAYERS})
        out = {name: (value, "count") for name, value in counts.items()}
        out.update({name: (value, "s") for name, value in seconds.items()})
        out["harem.step_p50_ms"] = (
            statistics.median(self.step_ms) if self.step_ms else 0.0, "ms")
        out["harem.solve_feasible_frac"] = (
            c["harem.solve_feasible"] / solves if solves else 0.0, "frac")
        out["paradox.steps_per_code"] = (
            c["paradox.code_steps"] / codes if codes else 0.0, "steps/code")
        return out

    def records(self) -> list[dict]:
        """Recorded spans and per-name aggregates, ready for JSON lines."""
        lines = [
            {"span": sid, "name": name, "start_s": start, "end_s": end,
             "parent": parent, "query": query, "self_s": own}
            for sid, name, start, end, parent, query, own in self.spans
        ]
        lines += [
            {"aggregate": name, "calls": calls, "total_s": total, "self_s": own}
            for name, (calls, total, own) in sorted(self.agg.items())
        ]
        lines.append({"counters": dict(sorted(self.counts.items()))})
        return lines
