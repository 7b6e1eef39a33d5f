"""Command-line front end.

Commands map one-to-one onto library pipelines; element literals on the
command line are generator words or coordinate tuples, converted to codes
internally.  Reports go to stdout as human text, or as canonical JSON with
``--json`` (identical invocations produce byte-identical output).

Exit codes: 0 definite answer, 2 UNKNOWN (budget exhausted), 3
precondition violation, 4 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .budget import Budget, UNKNOWN
from .folner import (
    EmptySetError,
    ReiterFunction,
    decide_mult_from_folner,
    folner_function,
    folner_oracle,
    folner_sequence,
    is_n_folner,
    reiter_defect,
    search_folner,
    verify_invariance_ce,
)
from .groups import (
    CE,
    CEView,
    MalformedSpecError,
    PreconditionError,
    make_group,
    parse_element,
    parse_elements,
    split_element_list,
)
from .harem import InternalInfeasibleError, harem_new, harem_step, matching_dump
from .paradox import (
    KeyNotInKError,
    build_decomposition,
    cayley_bipartite,
    verify_decomposition_prefix,
)
from .witness import (
    SubgroupRestrictionError,
    UnsupportedFamilyError,
    decide_witness_commutation,
    refute_witness_bounded,
    restrict_folner_to_subgroup,
)

EXIT_OK = 0
EXIT_UNKNOWN = 2
EXIT_PRECONDITION = 3
EXIT_MALFORMED = 4

DEFAULT_BUDGET = 10**6


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="folnerlab", add_help=True)
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="group spec, e.g. zd:1")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write the report JSON to this path")
        for flag in flags:
            if flag == "--d":
                p.add_argument("--d", help="comma-separated element words")
            elif flag == "--k":
                p.add_argument("--k", help="comma-separated key words")
            elif flag == "--k0":
                p.add_argument("--k0", help="comma-separated key seed words")
            elif flag == "--n":
                p.add_argument("--n", type=int, required=True)
            elif flag == "--verify":
                p.add_argument("--verify", type=int, default=0)
            elif flag == "--size-bound":
                p.add_argument("--size-bound", type=int, default=4)
            elif flag == "--fn":
                p.add_argument("--fn", help="path to a Reiter function JSON")
            elif flag == "--steps":
                p.add_argument("--steps", type=int, default=10)
        return p

    cmd("folner-search", "search for an n-Folner certificate", "--d", "--n")
    cmd("folner-function", "minimum n-Folner set size", "--d", "--n")
    cmd("folner-seq", "j-th member of the effective Folner sequence", "--n")
    cmd("reiter-check", "shift defects of a Reiter function", "--d", "--n", "--fn")
    cmd("kappa", "CE invariance verification by partition merging",
        "--d", "--n", "--fn")
    cmd("wp-from-folner", "decide a multiplication triple from a Folner oracle",
        "--d")
    cmd("harem-demo", "run matching steps on the doubling graph of a key",
        "--k", "--steps")
    cmd("paradox", "build a paradoxical decomposition and verify a prefix",
        "--k0", "--n", "--verify")
    p = cmd("witness", "decide whether a key witnesses the paradox", "--k",
            "--size-bound")
    p.add_argument("--n", type=int, default=0,
                   help="also search for an n-Folner refutation up to --size-bound")
    cmd("restrict-folner", "restrict a Folner set to the subgroup of a key",
        "--k", "--n")
    return top


def _elements(g, text, what):
    if not text:
        raise _CliError(EXIT_MALFORMED, "missing required element list --%s" % what)
    try:
        return parse_elements(g, text)
    except ValueError as exc:
        raise _CliError(EXIT_MALFORMED, str(exc))


def _load_reiter(path) -> ReiterFunction:
    if not path:
        raise _CliError(EXIT_MALFORMED, "missing required --fn path")
    try:
        with open(path) as fh:
            return ReiterFunction.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError) as exc:
        raise _CliError(EXIT_MALFORMED, "cannot read Reiter function: %s" % exc)


def _run(args) -> tuple[int, dict]:
    try:
        g = make_group(args.group)
    except MalformedSpecError as exc:
        raise _CliError(EXIT_MALFORMED, str(exc))
    if args.budget < 1:
        raise _CliError(EXIT_MALFORMED, "budget must be >= 1")
    budget = Budget(args.budget)

    if args.command == "folner-search":
        D = _elements(g, args.d, "d")
        if args.n < 1:
            raise _CliError(EXIT_MALFORMED, "n must be >= 1")
        cert = search_folner(g, D, args.n, budget)
        if cert is UNKNOWN:
            return EXIT_UNKNOWN, {"result": "UNKNOWN", "budget": args.budget}
        return EXIT_OK, {"certificate": cert.to_json_dict()}

    if args.command == "folner-function":
        D = _elements(g, args.d, "d")
        if args.n < 1:
            raise _CliError(EXIT_MALFORMED, "n must be >= 1")
        size = folner_function(g, D, args.n, budget)
        if size is UNKNOWN:
            return EXIT_UNKNOWN, {"result": "UNKNOWN", "budget": args.budget}
        return EXIT_OK, {"min_size": size}

    if args.command == "folner-seq":
        if args.n < 1:
            raise _CliError(EXIT_MALFORMED, "sequence index must be >= 1")
        cert = folner_sequence(g, args.n, budget)
        if cert is UNKNOWN:
            return EXIT_UNKNOWN, {"result": "UNKNOWN", "budget": args.budget}
        return EXIT_OK, {"certificate": cert.to_json_dict()}

    if args.command == "reiter-check":
        D = _elements(g, args.d, "d")
        f = _load_reiter(args.fn)
        defects = reiter_defect(g, f, D)
        ok = all(d < Fraction(1, args.n) for d in defects.values())
        return EXIT_OK, {
            "invariant": ok,
            "n": args.n,
            "defects": {str(x): str(d) for x, d in sorted(defects.items())},
        }

    if args.command == "kappa":
        if g.mode != CE:
            raise _CliError(
                EXIT_PRECONDITION, "kappa requires a CE-mode group (redundant-z)"
            )
        D = _elements(g, args.d, "d")
        f = _load_reiter(args.fn)
        verdict = verify_invariance_ce(g, args.n, D, f, budget)
        if verdict is UNKNOWN:
            return EXIT_UNKNOWN, {"result": "UNKNOWN", "budget": args.budget}
        return EXIT_OK, {"result": verdict}

    if args.command == "wp-from-folner":
        # the three words keep their order; parse without sorting
        parts = split_element_list(args.d or "")
        if len(parts) != 3:
            raise _CliError(EXIT_MALFORMED, "wp-from-folner needs exactly 3 elements")
        try:
            codes = [parse_element(g, p) for p in parts]
        except ValueError as exc:
            raise _CliError(EXIT_MALFORMED, str(exc))
        ce = g if g.mode == CE else CEView(g)
        oracle = folner_oracle(ce, budget)
        equal = decide_mult_from_folner(ce, oracle, *codes)
        return EXIT_OK, {"equal": equal, "triple": codes}

    if args.command == "harem-demo":
        K = _elements(g, args.k, "k")
        if args.steps > args.budget:
            return EXIT_UNKNOWN, {"result": "UNKNOWN", "budget": args.budget}
        st = harem_new(cayley_bipartite(g, K), 1)
        for _ in range(args.steps):
            harem_step(st)
        return EXIT_OK, {
            "steps": args.steps,
            "dump": matching_dump(st).splitlines(),
        }

    if args.command == "paradox":
        K0 = _elements(g, args.k0, "k0")
        if args.n < 1:
            raise _CliError(EXIT_MALFORMED, "n must be >= 1")
        d = build_decomposition(g, K0, args.n)
        report = verify_decomposition_prefix(d, args.verify, budget)
        code = EXIT_OK
        if any(v.get("check") == "unresolved" for v in report["violations"]):
            code = EXIT_UNKNOWN
        return code, report

    if args.command == "witness":
        K = _elements(g, args.k, "k")
        verdict = decide_witness_commutation(g, K)
        report = verdict.to_json_dict()
        if args.n > 0:
            found = refute_witness_bounded(g, K, args.n, args.size_bound, budget)
            report["refutation"] = None if found is UNKNOWN else found.to_json_dict()
        return EXIT_OK, report

    if args.command == "restrict-folner":
        K = _elements(g, args.k, "k")
        if args.n < 1:
            raise _CliError(EXIT_MALFORMED, "n must be >= 1")
        m = args.n * len(K)
        cert = search_folner(g, K, m, budget)
        if cert is UNKNOWN:
            return EXIT_UNKNOWN, {"result": "UNKNOWN", "budget": args.budget}
        S = restrict_folner_to_subgroup(g, K, args.n, cert.F)
        ok, defects = is_n_folner(g, S, K, args.n)
        return EXIT_OK, {
            "subgroup_folner": list(S),
            "verified": ok,
            "defects": {str(x): str(d) for x, d in sorted(defects.items())},
            "from": cert.to_json_dict(),
        }

    raise _CliError(EXIT_MALFORMED, "unknown command %r" % args.command)


def _emit(report: dict, as_json: bool, out_path):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    if as_json:
        print(text)
    else:
        for key, value in sorted(report.items()):
            print("%s: %s" % (key, value))


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_MALFORMED if exc.code not in (0,) else 0
    try:
        code, report = _run(args)
    except _CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.code
    except MalformedSpecError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MALFORMED
    except (
        PreconditionError,
        EmptySetError,
        KeyNotInKError,
        InternalInfeasibleError,
        SubgroupRestrictionError,
        UnsupportedFamilyError,
        ValueError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    _emit(report, args.json, args.out)
    return code


def console_main():  # pragma: no cover - thin wrapper for the entry point
    sys.exit(main())


if __name__ == "__main__":
    console_main()
