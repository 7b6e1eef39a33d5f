"""Command-line front end.

Commands map one-to-one onto library pipelines; element literals on the
command line are generator words or coordinate tuples, converted to codes
internally.  Reports go to stdout as human text, or as canonical JSON with
``--json`` (identical invocations produce byte-identical output).

``COMMANDS`` lists every command with its help text and flags, and
``FLAGS`` gives each flag's ``add_argument`` arguments; argparse rejects
``--n``, ``--budget`` or ``--steps`` below 1 or above ``sys.maxsize``.
``paradox`` refuses a key that ``decide_witness_commutation`` refutes,
before any matching step.  ``_run`` charges the run's
one meter, made from ``--budget``, and answers a report or ``UNKNOWN``;
``main`` alone turns the outcome into an exit code:
0 definite answer, 2 UNKNOWN (no definite answer within the budget),
3 precondition violation, 4 malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .budget import Budget, Meter, UNKNOWN
from .folner import (
    ReiterFunction,
    decide_mult_from_folner,
    folner_function,
    folner_oracle,
    folner_sequence,
    is_n_folner,
    reiter_defect,
    search_folner,
    verify_invariance_ce,
    within,
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
from .harem import harem_new, harem_step, matching_dump
from .paradox import build_decomposition, cayley_bipartite, verify_decomposition_prefix
from .witness import (
    decide_witness_commutation,
    refute_witness_bounded,
    restrict_folner_to_subgroup,
)

EXIT_OK = 0
EXIT_UNKNOWN = 2
EXIT_PRECONDITION = 3
EXIT_MALFORMED = 4

DEFAULT_BUDGET = 10**6


class _MalformedInput(Exception):
    """An element list or Reiter function file that does not parse."""


def _positive(text: str) -> int:
    value = int(text)
    if not 1 <= value <= sys.maxsize:
        raise argparse.ArgumentTypeError("must be 1 to %d, got %d" % (sys.maxsize, value))
    return value


FLAGS = {
    "--d": dict(help="comma-separated element words"),
    "--k": dict(help="comma-separated key words"),
    "--k0": dict(help="comma-separated key seed words"),
    "--n": dict(type=_positive, required=True),
    "--verify": dict(type=int, default=0),
    "--size-bound": dict(type=int, default=4),
    "--fn": dict(help="path to a Reiter function JSON"),
    "--steps": dict(type=_positive, default=10),
}

# witness --n is optional: the default 0 runs no refutation search
_REFUTE_N = ("--n", dict(
    type=int, default=0,
    help="also search for an n-Folner refutation up to --size-bound"))

COMMANDS = {
    "folner-search": ("search for an n-Folner certificate", ("--d", "--n")),
    "folner-function": ("minimum n-Folner set size", ("--d", "--n")),
    "folner-seq": ("j-th member of the effective Folner sequence", ("--n",)),
    "reiter-check": ("shift defects of a Reiter function", ("--d", "--n", "--fn")),
    "kappa": ("CE invariance verification by partition merging",
              ("--d", "--n", "--fn")),
    "wp-from-folner": ("decide a multiplication triple from a Folner oracle",
                       ("--d",)),
    "harem-demo": ("run matching steps on the doubling graph of a key",
                   ("--k", "--steps")),
    "paradox": ("build a paradoxical decomposition and verify a prefix",
                ("--k0", "--n", "--verify")),
    "witness": ("decide whether a key witnesses the paradox",
                ("--k", "--size-bound", _REFUTE_N)),
    "restrict-folner": ("restrict a Folner set to the subgroup of a key",
                        ("--k", "--n")),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once at first use."""
    top = argparse.ArgumentParser(prog="folnerlab", add_help=True)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--group", required=True, help="group spec, e.g. zd:1")
        p.add_argument("--budget", type=_positive, default=DEFAULT_BUDGET)
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write the report JSON to this path")
        for flag in flags:
            flag, kwargs = flag if isinstance(flag, tuple) else (flag, FLAGS[flag])
            p.add_argument(flag, **kwargs)
    return top


def _elements(g, text, what):
    if not text:
        raise _MalformedInput("missing required element list --%s" % what)
    try:
        return parse_elements(g, text)
    except ValueError as exc:
        raise _MalformedInput(str(exc))


def _load_reiter(path) -> ReiterFunction:
    if not path:
        raise _MalformedInput("missing required --fn path")
    try:
        with open(path) as fh:
            return ReiterFunction.from_json_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise _MalformedInput("cannot read Reiter function: %s" % exc)


def _certified(cert):
    return cert if cert is UNKNOWN else {"certificate": cert.to_json_dict()}


def _run(args, g, meter: Meter):
    """The report of one command, or UNKNOWN when the run's meter ran out."""
    command = args.command
    if command == "folner-search":
        return _certified(search_folner(g, _elements(g, args.d, "d"), args.n, meter))

    if command == "folner-function":
        size = folner_function(g, _elements(g, args.d, "d"), args.n, meter)
        return size if size is UNKNOWN else {"min_size": size}

    if command == "folner-seq":
        return _certified(folner_sequence(g, args.n, meter))

    if command == "reiter-check":
        D = _elements(g, args.d, "d")
        defects = reiter_defect(g, _load_reiter(args.fn), D)
        return {
            "invariant": all(within(d, args.n) for d in defects.values()),
            "n": args.n,
            "defects": {str(x): str(d) for x, d in sorted(defects.items())},
        }

    if command == "kappa":
        if g.mode != CE:
            raise PreconditionError("kappa requires a CE-mode group (redundant-z)")
        D = _elements(g, args.d, "d")
        verdict = verify_invariance_ce(g, args.n, D, _load_reiter(args.fn), meter)
        return verdict if verdict is UNKNOWN else {"result": verdict}

    if command == "wp-from-folner":
        # the three words keep their order; parse without sorting
        parts = split_element_list(args.d or "")
        if len(parts) != 3:
            raise _MalformedInput("wp-from-folner needs exactly 3 elements")
        try:
            codes = [parse_element(g, p) for p in parts]
        except ValueError as exc:
            raise _MalformedInput(str(exc))
        ce = g if g.mode == CE else CEView(g)
        equal = decide_mult_from_folner(ce, folner_oracle(ce, meter), *codes, meter)
        return equal if equal is UNKNOWN else {"equal": equal, "triple": codes}

    if command == "harem-demo":
        K = _elements(g, args.k, "k")
        if not meter.charge(args.steps):
            return UNKNOWN
        st = harem_new(cayley_bipartite(g, K), 1)
        for _ in range(args.steps):
            harem_step(st)
        return {"steps": args.steps, "dump": matching_dump(st).splitlines()}

    if command == "paradox":
        K0 = _elements(g, args.k0, "k0")
        if (witness := decide_witness_commutation(g, K0)).verdict == "NOT_WITNESS":
            raise PreconditionError("the key is not a witness: %s" % witness.rationale)
        d = build_decomposition(g, K0, args.n)
        return verify_decomposition_prefix(d, args.verify, meter)

    if command == "witness":
        K = _elements(g, args.k, "k")
        report = decide_witness_commutation(g, K).to_json_dict()
        if args.n > 0:
            found = refute_witness_bounded(g, K, args.n, args.size_bound, meter)
            report["refutation"] = None if found is UNKNOWN else found.to_json_dict()
        return report

    if command == "restrict-folner":
        K = _elements(g, args.k, "k")
        cert = search_folner(g, K, args.n * len(K), meter)
        if cert is UNKNOWN:
            return UNKNOWN
        S = restrict_folner_to_subgroup(g, K, args.n, cert.F)
        ok, defects = is_n_folner(g, S, K, args.n)
        return {
            "subgroup_folner": list(S),
            "verified": ok,
            "defects": {str(x): str(d) for x, d in sorted(defects.items())},
            "from": cert.to_json_dict(),
        }

    raise AssertionError("no branch for command %r" % command)


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
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_MALFORMED
    try:
        report = _run(args, make_group(args.group), Budget(args.budget).meter())
    except (MalformedSpecError, _MalformedInput) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MALFORMED
    except PreconditionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PRECONDITION
    code = EXIT_OK
    if report is UNKNOWN:
        report, code = {"result": "UNKNOWN", "budget": args.budget}, EXIT_UNKNOWN
    elif any(v.get("check") == "unresolved" for v in report.get("violations", ())):
        code = EXIT_UNKNOWN  # a paradox --verify prefix the budget left open
    try:
        _emit(report, args.json, args.out)
    except OSError as exc:
        print("error: cannot write --out: %s" % exc, file=sys.stderr)
        return EXIT_MALFORMED
    return code


def console_main():  # pragma: no cover - thin wrapper for the entry point
    sys.exit(main())


if __name__ == "__main__":
    console_main()
