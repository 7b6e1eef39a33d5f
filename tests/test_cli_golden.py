"""Golden CLI corpus: exit code and ``--json`` stdout of every command,
compared byte for byte.

``CASES`` names each invocation; ``tests/golden/cli_corpus.json`` holds the
argv, exit code and stdout recorded for it.  ``{golden}`` in an argv stands
for the ``tests/golden`` directory, where the Reiter function files live.
The ``_edge_`` cases sit on either side of the smallest budget that still
gives an answer, so a change in what a budget step costs shows up there.

Re-record only for an intended change of output, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from folnerlab.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "cli_corpus.json"

Z2_D = "(1,0),(0,1)"
MAXSIZE = str(sys.maxsize)  # the parser's bound on counts

CASES = {
    # folner-search: ball phase, certificates and the exact UNKNOWN edge
    "search_z1": ["folner-search", "--group", "zd:1", "--d", "+1,-1", "--n", "3"],
    "search_z1_edge_unknown": ["folner-search", "--group", "zd:1", "--d", "+1,-1",
                               "--n", "3", "--budget", "10"],
    "search_z1_edge_ok": ["folner-search", "--group", "zd:1", "--d", "+1,-1",
                          "--n", "3", "--budget", "11"],
    "search_z2": ["folner-search", "--group", "zd:2", "--d", Z2_D, "--n", "2"],
    "search_z2_edge_unknown": ["folner-search", "--group", "zd:2", "--d", Z2_D,
                               "--n", "2", "--budget", "62"],
    "search_z2_edge_ok": ["folner-search", "--group", "zd:2", "--d", Z2_D,
                          "--n", "2", "--budget", "63"],
    "search_z3": ["folner-search", "--group", "zd:3", "--d", "(1,0,0),(0,0,1)",
                  "--n", "2"],
    "search_lamp": ["folner-search", "--group", "lamplighter", "--d", "s,t",
                    "--n", "2"],
    "search_lamp_edge_unknown": ["folner-search", "--group", "lamplighter",
                                 "--d", "s,t", "--n", "2", "--budget", "13"],
    "search_cyclic_whole": ["folner-search", "--group", "cyclic:12", "--d", "1",
                            "--n", "100"],
    "search_cyclic_edge_unknown": ["folner-search", "--group", "cyclic:12",
                                   "--d", "1", "--n", "100", "--budget", "80"],
    "search_identity": ["folner-search", "--group", "free:2", "--d", "e",
                        "--n", "7"],
    "search_free_unknown": ["folner-search", "--group", "free:2",
                            "--d", "a,a^-1,b,b^-1", "--n", "4", "--budget", "2000"],
    "search_z1_n_maxsize_unknown": ["folner-search", "--group", "zd:1", "--d", "+1",
                                    "--n", MAXSIZE, "--budget", "10"],
    # folner-function: exact minima, the orbit bound, and UNKNOWN
    "function_z1_n5": ["folner-function", "--group", "zd:1", "--d", "+1", "--n", "5"],
    "function_z1_n4": ["folner-function", "--group", "zd:1", "--d", "+1", "--n", "4"],
    "function_z1_small_unknown": ["folner-function", "--group", "zd:1", "--d", "+1",
                                  "--n", "5", "--budget", "10"],
    # the two ball layers cost 3 and 6 steps, the one 5-element candidate 5
    "function_z1_edge_unknown": ["folner-function", "--group", "zd:1", "--d", "+1",
                                 "--n", "5", "--budget", "13"],
    "function_z1_edge_ok": ["folner-function", "--group", "zd:1", "--d", "+1",
                            "--n", "5", "--budget", "14"],
    "function_cyclic_orbit": ["folner-function", "--group", "cyclic:12", "--d", "1",
                              "--n", "100"],
    "function_cyclic_small_unknown": ["folner-function", "--group", "cyclic:12",
                                      "--d", "1", "--n", "100", "--budget", "12"],
    "function_lamp_torsion": ["folner-function", "--group", "lamplighter", "--d", "s",
                              "--n", "5"],
    "function_lamp_small_unknown": ["folner-function", "--group", "lamplighter",
                                    "--d", "s,t", "--n", "3", "--budget", "5"],
    "function_identity": ["folner-function", "--group", "free:2", "--d", "e",
                          "--n", "9", "--budget", "1"],
    "function_z2_unknown": ["folner-function", "--group", "zd:2", "--d", Z2_D,
                            "--n", "2"],
    # no 3-element set is 3-Folner, so the scan of level 3 ends in UNKNOWN
    "function_z2_n3_unknown": ["folner-function", "--group", "zd:2", "--d", Z2_D,
                               "--n", "3"],
    # balls with fewer than n elements are passed over, unsorted and unscanned
    "function_z1_n_maxsize_unknown": ["folner-function", "--group", "zd:1",
                                      "--d", "+1", "--n", MAXSIZE,
                                      "--budget", "1000"],
    # folner-seq
    "seq_z1": ["folner-seq", "--group", "zd:1", "--n", "3"],
    "seq_lamp": ["folner-seq", "--group", "lamplighter", "--n", "2"],
    "seq_lamp_unknown": ["folner-seq", "--group", "lamplighter", "--n", "2",
                         "--budget", "7"],
    # 331 steps pay for the radius-3 ball, the first 3-Folner candidate
    "seq_lamp_n3_edge_ok": ["folner-seq", "--group", "lamplighter", "--n", "3",
                            "--budget", "331"],
    "seq_lamp_n3_edge_unknown": ["folner-seq", "--group", "lamplighter", "--n", "3",
                                 "--budget", "330"],
    # a budget short of the first ball's |D| = n steps answers before D is built
    "seq_z2_huge_unknown": ["folner-seq", "--group", "zd:2", "--n", "1000000",
                            "--budget", "1"],
    # cyclic:6's codes below 6 name all of it, so no more are read
    "seq_cyclic_n_maxsize": ["folner-seq", "--group", "cyclic:6", "--n", MAXSIZE],
    # reiter-check
    "reiter_interval": ["reiter-check", "--group", "zd:1", "--d", "+1,-1", "--n", "2",
                        "--fn", "{golden}/fn_z_interval5.json"],
    "reiter_tent": ["reiter-check", "--group", "zd:1", "--d", "+1", "--n", "1",
                    "--fn", "{golden}/fn_z_tent.json"],
    # f = 1 on {0, 1}: the defect under +1 is exactly 1 = 1/n, and ties count
    "reiter_tie_pair": ["reiter-check", "--group", "zd:1", "--d", "+1", "--n", "1",
                        "--fn", "{golden}/fn_rz_pair.json"],
    # codes past the modulus: each fiber of cyclic:6 holds several support codes
    "reiter_cyclic_fibers": ["reiter-check", "--group", "cyclic:6", "--d", "1,2",
                             "--n", "2", "--fn", "{golden}/fn_c6_fibers.json"],
    # kappa: verdicts, the exact UNKNOWN edge, and a weighted function
    "kappa_invariant": ["kappa", "--group", "redundant-z", "--d", "x", "--n", "3",
                        "--fn", "{golden}/fn_rz_powers6.json"],
    "kappa_not_invariant": ["kappa", "--group", "redundant-z", "--d", "x", "--n", "4",
                            "--fn", "{golden}/fn_rz_powers6.json"],
    "kappa_mixed_invariant": ["kappa", "--group", "redundant-z", "--d", "x",
                              "--n", "4", "--fn", "{golden}/fn_rz_mixed10.json"],
    "kappa_mixed_not_invariant": ["kappa", "--group", "redundant-z", "--d", "x",
                                  "--n", "10", "--fn", "{golden}/fn_rz_mixed10.json"],
    "kappa_mixed_small_unknown": ["kappa", "--group", "redundant-z", "--d", "x",
                                  "--n", "4", "--budget", "3",
                                  "--fn", "{golden}/fn_rz_mixed10.json"],
    "kappa_mixed_edge_unknown": ["kappa", "--group", "redundant-z", "--d", "x",
                                 "--n", "4", "--budget", "2258",
                                 "--fn", "{golden}/fn_rz_mixed10.json"],
    "kappa_mixed_edge_ok": ["kappa", "--group", "redundant-z", "--d", "x",
                            "--n", "4", "--budget", "2259",
                            "--fn", "{golden}/fn_rz_mixed10.json"],
    "kappa_identity_invariant": ["kappa", "--group", "redundant-z", "--d", "e",
                                 "--n", "2", "--fn", "{golden}/fn_rz_powers6.json"],
    "kappa_weighted": ["kappa", "--group", "redundant-z", "--d", "x,y^-1", "--n", "2",
                       "--fn", "{golden}/fn_rz_weighted.json"],
    # f = 1 on {e, x}: the l1 defect under x is exactly 1 = 1/n, a tie
    "kappa_tie_pair": ["kappa", "--group", "redundant-z", "--d", "x", "--n", "1",
                       "--fn", "{golden}/fn_rz_pair.json"],
    # wp-from-folner
    "wp_z2_true": ["wp-from-folner", "--group", "zd:2", "--d", "(1,0),(0,1),(1,1)"],
    "wp_z2_false": ["wp-from-folner", "--group", "zd:2", "--d", "(1,0),(0,1),(2,2)"],
    "wp_z2_identity": ["wp-from-folner", "--group", "zd:2", "--d", "(0,0),(0,0),(0,0)"],
    "wp_z2_far": ["wp-from-folner", "--group", "zd:2", "--d", "(3,-2),(-1,4),(2,2)"],
    # the scan pays one step per multiplication-table entry read
    "wp_z2_scan_edge_unknown": ["wp-from-folner", "--group", "zd:2",
                                "--d", "(3,-2),(-1,4),(2,2)", "--budget", "2105"],
    "wp_z2_scan_edge_ok": ["wp-from-folner", "--group", "zd:2",
                           "--d", "(3,-2),(-1,4),(2,2)", "--budget", "2106"],
    "wp_z1_true": ["wp-from-folner", "--group", "zd:1", "--d", "+2,-5,-3"],
    "wp_z1_false": ["wp-from-folner", "--group", "zd:1", "--d", "+2,-5,+3"],
    # a Folner search that runs out of budget answers UNKNOWN, as the scan does
    "wp_free_search_exhausted_unknown": ["wp-from-folner", "--group", "free:2",
                                         "--d", "a,b,ab", "--budget", "500"],
    "wp_lamp_search_exhausted_unknown": ["wp-from-folner", "--group", "lamplighter",
                                         "--d", "t,t,t^2", "--budget", "40"],
    # harem-demo and paradox: the 50-step and 12-code matchings are pinned
    "harem_free2": ["harem-demo", "--group", "free:2", "--k", "e,a,a^-1,b,b^-1",
                    "--steps", "4"],
    "harem_free2_50": ["harem-demo", "--group", "free:2", "--k", "e,a,a^-1,b,b^-1",
                       "--steps", "50"],
    "harem_budget_unknown": ["harem-demo", "--group", "free:2",
                             "--k", "e,a,a^-1,b,b^-1", "--steps", "30",
                             "--budget", "1"],
    "harem_budget_edge_ok": ["harem-demo", "--group", "free:2",
                             "--k", "e,a,a^-1,b,b^-1", "--steps", "4",
                             "--budget", "4"],
    "harem_cyclic_exhausted": ["harem-demo", "--group", "cyclic:6", "--k", "0,1,5",
                               "--steps", "7"],
    "paradox_bare": ["paradox", "--group", "free:2", "--k0", "a,a^-1,b,b^-1",
                     "--n", "1"],
    "paradox_verify3": ["paradox", "--group", "free:2", "--k0",
                        "a,a^-1,b,b^-1", "--n", "1", "--verify", "3"],
    # the budget runs out on the third code, which the matching already resolved
    "paradox_verify3_budget3": ["paradox", "--group", "free:2", "--k0",
                                "a,a^-1,b,b^-1", "--n", "1", "--verify", "3",
                                "--budget", "3"],
    "paradox_verify12": ["paradox", "--group", "free:2", "--k0", "a,a^-1,b,b^-1",
                         "--n", "1", "--verify", "12"],
    "paradox_verify12_budget_edge_unknown": ["paradox", "--group", "free:2",
                                             "--k0", "a,a^-1,b,b^-1", "--n", "1",
                                             "--verify", "12", "--budget", "14"],
    "paradox_verify12_budget_edge_ok": ["paradox", "--group", "free:2",
                                        "--k0", "a,a^-1,b,b^-1", "--n", "1",
                                        "--verify", "12", "--budget", "15"],
    # a key that decide_witness_commutation refutes exits 3 before any step
    "err3_paradox_lamp_not_witness": ["paradox", "--group", "lamplighter",
                                      "--k0", "s,t", "--n", "1", "--verify", "2"],
    "err3_paradox_free_one_letter": ["paradox", "--group", "free:2", "--k0", "a",
                                     "--n", "1"],
    # witness and restrict-folner
    "witness_free": ["witness", "--group", "free:2", "--k", "a,b"],
    "witness_lamp": ["witness", "--group", "lamplighter", "--k", "s,t"],
    "witness_z2_abelian": ["witness", "--group", "zd:2", "--k", Z2_D],
    "witness_z1_refuted": ["witness", "--group", "zd:1", "--k", "+1", "--n", "5",
                           "--size-bound", "5"],
    "witness_z1_refute_budget": ["witness", "--group", "zd:1", "--k", "+1",
                                 "--n", "5", "--size-bound", "5", "--budget", "20"],
    # the refuter's subset scan reaches its first 2-Folner set at 2263 steps
    "witness_z2_refute_edge_unknown": ["witness", "--group", "zd:2",
                                       "--k", "(1,0),(1,1)", "--n", "2",
                                       "--size-bound", "4", "--budget", "2262"],
    "witness_z2_refute_edge_ok": ["witness", "--group", "zd:2", "--k", "(1,0),(1,1)",
                                  "--n", "2", "--size-bound", "4", "--budget", "2263"],
    "witness_free_none_found": ["witness", "--group", "free:2", "--k", "a,b",
                                "--n", "4", "--size-bound", "2"],
    # sizes past the 5-element ball hold no subset; the scan stops there
    "witness_z1_size_bound_maxsize": ["witness", "--group", "zd:1", "--k", "+1",
                                      "--n", "100", "--size-bound", MAXSIZE],
    "restrict_z2": ["restrict-folner", "--group", "zd:2", "--k", "(1,0)", "--n", "3"],
    "restrict_z2_unknown": ["restrict-folner", "--group", "zd:2", "--k", "(1,0)",
                            "--n", "3", "--budget", "6"],
    "restrict_z2_two": ["restrict-folner", "--group", "zd:2", "--k", "(1,0),(0,2)",
                        "--n", "1"],
    # the search's n is --n times |K|, past sys.maxsize
    "restrict_z2_n_maxsize_unknown": ["restrict-folner", "--group", "zd:2",
                                      "--k", Z2_D, "--n", MAXSIZE, "--budget", "10"],
    # exit 3: precondition violations
    "err3_kappa_computable": ["kappa", "--group", "zd:1", "--d", "+1", "--n", "2",
                              "--fn", "{golden}/fn_z_interval5.json"],
    "err3_wp_ce_group": ["wp-from-folner", "--group", "redundant-z", "--d", "x,y,xy"],
    "err3_restrict_lamp": ["restrict-folner", "--group", "lamplighter", "--k", "t",
                           "--n", "1"],
    "err3_folner_ce_group": ["folner-search", "--group", "redundant-z", "--d", "x",
                             "--n", "2"],
    "err3_seq_ce_group": ["folner-seq", "--group", "redundant-z", "--n", "1000000"],
    # exit 4: malformed input
    "err4_spec": ["folner-search", "--group", "nope:3", "--d", "+1", "--n", "2"],
    "err4_element": ["folner-search", "--group", "zd:1", "--d", "qq", "--n", "2"],
    "err4_missing_k": ["witness", "--group", "zd:1"],
    "err4_wp_arity": ["wp-from-folner", "--group", "zd:2", "--d", "(1,0),(0,1)"],
    # a command that does not exist: paradox-verify was merged into
    # paradox --verify, and argparse rejects the old name
    "err4_unknown_command": ["paradox-verify", "--group", "free:2", "--k0", "a,b",
                             "--n", "1"],
    "err4_budget_zero": ["folner-search", "--group", "zd:1", "--d", "+1", "--n", "2",
                         "--budget", "0"],
    "err4_n_zero": ["folner-function", "--group", "zd:1", "--d", "+1", "--n", "0"],
    "err4_missing_fn": ["reiter-check", "--group", "zd:1", "--d", "+1", "--n", "2"],
    "err4_fn_negative_code": ["reiter-check", "--group", "zd:1", "--d", "+1",
                              "--n", "2", "--fn", "{golden}/fn_negative.json"],
    "err4_fn_float_code": ["kappa", "--group", "redundant-z", "--d", "x", "--n", "2",
                           "--fn", "{golden}/fn_float.json"],
    "err4_out_unwritable": ["folner-search", "--group", "zd:1", "--d", "+1",
                            "--n", "2", "--out", "{golden}/no-such-dir/r.json"],
    # argparse rejects counts below 1 on every command
    "err4_reiter_n_zero": ["reiter-check", "--group", "zd:1", "--d", "+1",
                           "--n", "0", "--fn", "{golden}/fn_z_tent.json"],
    "err4_kappa_n_zero": ["kappa", "--group", "redundant-z", "--d", "x", "--n", "0",
                          "--fn", "{golden}/fn_rz_powers6.json"],
    "err4_steps_zero": ["harem-demo", "--group", "free:2", "--k", "e,a,a^-1,b,b^-1",
                        "--steps", "0"],
    # and counts above sys.maxsize, which no index can hold
    "err4_n_above_maxsize": ["folner-search", "--group", "zd:1", "--d", "+1",
                             "--n", "100000000000000000000", "--budget", "1000"],
    # and the counts that may be 0 below it
    "err4_paradox_verify_negative": ["paradox", "--group", "free:2", "--k0", "a,b",
                                     "--n", "1", "--verify", "-1"],
    "err4_witness_size_bound_negative": ["witness", "--group", "zd:1", "--k", "+1",
                                         "--n", "2", "--size-bound", "-1"],
    "err4_witness_n_negative": ["witness", "--group", "zd:1", "--k", "+1",
                                "--n", "-3"],
}


def _argv(name):
    return [a.replace("{golden}", str(GOLDEN)) for a in CASES[name]] + ["--json"]


def _invoke(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_argv(name))
    return code, out.getvalue()


def _recorded():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_case():
    recorded = _recorded()
    assert sorted(recorded) == sorted(CASES)
    for name, argv in CASES.items():
        assert recorded[name]["argv"] == argv, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name):
    expected = _recorded()[name]
    code, stdout = _invoke(name)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


def _record():
    corpus = {}
    for name in sorted(CASES):
        code, stdout = _invoke(name)
        corpus[name] = {"argv": CASES[name], "exit": code, "stdout": stdout}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_cli_golden.py --record")
    _record()
