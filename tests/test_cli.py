"""CLI surface: commands, exit codes, deterministic JSON."""

import argparse
import collections
import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import folnerlab
from folnerlab import cli
from folnerlab.cli import COMMANDS, COMMON, FLAGS, main
from folnerlab.groups import MAX_WORD_FACTORS, MAX_ZD_DIM

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _cli_env():
    """The environment of a CLI subprocess: this package first on the path."""
    src = str(Path(folnerlab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_folner_function_report(capsys):
    code, report = run_json(
        capsys, "folner-function", "--group", "zd:1", "--d", "+1", "--n", "5"
    )
    assert code == 0 and report == {"min_size": 5}


def test_folner_search_certificate(capsys):
    code, report = run_json(
        capsys, "folner-search", "--group", "zd:1", "--d", "+1,-1", "--n", "3"
    )
    assert code == 0
    cert = report["certificate"]
    assert set(cert) == {"spec", "D", "n", "F", "defects"}  # declared schema
    assert cert["spec"] == "zd:1"
    assert cert["n"] == 3 and len(cert["F"]) == 3
    assert set(cert["defects"].values()) == {"1/3"}


def test_folner_seq(capsys):
    code, report = run_json(capsys, "folner-seq", "--group", "zd:1", "--n", "3")
    assert code == 0 and report["certificate"]["D"] == [0, 1, 2]


def test_unknown_exit_code(capsys):
    code, report = run_json(
        capsys,
        "folner-search", "--group", "free:2", "--d", "a,a^-1,b,b^-1",
        "--n", "4", "--budget", "2000",
    )
    assert code == 2 and report["result"] == "UNKNOWN"
    assert report["budget"] == 2000


def test_malformed_spec_exit_code(capsys):
    assert main(["folner-search", "--group", "nope:3", "--d", "+1", "--n", "2"]) == 4
    assert main(["folner-search", "--group", "zd:1", "--d", "qq", "--n", "2"]) == 4
    assert main(["witness", "--group", "zd:1"]) == 4  # missing --k


def test_witness_command(capsys):
    code, report = run_json(capsys, "witness", "--group", "free:2", "--k", "a,b")
    assert code == 0 and report["verdict"] == "WITNESS"
    assert report["evidence"]["pair"] == [1, 3]
    code, report = run_json(capsys, "witness", "--group", "lamplighter", "--k", "s,t")
    assert report["verdict"] == "NOT_WITNESS"
    assert report["rationale"] == "amenable family"


def test_witness_refutation_flag(capsys):
    code, report = run_json(
        capsys, "witness", "--group", "zd:1", "--k", "+1", "--n", "5",
        "--size-bound", "5",
    )
    assert code == 0 and report["verdict"] == "NOT_WITNESS"
    assert len(report["refutation"]["F"]) == 5
    code, report = run_json(
        capsys, "witness", "--group", "free:2", "--k", "a,b", "--n", "4",
        "--size-bound", "2",
    )
    assert report["verdict"] == "WITNESS" and report["refutation"] is None


def test_bare_paradox_reports_key(capsys):
    code, report = run_json(
        capsys, "paradox", "--group", "free:2", "--k0", "a,a^-1,b,b^-1", "--n", "1"
    )
    assert code == 0 and report["n1"] == 2 and len(report["K"]) == 17
    assert report["resolved"] == []


def test_wp_from_folner_command(capsys):
    code, report = run_json(
        capsys, "wp-from-folner", "--group", "zd:2", "--d", "(1,0),(0,1),(1,1)"
    )
    assert code == 0 and report["equal"] is True
    code, report = run_json(
        capsys, "wp-from-folner", "--group", "zd:2", "--d", "(1,0),(0,1),(2,2)"
    )
    assert report["equal"] is False


def test_reiter_and_kappa_commands(tmp_path, capsys):
    fn = tmp_path / "f.json"
    values = {str(c): "1" for c in range(5)}
    # codes 0..4 in zd:1 are the interval -2..2
    fn.write_text(json.dumps({"support": list(range(5)), "values": values}))
    code, report = run_json(
        capsys, "reiter-check", "--group", "zd:1", "--d", "+1", "--n", "2",
        "--fn", str(fn),
    )
    assert code == 0 and report["invariant"] is True  # defect 2/5 < 1/2

    # kappa on redundant-z: support x^0..x^5 canonical words, defect 2/6
    rz_support = [0, 1, 5, 21, 85, 341]
    fn2 = tmp_path / "g.json"
    fn2.write_text(
        json.dumps({"support": rz_support, "values": {str(c): "1" for c in rz_support}})
    )
    code, report = run_json(
        capsys, "kappa", "--group", "redundant-z", "--d", "x", "--n", "3",
        "--fn", str(fn2),
    )
    assert code == 0 and report["result"] == "INVARIANT"
    code, report = run_json(
        capsys, "kappa", "--group", "redundant-z", "--d", "x", "--n", "4",
        "--fn", str(fn2),
    )
    assert code == 0 and report["result"] == "NOT_INVARIANT"
    assert main(["kappa", "--group", "zd:1", "--d", "+1", "--n", "2",
                 "--fn", str(fn2)]) == 3


def test_harem_demo(capsys):
    code, report = run_json(
        capsys, "harem-demo", "--group", "free:2", "--k", "e,a,a^-1,b,b^-1",
        "--steps", "4",
    )
    assert code == 0 and len(report["dump"]) == 8  # 4 L-lines + 4 R-lines


def test_paradox_verify_small(capsys):
    code, report = run_json(
        capsys,
        "paradox", "--group", "free:2", "--k0", "a,a^-1,b,b^-1",
        "--n", "1", "--verify", "3",
    )
    assert code == 0
    assert report["n1"] == 2 and len(report["K"]) == 17
    assert report["violations"] == []
    assert [r["m"] for r in report["resolved"]] == [0, 1, 2]


def test_restrict_folner_command(capsys):
    code, report = run_json(
        capsys, "restrict-folner", "--group", "zd:2", "--k", "(1,0)", "--n", "3"
    )
    assert code == 0 and report["verified"] is True


def test_byte_identical_json(capsys):
    argv = ["folner-search", "--group", "zd:1", "--d", "+1,-1", "--n", "4", "--json"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0 and out1 == out2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _ = run(
        capsys, "folner-search", "--group", "zd:1", "--d", "+1", "--n", "2",
        "--out", str(path),
    )
    assert code == 0
    data = json.loads(path.read_text())
    assert data["certificate"]["n"] == 2


# one command per report shape, and its text-mode stdout
TEXT_REPORTS = [
    (["folner-search", "--group", "zd:1", "--d", "+1", "--n", "2"], 0,
     "certificate: {'spec': 'zd:1', 'D': [1], 'n': 2, 'F': [0, 1, 2], "
     "'defects': {'1': '1/3'}}\n"),
    (["folner-function", "--group", "zd:1", "--d", "+1", "--n", "3"], 0,
     "min_size: 3\n"),
    (["folner-seq", "--group", "lamplighter", "--n", "1"], 0,
     "certificate: {'spec': 'lamplighter', 'D': [0], 'n': 1, 'F': [0], "
     "'defects': {'0': '0'}}\n"),
    (["reiter-check", "--group", "zd:1", "--d", "+1", "--n", "2", "--fn", "FN"], 0,
     "defects: {'1': '2/3'}\ninvariant: False\nn: 2\n"),
    (["kappa", "--group", "redundant-z", "--d", "x", "--n", "1", "--fn", "FN"], 0,
     "result: INVARIANT\n"),
    (["wp-from-folner", "--group", "zd:1", "--d", "+1,+1,2"], 0,
     "equal: True\ntriple: [1, 1, 3]\n"),
    (["harem-demo", "--group", "zd:1", "--k", "0,+1", "--steps", "1"], 0,
     "dump: ['L 0 -> 1', 'R 1 -> 0']\nsteps: 1\n"),
    (["paradox", "--group", "free:2", "--k0", "a,b", "--n", "1"], 0,
     "K: [0, 1, 3, 5, 6, 11, 13]\nn1: 2\nresolved: []\nviolations: []\n"),
    (["witness", "--group", "zd:1", "--k", "+1"], 0,
     "evidence: None\nrationale: all pairs commute; the subgroup is abelian\n"
     "verdict: NOT_WITNESS\n"),
    (["restrict-folner", "--group", "zd:2", "--k", "(1,0)", "--n", "1"], 0,
     "defects: {'1': '1'}\nfrom: {'spec': 'zd:2', 'D': [1], 'n': 1, 'F': [0], "
     "'defects': {'1': '1'}}\nsubgroup_folner: [0]\nverified: True\n"),
    (["folner-seq", "--group", "lamplighter", "--n", "3", "--budget", "5"], 2,
     "budget: 5\nresult: UNKNOWN\n"),
]


@pytest.mark.parametrize("argv, code, text", TEXT_REPORTS,
                         ids=[argv[0] for argv, _, _ in TEXT_REPORTS])
def test_text_mode_prints_key_lines_without_encoding_json(
        tmp_path, capsys, monkeypatch, argv, code, text):
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"support": [0, 1, 2],
                              "values": {"0": "1", "1": "1", "2": "1"}}))
    argv = [str(fn) if a == "FN" else a for a in argv]
    encoded = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: encoded.append(a) or dumps(*a, **k))
    assert run(capsys, *argv) == (code, text)
    assert encoded == []
    # --out encodes the report once and leaves stdout as it was
    assert run(capsys, *argv, "--out", str(tmp_path / "r.json")) == (code, text)
    assert len(encoded) == 1


def test_module_entry_point_runs_the_cli(capsys):
    argv = ["folner-search", "--group", "zd:1", "--d", "+1", "--n", "2", "--json"]

    def module(*args):
        return subprocess.run([sys.executable, "-m", "folnerlab.cli", *args],
                              capture_output=True, text=True, env=_cli_env())

    code, out = run(capsys, *argv)
    done = module(*argv)
    assert (done.returncode, done.stdout) == (code, out)
    assert code == 0 and json.loads(out)["certificate"]["n"] == 2
    bad = module("folner-search", "--group", "nope:3", "--d", "+1", "--n", "2")
    assert bad.returncode == 4 and bad.stdout == ""


class ClosedStdout(io.StringIO):
    """A stdout whose reader has gone, as under ``| head``."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_1_after_writing_out(tmp_path, capsys, monkeypatch):
    path = tmp_path / "r.json"
    argv = ["folner-search", "--group", "zd:1", "--d", "+1", "--n", "2"]
    for extra in ([], ["--json"]):
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        assert main([*argv, *extra, "--out", str(path)]) == 1
        assert json.loads(path.read_text())["certificate"]["n"] == 2
        assert capsys.readouterr().err == (
            "error: cannot write stdout: [Errno 32] Broken pipe\n")
    # an UNKNOWN report too: the failed write decides the exit code
    assert main(["folner-seq", "--group", "lamplighter", "--n", "3",
                 "--budget", "5"]) == 1


def test_entry_point_with_a_closed_pipe_exits_1():
    read, write = os.pipe()
    os.close(read)  # every write to the pipe now fails
    try:
        done = subprocess.run(
            [sys.executable, "-m", "folnerlab.cli", "harem-demo", "--group",
             "free:2", "--k", "a,b", "--steps", "5", "--json"],
            stdout=write, stderr=subprocess.PIPE, text=True, env=_cli_env(),
            timeout=60)
    finally:
        os.close(write)
    assert done.returncode == 1
    assert done.stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_out_of_memory_exits_1(capsys, monkeypatch):
    # a pipeline that runs out of memory, as a |K| = 28 paradox run does
    # under a tight address-space limit, ends with one line and no report
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(folnerlab.cli, "build_decomposition", exhausted)
    code = main(["paradox", "--group", "free:2", "--k0", "a,b,b^-1", "--n", "2",
                 "--verify", "3", "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", "error: out of memory\n")


MALFORMED_REITER = {
    "top_level_list": "[1, 2]",
    "support_not_a_list": '{"support": 5, "values": {"0": "1"}}',
    "null_value": '{"support": [0], "values": {"0": null}}',
    "zero_denominator": '{"support": [0], "values": {"0": "1/0"}}',
    "infinite_value": '{"support": [0], "values": {"0": Infinity}}',
    "exponent_value": '{"support": [0], "values": {"0": "1e999999999"}}',
    "float_value": '{"support": [0], "values": {"0": 0.5}}',
    "values_not_an_object": '{"support": [0], "values": [1]}',
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_REITER))
def test_malformed_reiter_file_exits_4(tmp_path, capsys, shape):
    fn = tmp_path / "f.json"
    fn.write_text(MALFORMED_REITER[shape])
    for argv in (["reiter-check", "--group", "zd:1", "--d", "+1"],
                 ["kappa", "--group", "redundant-z", "--d", "x"]):
        assert run(capsys, *argv, "--n", "2", "--fn", str(fn), "--json") == (4, "")


def test_wp_literal_that_does_not_parse_exits_4(capsys):
    code = main(["wp-from-folner", "--group", "zd:2", "--d", "(1,0),(0,x),(1,1)"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err == "error: bad coordinates in '(0,x)'\n"


# literal powers of 999,999,999 factors, past the cap on a word's factors,
# refused before any factor is made
LONG_LITERALS = {
    "free2_a_power": ["folner-search", "--group", "free:2", "--d", "a^999999999",
                      "--n", "1"],
    "lamplighter_t_power": ["folner-search", "--group", "lamplighter",
                            "--d", "t^999999999", "--n", "1"],
    "redundant_z_x_power": ["kappa", "--group", "redundant-z", "--d", "x^999999999",
                            "--n", "2", "--fn", str(GOLDEN / "fn_rz_powers6.json")],
}


@pytest.mark.parametrize("case", sorted(LONG_LITERALS))
def test_literal_power_past_the_factor_cap_exits_4(case):
    # in a subprocess, so that a literal expanded factor by factor fails
    # the test at the timeout instead of stalling the suite
    done = subprocess.run([sys.executable, "-m", "folnerlab.cli", *LONG_LITERALS[case]],
                          env=_cli_env(), capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (4, "")
    assert "more than %d factors" % MAX_WORD_FACTORS in done.stderr


# one otherwise valid invocation per command, so that exit 4 below comes
# from the number under test
VALID_ARGV = {
    "folner-search": ["--group", "zd:1", "--d", "+1", "--n", "2"],
    "folner-function": ["--group", "zd:1", "--d", "+1", "--n", "2"],
    "folner-seq": ["--group", "zd:1", "--n", "2"],
    "reiter-check": ["--group", "zd:1", "--d", "+1", "--n", "2",
                     "--fn", str(GOLDEN / "fn_z_tent.json")],
    "kappa": ["--group", "redundant-z", "--d", "x", "--n", "3",
              "--fn", str(GOLDEN / "fn_rz_powers6.json")],
    "wp-from-folner": ["--group", "zd:1", "--d", "+2,-5,-3"],
    "harem-demo": ["--group", "free:2", "--k", "e,a,a^-1,b,b^-1", "--steps", "1"],
    "paradox": ["--group", "free:2", "--k0", "a,a^-1,b,b^-1", "--n", "1"],
    "witness": ["--group", "zd:1", "--k", "+1"],
    "restrict-folner": ["--group", "zd:2", "--k", "(1,0)", "--n", "1"],
}


# the counts whose default is 0, or that may be 0
FROM_ZERO = {"paradox": ("--verify",), "witness": ("--n", "--size-bound")}


def _with(argv, flag, value):
    if flag in argv:
        argv = list(argv)
        argv[argv.index(flag) + 1] = value
        return argv
    return argv + [flag, value]


def test_every_command_rejects_counts_below_one(capsys):
    assert sorted(VALID_ARGV) == sorted(COMMANDS)
    for name, (_help, flags) in COMMANDS.items():
        argv = [name] + VALID_ARGV[name] + ["--json"]
        assert run(capsys, *argv)[0] in (0, 2), name
        bad = [_with(argv, "--budget", "0")]
        if "--n" in flags and FLAGS["--n"].get("required"):
            bad += [_with(argv, "--n", "0"), _with(argv, "--n", "-1")]
        # and the counts that may be 0 below 0
        bad += [_with(argv, flag, "-1") for flag in FROM_ZERO.get(name, ())]
        for case in bad:
            assert run(capsys, *case) == (4, ""), case


def test_every_command_rejects_counts_above_maxsize(capsys):
    # a count no index can hold is malformed input, not an internal error
    huge = str(10**20)
    for name, (_help, flags) in COMMANDS.items():
        argv = [name] + VALID_ARGV[name] + ["--json"]
        bad = [_with(argv, "--budget", huge)]
        if "--n" in flags and FLAGS["--n"].get("required"):
            bad.append(_with(argv, "--n", huge))
        for case in bad:
            assert run(capsys, *case) == (4, ""), case
    code = main(["folner-search", "--group", "zd:1", "--d", "+1", "--n", huge,
                 "--budget", "1000"])
    err = capsys.readouterr().err
    assert code == 4 and "--n" in err and "islice" not in err


# the element list each command takes, the counts it takes (--n unless
# named), and the identity of each VALID_ARGV group
LIST_FLAG = {"folner-search": "--d", "folner-function": "--d", "reiter-check": "--d",
             "kappa": "--d", "wp-from-folner": "--d", "harem-demo": "--k",
             "paradox": "--k0", "witness": "--k", "restrict-folner": "--k"}
COUNTS = {"harem-demo": ("--steps",), "witness": ("--n", "--size-bound"),
          "paradox": ("--verify",), "wp-from-folner": ()}
IDENTITY = {"zd:1": "0", "zd:2": "(0,0)", "free:2": "e", "redundant-z": "e"}
MAXSIZE = str(sys.maxsize)


def _robustness_grid():
    """name -> argv: edge inputs on every command, each otherwise valid.

    ``paradox`` gets a large --verify, whose report holds the codes the
    budget resolves and one violation for the rest, but no large --n: the
    key expansion and the template build are not metered, so they grow
    with --n whatever the budget."""
    grid = {}
    for name, argv in VALID_ARGV.items():
        # no 100-Folner set lies in witness's 5-element ball, so its scan
        # runs through every size the ball has
        argv = [name] + (_with(argv, "--n", "100") if name == "witness" else argv)
        for flag in COUNTS.get(name, ("--n",)):
            grid["%s %s max" % (name, flag)] = _with(argv, flag, MAXSIZE)
        flag, wp = LIST_FLAG.get(name), name == "wp-from-folner"
        if flag:
            e = IDENTITY[argv[argv.index("--group") + 1]]
            grid["%s empty" % name] = _with(argv, flag, "")
            grid["%s identity" % name] = _with(argv, flag, ",".join([e] * 3) if wp else e)
        if name != "kappa":  # a c.e. group where a computable one is needed
            rz = _with(argv, "--group", "redundant-z")
            grid["%s redundant-z" % name] = (
                _with(rz, flag, "x,y,xy" if wp else "x,y") if flag else rz)
    for name in ("folner-search", "folner-function", "folner-seq"):
        cyclic = _with([name] + VALID_ARGV[name], "--group", "cyclic:6")
        grid["%s cyclic --n max" % name] = _with(cyclic, "--n", MAXSIZE)
    # keys that are not witnesses
    grid["paradox zd:2 key"] = ["paradox", "--group", "zd:2", "--k0", "(1,0),(0,1)",
                                "--n", "1", "--verify", "2"]
    grid["harem-demo zd:2 key"] = ["harem-demo", "--group", "zd:2",
                                   "--k", "(0,0),(1,0)", "--steps", "5"]
    grid["witness lamplighter key"] = ["witness", "--group", "lamplighter",
                                       "--k", "s,t", "--n", "2"]
    # negative values of the counts that may be 0
    grid["paradox --verify negative"] = ["paradox", "--group", "free:2", "--k0", "a,b",
                                         "--n", "1", "--verify", "-1"]
    grid["witness --size-bound negative"] = ["witness", "--group", "zd:1", "--k", "+1",
                                             "--n", "2", "--size-bound", "-1"]
    grid["witness --n negative"] = ["witness", "--group", "zd:1", "--k", "+1",
                                    "--n", "-3"]
    grid.update(ZD_PAST_THE_CAP)
    return grid


# zd dimensions past MAX_ZD_DIM, refused before any product (at zd:100000000
# one product decoded 10^8 coordinates before its first charge), and one
# with more digits than int() reads
ZD_PAST_THE_CAP = {
    "folner-seq zd:100000000": ["folner-seq", "--group", "zd:100000000", "--n", "2"],
    "folner-search zd:%d" % (MAX_ZD_DIM + 1): [
        "folner-search", "--group", "zd:%d" % (MAX_ZD_DIM + 1), "--d", "(1)", "--n", "2"],
    "folner-seq zd digits": ["folner-seq", "--group", "zd:" + "9" * 5000, "--n", "1"],
}


ROBUSTNESS_GRID = _robustness_grid()


@pytest.mark.parametrize("case", sorted(ROBUSTNESS_GRID))
def test_edge_inputs_exit_with_a_documented_code(case):
    # a small budget, 30 s of wall clock and 1 GB of address space per run
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ROBUSTNESS_GRID[case] + ["--budget", "1000", "--json"]
    done = subprocess.run([sys.executable, "-m", "folnerlab.cli", *argv], env=_cli_env(),
                          capture_output=True, text=True, timeout=30, preexec_fn=cap)
    assert done.returncode in (0, 2, 3, 4), (argv, done.stderr)
    assert "Traceback" not in done.stderr, argv


def test_paradox_refuses_a_key_that_is_not_a_witness(capsys):
    # refuted before any matching step, so no budget is needed
    for group, k0 in (("lamplighter", "s,t"), ("free:2", "a"), ("zd:2", "(1,0),(0,1)")):
        code = main(["paradox", "--group", group, "--k0", k0, "--n", "1",
                     "--verify", "2", "--budget", "1"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, ""), group
        assert "not a witness" in captured.err


@pytest.mark.parametrize("case", sorted(ZD_PAST_THE_CAP))
def test_zd_dimension_past_the_cap_exits_4(case):
    done = subprocess.run([sys.executable, "-m", "folnerlab.cli", *ZD_PAST_THE_CAP[case],
                           "--budget", "10"], env=_cli_env(),
                          capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def test_zd_dimension_at_the_cap_runs(capsys):
    spec = "zd:%d" % MAX_ZD_DIM
    code, report = run_json(capsys, "folner-seq", "--group", spec, "--n", "1")
    assert code == 0 and report["certificate"]["spec"] == spec


def test_readme_examples_name_exactly_the_parser_commands():
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"^folnerlab ([a-z-]+)", readme, re.MULTILINE))
    assert named == set(cli._READERS) == set(COMMANDS)


# ---------------------------------------------------------------------------
# the reader against argparse


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``cli.main`` used before the reader, built
    from the same tables."""
    top = argparse.ArgumentParser(prog="folnerlab", add_help=True)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*COMMON, *flags):
            flag, kwargs = flag if isinstance(flag, tuple) else (flag, FLAGS[flag])
            p.add_argument(flag, **kwargs)
    return top


REFERENCE = reference_parser()


def reference_read(argv):
    """argparse's namespace for argv as a dict, "help" when it exits 0 and
    "error" when it exits otherwise."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(REFERENCE.parse_args(argv))
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"


def reader_read(argv):
    """The same from ``cli.main``'s help check and ``cli._read``."""
    if not cli._HELP.isdisjoint(argv):
        return "help"
    try:
        return vars(cli._read(argv))
    except cli._MalformedInput:
        return "error"


def golden_argv():
    """Every argv of the golden corpus and of the tests above, with and
    without --json."""
    corpus = json.loads((GOLDEN / "cli_corpus.json").read_text())
    argvs = [[a.replace("{golden}", str(GOLDEN)) for a in case["argv"]]
             for case in corpus.values()]
    argvs += [[name, *argv] for name, argv in VALID_ARGV.items()]
    argvs += [*ROBUSTNESS_GRID.values(), *LONG_LITERALS.values()]
    argvs += [argv for argv, _, _ in TEXT_REPORTS]
    return [v for argv in argvs for v in (argv, argv + ["--json"])]


def test_reader_matches_argparse_on_every_golden_argv():
    argvs = golden_argv()
    outcomes = [reference_read(argv) for argv in argvs]
    assert [reader_read(argv) for argv in argvs] == outcomes
    assert sum(isinstance(out, dict) for out in outcomes) > 300
    assert outcomes.count("error") > 20


# tokens that a value may be: numbers in many spellings, words, lists, and
# tokens that look like options or negative numbers.  Left out on purpose:
# "--" (argparse's end of options), tokens that start with "-h" (argparse's
# -h with an attached value), and tokens that start with "-" and hold a space
# (argparse takes them as values, the reader as flags that do not exist)
VALUES = ["0", "1", "2", "7", "-1", "-3", "-0", "-.5", "-1.5", "1.5", "+2", " 3",
          "3 ", "1_0", "0x10", "\u0663", "9" * 20, str(sys.maxsize),
          str(sys.maxsize + 1), "", "-", "x", "zd:1", "free:2", "a,b", "(1,0)",
          "+1,-1", "a=b", "--json", "--d", "--n=2", "--gr", "--gr=zd:1", "-x", "-1x",
          "---n", "--nope", "--d=", "-1e3"]
# tokens in a flag's place that are no command's flag, and every flag of
# the table, some of which the drawn command lacks
UNKNOWN_FLAGS = ["--x", "--gruop", "--jsonx", "--nn", "--dd", "-x", "-n", "-1x",
                 "--k1", "--verify-all", "---n", "=x", "x", "-1", "-", ""]
OTHER_FLAGS = sorted(FLAGS)


@st.composite
def argv_over_the_table(draw):
    """An argv over the command table: most often a command with its
    required flags and some others, in any order, repeated, abbreviated,
    with "=" or without, and some tokens that do not fit."""
    kind = draw(st.sampled_from(["command"] * 8 + ["empty", "unknown command"]))
    if kind == "empty":
        return []
    if kind == "unknown command":
        return [draw(st.sampled_from(["paradox-verify", "kapa", "-x", "--group", "",
                                      "folner", "1"]))] + draw(
            st.lists(st.sampled_from(VALUES), max_size=3))
    name = draw(st.sampled_from(sorted(COMMANDS)))
    specs = dict(f if isinstance(f, tuple) else (f, FLAGS[f])
                 for f in (*COMMON, *COMMANDS[name][1]))
    required = [f for f, kw in specs.items() if kw.get("required")]
    flags = draw(st.lists(st.sampled_from(sorted(specs)), max_size=6))
    if draw(st.integers(0, 3)):  # mostly every required flag
        flags = required + flags
    flags = draw(st.permutations(flags))
    noisy = draw(st.booleans())  # else every token fits, and only counts may not
    argv = [name]
    for flag in flags:
        spelling = flag[:draw(st.integers(3, len(flag)))] if len(flag) > 3 else flag
        if noisy and draw(st.integers(0, 4)) == 0:  # a flag that does not fit here
            spelling = draw(st.sampled_from(UNKNOWN_FLAGS + OTHER_FLAGS))
        if noisy:
            value = draw(st.sampled_from(VALUES) | st.text("az01(),+:^= ", max_size=5))
        elif "type" in specs[flag]:
            value = str(draw(st.integers(-1, 12)))
        else:
            value = draw(st.sampled_from(["zd:1", "a,b", "x", "", "-7", "-.5", "-"]))
        style = draw(st.sampled_from(["apart"] * 4 + ["="] + ["alone"] * noisy))
        if specs[flag].get("action") and (style != "=" or not noisy):
            style = "alone"
        argv += {"apart": [spelling, value], "=": [spelling + "=" + value],
                 "alone": [spelling]}[style]
    return argv


def test_reader_matches_argparse_on_generated_argv():
    outcomes = collections.Counter()

    @settings(derandomize=True, database=None, max_examples=1500, deadline=None)
    @given(argv_over_the_table())
    def check(argv):
        want = reference_read(argv)
        assert reader_read(argv) == want, argv
        outcomes["accepted" if isinstance(want, dict) else want] += 1

    check()
    assert outcomes["accepted"] > 300 and outcomes["error"] > 300, outcomes
    assert outcomes["help"] == 0


def test_help_prints_every_command_and_flag(capsys):
    code, text = run(capsys, "--help")
    lines = text.splitlines()
    assert code == 0 and len(lines) == len(COMMANDS)
    for name, (help_text, flags) in COMMANDS.items():
        line = next(l for l in lines if l.startswith("folnerlab %s: " % name))
        named = line.split(": ", 1)[1].split(" (")[0].split()
        assert named == [*COMMON, *(f if isinstance(f, str) else f[0] for f in flags)]
        assert line.endswith("(%s)" % help_text)
    assert {f for line in lines for f in line.split() if f.startswith("--")} == set(FLAGS)
    # every spelling of help, alone or among a command's flags, as argparse
    # has it
    for spelling in sorted(cli._HELP):
        for argv in ([spelling], ["kappa", spelling], ["kappa", "--n", "2", spelling],
                     ["witness", spelling, "--nope"]):
            assert reference_read(argv) == "help", argv
            assert run(capsys, *argv) == (0, text)
    # a help token anywhere prints the usage, also where argparse would first
    # have refused the flag before it
    assert reference_read(["witness", "--group", "-h"]) == "error"
    assert run(capsys, "witness", "--group", "-h") == (0, text)
