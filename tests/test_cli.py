"""CLI surface: commands, exit codes, deterministic JSON."""

import argparse
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import folnerlab
from folnerlab.cli import COMMANDS, FLAGS, _parser, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_module_entry_point_runs_the_cli(capsys):
    argv = ["folner-search", "--group", "zd:1", "--d", "+1", "--n", "2", "--json"]
    src = str(Path(folnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def module(*args):
        return subprocess.run([sys.executable, "-m", "folnerlab.cli", *args],
                              capture_output=True, text=True, env=env)

    code, out = run(capsys, *argv)
    done = module(*argv)
    assert (done.returncode, done.stdout) == (code, out)
    assert code == 0 and json.loads(out)["certificate"]["n"] == 2
    bad = module("folner-search", "--group", "nope:3", "--d", "+1", "--n", "2")
    assert bad.returncode == 4 and bad.stdout == ""


MALFORMED_REITER = {
    "top_level_list": "[1, 2]",
    "support_not_a_list": '{"support": 5, "values": {"0": "1"}}',
    "null_value": '{"support": [0], "values": {"0": null}}',
    "zero_denominator": '{"support": [0], "values": {"0": "1/0"}}',
}


@pytest.mark.parametrize("shape", sorted(MALFORMED_REITER))
def test_malformed_reiter_file_exits_4(tmp_path, capsys, shape):
    fn = tmp_path / "f.json"
    fn.write_text(MALFORMED_REITER[shape])
    for argv in (["reiter-check", "--group", "zd:1", "--d", "+1"],
                 ["kappa", "--group", "redundant-z", "--d", "x"]):
        assert run(capsys, *argv, "--n", "2", "--fn", str(fn), "--json") == (4, "")


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
          "paradox": (), "wp-from-folner": ()}
IDENTITY = {"zd:1": "0", "zd:2": "(0,0)", "free:2": "e", "redundant-z": "e"}
MAXSIZE = str(sys.maxsize)


def _robustness_grid():
    """name -> argv: edge inputs on every command, each otherwise valid.

    ``paradox`` gets no large --n or --verify: the key expansion and the
    template build are not metered, and a prefix report holds one violation
    per code, so both grow with the count whatever the budget."""
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
    return grid


ROBUSTNESS_GRID = _robustness_grid()


@pytest.mark.parametrize("case", sorted(ROBUSTNESS_GRID))
def test_edge_inputs_exit_with_a_documented_code(case):
    # a small budget, 30 s of wall clock and 1 GB of address space per run
    src = str(Path(folnerlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ROBUSTNESS_GRID[case] + ["--budget", "1000", "--json"]
    done = subprocess.run([sys.executable, "-m", "folnerlab.cli", *argv], env=env,
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


def test_readme_examples_name_exactly_the_parser_commands():
    readme = (ROOT / "README.md").read_text()
    named = set(re.findall(r"^folnerlab ([a-z-]+)", readme, re.MULTILINE))
    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert named == set(sub.choices) == set(COMMANDS)
