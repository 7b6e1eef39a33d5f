"""The package runs on the standard library alone, only the CLI makes a
budget, and the names the benchmark tracer hooks stay importable."""

import ast
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import folnerlab
from folnerlab import make_group
from folnerlab.groups import parse_elements
from folnerlab.paradox import build_decomposition


def _import_every_module_without(module: str):
    """Import every folnerlab module in a fresh interpreter and check that
    ``module`` was not loaded."""
    names = ["folnerlab"] + [
        "folnerlab." + m.name for m in pkgutil.iter_modules(folnerlab.__path__)
    ]
    assert "folnerlab.folner" in names and "folnerlab.cli" in names
    script = (
        "import importlib, sys\n"
        "for name in %r:\n"
        "    importlib.import_module(name)\n"
        "assert %r not in sys.modules\n" % (names, module)
    )
    src = str(Path(folnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_no_module_imports_numpy():
    _import_every_module_without("numpy")


def test_no_module_imports_argparse():
    """The CLI reads argv off its command table (``cli._read``); argparse
    stays in the tests, as the reference the reader is checked against."""
    for path in sorted(Path(folnerlab.__file__).resolve().parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.module}
        assert not {m for m in imported if m.split(".")[0] == "argparse"}, path.name
    _import_every_module_without("argparse")


def test_only_the_cli_makes_a_budget():
    """A budget is the caller's spec: ``cli.main`` makes the one ``Budget``
    of a run, and every pipeline charges the meter it is handed instead of
    reading the allowance or minting a second budget."""
    for path in sorted(Path(folnerlab.__file__).resolve().parent.glob("*.py")):
        text = path.read_text()
        if path.name != "cli.py":
            assert "Budget(" not in text, path.name
        assert "b.steps" not in text and "budget.steps" not in text, path.name


def _benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_hooks_resolve():
    """Every library name the benchmark tracer wraps still exists."""
    tracer = _benchmark_tracer()
    for module, name, _span, _family in tracer.RECORDED_FUNCTIONS:
        mod = importlib.import_module("folnerlab." + module)
        assert callable(getattr(mod, name, None)), (module, name)
    g = make_group("free:2")
    d = build_decomposition(g, parse_elements(g, "a,a^-1,b,b^-1"), 1)
    for method in tracer.DECOMPOSITION_METHODS:
        assert callable(getattr(d, method, None)), method


def test_cli_resolves_ceview_at_call_time(monkeypatch, capsys):
    """The tracer rebinds ``cli.CEView``; wp-from-folner must look it up
    when it runs, or the traced run misses the view's enumeration calls."""
    from folnerlab import cli, groups

    assert cli.CEView is groups.CEView
    views = []

    def ceview(base):
        views.append(groups.CEView(base))
        return views[-1]

    monkeypatch.setattr(cli, "CEView", ceview)
    assert cli.main(["wp-from-folner", "--group", "zd:1", "--d", "+2,-5,-3"]) == 0
    assert len(views) == 1
