"""The package runs on the standard library alone."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import folnerlab


def test_no_module_imports_numpy():
    names = ["folnerlab"] + [
        "folnerlab." + m.name for m in pkgutil.iter_modules(folnerlab.__path__)
    ]
    assert "folnerlab.folner" in names and "folnerlab.cli" in names
    script = (
        "import importlib, sys\n"
        "for name in %r:\n"
        "    importlib.import_module(name)\n"
        "assert 'numpy' not in sys.modules\n" % names
    )
    src = str(Path(folnerlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    subprocess.run([sys.executable, "-c", script], check=True, env=env)
