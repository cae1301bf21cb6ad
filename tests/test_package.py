"""The package itself exports nothing: each module is imported by name.

``import framelab`` loads no framelab module, so an entry point pays only for
the modules it uses, and no package attribute hides a module of the same name.
"""
import os
import subprocess
import sys
import types
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    """Standard output of code, run by a fresh interpreter that imports framelab from the sources."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_import_framelab_loads_no_module():
    out = run_python("import sys, framelab; print(sorted(m for m in sys.modules if m.startswith('framelab')))")
    assert out.strip() == "['framelab']"


def test_import_cli_loads_no_numpy_polynomial():
    # the Gauss-Legendre rule is module data, so no import solves leggauss's eigenproblem
    out = run_python("import sys, framelab.cli; print([m for m in sys.modules if m.startswith('numpy.polynomial')])")
    assert out.strip() == "[]"


def test_density_is_the_module():
    import framelab.density

    assert isinstance(framelab.density, types.ModuleType)
    assert callable(framelab.density.density)
