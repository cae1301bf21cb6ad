"""Every public top-level function and class of framelab is reached from an entry point.

A name counts as reached when one of these refers to it, as a bare name, as an
attribute or as a ``framelab.<module>:<name>`` binding string:

- the framelab modules themselves (the scenario runner and the CLI live there;
  the package ``__init__`` exports nothing);
- the benchmark harness, ``perfbench/*.py``;
- the acceptance criteria, ``tests/test_acceptance.py``.

Unit tests do not count.  A function that only they call is either wired into
a report or deleted.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "framelab"
BINDING = re.compile(r"framelab\.\w+:([\w.]+)")


def _modules():
    return [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]


def public_definitions() -> list[str]:
    defs = []
    for path in _modules():
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defs.append(f"{path.stem}.{node.name}")
    return defs


def referenced_names() -> set[str]:
    names = set()
    for path in _modules() + sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]:
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        for match in BINDING.finditer(text):
            names.update(match.group(1).split("."))
    return names


def test_every_public_name_is_reached():
    refs = referenced_names()
    assert [d for d in public_definitions() if d.split(".")[1] not in refs] == []
