"""No framelab module reads another framelab module's private names.

A module bound to a local name (``from . import verify``) is read through
that name; an attribute ``verify._name`` (one leading underscore) on it, or
``from .verify import _name``, reaches into the other module's internals.
Tests may still patch private names: only the package sources are walked.
"""
import ast
from pathlib import Path

import pytest

import framelab

SOURCES = sorted(Path(framelab.__file__).parent.glob("*.py"))
MODULES = {path.stem for path in SOURCES}


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(tree: ast.Module) -> list[str]:
    """Each `<module alias>._name` and `from .<module> import _name` in a parsed source."""
    aliases, reads = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:  # the package imports itself relatively
            for name in node.names:
                if node.module is None and name.name in MODULES:
                    aliases.add(name.asname or name.name)
                elif node.module in MODULES and is_private(name.name):
                    reads.append(f"from {node.module} import {name.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            if is_private(node.attr):
                reads.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_module_reads_another_modules_private_names(path):
    assert private_reads(ast.parse(path.read_text())) == []


def test_the_walk_sees_both_forms():
    source = "from . import verify\nfrom .localization import _cutoff\nverify._density_json(est)\nverify.run(cfg)\n"
    assert private_reads(ast.parse(source)) == [
        "from localization import _cutoff (line 2)",
        "verify._density_json (line 3)",
    ]
