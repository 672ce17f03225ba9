"""Every name a module of the package imports is used in that module.

A stdlib-only stand-in for a linter's unused-import rule: each module
but ``__init__``, which imports to re-export, is parsed with ``ast``.
"""

import ast
import pathlib

import pytest

import hyperdistill

MODULES = sorted(
    path for path in pathlib.Path(hyperdistill.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """Names that ``source`` imports but never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_finds_stale_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .qnd import QndOutcome, CASES as ALL\n"
        "def f():\n"
        "    import hashlib\n"
        "    return np.zeros(len(ALL))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "QndOutcome"), (6, "hashlib")]
