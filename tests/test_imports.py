"""Every name a module of the package imports is used in that module,
and every name it defines at module level is named somewhere else.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules:
each module but ``__init__``, which imports to re-export, is parsed with
``ast``. A module-level name counts as used if it appears as a whole
word anywhere in the package, the tests, the demos or the benchmark
other than where it is defined.
"""

import ast
import collections
import pathlib
import re

import pytest

import hyperdistill

MODULES = sorted(
    path for path in pathlib.Path(hyperdistill.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)
ROOT = pathlib.Path(hyperdistill.__file__).parents[2]
CORPUS = [
    path.read_text(encoding="utf-8")
    for folder in ("src", "tests", "demos", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))
]


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


def target_names(target):
    """Names bound by the assignment target ``target``."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from target_names(element)
    elif isinstance(target, ast.Starred):
        yield from target_names(target.value)


def dead_names(source, texts):
    """Non-dunder names that ``source`` assigns or defines at module level
    and that ``texts`` name only where ``source`` defines them."""
    defined = collections.Counter()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] += 1
        elif isinstance(node, ast.Assign):
            defined.update(name for target in node.targets for name in target_names(target))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            defined.update(target_names(node.target))
    words = collections.Counter(re.findall(r"\w+", "\n".join(texts)))
    return sorted(
        name for name, count in defined.items()
        if words[name] <= count and not (name.startswith("__") and name.endswith("__"))
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_name_is_used(path):
    assert dead_names(path.read_text(encoding="utf-8"), CORPUS) == []


def test_dead_name_check_finds_stale_names():
    source = (
        "import numpy as np\n"
        "__all__ = ['used']\n"
        "STALE, (PAIRED, *REST) = 1, (2, 3)\n"
        "_TABLE: np.ndarray = np.zeros(3)\n"
        "_TABLE[0] = 1\n"
        "def used():\n"
        "    return _TABLE\n"
        "class Stale:\n"
        "    pass\n"
    )
    assert dead_names(source, [source, "used()\nPAIRED + x.REST_OF_IT"]) == ["REST", "STALE", "Stale"]
