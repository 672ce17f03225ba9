"""Every name a module of the package imports is used in that module,
every name it defines at module level is named somewhere else, the wire
format imports nothing from the engine or the CLI, and the engine and the
tensor oracle import nothing from each other.

Stdlib-only stand-ins for a linter's unused-import and dead-code rules:
each module is parsed with ``ast``. A module-level name counts as used
if it appears as a whole word anywhere in the package, the tests, the
demos or the benchmark other than where it is defined.
"""

import ast
import collections
import pathlib
import re

import pytest

import hyperdistill

MODULES = sorted(pathlib.Path(hyperdistill.__file__).parent.glob("*.py"))
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


def package_imports(source):
    """What ``source`` imports from the package, as (module,) for a whole
    module and (module, name) for a name imported from one."""
    imports = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = f"hyperdistill.{node.module or ''}" if node.level else node.module or ""
            names = [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        imports.update(
            tuple(name.split(".")[1:3]) for name in names if name.startswith("hyperdistill.")
        )
    return imports


def imported_modules(source):
    """Modules of the package that ``source`` imports, or imports names from."""
    return {imported[0] for imported in package_imports(source)}


def source_of(name):
    return (pathlib.Path(hyperdistill.__file__).parent / f"{name}.py").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["wire", "render", "reader"])
def test_wire_format_stands_below_the_engine(name):
    # The engine and the audit build on the wire format and its renderer,
    # not the other way round.
    assert imported_modules(source_of(name)) & {"protocol", "cli"} == set()


#: The modules the tensor oracle is built on, and those a run executes.
ORACLE = {"linalg", "states", "qnd"}
ENGINE = {"protocol", "cli", "wire", "render", "reader"}


@pytest.mark.parametrize("name", sorted(ENGINE | {"model"}))
def test_engine_imports_nothing_from_the_oracle(name):
    # The oracle is the engine's independent reference only while the two
    # share no code: what both read lives in ``model``, below them both.
    assert imported_modules(source_of(name)) & ORACLE == set()


@pytest.mark.parametrize("name", sorted(ORACLE))
def test_oracle_imports_nothing_from_the_engine(name):
    assert imported_modules(source_of(name)) & ENGINE == set()


def test_model_imports_nothing_from_the_package():
    assert imported_modules(source_of("model")) == set()


def test_imported_modules_finds_every_form():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from . import cli\n"
        "from .protocol import audit\n"
        "def f():\n"
        "    from hyperdistill import linalg\n"
        "    from hyperdistill.qnd import CASES\n"
        "    import hyperdistill.states\n"
    )
    assert imported_modules(source) == {"cli", "linalg", "protocol", "qnd", "states"}
    assert package_imports(source) == {
        ("cli",), ("protocol", "audit"), ("linalg",), ("qnd", "CASES"), ("states",),
    }


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
