"""The recorded mutants of ``tests/mutants.py`` still fit the source.

Running the mutants takes one pytest process each, so CI does it in its
own step; here each fragment must occur exactly once in the source, and
each named test must still be defined, so that a refactor that moves
either moves the mutant with it.
"""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT, mutated_source


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_fragment_occurs_once_and_its_tests_exist(mutant):
    assert mutated_source(mutant, ROOT / "src") != (
        ROOT / "src" / "hyperdistill" / mutant.file).read_text(encoding="utf-8")
    assert mutant.tests
    for test in mutant.tests:
        path, name = re.fullmatch(r"([^:]+)::(\w+)(\[.*\])?", test).group(1, 2)
        assert f"\ndef {name}(" in Path(ROOT / path).read_text(encoding="utf-8"), test
