"""Recorded mutants: each breaks one guarantee in a copy of ``src/`` and
names tests that must then fail.

Run from the repository root::

    python tests/mutants.py

For each mutant, the script copies ``src/`` to a temporary directory,
replaces the mutant's fragment, which must occur exactly once in its file,
and runs only the mutant's tests, in a fresh pytest process that imports
the package from the copy. It exits 1 if a fragment is not found once, or
if any named test passes or is not run. A refactor that moves a fragment
moves its mutant with it: ``tests/test_mutants.py`` checks in Tier-1 that
every fragment and every named test still exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/hyperdistill
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


TABLES = "tests/test_tables.py::"

MUTANTS = (
    Mutant(
        "a Phi kind reads with a parity step of 1",
        "protocol.py",
        "_READOUT_STEP = np.array([3, 3, 1, 1], np.int8)",
        "_READOUT_STEP = np.array([1, 3, 1, 1], np.int8)",
        (
            TABLES + "test_engine_equals_composed_stage_functions[0-257-clean]",
            TABLES + "test_engine_equals_composed_stage_functions[0-257-extremes]",
        ),
    ),
    Mutant(
        "case 0, a PhiPlus pair, survives as PsiPlus",
        "protocol.py",
        "    kind.setflags(write=False)\n",
        "    kind[0] = 2\n    kind.setflags(write=False)\n",
        (
            TABLES + "test_readout_tables_match_oracle[0]",
            TABLES + "test_engine_equals_composed_stage_functions[0-257-clean]",
            TABLES + "test_pair_table_bytes_are_pinned",
        ),
    ),
    Mutant(
        "a spatial phase flip leaves the Bell kind alone",
        "protocol.py",
        "ENSEMBLE_ORDER.index(bell) ^ (sign < 0)",
        "ENSEMBLE_ORDER.index(bell)",
        (
            TABLES + "test_readout_tables_match_oracle[1]",
            TABLES + "test_fidelity_entries_equal_bell_overlaps",
            "tests/test_golden.py::test_cli_outputs_match_golden_digests[noisy-0]",
        ),
    ),
    Mutant(
        "PhiMinus counted as Psi-class",
        "protocol.py",
        "PHI_KIND = np.array([True, True, False, False])",
        "PHI_KIND = np.array([True, False, False, False])",
        (
            TABLES + "test_engine_equals_composed_stage_functions[0-257-clean]",
            TABLES + "test_analytic_phi_probability_equals_oracle_sum[0-fv0]",
        ),
    ),
    Mutant(
        "the report counts agreeing labels as mismatches",
        "cli.py",
        "mismatch_count += psi if PHI_KIND[kind] else phi",
        "mismatch_count += phi if PHI_KIND[kind] else psi",
        (
            TABLES + "test_report_equals_the_per_pair_oracle_sums[all]",
            "tests/test_cli.py::test_evil_bob_report_semantics",
        ),
    ),
    Mutant(
        "a fidelity mean taken over the other class",
        "cli.py",
        "if p == phi)",
        "if p != phi)",
        (
            TABLES + "test_report_equals_the_per_pair_oracle_sums[all]",
            "tests/test_cli.py::test_dephasing_degrades_phase_but_not_class",
        ),
    ),
    Mutant(
        "a draw equal to a running sum selects its slot",
        "model.py",
        'side="right"',
        'side="left"',
        (TABLES + "test_inverse_cdf_equals_the_per_draw_reference",),
    ),
    Mutant(
        "the running sums searched as they fall",
        "model.py",
        "np.maximum.accumulate(np.cumsum(weights))",
        "np.cumsum(weights)",
        (TABLES + "test_inverse_cdf_equals_the_per_draw_reference",),
    ),
    Mutant(
        "angles announced with their sign, not mod 2 pi",
        "protocol.py",
        "[repr((sign * k % ANGLE_COUNT) * ANGLE_STEP)]",
        "[repr(sign * k * ANGLE_STEP + 0.0)]",
        (
            "tests/test_protocol.py::"
            "test_announced_angle_is_a_permutation_of_theta_in_either_class",
        ),
    ),
    Mutant(
        "a file position that carries decoder state is read in chunks",
        "wire.py",
        "if start is not None and lines.buffer.tell() == start:",
        "if start is not None:",
        (
            TABLES + "test_text_handle_parses_as_its_lines_parse"
            "[cr before a two-digit seq-read one line by readline()]",
        ),
    ),
)


def mutated_source(mutant: Mutant, src: Path) -> str:
    """The text of the mutant's file under ``src`` with its fragment replaced."""
    text = (src / "hyperdistill" / mutant.file).read_text(encoding="utf-8")
    found = text.count(mutant.fragment)
    if found != 1:
        raise LookupError(f"fragment of {mutant.name!r} occurs {found} times in {mutant.file}")
    return text.replace(mutant.fragment, mutant.replacement)


def outcomes(mutant: Mutant, copy: Path) -> dict[str, str]:
    """Run the mutant's tests against ``copy``; return each test's outcome."""
    env = {**os.environ, "PYTHONPATH": str(copy)}
    imported = subprocess.run(
        [sys.executable, "-c", "import hyperdistill; print(hyperdistill.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.strip()
    if not Path(imported).is_relative_to(copy):
        raise RuntimeError(f"the package was imported from {imported}, not the copy")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *mutant.tests],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    found = {}
    for line in proc.stdout.splitlines():
        outcome, _, rest = line.partition(" ")
        if outcome in ("PASSED", "FAILED", "ERROR"):
            found[rest.split(" - ", 1)[0]] = outcome
    return found


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            try:
                text = mutated_source(mutant, copy)
            except LookupError as exc:
                print(f"MISSING  {exc}")
                bad += 1
                continue
            (copy / "hyperdistill" / mutant.file).write_text(text, encoding="utf-8")
            found = outcomes(mutant, copy)
        survivors = [test for test in mutant.tests if found.get(test) not in ("FAILED", "ERROR")]
        print(f"{'SURVIVED' if survivors else 'killed  '} {mutant.name}")
        for test in survivors:
            print(f"    {found.get(test, 'not run')}: {test}")
        bad += bool(survivors)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed by all their tests")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
