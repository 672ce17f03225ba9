"""Replay one saved transcript: read it, parse it and audit it.

    python3 perfbench/replay.py --out RESULT.json FILE

Opens FILE, parses it with ``Transcript.from_lines`` and audits it with
``audit``, then writes the wall time of those three steps and the (kind, seq)
of every violation found to RESULT.json. The benchmark runs each replay in a
fresh child process, so that the child's peak resident memory is the memory
that parsing and auditing need and no replay inherits the heap of another.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hyperdistill import Transcript, audit  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("file")
    args = parser.parse_args()

    started = time.perf_counter()
    with open(args.file, "r", encoding="utf-8") as fh:
        report = audit(Transcript.from_lines(fh))
    seconds = time.perf_counter() - started
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({
            "seconds": seconds,
            "passed": report.passed,
            "violations": [[v.kind, v.seq] for v in report.violations],
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
