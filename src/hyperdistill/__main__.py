"""Entry of ``python -m hyperdistill`` and the ``hyperdistill`` script. It freezes what the
imports made, which lives until exit, out of all later collections, the one at exit included."""

import gc
import sys

from .cli import main


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
