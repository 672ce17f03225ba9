"""Entry of ``python -m hyperdistill`` and the ``hyperdistill`` script, and so of a sweep's
forked workers.

Before anything is imported it makes ``_hashlib`` unimportable when CPython's builtin sha256
module is there: ``hashlib``, ``hmac`` and ``secrets``, which ``numpy.random`` imports, then
fall back to builtins by design, and no process of the program maps OpenSSL. A run's one
digest, ``run_id``'s sha256, has the same bytes either way; a build without the builtin module
runs on OpenSSL. ``run`` freezes what the imports made, which lives until exit, out of all
later collections, the one at exit included."""

import gc
import sys


def _has_builtin_sha256() -> bool:
    for name in ("_sha2", "_sha256"):  # Python 3.12 on, and before
        try:
            __import__(name)
        except ImportError:
            continue
        return True
    return False


if _has_builtin_sha256():
    sys.modules.setdefault("_hashlib", None)

from .cli import main  # noqa: E402


def run() -> int:
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
