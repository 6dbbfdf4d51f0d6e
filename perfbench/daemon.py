"""Start ``repro serve`` with the benchmark's span hooks installed.

Usage: ``python perfbench/daemon.py SPANS_DIR serve [serve options]``.
The hooks go in before the service modules are imported, so the names
the daemon binds at import time are the wrapped ones; the daemon's
aggregates are written to ``SPANS_DIR`` when it shuts down.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_dir, *argv = sys.argv[1:]
    tracer = Tracer(spans_dir, role="daemon").install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
