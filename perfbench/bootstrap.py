"""Run an ``entrl`` command with the benchmark's span wrappers installed.

Usage: python3 perfbench/bootstrap.py SPANS.npz <entrl arguments...>

The spans are written to SPANS.npz when the command returns.  SIGTERM is
turned into KeyboardInterrupt, which ``entrl serve`` treats as a clean
shutdown, so a traced server also writes its spans when stopped.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import entrl.cli  # noqa: E402

from spans import Tracer  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return entrl.cli.main(argv)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
