"""Shared pytest wiring.

Acceptance tests record a one-line verdict per criterion; the hook below
prints them in the terminal summary so they survive output capturing.
``load_perfbench`` lets a test import a benchmark module without writing
into ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

ACCEPTANCE_LINES: list = []


def load_perfbench(name: str):
    """Import ``perfbench/<name>.py`` read-only: no bytecode is written next to it."""
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # a dataclass looks its module up while it is built
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
