"""Every name the benchmark's tracer wraps resolves in the package.

``perfbench/spans.py`` wraps each ``(module, attr)`` of ``TRACED`` from
outside the package; without this check a renamed or deleted function
would only show up as a failing traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> tuple:
    """Import ``TRACED`` from spans.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.TRACED


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"entrl.{module}")
    if "." in attr:
        # The tracer wraps the method found in the class's own namespace.
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method))
    else:
        assert callable(getattr(owner, attr))
