"""Every name the benchmark's tracer wraps resolves in the package.

``perfbench/spans.py`` wraps each ``(module, attr)`` of ``TRACED`` from
outside the package; without this check a renamed or deleted function
would only show up as a failing traced benchmark run.
"""

import importlib

import pytest
from conftest import load_perfbench


@pytest.mark.parametrize("module, attr", load_perfbench("spans").TRACED)
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"entrl.{module}")
    if "." in attr:
        # The tracer wraps the method found in the class's own namespace.
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method))
    else:
        assert callable(getattr(owner, attr))
