"""Smoke test: the quick demos run to completion against the current API.

Demo 03 trains for about half a minute and is left to manual runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrl

DEMOS = Path(__file__).resolve().parent.parent / "demos"
QUICK = ["01_gated_rewards.py", "02_group_optimization.py",
         "04_evaluation.py", "05_scoring_service.py"]


@pytest.mark.parametrize("name", QUICK)
def test_demo_exits_cleanly(name):
    src = str(Path(entrl.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
