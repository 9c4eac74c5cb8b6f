"""Paths, child processes, statistics and the result record shared by workloads."""

from __future__ import annotations

import json
import os
import resource
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def child_env() -> dict:
    """Environment for a child that must import the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def entrl_cmd(*args: str, spans_to: Path | None = None) -> list:
    """The real command line; with ``spans_to`` it runs under the tracing bootstrap."""
    if spans_to is None:
        return [sys.executable, "-m", "entrl", *args]
    return [sys.executable, str(HERE / "bootstrap.py"), str(spans_to), *args]


def read_line(proc: subprocess.Popen, timeout: float) -> bytes:
    """One line of a child's stdout, or b"" if none arrives in ``timeout`` s."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else b""


def stop(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    """Terminate a child and wait for it; kill it if it does not exit."""
    if proc.poll() is None:
        proc.terminate()
    try:
        return proc.wait(timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        return proc.wait()


def run_measured(cmd: list, report: Path, timeout: float) -> tuple:
    """Run ``cmd`` through ``launch.py``.

    Returns (exit code, stdout, wall s, peak RSS MB); the exit code is None
    after a timeout.  The wall time is taken around the command inside the
    launcher, so the launcher's own start-up is not part of it.
    """
    report.unlink(missing_ok=True)
    # A session of its own lets a timeout stop the command with the launcher.
    proc = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "launch.py"), str(report), *cmd],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, b"", float("nan"), float("nan")
    try:
        doc = json.loads(report.read_text())
    except (OSError, ValueError):
        return proc.returncode, stdout, float("nan"), float("nan")
    return proc.returncode, stdout, doc["wall_s"], doc["peak_rss_kib"] / 1024.0


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (VmHWM), or NaN if unreadable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return float("nan")


def tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond); (50, median, n//2) when the
    sample is too small for any higher one.
    """
    arr = np.asarray(values, dtype=float)
    for pct in (99.9, 99.0, 95.0, 90.0):
        beyond = int(len(arr) * (100.0 - pct) / 100.0)
        if beyond >= 10:
            return pct, float(np.percentile(arr, pct)), beyond
    return 50.0, float(np.median(arr)), len(arr) // 2


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``e2e`` holds the end-to-end metrics under their benchmark names,
    ``report`` every figure of the run under its descriptive name, and
    ``layers`` the per-layer figures of a traced run.
    """

    attempted: int = 0
    failed: int = 0
    e2e: dict = field(default_factory=dict)
    report: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    load: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> bool:
        """Record a correctness check; a check that fails once stays failed."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        return bool(ok)

    def stat(self, name: str, value: float, unit: str, note: str = "") -> float:
        self.report.append((name, float(value), unit, note))
        return float(value)
