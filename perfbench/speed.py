"""Machine-speed probe: a fixed slice of interpreter and small-numpy work.

The shared 2-core VM the benchmark was built on drifts in speed by 15-30%
over seconds to minutes, and every process slows alike.  Each run times this
probe between its units of work.  The time of each unit of CPU-bound work
is then divided by the slowdown measured by the probes nearest to it, the
median probe time over ``REFERENCE_S``.  That puts it in units of one fixed
machine speed.
"""

from __future__ import annotations

import json
import statistics
import unicodedata
from time import perf_counter

import numpy as np

REFERENCE_S = 0.005       # probe time at the reference speed

_GRID = np.linspace(0.0, 1.0, 48)
_TEXT = tuple(f"r{i} München Đà Nẵng {i * 7}" for i in range(600))


def probe() -> float:
    """Seconds taken by the fixed work."""
    t0 = perf_counter()
    rows = {}
    acc = 0
    for i, text in enumerate(_TEXT):
        rows[text] = unicodedata.normalize("NFD", text.lower()).count("n")
        acc += int(np.searchsorted(_GRID, (i % 97) / 97.0)) + int(_GRID[i % 40:i % 40 + 8].sum())
    json.loads(json.dumps(rows))
    return perf_counter() - t0


class Gauge:
    """Probe times collected over one run, with when each was taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self, n: int = 1) -> float:
        """Take ``n`` probes; returns the seconds they took."""
        t0 = perf_counter()
        for _ in range(n):
            self.samples.append((perf_counter(), probe()))
        return perf_counter() - t0

    @property
    def slowdown(self) -> float:
        """Median probe time of the run over the reference; above 1 when slow."""
        return statistics.median(p for _, p in self.samples) / REFERENCE_S

    def scale(self, seconds: float, t0: float, t1: float, k: int = 8) -> float:
        """``seconds`` of work done in [t0, t1], at the reference speed.

        The slowdown comes from the ``k`` probes taken nearest to the
        interval, so it follows the drift within a run.
        """
        nearest = sorted(self.samples, key=lambda s: max(t0 - s[0], s[0] - t1, 0.0))[:k]
        return seconds * REFERENCE_S / statistics.median(p for _, p in nearest)
