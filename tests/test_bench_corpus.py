"""Replies and summaries against the benchmark corpus's own expectations.

``perfbench/corpus.py`` computes every expected reply from the documented
rules with its own ``fold`` and ``parse``, not by calling the package, so it
is an independent oracle for the whole scoring path: ``entrl score`` (and
its ``score_lines``) with the summary line, and ``serve_stdio``.
"""

import io
import json
import math

import pytest
from conftest import load_perfbench

from entrl import RewardConfig, serve_stdio
from entrl.cli import main

LINES = 2000
corpus = load_perfbench("corpus")


# The score_batch and serve workloads' record shapes: (tag, think_max, max_aliases).
SHAPES = {"batch": ("b", 1000, 8), "serve": ("s", 40, 3)}
# The benchmark's own run seeds, 1 and 2, and one it does not run.
SEEDS = (1, 2, 5)


@pytest.fixture(scope="module", params=[(shape, seed) for seed in SEEDS for shape in SHAPES],
                ids=lambda param: f"{param[0]}-seed{param[1]}")
def corp(request):
    shape, seed = request.param
    tag, think_max, max_aliases = SHAPES[shape]
    return corpus.build(seed, LINES, think_max, max_aliases, tag=tag)


def _replies(data: bytes) -> list:
    assert data.endswith(b"\n")
    return [json.loads(raw) for raw in data[:-1].split(b"\n")]


def test_score_command_replies_and_summary(corp, tmp_path, capsys):
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    inp.write_bytes(corp.data())
    assert main(["score", "--input", str(inp), "--output", str(out)]) == 0
    replies = _replies(out.read_bytes())
    assert len(replies) == len(corp.lines)
    bad = [pos for pos, (line, reply) in enumerate(zip(corp.lines, replies), start=1)
           if not corpus.check_reply(line, reply, pos)]
    assert bad == []
    assert sum("error" in r for r in replies) > 40
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    expected = corp.expected_summary()
    assert summary["n_records"] == expected["n_records"]
    assert summary["gate_failure_counts"] == expected["gate_failure_counts"]
    for key in ("entity_accuracy_pct", "mean_reward"):
        assert math.isclose(summary[key], expected[key], rel_tol=1e-9)


def test_serve_stdio_replies(corp):
    out = io.BytesIO()
    serve_stdio(RewardConfig(), io.BytesIO(corp.data()), out)
    replies = _replies(out.getvalue())
    assert len(replies) == len(corp.lines)
    assert all(corpus.check_reply(line, reply, None) for line, reply in zip(corp.lines, replies))
