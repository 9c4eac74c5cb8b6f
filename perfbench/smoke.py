"""Smoke check of the benchmark itself, at its smallest size.

Usage, from the root of a checkout:  python3 perfbench/smoke.py

Runs every workload untraced and traced with ``--seconds 1`` and asserts
that the result line has exactly the catalogued metrics with their units,
that every output check ran and passed, and that the benchmark refuses to
run without the package sources.  It is not part of the test suite: it
takes about a minute and measures nothing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402

# Checks each workload must report, by name.
CHECKS = {
    "train": (
        "set-up is deterministic", "one snapshot per step", "one metrics row per step",
        "every reward in {0, alpha, 1+alpha}", "metrics rows finite", "final logits finite",
        "eval pass@1 in [0, 1] with one count per entity",
    ),
    "score_batch": (
        "score exits 0", "one reply line per input line", "every reply as expected, in input order",
        "summary matches the corpus",
    ),
    "serve": (
        "every reply as expected, in per-connection order", "no connection dropped",
        "server alive after the load", "stdio server exits 0 at end of input",
    ),
}
TRACED_CHECKS = {"train": ("traced run reproduces the untraced digest",)}
# Per-layer figures that must be non-zero when the workload is traced
# (the tracing overhead of a one-second run can come out negative).
EXERCISED = {
    "train": ("toytask.sample_rollout.calls", "train.sample_ms", "train.update_ms",
              "optim.clipped_share.pass2", "optim.post_update_eval_ms", "toytask.prior_attempts",
              "trace.overhead_ms"),
    "score_batch": ("textnorm.GoldEntitySet.calls", "scoring.score_lines.calls", "cli.io_ms",
                    "scoring.error_replies.invalid_utf8"),
    "serve": ("scoring.decode_line.calls", "scoring.server_share", "scoring.error_replies.bad_field"),
}


def _run(cwd: Path, workload: str, trace: int) -> tuple[int, list]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_workload(workload: str, trace: int) -> None:
    code, lines = _run(ROOT, workload, trace)
    assert code == 0, f"{workload} trace={trace}: exit {code}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    catalogue = {n: u for n, u, *_ in (PER_LAYER if trace else END_TO_END)}
    metrics = result["metrics"]
    assert set(metrics) == set(catalogue), set(metrics) ^ set(catalogue)
    for name, entry in metrics.items():
        assert entry["unit"] == catalogue[name], (name, entry)
        assert math.isfinite(entry["value"]), (name, entry)
        assert trace or entry["value"] > 0, (name, entry)
    for name in EXERCISED[workload] if trace else ():
        assert metrics[name]["value"] != 0, (workload, name)
    passed = {ln.split(": ", 1)[1] for ln in lines if ln.startswith("# check PASS: ")}
    failed = [ln for ln in lines if ln.startswith("# check FAIL")]
    wanted = set(CHECKS[workload]) | set(TRACED_CHECKS.get(workload, ()) if trace else ())
    assert not failed and wanted <= passed, (failed, wanted - passed)
    assert any(ln.startswith("# provenance ") for ln in lines)
    print(f"ok  {workload} trace={trace}: {len(metrics)} metrics, {len(passed)} checks")


def check_benchmark_json() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)
    print("ok  BENCHMARK.json matches the catalogue")


def check_refuses_without_sources() -> None:
    bare = OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, lines = _run(bare, "train", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert code != 0 and not any(ln.startswith("{") for ln in lines), (code, lines)
    print("ok  refuses to run without the package sources")


def main() -> int:
    check_benchmark_json()
    check_refuses_without_sources()
    for workload in CHECKS:
        for trace in (0, 1):
            check_workload(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
