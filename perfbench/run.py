"""entrl benchmark: ``train``, ``score_batch`` and ``serve`` workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {train,score_batch,serve} \\
        --seed N --seconds S --trace {0,1}

Every input derives from ``--seed``.  The report lists each figure with its
unit, the run's provenance and parameters, the load accounting and every
output check.  The last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``layers.END_TO_END`` untraced, the per-layer metrics of
``layers.PER_LAYER`` with ``--trace 1``.  End-to-end figures are only taken
from untraced runs.  DESIGN.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

from common import OUT, ROOT, SRC, Outcome
from layers import END_TO_END, PER_LAYER

WORKLOADS = ("train", "score_batch", "serve")


@dataclass
class Context:
    seed: int
    seconds: int
    trace: bool
    workdir: Path
    spans_path: Path
    tracer: object = None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "entrl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _pin_to_one_cpu() -> int | None:
    """Run this process, and so every child it starts, on one CPU.

    The speed probe then times the CPU the measured work runs on, and a
    server and its load generator cannot land on one or two CPUs by chance,
    which moved stdio throughput between 15k and 25k records/s.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def provenance(args, cpu: int | None) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
    }


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _report(out: Outcome, prov: dict) -> None:
    print(f"# provenance {json.dumps(prov)}")
    print(f"# params {json.dumps(out.params, ensure_ascii=False)}")
    for name, value, unit, note in out.report:
        print(f"# {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    for row in out.load:
        print(f"# load {json.dumps(row)}")
    for name, value in out.layers.items():
        print(f"# layer {name} = {value:.6g}")
    for name, ok in out.checks.items():
        print(f"# check {'PASS' if ok else 'FAIL'}: {name}")
    print(f"# attempted {out.attempted} failed {out.failed}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "entrl" / "__init__.py").is_file():
        print(f"error: no entrl package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import wl_score
    import wl_serve
    import wl_train

    cpu = _pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    ctx = Context(args.seed, args.seconds, bool(args.trace),
                  workdir=OUT / f"{args.workload}-{args.seed}-{os.getpid()}",
                  spans_path=OUT / f"spans-{args.workload}.npz")
    if ctx.trace:
        ctx.tracer = spans.Tracer()
    ctx.workdir.mkdir()
    out = Outcome()
    try:
        {"train": wl_train, "score_batch": wl_score, "serve": wl_serve}[args.workload].run(ctx, out)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
    _report(out, provenance(args, cpu))
    if ctx.trace:
        metrics = {name: {"value": out.layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": out.e2e[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    correct = all(out.checks.values())
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
