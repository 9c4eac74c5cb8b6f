"""``score_batch``: the real ``entrl score`` command on a generated corpus.

Offline throughput: long responses, non-ASCII aliases, 1-8 aliases per
record and a few percent of malformed lines.  Each run is a fresh child
process over the whole corpus, so start-up is part of what a user waits for.
"""

from __future__ import annotations

import json
import math
import statistics
from time import perf_counter

import corpus as corpus_mod
import spans
from common import Outcome, entrl_cmd, run_measured
from corpus import ERROR_KINDS
from layers import Aggregate
from speed import Gauge

RECORDS = 20000
THINK_MAX = 1000          # characters of think segment, drawn uniformly
MAX_ALIASES = 8
SETUP_REPEATS = 5
MIN_RUNS = 3


def _score(ctx, out: Outcome, corp, name: str, spans_to=None) -> tuple[float, float, dict]:
    """Run ``entrl score`` once on ``corp`` and check every reply.

    Returns the wall time, the child's peak RSS and the error replies
    counted by line kind.
    """
    src, dst = ctx.workdir / f"{name}.jsonl", ctx.workdir / f"{name}.out.jsonl"
    if not src.exists():
        src.write_bytes(corp.data())
    dst.unlink(missing_ok=True)
    n = len(corp.lines)
    out.attempted += n
    code, stdout, wall, rss = run_measured(
        entrl_cmd("score", "--input", str(src), "--output", str(dst), spans_to=spans_to),
        ctx.workdir / "launch.json", timeout=150)
    if not out.check("score exits 0", code == 0):
        out.failed += n
        return wall, rss, {}
    replies = dst.read_bytes().split(b"\n")
    if replies and not replies[-1]:
        replies.pop()
    out.check("one reply line per input line", len(replies) == n)
    bad, errors = abs(n - len(replies)), {}
    for pos, (line, raw) in enumerate(zip(corp.lines, replies), start=1):
        try:
            reply = json.loads(raw)
        except ValueError:
            reply = None
        if not isinstance(reply, dict) or not corpus_mod.check_reply(line, reply, pos):
            bad += 1
        elif "error" in reply:
            errors[line.kind] = errors.get(line.kind, 0) + 1
    out.check("every reply as expected, in input order", bad == 0)
    out.failed += bad
    expected = corp.expected_summary()
    try:
        summary = json.loads(stdout.decode("utf-8").strip().splitlines()[-1])
    except (ValueError, IndexError):
        summary = {}
    same = (summary.get("n_records") == expected["n_records"]
            and summary.get("gate_failure_counts") == expected["gate_failure_counts"]
            and all(math.isclose(summary.get(k, math.nan), expected[k], rel_tol=1e-9)
                    for k in ("entity_accuracy_pct", "mean_reward")))
    out.check("summary matches the corpus", same)
    return wall, rss, errors


def run(ctx, out: Outcome) -> None:
    corp = corpus_mod.build(ctx.seed, RECORDS, THINK_MAX, MAX_ALIASES, tag="b")
    one = corpus_mod.Corpus([next(ln for ln in corp.lines if ln.kind == "ok")])
    kinds = {k: sum(1 for ln in corp.lines if ln.kind == k) for k in ERROR_KINDS}
    out.params.update({
        "records": RECORDS, "mean_record_bytes": round(corp.mean_bytes(), 1),
        "think_max_chars": THINK_MAX, "aliases_per_record": f"1-{MAX_ALIASES}",
        "malformed_lines": kinds, "setup_repeats": SETUP_REPEATS,
        "loop": "one child process per pass over the corpus, back to back",
    })
    gauge, setup, setup_scaled = Gauge(), [], []
    for _ in range(SETUP_REPEATS):
        gauge.sample(2)
        t0 = perf_counter()
        setup.append(_score(ctx, out, one, "one")[0])
        setup_scaled.append(gauge.scale(setup[-1], t0, perf_counter(), k=4))

    walls, rss, traced_walls, agg, errors, io_ms = [], [], [], Aggregate(), {}, []
    t_end = perf_counter() + ctx.seconds
    pending = []      # passes to scale once the probe after them is taken
    while len(walls) + len(traced_walls) < MIN_RUNS or perf_counter() < t_end:
        gauge.sample(4)
        # A traced run alternates plain and traced passes to measure overhead.
        if ctx.trace and len(walls) > len(traced_walls):
            wall, _, pass_errors = _score(ctx, out, corp, "corpus", spans_to=ctx.spans_path)
            traced_walls.append(wall)
            for kind, count in pass_errors.items():
                errors[kind] = errors.get(kind, 0) + count
            names, sp, counters = spans.load(ctx.spans_path)
            agg.add(names, sp, counters)
            main_s = sp["dur"][sp["name"] == names.index("cli.main")].sum()
            lines_s = sp["dur"][sp["name"] == names.index("scoring.score_lines")].sum()
            io_ms.append(1e3 * (main_s - lines_s))
        else:
            t0 = perf_counter()
            wall, peak, _ = _score(ctx, out, corp, "corpus")
            walls.append(wall)
            rss.append(peak)
            pending.append((wall, t0, perf_counter()))

    gauge.sample(4)
    scaled = [gauge.scale(wall, t0, t1) for wall, t0, t1 in pending]
    if ctx.trace:
        layers = agg.metrics()
        layers["scoring.error_replies"] = float(sum(errors.values()))
        for kind in ERROR_KINDS:
            layers[f"scoring.error_replies.{kind}"] = float(errors.get(kind, 0))
        layers["cli.io_ms"] = statistics.fmean(io_ms) if io_ms else 0.0
        plain, traced = statistics.median(walls), statistics.median(traced_walls)
        layers["trace.overhead_ms"] = 1e3 * (traced - plain)
        layers["trace.overhead_share"] = (traced - plain) / plain
        out.layers = layers
    wall = statistics.median(walls)
    out.stat("setup_s", statistics.median(setup), "s", f"median of {SETUP_REPEATS} one-record runs")
    out.stat("score_records_per_s", RECORDS / wall, "1/s",
             f"median of {len(walls)} runs, {RECORDS} records of {corp.mean_bytes():.0f} B mean")
    out.stat("score_run_ms_p50", 1e3 * wall, "ms", f"{len(walls)} runs")
    peak = out.stat("score_peak_rss_mb", statistics.median(rss), "MB", f"median of {len(rss)} runs")
    out.stat("machine_slowdown", gauge.slowdown, "x", f"median of {len(gauge.samples)} speed probes")
    out.e2e.update({"setup_s": statistics.median(setup_scaled),
                    "latency_ms_p50": 1e3 * statistics.median(scaled),
                    "throughput_per_s": RECORDS / statistics.median(scaled), "peak_rss_mb": peak})
