"""``serve``: the real ``entrl serve`` over TCP (open loop) and stdio (window).

Short records with the same malformed-line mix as ``score_batch``.  Over
TCP one generator process sends on a fixed schedule at each rate in
``RATES`` over ``CONNECTIONS`` connections, and every latency is timed
from the request's scheduled send time, so a stall also delays the
requests queued behind it.  Over stdio the same lines go through a bounded
in-flight window, in segments before, between and after the rates.
"""

from __future__ import annotations

import json
import statistics
import subprocess
from time import perf_counter

import numpy as np

import corpus as corpus_mod
import spans
from client import Channel, drive
from common import Outcome, child_env, entrl_cmd, peak_rss_mb, read_line, stop, tail
from corpus import ERROR_KINDS
from layers import Aggregate
from speed import Gauge

LINES = 20000
THINK_MAX = 40
MAX_ALIASES = 3
SETUP_REPEATS = 5
RATES = (1000, 2000, 4000, 6000, 8000, 12000)   # requests/s; the first is well below capacity
LOW_RATE_SHARE = 0.25    # share of --seconds spent at RATES[0]
RATE_SHARE = 0.08        # share of --seconds at each higher rate
WARMUP_S = 0.5           # first part of each rate (at most a quarter), checked but not timed
STDIO_SHARE = 0.04       # share of --seconds over stdio before, between and after the rates
STDIO_BIN_S = 0.25
CONNECTIONS = 2
WINDOW = 64
# On the 2-core reference VM a process sometimes wakes several ms late
# (1% of 0.5 ms sleeps oversleep by ~4 ms), so the tail limit sits well
# above that.
TAIL_LIMIT_MS = 20.0


def _spawn(ctx, args: list, spans_to=None, **kwargs) -> subprocess.Popen:
    err = open(ctx.workdir / "server.err", "ab")
    try:
        return subprocess.Popen(entrl_cmd("serve", *args, spans_to=spans_to), env=child_env(),
                                stdout=subprocess.PIPE, stderr=err, **kwargs)
    finally:
        err.close()


def _start_tcp(ctx, spans_to=None) -> tuple:
    """Start the TCP server; returns (process, address, seconds to the banner)."""
    t0 = perf_counter()
    proc = _spawn(ctx, ["--bind", "127.0.0.1:0"], spans_to)
    banner = read_line(proc, 60.0)
    elapsed = perf_counter() - t0
    try:
        host, port = json.loads(banner)["listening"].rsplit(":", 1)
    except (ValueError, KeyError, TypeError):
        stop(proc)
        raise RuntimeError(f"server printed no listening banner: {banner!r}") from None
    return proc, (host, int(port)), elapsed


def _verify(out: Outcome, lines: list, ex, errors: dict) -> np.ndarray:
    """Check each reply against its line; returns a mask of good replies.

    A wrong reply fails the output check.  A reply that never came (the
    client stops waiting ``grace`` seconds after the last send) counts as a
    failed request.
    """
    good = np.zeros(len(lines), dtype=bool)
    wrong = 0
    for i, (line, raw) in enumerate(zip(lines, ex.replies)):
        if raw is None:
            continue
        try:
            reply = json.loads(raw)
        except ValueError:
            reply = None
        good[i] = isinstance(reply, dict) and corpus_mod.check_reply(line, reply, None)
        wrong += not good[i]
        if good[i] and "error" in reply:
            errors[line.kind] = errors.get(line.kind, 0) + 1
    out.attempted += len(lines)
    out.failed += int((~good).sum())
    out.check("every reply as expected, in per-connection order", wrong == 0)
    out.check("no connection dropped", not ex.dropped)
    return good


def _rate_phase(out: Outcome, addr, corp, offset: int, rate: int, seconds: float, errors: dict) -> dict:
    """One open-loop rate over fresh connections; returns its figures."""
    n = max(20, int(rate * seconds))
    lines = [corp.lines[(offset + i) % len(corp.lines)] for i in range(n)]
    chans = [Channel.tcp(addr) for _ in range(CONNECTIONS)]
    try:
        start = perf_counter() + 0.01
        ex = drive(chans, [ln.raw + b"\n" for ln in lines], due=start + np.arange(n) / rate,
                   grace=5.0 + 2 * seconds)
    finally:
        for ch in chans:
            ch.close()
    good = _verify(out, lines, ex, errors)
    failed = int(n - good.sum())
    # A failed request misses any latency limit.
    timed = ex.due >= ex.due[0] + min(WARMUP_S, seconds / 4)
    latency = np.where(good, 1e3 * ex.latency, np.inf)[timed]
    p50 = float(np.median(latency))
    pct, ptail, beyond = tail(latency)
    q = len(latency) // 4
    growing = bool(q and np.median(latency[3 * q:]) > 2 * np.median(latency[q:2 * q]) + 0.5)
    late = 1e3 * ex.lateness[timed]
    meets = bool(failed == 0 and ptail <= TAIL_LIMIT_MS and not growing)
    out.load.append({
        "rate_per_s": rate, "requests": n, "failed": failed,
        "p50_ms": round(p50, 4), f"p{pct:g}_ms": round(ptail, 4), "samples_beyond": beyond,
        "generator_late_ms_p99": round(float(np.percentile(late, 99)), 4),
        "generator_late_ms_max": round(float(late.max()), 4),
        "backlog_growing": growing, "meets_limit": meets,
    })
    done = good & timed
    return {"rate": rate, "n": n, "p50": p50, "tail": (pct, ptail, beyond), "meets": meets,
            "timed": int(timed.sum()), "latency_s": float(np.sum(ex.latency[done])),
            "window": (float(ex.due[timed][0]), float(np.nanmax(ex.got)))}


class _Stdio:
    """``entrl serve --stdio`` under a bounded window, measured in segments.

    Segments run between the TCP rates, so the figure spans the whole run
    rather than one stretch of it; the machine's speed drifts over seconds.
    """

    def __init__(self, ctx, out: Outcome, corp, errors: dict, gauge: Gauge, spans_to=None):
        self.out, self.corp, self.errors, self.gauge = out, corp, errors, gauge
        self.proc = _spawn(ctx, ["--stdio"], spans_to, stdin=subprocess.PIPE)
        self.ch = Channel(self.proc.stdout.fileno(), self.proc.stdin.fileno())
        self.offset = 0
        self.done: list = []     # per segment: reply times from its first send, bin, span
        self.scaled_rate = 0.0
        try:
            self._send(None)     # the first window waits for start-up; not timed
        except BaseException:
            stop(self.proc)
            raise

    def _send(self, seconds: float | None):
        n = int(60000 * seconds) if seconds else WINDOW
        lines = [self.corp.lines[(self.offset + i) % len(self.corp.lines)] for i in range(n)]
        stop_at = perf_counter() + seconds if seconds else None
        ex = drive([self.ch], [ln.raw + b"\n" for ln in lines], window=WINDOW, stop_at=stop_at, grace=30.0)
        if seconds:
            self.out.check("stdio segment sent for its whole time", len(ex.replies) < n)
        good = _verify(self.out, lines[: len(ex.replies)], ex, self.errors)
        self.offset += len(ex.replies)
        return ex, good

    def segment(self, seconds: float) -> None:
        ex, good = self._send(seconds)
        span = (float(ex.sent[0]), float(np.nanmax(ex.got)))
        self.done.append((ex.got[good] - ex.sent[0], min(STDIO_BIN_S, seconds / 4), span))

    def close(self) -> float:
        """Stop the server; returns records/s, the median over short bins.

        The median keeps a brief stall from moving the figure; each
        segment's last, partial bin is dropped.  ``scaled_rate`` is the same
        figure with each segment at the reference machine speed.
        """
        self.out.stat("stdio_peak_rss_mb", peak_rss_mb(self.proc.pid), "MB", "stdio server process")
        self.proc.stdin.close()
        try:
            code = self.proc.wait(60)
        except subprocess.TimeoutExpired:
            code = None
        self.out.check("stdio server exits 0 at end of input", code == 0)
        stop(self.proc)
        rates, scaled = [], []
        for done, bin_s, (t0, t1) in self.done:
            bin_ref = self.gauge.scale(bin_s, t0, t1)
            for count in np.bincount((done // bin_s).astype(int))[:-1]:
                rates.append(count / bin_s)
                scaled.append(count / bin_ref)
        if not rates:
            return 0.0
        self.scaled_rate = float(np.median(scaled))
        return float(np.median(rates))


def run(ctx, out: Outcome) -> None:
    corp = corpus_mod.build(ctx.seed, LINES, THINK_MAX, MAX_ALIASES, tag="s")
    phases = [(RATES[0], LOW_RATE_SHARE)] + [(r, RATE_SHARE) for r in RATES[1:]]
    out.params.update({
        "lines": LINES, "mean_record_bytes": round(corp.mean_bytes(), 1),
        "think_max_chars": THINK_MAX, "aliases_per_record": f"1-{MAX_ALIASES}",
        "malformed_lines": {k: sum(1 for ln in corp.lines if ln.kind == k) for k in ERROR_KINDS},
        "loop": "open loop over TCP, windowed over stdio",
        "rates_per_s": list(RATES), "seconds_per_rate": [round(s * ctx.seconds, 3) for _, s in phases],
        "connections": CONNECTIONS, "tail_limit_ms": TAIL_LIMIT_MS, "warmup_s_per_rate": WARMUP_S,
        "stdio_window": WINDOW, "stdio_seconds_per_segment": STDIO_SHARE * ctx.seconds,
        "stdio_segments": len(RATES) + 1,
        "setup_repeats": SETUP_REPEATS,
    })
    gauge, setup, setup_scaled = Gauge(), [], []
    for _ in range(SETUP_REPEATS):
        gauge.sample(2)
        t0 = perf_counter()
        proc, _, elapsed = _start_tcp(ctx)
        setup.append(elapsed)
        setup_scaled.append(gauge.scale(elapsed, t0, t0 + elapsed, k=4))
        stop(proc)

    spans_tcp = ctx.spans_path.with_name(ctx.spans_path.stem + "-tcp.npz") if ctx.trace else None
    proc, addr, _ = _start_tcp(ctx, spans_tcp)
    errors, offset, results = {}, 0, []
    stdio = None
    try:
        stdio = _Stdio(ctx, out, corp, errors, gauge, ctx.spans_path if ctx.trace else None)
        for rate, share in phases:
            gauge.sample(4)
            stdio.segment(STDIO_SHARE * ctx.seconds)
            gauge.sample(4)
            results.append(_rate_phase(out, addr, corp, offset, rate, share * ctx.seconds, errors))
            offset += results[-1]["n"]
        stdio.segment(STDIO_SHARE * ctx.seconds)
        rss = peak_rss_mb(proc.pid)
    finally:
        out.check("server alive after the load", proc.poll() is None)
        stop(proc)
        stdio_rps = stdio.close() if stdio else 0.0

    low = results[0]
    p50, (pct, ptail, beyond) = low["p50"], low["tail"]
    max_rps = max((r["rate"] for r in results if r["meets"]), default=0)
    out.stat("setup_s", statistics.median(setup), "s", f"median of {SETUP_REPEATS} spawns to the banner")
    out.stat("serve_p50_ms", p50, "ms", f"at {low['rate']}/s, {low['timed']} requests")
    out.stat(f"serve_p{pct:g}_ms", ptail, "ms", f"at {low['rate']}/s, {beyond} samples beyond")
    out.stat("serve_max_rps", max_rps, "1/s", f"highest of {list(RATES)} with tail <= {TAIL_LIMIT_MS} ms, no growing backlog")
    out.stat("stdio_records_per_s", stdio_rps, "1/s", f"window {WINDOW}, median of {STDIO_BIN_S} s bins")
    rss = out.stat("serve_peak_rss_mb", rss, "MB", "TCP server process after the load")
    out.stat("machine_slowdown", gauge.slowdown, "x", f"median of {len(gauge.samples)} speed probes")
    # At 1,000/s the latency waits on the client's next packet, not on the
    # CPU, so it is not scaled to the reference machine speed.
    out.e2e.update({"setup_s": statistics.median(setup_scaled), "latency_ms_p50": p50,
                    "throughput_per_s": stdio.scaled_rate, "peak_rss_mb": rss})
    if ctx.trace:
        agg = Aggregate()
        names, sp, counters = spans.load(spans_tcp)
        agg.add(names, sp, counters)
        # Server compute per request is its decode_line and score_record
        # spans; both clocks are the system's monotonic clock.
        t_from, t_to = low["window"]
        roots = ((sp["parent"] < 0) & (sp["start"] >= t_from) & (sp["start"] <= t_to)
                 & np.isin(sp["name"], [names.index("scoring.decode_line"),
                                        names.index("scoring.score_record")]))
        server_share = float(sp["dur"][roots].sum()) / low["latency_s"]
        agg.add(*spans.load(ctx.spans_path))
        layers = agg.metrics()
        layers["scoring.error_replies"] = float(sum(errors.values()))
        for kind in ERROR_KINDS:
            layers[f"scoring.error_replies.{kind}"] = float(errors.get(kind, 0))
        layers["scoring.server_share"] = server_share
        out.layers = layers
