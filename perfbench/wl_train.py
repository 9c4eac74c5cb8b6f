"""``train``: the criterion-5 training run, closed loop, then one pass@k eval.

Each outer step starts when the previous one ends.  Step boundaries are the
policy's ``snapshot`` calls, which ``train`` makes once per step.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from time import perf_counter

import numpy as np

from common import Outcome, own_peak_rss_mb, tail
from layers import Aggregate
from speed import Gauge

STEPS_PER_SECOND = 8      # about 130 ms a step on the 2-core reference box
SETUP_REPEATS = 3
EVAL_SAMPLES = 512
TARGET_PASS1_MAX = 0.10
LEARNING_RATE = 4.0


def _digest(result) -> str:
    """sha256 of the metrics rows and final logits, for bit-identity checks."""
    h = hashlib.sha256()
    for row in result.metrics:
        h.update(repr((row.step, *(float(v).hex() for v in (
            row.mean_reward, row.mean_trans_length, row.mean_entropy, row.pass1_eval)))).encode())
    h.update(np.ascontiguousarray(result.policy.logits).tobytes())
    return h.hexdigest()


class _Run:
    """Set-up and training of one seed, with the hooks that time and check it."""

    def __init__(self, entrl, seed: int, out: Outcome):
        self.e, self.seed, self.out = entrl, seed, out
        self.reward_cfg = entrl.toy_reward_config()
        self.optim_cfg = entrl.OptimConfig(learning_rate=LEARNING_RATE)
        alpha = self.reward_cfg.alpha
        self.allowed = {0.0, alpha, alpha + 1}
        self.gauge = Gauge()

    def setup(self) -> tuple[float, float]:
        """gen_lexicon + init_activation_prior, timed.

        Returns the median time, raw and at the reference machine speed.
        """
        times, scaled, digests, prior = [], [], set(), None
        for _ in range(SETUP_REPEATS):
            self.out.attempted += 1
            self.gauge.sample(4)
            t0 = perf_counter()
            try:
                lexicon = self.e.gen_lexicon(seed=self.seed)
                prior = self.e.init_activation_prior(
                    lexicon, self.e.PolicyConfig(), target_pass1_max=TARGET_PASS1_MAX, seed=self.seed)
            except RuntimeError:
                self.out.failed += 1
                self.out.check("activation prior reached", False)
                continue
            t1 = perf_counter()
            times.append(t1 - t0)
            scaled.append(self.gauge.scale(t1 - t0, t0, t1, k=4))
            digests.add(hashlib.sha256(prior.logits.tobytes()).hexdigest())
        self.out.check("set-up is deterministic", len(digests) <= 1)
        if prior is None:
            raise RuntimeError("init_activation_prior failed on every set-up")
        self.lexicon, self.prior = lexicon, prior
        return statistics.median(times), statistics.median(scaled)

    def train(self, steps: int):
        """Train a fresh copy of the prior.

        Returns the result, each step's start and duration (s), and the wall
        time of the loop.  The speed probe runs at each step boundary,
        outside both.
        """
        e = self.e
        policy = e.ToyPolicy(self.lexicon, self.prior.logits.copy(), self.prior.temperature)
        starts, ends, probing = [], [], []
        snapshot = policy.snapshot

        def timed_snapshot():
            ends.append(perf_counter())
            probing.append(self.gauge.sample())
            starts.append(perf_counter())
            snapshot()

        policy.snapshot = timed_snapshot
        bad_steps = []
        update = e.toytask.policy_update_step

        def checked_update(pol, groups, config, rng=None):
            rewards = {m.reward for g in groups for m in g.members}
            bad_steps.append(not rewards <= self.allowed)
            return update(pol, groups, config, rng=rng)

        e.toytask.policy_update_step = checked_update
        try:
            t0 = perf_counter()
            result = e.train(self.lexicon, policy, self.reward_cfg, self.optim_cfg,
                             steps=steps, ablation="full", seed=self.seed)
            ends.append(perf_counter())
        finally:
            e.toytask.policy_update_step = update
        self._check(result, steps, starts, bad_steps)
        step_s = np.asarray(ends[1:]) - np.asarray(starts)
        return result, np.asarray(starts), step_s, ends[-1] - t0 - sum(probing)

    def _check(self, result, steps, starts, bad_steps) -> None:
        out = self.out
        out.check("one snapshot per step", len(starts) == steps)
        out.check("one metrics row per step", len(result.metrics) == steps)
        out.check("every reward in {0, alpha, 1+alpha}", not any(bad_steps))
        bad_rows = [r for r in result.metrics if not (
            all(math.isfinite(v) for v in (r.mean_reward, r.mean_trans_length, r.mean_entropy))
            and 0.0 <= r.pass1_eval <= 1.0)]
        out.check("metrics rows finite", not bad_rows)
        out.check("final logits finite", bool(np.isfinite(result.policy.logits).all()))
        out.attempted += steps
        out.failed += max(sum(bad_steps), len(bad_rows), steps - len(result.metrics))

    def evaluate(self, policy):
        """One measure_pass_at_k on the train split; returns (pass@1, rollouts/s)."""
        self.out.attempted += 1
        ids = self.lexicon.train_ids
        self.gauge.sample(4)
        t0 = perf_counter()
        curve, counts = self.e.measure_pass_at_k(policy, ids, n=EVAL_SAMPLES, ks=(1,), seed=self.seed)
        wall = perf_counter() - t0
        pass1 = curve.estimates[0]
        ok = self.out.check("eval pass@1 in [0, 1] with one count per entity",
                            0.0 <= pass1 <= 1.0 and len(counts) == len(ids))
        self.out.failed += not ok
        return pass1, EVAL_SAMPLES * len(ids) / wall


def run(ctx, out: Outcome) -> None:
    import entrl

    steps = max(2, round(STEPS_PER_SECOND * ctx.seconds))
    run_ = _Run(entrl, ctx.seed, out)
    cfg, pcfg = run_.optim_cfg, entrl.PolicyConfig()
    batch = cfg.mini_batch_size * cfg.updates_per_batch
    out.params.update({
        "lexicon": "gen_lexicon defaults (20 entities, vocab 48)",
        "target_pass1_max": TARGET_PASS1_MAX, "learning_rate": LEARNING_RATE,
        "B_prompts": batch, "G": cfg.group_size, "max_len": pcfg.max_len, "ablation": "full",
        "steps": steps if not ctx.trace else 2 * max(2, steps // 2),
        "eval_samples_per_entity": EVAL_SAMPLES, "setup_repeats": SETUP_REPEATS,
        "loop": "closed: each step starts when the previous one ends",
    })
    if ctx.trace:
        _traced(ctx, out, run_, steps)
        return

    setup_s, setup_scaled = run_.setup()
    result, starts, step_s, wall = run_.train(steps)
    pass1, eval_rps = run_.evaluate(result.policy)
    out.params["metrics_logits_sha256"] = _digest(result)
    step_ms = 1e3 * step_s
    out.stat("train_step_ms_p50", np.median(step_ms), "ms", f"{len(step_ms)} steps")
    pct, value, beyond = tail(step_ms)
    out.stat(f"train_step_ms_p{pct:g}", value, "ms", f"{beyond} steps beyond")
    out.stat("train_rollouts_per_s", steps * batch * cfg.group_size / wall, "1/s",
             f"{steps} steps x {batch} prompts x {cfg.group_size}")
    out.stat("eval_rollouts_per_s", eval_rps, "1/s", f"{EVAL_SAMPLES} samples x {len(run_.lexicon.train_ids)} entities")
    out.stat("train_final_pass1", pass1, "share", "deterministic for a seed")
    out.stat("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}")
    rss = out.stat("peak_rss_mb", own_peak_rss_mb(), "MB", "this process")
    gauge = run_.gauge
    out.stat("machine_slowdown", gauge.slowdown, "x", f"median of {len(gauge.samples)} speed probes")
    scaled = np.array([gauge.scale(d, t0, t0 + d) for t0, d in zip(starts, step_s)])
    out.e2e.update({"setup_s": setup_scaled, "latency_ms_p50": 1e3 * np.median(scaled),
                    "throughput_per_s": steps * batch * cfg.group_size / scaled.sum(),
                    "peak_rss_mb": rss})


def _traced(ctx, out: Outcome, run_: _Run, steps: int) -> None:
    """Half the steps untraced, then the same steps traced, from one prior."""
    tracer = ctx.tracer
    tracer.install()
    run_.setup()
    tracer.uninstall()
    half = max(2, steps // 2)
    plain, plain_starts, plain_s, _ = run_.train(half)
    tracer.install()
    traced, starts, traced_s, _ = run_.train(half)
    run_.evaluate(traced.policy)
    tracer.uninstall()
    out.check("traced run reproduces the untraced digest", _digest(plain) == _digest(traced))
    out.params["metrics_logits_sha256"] = _digest(traced)

    sp = tracer.spans()
    agg = Aggregate()
    agg.add(tracer.names, sp, tracer.counters)
    layers = agg.metrics()
    layers.update(_step_split(tracer.names, sp, starts, traced_s))
    layers.update(_clip_passes(tracer.names, sp))
    out.stat("train_step_ms_p50 untraced", 1e3 * np.median(plain_s), "ms", f"{half} steps")
    out.stat("train_step_ms_p50 traced", 1e3 * np.median(traced_s), "ms", f"{half} steps")
    # The two halves run seconds apart, so compare them at the reference speed.
    p50_plain, p50_traced = (1e3 * np.median([run_.gauge.scale(d, t0, t0 + d) for t0, d in zip(t, s)])
                             for t, s in ((plain_starts, plain_s), (starts, traced_s)))
    layers["trace.overhead_ms"] = p50_traced - p50_plain
    layers["trace.overhead_share"] = (p50_traced - p50_plain) / p50_plain
    out.layers = layers
    tracer.dump(ctx.spans_path)


def _step_split(names: list, sp: dict, starts: np.ndarray, step_s: np.ndarray) -> dict:
    """Mean time per traced step in sampling, scoring, update and the rest."""
    nid = {n: i for i, n in enumerate(names)}
    train_span = np.flatnonzero(sp["name"] == nid["toytask.train"])[-1]
    kids = np.flatnonzero(sp["parent"] == train_span)
    k = len(starts)
    step = np.searchsorted(starts, sp["start"][kids], side="right") - 1
    inside = (step >= 0) & (sp["start"][kids] < starts[np.clip(step, 0, k - 1)] + step_s[np.clip(step, 0, k - 1)])
    kids, step = kids[inside], step[inside]
    groups = {
        "sample": ("toytask.sample_rollout",),
        "score": ("toytask.render_response", "reward.score_response", "textnorm.normalize"),
        "update": ("optim.policy_update_step",),
    }
    out = {"train.step_ms": 1e3 * step_s.mean()}
    rest = step_s.copy()
    for key, members in groups.items():
        sel = np.isin(sp["name"][kids], [nid[m] for m in members])
        sums = np.bincount(step[sel], weights=sp["dur"][kids[sel]], minlength=k)
        rest -= sums
        out[f"train.{key}_ms"] = 1e3 * sums.mean()
    out["train.other_ms"] = 1e3 * rest.mean()
    return out


def _clip_passes(names: list, sp: dict, passes: int = 4) -> dict:
    """Clipped share per update pass and the time spent after the last pass.

    Inside ``policy_update_step`` the passes are split at ``apply_gradient``.
    A member's ``token_logps`` call in a pass with no matching
    ``accumulate_score_grad`` call is a clipped, zero-gradient member; the
    ``token_logps`` calls after the last pass re-evaluate every member.
    """
    nid = {n: i for i, n in enumerate(names)}
    apply_id = nid["toytask.ToyPolicy.apply_gradient"]
    logps_id = nid["toytask.ToyPolicy.token_logps"]
    grad_id = nid["toytask.ToyPolicy.accumulate_score_grad"]
    updates = np.flatnonzero(sp["name"] == nid["optim.policy_update_step"])
    kids = np.flatnonzero(np.isin(sp["parent"], updates))
    logps, grads, post = np.zeros(passes), np.zeros(passes), []
    for upd in updates:
        mine = kids[sp["parent"][kids] == upd]
        mine = mine[np.argsort(sp["start"][mine])]
        name = sp["name"][mine]
        is_apply = name == apply_id
        if not is_apply.any():
            continue
        pass_no = np.cumsum(is_apply) - is_apply
        for p in range(min(passes, int(is_apply.sum()))):
            logps[p] += np.sum((pass_no == p) & (name == logps_id))
            grads[p] += np.sum((pass_no == p) & (name == grad_id))
        post.append(sp["end"][upd] - sp["end"][mine[is_apply][-1]])
    out = {"optim.clipped_share": 1.0 - grads.sum() / logps.sum() if logps.sum() else 0.0,
           "optim.post_update_eval_ms": 1e3 * float(np.mean(post)) if post else 0.0}
    for p in range(passes):
        out[f"optim.clipped_share.pass{p + 1}"] = 1.0 - grads[p] / logps[p] if logps[p] else 0.0
    return out
