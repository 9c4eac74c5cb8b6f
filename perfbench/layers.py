"""The benchmark's metric catalogue and the per-layer figures of a traced run."""

from __future__ import annotations

import numpy as np

from corpus import ERROR_KINDS

# End-to-end metrics.  Every workload reports each one; what it measures on
# each workload is listed in DESIGN.md.  The bound is the share of the
# parent's median by which a metric may worsen before a change is a
# regression.  Wall-clock figures get the largest bound allowed because the
# shared 2-core VM they are measured on drifts in speed by 15-30% over
# seconds to minutes; memory does not drift.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Layers reported as a call count and a mean self time per call.
CALL_LAYERS = (
    "textnorm.normalize",
    "textnorm.match_entity",
    "textnorm.GoldEntitySet",
    "reward.parse_segments",
    "reward.score_response",
    "reward.compute_reward",
    "toytask.sample_rollout",
    "toytask.render_response",
    "toytask.ToyPolicy.token_logps",
    "toytask.ToyPolicy.accumulate_score_grad",
    "toytask.measure_pass_at_k",
    "optim.group_advantages",
    "evalkit.pass_at_k_curve",
    "scoring.decode_line",
    "scoring.score_record",
    "scoring.score_lines",
)

PER_LAYER = (
    *((f"{layer}.{suffix}", unit, "lower")
      for layer in CALL_LAYERS for suffix, unit in (("calls", "count"), ("self_us", "us"))),
    ("textnorm.normalize.chars_per_call", "chars", "lower"),
    ("reward.fmt_fail_share", "share", "lower"),
    ("reward.len_fail_share", "share", "lower"),
    ("reward.match_share", "share", "higher"),
    ("toytask.tokens_per_rollout", "tokens", "lower"),
    ("toytask.truncated_share", "share", "lower"),
    ("toytask.prior_attempts", "count", "lower"),
    ("train.step_ms", "ms", "lower"),
    ("train.sample_ms", "ms", "lower"),
    ("train.score_ms", "ms", "lower"),
    ("train.update_ms", "ms", "lower"),
    ("train.other_ms", "ms", "lower"),
    ("optim.policy_update_step.ms", "ms", "lower"),
    ("optim.zero_adv_group_share", "share", "lower"),
    ("optim.clipped_share", "share", "lower"),
    *((f"optim.clipped_share.pass{p}", "share", "lower") for p in range(1, 5)),
    ("optim.post_update_eval_ms", "ms", "lower"),
    ("scoring.error_replies", "count", "lower"),
    *((f"scoring.error_replies.{kind}", "count", "lower") for kind in ERROR_KINDS),
    ("scoring.server_share", "share", "lower"),
    ("cli.io_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Aggregate:
    """Per-name call counts, self and total time, and counters, summed over
    any number of span sets (one per process or phase)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.dur_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.prior_evals = 0

    def add(self, names: list, sp: dict, counters: dict) -> None:
        k = len(names)
        calls = np.bincount(sp["name"], minlength=k)
        self_s = np.bincount(sp["name"], weights=sp["self"], minlength=k)
        dur_s = np.bincount(sp["name"], weights=sp["dur"], minlength=k)
        for nid, name in enumerate(names):
            self.calls[name] = self.calls.get(name, 0) + int(calls[nid])
            self.self_s[name] = self.self_s.get(name, 0.0) + float(self_s[nid])
            self.dur_s[name] = self.dur_s.get(name, 0.0) + float(dur_s[nid])
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + value
        # Monte Carlo checks made while constructing the activation prior.
        if "toytask.measure_pass_at_k" in names and "toytask.init_activation_prior" in names:
            mp = names.index("toytask.measure_pass_at_k")
            init = names.index("toytask.init_activation_prior")
            has_parent = (sp["name"] == mp) & (sp["parent"] >= 0)
            self.prior_evals += int(np.sum(sp["name"][sp["parent"][has_parent]] == init))

    def metrics(self) -> dict:
        """Figures computable from the aggregate alone; the rest default to 0."""
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        for layer in CALL_LAYERS:
            calls = self.calls.get(layer, 0)
            out[f"{layer}.calls"] = float(calls)
            out[f"{layer}.self_us"] = 1e6 * _ratio(self.self_s.get(layer, 0.0), calls)
        c = self.counters
        out["textnorm.normalize.chars_per_call"] = _ratio(
            c.get("textnorm.normalize.chars", 0), self.calls.get("textnorm.normalize", 0))
        outcomes = c.get("reward.outcomes", 0)
        out["reward.fmt_fail_share"] = _ratio(c.get("reward.fmt_fail", 0), outcomes)
        out["reward.len_fail_share"] = _ratio(c.get("reward.len_fail", 0), outcomes)
        out["reward.match_share"] = _ratio(c.get("reward.match", 0), outcomes)
        rollouts = self.calls.get("toytask.sample_rollout", 0)
        out["toytask.tokens_per_rollout"] = _ratio(c.get("toytask.tokens", 0), rollouts)
        out["toytask.truncated_share"] = _ratio(c.get("toytask.truncated", 0), rollouts)
        out["toytask.prior_attempts"] = _ratio(
            self.prior_evals, self.calls.get("toytask.init_activation_prior", 0))
        out["optim.policy_update_step.ms"] = 1e3 * _ratio(
            self.dur_s.get("optim.policy_update_step", 0.0), self.calls.get("optim.policy_update_step", 0))
        out["optim.zero_adv_group_share"] = _ratio(
            c.get("optim.zero_adv_groups", 0), c.get("optim.groups", 0))
        return out
