"""Critic-free policy optimization on grouped rollouts.

For each prompt a group of G rollouts is scored.  Both entry points
validate the groups once and turn each group's rewards into advantages
with ``group_advantages`` (population statistics, no learned baseline).
Each rollout contributes through a sequence-level, length-normalized
importance ratio

    s_i = exp( (1/|y_i|) * sum_t (new_logp_t - old_logp_t) )

and the objective is the clipped surrogate

    J = mean_groups (1/G) sum_i min( s_i * A_i,  clip(s_i, 1-eps_low, 1+eps_high) * A_i ).

``old_logp`` is recorded under the snapshot that sampled the rollout and
stored on its ``GroupMember``; ``new_logp`` is computed from the live policy
whenever a ratio is needed, so both the objective and the update are pure
functions of (policy, groups) and no group carries state between passes.

The clip band is asymmetric and deliberately tight; once a term is clipped
it is constant in the parameters and contributes zero gradient, so later
passes over the same batch cannot push a sequence further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OptimConfig",
    "GroupMember",
    "RolloutGroup",
    "group_advantages",
    "seq_importance_ratio",
    "clipped_term",
    "surrogate_objective",
    "policy_update_step",
]


@dataclass(frozen=True)
class OptimConfig:
    """Optimization constants.

    ``group_size`` is G, the rollouts per prompt.  ``mini_batch_size`` times
    ``updates_per_batch`` prompts form one outer-step batch, replayed as
    ``updates_per_batch`` shuffled mini-batch passes.  ``learning_rate`` may
    be 0, which makes updates a no-op.
    """

    group_size: int = 16
    eps_low: float = 3e-4
    eps_high: float = 4e-4
    learning_rate: float = 0.05
    mini_batch_size: int = 8
    updates_per_batch: int = 4
    std_floor: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("group_size", "mini_batch_size", "updates_per_batch"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {self.group_size}")
        for name in ("eps_low", "eps_high", "learning_rate", "std_floor"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a real number, not a boolean")
        for name in ("eps_low", "eps_high"):
            eps = getattr(self, name)
            if not 0.0 < eps < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {eps}")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.mini_batch_size < 1 or self.updates_per_batch < 1:
            raise ValueError("mini_batch_size and updates_per_batch must be >= 1")
        if not 0.0 < self.std_floor < np.inf:
            raise ValueError(f"std_floor must be finite and positive, got {self.std_floor}")


@dataclass(frozen=True)
class GroupMember:
    """One rollout: its tokens, their log-probs under the sampling snapshot,
    and its scalar reward."""

    tokens: tuple[int, ...]
    old_logp: np.ndarray
    reward: float


@dataclass(frozen=True)
class RolloutGroup:
    """G rollouts for one prompt and the policy snapshot that sampled them.

    ``snapshot_version`` lets the optimizer reject stale rollouts.
    """

    prompt_id: str
    members: list[GroupMember]
    snapshot_version: int


def group_advantages(rewards, std_floor: float = 1e-6) -> np.ndarray:
    """Normalize a group's rewards to zero mean and unit population std.

    Uses the population standard deviation (divide by G).  A degenerate
    group, std below ``std_floor``, yields all-zero advantages: identical
    rewards carry no preference signal and are skipped rather than amplified.
    """
    r = np.asarray(rewards, dtype=float)
    if r.ndim != 1:
        raise ValueError(f"rewards must be 1-d, got shape {r.shape}")
    if r.size < 2:
        raise ValueError(f"need at least 2 rewards to normalize, got {r.size}")
    std = float(r.std())
    if std < std_floor:
        return np.zeros_like(r)
    return (r - r.mean()) / std


def seq_importance_ratio(new_logp: np.ndarray, old_logp: np.ndarray) -> float:
    """Length-normalized sequence ratio exp(mean(new_logp - old_logp)).

    Working in log space first keeps long sequences from under/overflowing;
    the 1/|y| normalization makes the ratio comparable across lengths.
    Identical log-probs give exactly 1.0.
    """
    return float(np.exp(np.mean(new_logp - old_logp)))


def clipped_term(s: float, advantage: float, eps_low: float, eps_high: float) -> float:
    """One rollout's surrogate term min(s*A, clip(s, 1-eps_low, 1+eps_high)*A).

    The result equals ``s * advantage`` exactly when the unclipped branch is
    selected, i.e. when the term still carries gradient.
    """
    clipped_s = min(max(s, 1.0 - eps_low), 1.0 + eps_high)
    return min(s * advantage, clipped_s * advantage)


def _check_groups(policy, groups: list[RolloutGroup], config: OptimConfig) -> list[np.ndarray]:
    """Validate every group and member, then return each group's advantages."""
    if not groups:
        raise ValueError("no groups")
    for grp in groups:
        if not grp.members:
            raise ValueError(f"group {grp.prompt_id!r} has no members")
        if grp.snapshot_version != policy.snapshot_version:
            raise ValueError(
                f"stale rollouts: group {grp.prompt_id!r} sampled under snapshot "
                f"{grp.snapshot_version}, policy is at {policy.snapshot_version}"
            )
        for member in grp.members:
            if not math.isfinite(member.reward):
                raise ValueError(f"reward must be finite, got {member.reward!r}")
            if not member.tokens:
                raise ValueError("empty token sequence")
            if np.shape(member.old_logp) != (len(member.tokens),):
                raise ValueError(
                    f"old_logp shape {np.shape(member.old_logp)} != ({len(member.tokens)},)"
                )
            if np.any(np.greater(member.old_logp, 0.0)):
                raise ValueError("log-probabilities must be <= 0")
    return [group_advantages([m.reward for m in grp.members], config.std_floor) for grp in groups]


def surrogate_objective(policy, groups: list[RolloutGroup], config: OptimConfig) -> float:
    """Mean over groups of the per-group mean clipped term.

    Ratios use the policy's live log-probabilities.  At unchanged
    parameters all ratios are 1 and the objective is exactly the mean
    advantage, i.e. 0 for full groups.
    """
    total = 0.0
    for grp, advantages in zip(groups, _check_groups(policy, groups, config)):
        acc = 0.0
        for member, adv in zip(grp.members, advantages):
            new_logp = policy.token_logps(grp.prompt_id, member.tokens)
            s = seq_importance_ratio(new_logp, member.old_logp)
            acc += clipped_term(s, float(adv), config.eps_low, config.eps_high)
        total += acc / len(grp.members)
    return total / len(groups)


def policy_update_step(
    policy,
    groups: list[RolloutGroup],
    config: OptimConfig,
    rng: np.random.Generator | None = None,
) -> None:
    """Run one outer optimization step over a batch of groups.

    The groups are shuffled and split into ``config.updates_per_batch``
    mini-batches; each mini-batch takes one gradient-ascent step on the
    clipped surrogate.  The gradient of an unclipped-active term is

        A_i * s_i * (1/|y_i|) * sum_t grad log pi(y_t | state_t)

    and a clipped-active term contributes nothing.  ``policy`` must expose
    ``snapshot_version``, ``token_logps(prompt_id, tokens)``, ``new_grad()``,
    ``accumulate_score_grad(prompt_id, tokens, coeff, grad)`` and
    ``apply_gradient(grad, learning_rate)``.

    Only the policy's live parameters change.  Raises if any group was
    sampled under a different policy snapshot.
    """
    advantages = _check_groups(policy, groups, config)
    if rng is None:
        rng = np.random.default_rng(0)

    order = rng.permutation(len(groups))
    for chunk in np.array_split(order, config.updates_per_batch):
        if chunk.size == 0:
            continue
        grad = policy.new_grad()
        for idx in chunk:
            grp = groups[int(idx)]
            for member, adv in zip(grp.members, advantages[int(idx)]):
                adv = float(adv)
                if adv == 0.0:
                    continue
                new_logp = policy.token_logps(grp.prompt_id, member.tokens)
                s = seq_importance_ratio(new_logp, member.old_logp)
                if clipped_term(s, adv, config.eps_low, config.eps_high) == s * adv:
                    coeff = adv * s / (len(member.tokens) * len(grp.members) * chunk.size)
                    policy.accumulate_score_grad(grp.prompt_id, member.tokens, coeff, grad)
        policy.apply_gradient(grad, config.learning_rate)
