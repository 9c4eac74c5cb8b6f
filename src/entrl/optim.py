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

Both entry points flatten the groups once into per-token and per-rollout
arrays and work on whole arrays from there.  The policy they are given must
expose ``snapshot_version`` and these methods, where ``states``, ``tokens``
and ``coeffs`` hold one entry per token:

- ``token_states(prompt_ids, tokens, lengths)``: the state each token of
  the concatenated sequences is drawn from, given each sequence's prompt
  and length;
- ``state_logps(states, tokens)``: live log-probabilities;
- ``new_grad()`` and ``accumulate_score_grad(states, tokens, coeffs, grad)``,
  which adds ``coeffs[i]`` times the score gradient of row ``i``, in order;
- ``apply_gradient(grad, learning_rate)``.

The clip band is asymmetric and deliberately tight; once a term is clipped
it is constant in the parameters and contributes zero gradient, so later
passes over the same batch cannot push a sequence further.
"""

from __future__ import annotations

import itertools
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


def seq_importance_ratio(new_logp, old_logp):
    """Length-normalized sequence ratio exp(mean(new_logp - old_logp)).

    Working in log space first keeps long sequences from under/overflowing;
    the 1/|y| normalization makes the ratio comparable across lengths.
    Identical log-probs give exactly 1.0.  The mean runs over the last
    axis, so ``(n, L)`` arrays give the ratios of ``n`` sequences of length
    ``L``, each equal bit for bit to its own 1-d call.
    """
    return np.exp(np.mean(np.subtract(new_logp, old_logp), axis=-1))


def clipped_term(s, advantage, eps_low: float, eps_high: float):
    """One rollout's surrogate term min(s*A, clip(s, 1-eps_low, 1+eps_high)*A),
    elementwise over arrays.

    The result equals ``s * advantage`` exactly when the unclipped branch is
    selected, i.e. when the term still carries gradient.
    """
    clipped_s = np.minimum(np.maximum(s, 1.0 - eps_low), 1.0 + eps_high)
    return np.minimum(s * advantage, clipped_s * advantage)


@dataclass(frozen=True)
class _Batch:
    """Validated groups as flat arrays, rollouts in group then member order.

    Per token: the policy's ``states``, ``tokens`` and ``old_logp``.  Per
    rollout: the index of its first token, its length, its advantage and
    the size of its group.  ``group_starts`` holds each group's first
    rollout, then the rollout count.
    """

    states: np.ndarray
    tokens: np.ndarray
    old_logp: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    advantages: np.ndarray
    group_size: np.ndarray
    group_starts: np.ndarray


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the ranges ``[starts[i], starts[i] + lengths[i])``, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _check_groups(policy, groups: list[RolloutGroup], config: OptimConfig) -> _Batch:
    """Validate every group and member, then flatten them with each group's advantages.

    The policy's ``token_states`` checks the token ids.
    """
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
    members = [m for grp in groups for m in grp.members]
    rewards = np.array([m.reward for m in members], dtype=float)
    finite = np.isfinite(rewards)
    if not finite.all():
        raise ValueError(f"reward must be finite, got {members[int(np.argmin(finite))].reward!r}")
    lengths = np.array([len(m.tokens) for m in members])
    if not lengths.all():
        raise ValueError("empty token sequence")
    shapes = [np.shape(m.old_logp) for m in members]
    bad = next((i for i, shape in enumerate(shapes) if shape != (lengths[i],)), None)
    if bad is not None:
        raise ValueError(f"old_logp shape {shapes[bad]} != ({lengths[bad]},)")
    old_logp = np.concatenate([m.old_logp for m in members]).astype(float, copy=False)
    if np.any(old_logp > 0.0):
        raise ValueError("log-probabilities must be <= 0")

    tokens = np.fromiter(itertools.chain.from_iterable(m.tokens for m in members),
                         dtype=np.intp, count=int(lengths.sum()))
    states = policy.token_states([grp.prompt_id for grp in groups for _ in grp.members],
                                 tokens, lengths)

    group_sizes = np.array([len(grp.members) for grp in groups])
    group_starts = np.concatenate(([0], np.cumsum(group_sizes)))
    advantages = np.concatenate([
        group_advantages(rewards[a:b], config.std_floor)
        for a, b in zip(group_starts[:-1], group_starts[1:])
    ])
    return _Batch(
        states=states, tokens=tokens, old_logp=old_logp,
        starts=np.cumsum(lengths) - lengths, lengths=lengths, advantages=advantages,
        group_size=np.repeat(group_sizes, group_sizes), group_starts=group_starts,
    )


def _live_ratios(policy, batch: _Batch, rollouts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sequence ratios of ``rollouts`` under the live policy, and the indices
    of their tokens in rollout order."""
    lengths = batch.lengths[rollouts]
    tok = _segments(batch.starts[rollouts], lengths)
    new_logp = policy.state_logps(batch.states[tok], batch.tokens[tok])
    old_logp = batch.old_logp[tok]
    # One (n, L) block per exact length: a mean over padded rows would group
    # its partial sums differently from a length-L row.
    ratios = np.empty(len(rollouts))
    offsets = np.cumsum(lengths) - lengths
    for length in np.flatnonzero(np.bincount(lengths)):
        sel = np.flatnonzero(lengths == length)
        idx = offsets[sel, None] + np.arange(length)
        ratios[sel] = seq_importance_ratio(new_logp[idx], old_logp[idx])
    return ratios, tok


def surrogate_objective(policy, groups: list[RolloutGroup], config: OptimConfig) -> float:
    """Mean over groups of the per-group mean clipped term.

    Ratios use the policy's live log-probabilities.  At unchanged
    parameters all ratios are 1 and the objective is exactly the mean
    advantage, i.e. 0 for full groups.
    """
    batch = _check_groups(policy, groups, config)
    ratios, _ = _live_ratios(policy, batch, np.arange(len(batch.lengths)))
    terms = clipped_term(ratios, batch.advantages, config.eps_low, config.eps_high)
    group_sums = np.add.reduceat(terms, batch.group_starts[:-1])
    return float(np.mean(group_sums / np.diff(batch.group_starts)))


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

    and a clipped-active term contributes nothing.  Each mini-batch's
    rollouts are handled as whole arrays; gradient rows are added in
    mini-batch, member and token order.

    Only the policy's live parameters change.  Raises if any group was
    sampled under a different policy snapshot.
    """
    batch = _check_groups(policy, groups, config)
    if rng is None:
        rng = np.random.default_rng(0)

    order = rng.permutation(len(groups))
    for chunk in np.array_split(order, config.updates_per_batch):
        if chunk.size == 0:
            continue
        grad = policy.new_grad()
        rollouts = _segments(batch.group_starts[chunk], np.diff(batch.group_starts)[chunk])
        rollouts = rollouts[batch.advantages[rollouts] != 0.0]
        ratios, tok = _live_ratios(policy, batch, rollouts)
        adv, lengths = batch.advantages[rollouts], batch.lengths[rollouts]
        active = clipped_term(ratios, adv, config.eps_low, config.eps_high) == ratios * adv
        coeffs = adv * ratios / (lengths * batch.group_size[rollouts] * chunk.size)
        tok = tok[np.repeat(active, lengths)]
        policy.accumulate_score_grad(batch.states[tok], batch.tokens[tok],
                                     np.repeat(coeffs[active], lengths[active]), grad)
        policy.apply_gradient(grad, config.learning_rate)
