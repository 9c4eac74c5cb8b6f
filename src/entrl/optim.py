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
- ``state_rows(states)``: the live rows of those states, computed once per
  update pass (and once per objective).  The result's ``logps(tokens)``
  gives the live log-probabilities, and ``rows[keep]`` selects the rows of
  a subset of the tokens, for the gradient;
- ``new_grad()`` and ``accumulate_score_grad(rows, tokens, coeffs, grad)``, which
  fills a fresh ``new_grad()`` with the sum of ``coeffs[i]`` times row ``i``'s score
  gradient, in row order.  The gradient holds only the distinct states of ``rows``;
  every other parameter's gradient is zero;
- ``apply_gradient(grad, learning_rate)``, which adds ``learning_rate`` times the
  gradient to the live parameters, with the bytes of adding it as a dense array.

The clip band is asymmetric and deliberately tight; once a term is clipped
it is constant in the parameters and contributes zero gradient, so later
passes over the same batch cannot push a sequence further.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .evalkit import _check_int, _check_real

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


# Rollouts in one sampled batch: a train step's group_size x mini_batch_size x updates_per_batch, or
# measure_pass_at_k's n per entity, at ~2.4 KB each in flight (tracemalloc, default max_len of 24).
MAX_BATCH_ROLLOUTS = 2**18

# A group whose reward std is below this gets all-zero advantages.
STD_FLOOR = 1e-6

# Cells of one padded block in _row_sums (~17 MB with its index and mask): one long row must not
# pad every short one to its length.
ROW_SUM_CELLS = 2**20


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

    def __post_init__(self) -> None:
        for name, minimum in (("group_size", 2), ("mini_batch_size", 1), ("updates_per_batch", 1)):
            _check_int(name, getattr(self, name), minimum)
        for name in ("eps_low", "eps_high"):
            _check_real(name, getattr(self, name), (0.0, 1.0))
        _check_real("learning_rate", self.learning_rate, (0.0, np.inf), closed_low=True)
        if (n := self.group_size * self.mini_batch_size * self.updates_per_batch) > MAX_BATCH_ROLLOUTS:
            raise ValueError(f"group_size x mini_batch_size x updates_per_batch = {self.group_size} x "
                             f"{self.mini_batch_size} x {self.updates_per_batch} = {n:,} rollouts per step "
                             f"exceeds MAX_BATCH_ROLLOUTS = {MAX_BATCH_ROLLOUTS:,}")


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


def group_advantages(rewards) -> np.ndarray:
    """Normalize a group's rewards to zero mean and unit population std.

    Uses the population standard deviation (divide by G).  A degenerate
    group, std below ``STD_FLOOR``, yields all-zero advantages: identical
    rewards carry no preference signal and are skipped rather than amplified.
    A 2-d array holds one group of equal size per row, and each row gets the
    bytes of its own 1-d call.
    """
    r = np.asarray(rewards, dtype=float)
    if r.ndim not in (1, 2):
        raise ValueError(f"rewards must be 1-d, or 2-d with one group per row, got shape {r.shape}")
    if r.shape[-1] < 2:
        raise ValueError(f"need at least 2 rewards to normalize, got {r.shape[-1]}")
    dev = r - r.mean(axis=-1, keepdims=True)
    # np.std's own arithmetic, reusing the deviations.
    std = np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / r.shape[-1])
    return np.divide(dev, std, out=np.zeros_like(r), where=~(std < STD_FLOOR))


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


def _check_groups(policy, groups: list[RolloutGroup]) -> _Batch:
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
    token_seqs = [m.tokens for m in members]
    lengths = np.fromiter(map(len, token_seqs), np.intp, len(members))
    if not lengths.all():
        raise ValueError("empty token sequence")
    old_logps = [m.old_logp for m in members]
    shapes = list(map(np.shape, old_logps))
    if shapes != list(zip(lengths.tolist())):
        bad = next(i for i, shape in enumerate(shapes) if shape != (lengths[i],))
        raise ValueError(f"old_logp shape {shapes[bad]} != ({lengths[bad]},)")
    old_logp = np.concatenate(old_logps).astype(float, copy=False)
    if np.any(old_logp > 0.0):
        raise ValueError("log-probabilities must be <= 0")

    tokens = np.fromiter(itertools.chain.from_iterable(token_seqs), dtype=np.intp, count=int(lengths.sum()))
    states = policy.token_states([grp.prompt_id for grp in groups for _ in grp.members],
                                 tokens, lengths)

    group_sizes = np.array([len(grp.members) for grp in groups])
    group_starts = np.concatenate(([0], np.cumsum(group_sizes)))
    advantages = np.empty(len(members))
    for size in sorted(set(group_sizes.tolist())):  # one call for equal-size groups
        idx = group_starts[:-1][group_sizes == size, None] + np.arange(size)
        advantages[idx] = group_advantages(rewards[idx])
    return _Batch(
        states=states, tokens=tokens, old_logp=old_logp,
        starts=np.cumsum(lengths) - lengths, lengths=lengths, advantages=advantages,
        group_size=np.repeat(group_sizes, group_sizes), group_starts=group_starts,
    )


def _row_sums(flat: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``np.add.reduce`` of each row ``flat[starts[i]:starts[i] + lengths[i]]``, byte for byte as on
    that row alone, infinities and NaNs included.

    The rows are padded into one block, and a masked reduce hands each row's cells to numpy's own
    summation in one run.  A block past ``ROW_SUM_CELLS`` cells is split by each row's bit length,
    so padding at most doubles a row."""
    out = np.empty(len(lengths))
    if len(lengths) * int(lengths.max(initial=0)) <= ROW_SUM_CELLS:
        groups = [slice(None)]
    else:
        bits = np.frexp(lengths)[1]
        groups = [bits == b for b in set(bits.tolist())]
    for rows in groups:
        n = lengths[rows]
        cols = np.arange(n.max(initial=0))
        inside = cols < n[:, None]
        block = flat[np.where(inside, starts[rows, None] + cols, 0)]
        out[rows] = np.add.reduce(block, axis=1, where=inside, initial=0.0)
    return out


def _live_ratios(policy, batch: _Batch, rollouts: np.ndarray):
    """Sequence ratios of ``rollouts`` under the live policy, the indices of
    their tokens in rollout order, and those tokens' live rows."""
    lengths = batch.lengths[rollouts]
    tok = _segments(batch.starts[rollouts], lengths)
    rows = policy.state_rows(batch.states[tok])
    diffs = rows.logps(batch.tokens[tok]) - batch.old_logp[tok]
    # seq_importance_ratio's arithmetic: the mean is the row's sum over its length.
    return np.exp(_row_sums(diffs, np.cumsum(lengths) - lengths, lengths) / lengths), tok, rows


def surrogate_objective(policy, groups: list[RolloutGroup], config: OptimConfig) -> float:
    """Mean over groups of the per-group mean clipped term.

    Ratios use the policy's live log-probabilities.  At unchanged
    parameters all ratios are 1 and the objective is exactly the mean
    advantage, i.e. 0 for full groups.
    """
    batch = _check_groups(policy, groups)
    ratios = _live_ratios(policy, batch, np.arange(len(batch.lengths)))[0]
    terms = clipped_term(ratios, batch.advantages, config.eps_low, config.eps_high)
    group_sums = np.add.reduceat(terms, batch.group_starts[:-1])
    return float(np.mean(group_sums / np.diff(batch.group_starts)))


def policy_update_step(policy, groups: list[RolloutGroup], config: OptimConfig, rng: np.random.Generator) -> None:
    """Run one outer optimization step over a batch of groups.

    The groups are shuffled by ``rng`` and split into ``config.updates_per_batch``
    mini-batches; each mini-batch takes one gradient-ascent step on the
    clipped surrogate.  The gradient of an unclipped-active term is

        A_i * s_i * (1/|y_i|) * sum_t grad log pi(y_t | state_t)

    and a clipped-active term contributes nothing.  Each mini-batch's
    rollouts are handled as whole arrays; gradient rows are added in
    mini-batch, member and token order.

    Only the policy's live parameters change.  Raises if any group was
    sampled under a different policy snapshot.
    """
    batch = _check_groups(policy, groups)
    order = rng.permutation(len(groups))
    for chunk in np.array_split(order, config.updates_per_batch):
        if chunk.size == 0:
            continue
        grad = policy.new_grad()
        rollouts = _segments(batch.group_starts[chunk], np.diff(batch.group_starts)[chunk])
        rollouts = rollouts[batch.advantages[rollouts] != 0.0]
        ratios, tok, rows = _live_ratios(policy, batch, rollouts)
        adv, lengths = batch.advantages[rollouts], batch.lengths[rollouts]
        active = clipped_term(ratios, adv, config.eps_low, config.eps_high) == ratios * adv
        coeffs = adv * ratios / (lengths * batch.group_size[rollouts] * chunk.size)
        keep = np.repeat(active, lengths)
        policy.accumulate_score_grad(rows[keep], batch.tokens[tok[keep]],
                                     np.repeat(coeffs[active], lengths[active]), grad)
        policy.apply_gradient(grad, config.learning_rate)
