"""Finite-difference gradient oracle for the clipped surrogate.

Builds a small fixture (200-parameter policy, rollout groups sampled from
its snapshot, mixed clipped/unclipped members), extracts the analytic
gradient from one ``policy_update_step`` pass, and compares it against
central finite differences of the surrogate objective.

The perturbation leaves entity 1's parameter block untouched so its
members sit exactly at ratio 1 (unclipped, active gradient) while entity
0's members land well outside the clip band (zero gradient); the fixture
asserts every member keeps a safe margin to the clip boundaries so the
branch cannot flip inside the finite-difference stencil.
"""

import numpy as np

from entrl import (
    GroupMember,
    OptimConfig,
    RolloutGroup,
    gen_lexicon,
    policy_update_step,
    sample_rollout,
    seq_importance_ratio,
    surrogate_objective,
)
from entrl.toytask import ToyPolicy


def build_fixture(seed: int = 0, n_groups: int = 6, group_size: int = 4):
    """Policy (perturbed off its snapshot) plus scored rollout groups."""
    rng = np.random.default_rng(seed)
    lexicon = gen_lexicon(
        seed=seed, n_entities=2, aliases_per_entity=1,
        alias_len_range=(1, 2), vocab_size=10,
    )
    logits = rng.normal(0.0, 0.8, size=(2, 10, 10))
    policy = ToyPolicy(lexicon, logits)
    assert policy.n_params <= 200

    entity_ids = [e.entity_id for e in lexicon.entities]
    groups = []
    for g in range(n_groups):
        ent = entity_ids[g % len(entity_ids)]
        while True:
            rewards = rng.choice([0.0, 0.2, 1.2], size=group_size)
            if rewards.std() > 1e-6:
                break
        members = []
        for m, reward in enumerate(rewards):
            ro = sample_rollout(policy, ent, max_len=6, seed=(seed, g, m))
            members.append(GroupMember(ro.tokens, ro.old_logp, float(reward)))
        groups.append(RolloutGroup(ent, members, policy.snapshot_version))

    # Perturb entity 0 only; entity 1 members keep ratio exactly 1.
    delta = rng.normal(0.0, 0.05, size=policy.logits.shape)
    delta[1] = 0.0
    policy.logits = policy.logits + delta
    return policy, groups


def assert_clip_margins(policy, groups, config: OptimConfig, min_margin: float):
    """Every member must sit clear of both clip boundaries."""
    saw_clipped = saw_active = False
    for grp in groups:
        for member in grp.members:
            s = seq_importance_ratio(
                policy.token_logps(grp.prompt_id, member.tokens), member.old_logp
            )
            lo, hi = 1.0 - config.eps_low, 1.0 + config.eps_high
            margin = min(abs(s - lo), abs(s - hi))
            assert margin > min_margin, f"ratio {s} too close to clip boundary"
            if lo <= s <= hi:
                saw_active = True
            else:
                saw_clipped = True
    assert saw_active, "fixture has no unclipped members"
    assert saw_clipped, "fixture has no clipped members"


def objective_at(policy, groups, config: OptimConfig, flat_logits: np.ndarray) -> float:
    saved = policy.logits
    policy.logits = flat_logits.reshape(policy.logits.shape)
    try:
        return surrogate_objective(policy, groups, config)
    finally:
        policy.logits = saved


def analytic_gradient(policy, groups, config: OptimConfig) -> np.ndarray:
    """Gradient as the library computes it, read off a unit-rate update."""
    single_pass = OptimConfig(
        group_size=config.group_size,
        eps_low=config.eps_low,
        eps_high=config.eps_high,
        learning_rate=1.0,
        mini_batch_size=len(groups),
        updates_per_batch=1,
    )
    before = policy.logits.copy()
    policy_update_step(policy, groups, single_pass, rng=np.random.default_rng(0))
    grad = policy.logits - before
    policy.logits = before
    return grad


def fd_gradient(policy, groups, config: OptimConfig, h: float = 1e-5) -> np.ndarray:
    theta = policy.logits.copy().ravel()
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (
            objective_at(policy, groups, config, up)
            - objective_at(policy, groups, config, down)
        ) / (2 * h)
    return grad.reshape(policy.logits.shape)


def max_relative_error(analytic: np.ndarray, fd: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


if __name__ == "__main__":
    config = OptimConfig(group_size=4)
    policy, groups = build_fixture()
    assert_clip_margins(policy, groups, config, min_margin=1e-4)
    a = analytic_gradient(policy, groups, config)
    f = fd_gradient(policy, groups, config)
    print(f"params={policy.n_params} groups={len(groups)}")
    print(f"nonzero analytic entries: {int(np.count_nonzero(a))}")
    print(f"max relative error: {max_relative_error(a, f):.3e}")
