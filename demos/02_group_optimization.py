"""
Group-normalized advantages and the clipped sequence update
===========================================================

The optimizer never learns a value function.  It samples a group of G
responses per prompt, standardizes their rewards inside the group, and
applies a clipped surrogate step where each response's importance ratio is
the length-normalized product of per-token probability ratios.
"""

import numpy as np

from entrl import (
    GroupMember,
    OptimConfig,
    PolicyConfig,
    RolloutGroup,
    gen_lexicon,
    group_advantages,
    init_activation_prior,
    policy_update_step,
    sample_rollout,
    seq_importance_ratio,
    surrogate_objective,
)

# Group normalization: one strong response in a weak group gets all the
# positive advantage; constant groups carry no signal at all.
rewards = np.array([1.2, 0.2, 0.2, 0.2])
print("rewards    ", rewards)
print("advantages ", np.round(group_advantages(rewards), 4))
print("flat group ", group_advantages(np.full(4, 0.2)))
# Equal-size groups normalize in one call, one group per row, each row as its own call.
print("both at once", np.round(group_advantages(np.stack([rewards, np.full(4, 0.2)])), 4).tolist())
print()

# The ratio is per-token in log space, then averaged, then exponentiated,
# so a uniform shift of +0.25 nats over any length gives exactly e^0.25.
ratio = seq_importance_ratio(np.full(7, -0.75), np.full(7, -1.0))
print("seq ratio for +0.25 nats/token:", ratio)
print()

# One real update step on the toy policy.
lexicon = gen_lexicon(seed=10, n_entities=4, vocab_size=24)
policy = init_activation_prior(lexicon, PolicyConfig(), target_pass1_max=0.3, seed=1)
config = OptimConfig(group_size=4, mini_batch_size=2, updates_per_batch=1, learning_rate=0.5)

entity = lexicon.train_ids[0]
members = []
for m in range(4):
    rollout = sample_rollout(policy, entity, max_len=12, seed=(0, m))
    # Alternating rewards stand in for the scorer so the group carries signal.
    members.append(GroupMember(rollout.tokens, rollout.old_logp, reward=1.2 if m % 2 else 0.2))
group = RolloutGroup(entity, members, policy.snapshot_version)

# Both calls normalize the group's rewards into advantages themselves.  The
# update only moves the live parameters; the objective is evaluated against
# them separately, before and after.
before = surrogate_objective(policy, [group], config)
policy_update_step(policy, [group], config, rng=np.random.default_rng(0))
after = surrogate_objective(policy, [group], config)
print(f"surrogate objective: {before:.6f} -> {after:.6f}")
print("update moved", np.count_nonzero(policy.logits != policy.params_old), "of", policy.n_params, "parameters")
