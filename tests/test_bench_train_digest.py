"""The train benchmark's equivalence digest for seed 1, pinned, and the call it wraps.

``perfbench/wl_train.py`` records ``metrics_logits_sha256`` of its run but
checks it against nothing.  This is that run (``gen_lexicon(seed=1)``, the
prior at seed 1, ``learning_rate`` 4.0, 240 steps), hashed as its ``_digest``
does.  It is long enough to fill the 16,384-pair score cache, which the
20-step golden run never does.

The benchmark also replaces ``toytask.policy_update_step`` to check every
step's rewards, read from each group's members.  A ``train`` that stopped
calling that name would leave the check with nothing to check.
"""

import hashlib

import numpy as np

from entrl import (
    OptimConfig,
    PolicyConfig,
    RolloutGroup,
    ToyPolicy,
    gen_lexicon,
    init_activation_prior,
    toy_reward_config,
    train,
)

SEED, STEPS = 1, 240
DIGEST = "969b28e3b7633ccd7e1999c4c15eab984d6c5b07cf9d353d0602d37e2708a208"


def _digest(result) -> str:
    """sha256 of the metrics rows and final logits, for bit-identity checks."""
    h = hashlib.sha256()
    for row in result.metrics:
        h.update(repr((row.step, *(float(v).hex() for v in (
            row.mean_reward, row.mean_trans_length, row.mean_entropy, row.pass1_eval)))).encode())
    h.update(np.ascontiguousarray(result.policy.logits).tobytes())
    return h.hexdigest()


def test_train_benchmark_digest_for_seed_1():
    lexicon = gen_lexicon(seed=SEED)
    prior = init_activation_prior(lexicon, PolicyConfig(), target_pass1_max=0.10, seed=SEED)
    policy = ToyPolicy(lexicon, prior.logits.copy(), prior.temperature)
    result = train(lexicon, policy, toy_reward_config(), OptimConfig(learning_rate=4.0),
                   steps=STEPS, ablation="full", seed=SEED)
    assert len(result.metrics) == STEPS
    assert _digest(result) == DIGEST


def test_train_calls_the_wrapped_update_once_per_step_with_groups(monkeypatch):
    import entrl.toytask as toytask

    lexicon = gen_lexicon(seed=SEED)
    policy = init_activation_prior(lexicon, PolicyConfig(), target_pass1_max=0.10, seed=SEED)
    calls, update = [], toytask.policy_update_step

    def recorded(pol, groups, config, rng=None):
        calls.append(groups)
        return update(pol, groups, config, rng=rng)

    monkeypatch.setattr(toytask, "policy_update_step", recorded)
    reward_cfg = toy_reward_config()
    train(lexicon, policy, reward_cfg, OptimConfig(learning_rate=4.0), steps=2, ablation="full", seed=SEED)
    assert len(calls) == 2
    allowed = {0.0, reward_cfg.alpha, reward_cfg.alpha + 1}  # the benchmark's own set
    for groups in calls:
        assert isinstance(groups, list) and groups
        assert all(isinstance(g, RolloutGroup) for g in groups)
        rewards = {m.reward for g in groups for m in g.members}
        assert rewards <= allowed and len(rewards) > 1
