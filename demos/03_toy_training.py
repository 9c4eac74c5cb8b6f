"""
Knowledge activation on the synthetic task
==========================================

The toy policy starts in a latent-knowledge regime: it almost never emits a
gold alias in one sample (low pass@1) yet almost always finds one within 64
samples (high pass@64), because each alias chain is easy to follow once its
first token is chosen.  Training against the gated reward redistributes
probability onto those first tokens, so pass@1 climbs while pass@64 is
preserved.  Takes about half a minute on one core.
"""

import numpy as np

from entrl import (
    OptimConfig,
    PolicyConfig,
    gen_lexicon,
    init_activation_prior,
    measure_pass_at_k,
    toy_reward_config,
    train,
)

lexicon = gen_lexicon(seed=42, n_entities=20, vocab_size=48)
policy = init_activation_prior(lexicon, PolicyConfig(), target_pass1_max=0.10, seed=5)

curve, _ = measure_pass_at_k(policy, lexicon.train_ids, n=256, ks=(1, 64), seed=99)
print(f"initial: pass@1={curve.estimates[0]:.3f}  pass@64={curve.estimates[1]:.3f}")

result = train(
    lexicon, policy, toy_reward_config(), OptimConfig(learning_rate=6.0),
    steps=400, seed=11,
)

print(f"\n{'step':>5} {'reward':>7} {'length':>7} {'pass@1':>7}")
for step in (0, 100, 200, 300, 399):
    row = result.metrics[step]
    print(f"{step:>5} {row.mean_reward:>7.3f} {row.mean_trans_length:>7.2f} {row.pass1_eval:>7.2f}")

curve, _ = measure_pass_at_k(result.policy, lexicon.train_ids, n=256, ks=(1, 64), seed=99)
print(f"\nfinal:   pass@1={curve.estimates[0]:.3f}  pass@64={curve.estimates[1]:.3f}")

lengths = [r.breakdown.len_gate for r in result.final_rollouts]
print(f"final rollouts passing the length gate: {np.mean(lengths):.0%}")
# Longer budgets finish the job: 600 steps at this learning rate measure
# pass@1 around 0.95 on this seed.  Removing the length gate instead sends
# mean translation length climbing without bound; see the gate-ablation
# acceptance test for the paired comparison.
