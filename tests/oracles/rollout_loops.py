"""Per-rollout reference loops for the lockstep sampler, the array update
and the training metrics row.

These are the sampler and update written one token and one member at a
time, with plain Python floats for the ratio and the clip, and the metrics
row summed one scored rollout at a time.  The library's batched code must
reproduce them bit for bit: same tokens, same log-probs and entropies, the
same logits after an update step and the same metrics row.
"""

import numpy as np

from entrl import group_advantages
from entrl.toytask import BOS, EOS, TrainMetricsRow


def sample_rollout_loop(policy, entity_id: str, max_len: int, seed):
    """One rollout, one ``rng.random()`` and one ``searchsorted`` per token.

    Returns ``(tokens, old_logp, entropies, truncated)``.
    """
    e = policy.lexicon.entity_index(entity_id)
    logp_table, cum_table, ent_table = policy._old_tables()
    rng = np.random.default_rng(seed)
    tokens, logps, ents = [], [], []
    prev = BOS
    for _ in range(max_len):
        tok = int(np.searchsorted(cum_table[e, prev], rng.random(), side="right"))
        tok = min(tok, policy.lexicon.vocab_size - 1)
        logps.append(float(logp_table[e, prev, tok]))
        ents.append(float(ent_table[e, prev]))
        tokens.append(tok)
        prev = tok
        if tok == EOS:
            break
    return tuple(tokens), np.asarray(logps), np.asarray(ents), tokens[-1] != EOS


def _rows(policy, entity_id: str, tokens):
    e = policy.lexicon.entity_index(entity_id)
    toks = np.asarray(tokens, dtype=int)
    prevs = np.concatenate(([BOS], toks[:-1]))
    return e, toks, prevs, policy.logits[e, prevs] / policy.temperature


def token_logps_loop(policy, entity_id: str, tokens) -> np.ndarray:
    """Live log-probs of one sequence through a full-row log-softmax."""
    _, toks, _, rows = _rows(policy, entity_id, tokens)
    shifted = rows - rows.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return logp[np.arange(len(toks)), toks]


def _accumulate_score_grad(policy, entity_id: str, tokens, coeff: float, grad) -> None:
    e, toks, prevs, rows = _rows(policy, entity_id, tokens)
    shifted = np.exp(rows - rows.max(axis=-1, keepdims=True))
    probs = shifted / shifted.sum(axis=-1, keepdims=True)
    delta = -probs
    delta[np.arange(len(toks)), toks] += 1.0
    np.add.at(grad[e], prevs, (coeff / policy.temperature) * delta)


def _ratio_and_term(policy, grp, member, adv: float, eps_low: float, eps_high: float):
    new_logp = token_logps_loop(policy, grp.prompt_id, member.tokens)
    s = float(np.exp(np.mean(new_logp - member.old_logp)))
    clipped_s = min(max(s, 1.0 - eps_low), 1.0 + eps_high)
    return s, min(s * adv, clipped_s * adv)


def policy_update_loop(policy, groups, config, rng) -> None:
    """The clipped update, one member and one ``np.add.at`` at a time."""
    advantages = [group_advantages([m.reward for m in g.members]) for g in groups]
    order = rng.permutation(len(groups))
    for chunk in np.array_split(order, config.updates_per_batch):
        if chunk.size == 0:
            continue
        grad = np.zeros_like(policy.logits)
        for idx in chunk:
            grp = groups[int(idx)]
            for member, adv in zip(grp.members, advantages[int(idx)]):
                adv = float(adv)
                if adv == 0.0:
                    continue
                s, term = _ratio_and_term(policy, grp, member, adv, config.eps_low, config.eps_high)
                if term == s * adv:
                    coeff = adv * s / (len(member.tokens) * len(grp.members) * chunk.size)
                    _accumulate_score_grad(policy, grp.prompt_id, member.tokens, coeff, grad)
        policy.logits += config.learning_rate * grad


def surrogate_loop(policy, groups, config) -> float:
    """Mean over groups of the per-group mean clipped term, summed in order."""
    total = 0.0
    for grp in groups:
        adv = group_advantages([m.reward for m in grp.members])
        acc = sum(_ratio_and_term(policy, grp, m, float(a), config.eps_low, config.eps_high)[1]
                  for m, a in zip(grp.members, adv))
        total += acc / len(grp.members)
    return total / len(groups)


def metrics_row_loop(step: int, scored) -> TrainMetricsRow:
    """A step's metrics row from its ``RolloutScore`` list, one rollout at a
    time: sums fold from 0.0 (or 0) in sampling order with plain float
    addition, and a rollout's entropy sum is its own 1-d ``sum``."""
    reward_sum = entropy_sum = 0.0
    trans_len_sum = match_sum = token_count = 0
    for s in scored:
        reward_sum += s.breakdown.reward
        trans_len_sum += s.trans_len
        match_sum += s.breakdown.match
        entropy_sum += float(s.rollout.entropies.sum())
        token_count += len(s.rollout.tokens)
    n = len(scored)
    return TrainMetricsRow(
        step=step,
        mean_reward=reward_sum / n,
        mean_trans_length=trans_len_sum / n,
        mean_entropy=entropy_sum / max(token_count, 1),
        pass1_eval=match_sum / n,
    )
