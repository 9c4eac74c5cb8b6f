"""The lockstep sampler and the array update against their per-rollout loops.

``tests/oracles/rollout_loops.py`` holds the sampler and the update written
one token and one member at a time, drawing from numpy's own
``default_rng``.  The batched code must give the same bytes: tokens,
log-probs, entropies and truncation per row, and the logits after an update
step.  The sampler's array streams must equal numpy's SeedSequence children
and Generators word for word and draw for draw.
"""

import numpy as np
import pytest

from entrl import (
    GroupMember,
    OptimConfig,
    RolloutGroup,
    gen_lexicon,
    group_advantages,
    measure_pass_at_k,
    policy_update_step,
    render_response,
    sample_rollout,
    score_response,
    seq_importance_ratio,
    surrogate_objective,
    toy_reward_config,
)
from entrl.optim import _check_groups, _live_ratios
from entrl.toytask import (
    ToyPolicy,
    _next_tokens,
    _pcg_uniforms,
    _sample_batch,
    _seed_streams,
    _spawned_streams,
)
from oracles.rollout_loops import (
    _accumulate_score_grad,
    policy_update_loop,
    sample_rollout_loop,
    surrogate_loop,
    token_logps_loop,
)

LEX = gen_lexicon(seed=7, n_entities=6, vocab_size=32)
IDS = [e.entity_id for e in LEX.entities]


def random_policy(seed: int) -> ToyPolicy:
    # Random logits over 32 tokens end a rollout with probability ~1/32 per
    # token, so rollouts of 8, 16 and more tokens and truncation all occur.
    rng = np.random.default_rng(seed)
    return ToyPolicy(LEX, rng.normal(0.0, 1.0, size=(len(IDS), 32, 32)))


def assert_same_rollout(ro, expected):
    tokens, old_logp, entropies, truncated = expected
    assert ro.tokens == tokens
    assert ro.old_logp.tobytes() == old_logp.tobytes()
    assert ro.entropies.tobytes() == entropies.tobytes()
    assert ro.truncated == truncated


MASK64 = (1 << 64) - 1

# (keys, n): the prompt keys of train and measure_pass_at_k, entropy words
# past 32 bits, keys longer than SeedSequence's 4-word pool, int keys and 0.
STREAM_CASES = {
    "train-keys": ([(s, 4, step, p) for s in (0, 3) for step in (0, 7) for p in (0, 31)], 16),
    "seed-above-2**32": ([(2**32 + 5, 4, 2, 1), (2**63, 6, 0)], 16),
    "key-over-4-words": ([(1, 4, 2, 3, 9), (2**70, 4, 2**40, 3), (0, 4, 0, 0, 7)], 16),
    "int-and-zero-keys": ([7, 0, (0,), 2**33], 16),
    "one-child": ([(3, 6, 0), 5], 1),
    "600-children": ([(3, 6, 0), (1, 6, 19)], 600),
}


def draws(streams, count):
    """``count`` uniforms of each stream, one ``_pcg_uniforms`` call per draw."""
    u = []
    for _ in range(count):
        step, streams = _pcg_uniforms(streams)
        u.append(step)
    return np.stack(u, axis=1)


class TestStreams:
    @pytest.mark.parametrize("case", list(STREAM_CASES), ids=list(STREAM_CASES))
    def test_spawned_streams_are_numpys_children(self, case):
        keys, n = STREAM_CASES[case]
        children = [c for key in keys for c in np.random.SeedSequence(key).spawn(n)]
        words = []
        for child in children:
            state = np.random.PCG64(child).state["state"]
            words.append([state["state"] >> 64, state["state"] & MASK64,
                          state["inc"] >> 64, state["inc"] & MASK64])
        streams = _spawned_streams(keys, n)
        assert streams.dtype == np.uint64
        assert streams.tobytes() == np.array(words, np.uint64).T.tobytes()

        # 40 one-draw steps continue one stream.
        expected = np.stack([np.random.default_rng(c).random(40) for c in children])
        assert draws(streams, 40).tobytes() == expected.tobytes()

    def test_seed_streams_are_numpys_generators(self):
        seeds = [0, 3, 2**40, np.int64(9), (3, 1), np.random.SeedSequence((5, 6))]
        expected = np.stack([np.random.default_rng(s).random(20) for s in seeds])
        assert draws(_seed_streams(seeds), 20).tobytes() == expected.tobytes()


class TestLockstepSampler:
    @pytest.mark.parametrize("max_len", [1, 7, 40])
    def test_batch_matches_per_token_loop(self, max_len):
        policy = random_policy(0)
        rows = 120
        ids = [IDS[i % len(IDS)] for i in range(rows)]
        seeds = [np.random.SeedSequence((3, i)) if i % 3 else i for i in range(rows)]
        batch = _sample_batch(policy, ids, _seed_streams(seeds), max_len)
        assert len(batch) == rows
        for ro, ent, seed in zip(batch, ids, seeds):
            assert ro.entity_id == ent
            assert_same_rollout(ro, sample_rollout_loop(policy, ent, max_len, seed))
        lengths = [len(ro.tokens) for ro in batch]
        assert max(lengths) == max_len and any(ro.truncated for ro in batch)
        if max_len == 40:
            assert any(8 <= n < 16 for n in lengths) and any(16 <= n < 40 for n in lengths)
            assert any(not ro.truncated for ro in batch)

    def test_sample_rollout_is_the_one_row_case(self):
        policy = random_policy(1)
        for seed in range(30):
            ent = IDS[seed % len(IDS)]
            expected = sample_rollout_loop(policy, ent, 40, (seed, 2))
            assert_same_rollout(sample_rollout(policy, ent, 40, (seed, 2)), expected)

    def test_token_choice_clamps_to_last_token(self):
        # Rounding can leave a cumulative row's last entry below 1; a
        # uniform above it picks the last token, as the clamp after
        # searchsorted did.
        cum = np.array([[0.25, 0.5, 0.75, 0.9999999999],
                        [0.1, 0.1, 0.6, 0.9999999999]])
        u = np.array([0.99999999999, 0.1])
        np.testing.assert_array_equal(_next_tokens(cum, u, 4), [3, 2])
        for row, x in zip(cum, u):
            assert min(int(np.searchsorted(row, x, side="right")), 3) == _next_tokens(
                row[None], np.array([x]), 4)[0]

    def test_pass_at_k_counts_match_the_loop(self):
        policy = random_policy(2)
        cfg = toy_reward_config()
        ids = IDS[:3]
        _, counts = measure_pass_at_k(policy, ids, n=40, ks=(1,), seed=5, max_len=12)
        expected = []
        for e_idx, ent in enumerate(ids):
            children = np.random.SeedSequence((5, 6, e_idx)).spawn(40)
            rollouts = [sample_rollout_loop(policy, ent, 12, c)[0] for c in children]
            expected.append(sum(
                score_response(render_response(LEX, toks, cfg), LEX.gold(ent),
                               LEX.ref_lengths(ent), cfg)[0].match
                for toks in rollouts))
        assert counts == tuple(expected)


def update_fixture(seed: int, n_groups: int, group_size: int, zero_adv: bool = False,
                   clipped_group: int | None = None):
    """A policy moved off its snapshot and groups sampled from the snapshot.

    With ``zero_adv`` every third group has equal rewards.  The members of
    ``clipped_group`` get old log-probs that put each one past the band on
    its clipped side.
    """
    policy = random_policy(seed)
    policy.snapshot()
    rng = np.random.default_rng(seed)
    sampled = []
    for g in range(n_groups):
        ent = IDS[g % len(IDS)]
        if zero_adv and g % 3 == 0:
            rewards = [0.2] * group_size
        else:
            rewards = [1.2] + list(rng.choice([0.0, 0.2, 1.2], size=group_size - 1))
        rollouts = [sample_rollout(policy, ent, 40, (seed, g, m)) for m in range(group_size)]
        sampled.append((ent, rollouts, rewards))
    # Odd entities move far, so their ratios' means are large enough for a
    # last-bit difference in the mean to survive exp(); even ones stay near
    # the band.
    scale = np.where(np.arange(len(IDS)) % 2, 2.0, 1e-3)[:, None, None]
    policy.logits = policy.logits + scale * rng.normal(0.0, 1.0, size=policy.logits.shape)

    groups = []
    for g, (ent, rollouts, rewards) in enumerate(sampled):
        olds = [ro.old_logp for ro in rollouts]
        if g == clipped_group:
            adv = group_advantages(rewards)
            olds = [policy.token_logps(ent, ro.tokens) - 0.01 * np.sign(a)
                    for ro, a in zip(rollouts, adv)]
        members = [GroupMember(ro.tokens, old, float(r))
                   for ro, old, r in zip(rollouts, olds, rewards)]
        groups.append(RolloutGroup(ent, members, policy.snapshot_version))
    return policy, groups


UPDATE_CASES = {
    "long-rollouts": dict(n_groups=6, group_size=4, updates_per_batch=2),
    "zero-advantage-groups": dict(n_groups=7, group_size=5, updates_per_batch=3, zero_adv=True),
    "empty-chunks": dict(n_groups=3, group_size=4, updates_per_batch=5),
    "all-clipped-mini-batch": dict(n_groups=4, group_size=4, updates_per_batch=4, clipped_group=1),
}


class TestArrayUpdate:
    @pytest.mark.parametrize("case", list(UPDATE_CASES), ids=list(UPDATE_CASES))
    def test_matches_per_member_loop(self, case):
        kwargs = dict(UPDATE_CASES[case])
        updates = kwargs.pop("updates_per_batch")
        policy, groups = update_fixture(seed=3, **kwargs)
        config = OptimConfig(group_size=kwargs["group_size"], learning_rate=3.0,
                             mini_batch_size=1, updates_per_batch=updates)
        reference = ToyPolicy(LEX, policy.logits.copy())
        before = policy.logits.copy()

        policy_update_step(policy, groups, config, rng=np.random.default_rng(5))
        policy_update_loop(reference, groups, config, rng=np.random.default_rng(5))
        assert policy.logits.tobytes() == reference.logits.tobytes()
        assert np.any(policy.logits != before)

        # The case covers what its name says, and both gradient branches.
        start = ToyPolicy(LEX, before)
        lengths = [len(m.tokens) for g in groups for m in g.members]
        assert max(lengths) >= 16 and any(8 <= n < 16 for n in lengths)
        ratios = [seq_importance_ratio(token_logps_loop(start, g.prompt_id, m.tokens), m.old_logp)
                  for g in groups for m in g.members]
        band = [1 - config.eps_low <= s <= 1 + config.eps_high for s in ratios]
        assert any(band) and not all(band)
        if kwargs.get("zero_adv"):
            assert not group_advantages([m.reward for m in groups[0].members]).any()
        if kwargs.get("clipped_group") is not None:
            grp = groups[kwargs["clipped_group"]]
            adv = group_advantages([m.reward for m in grp.members])
            for m, a in zip(grp.members, adv):
                new_logp = token_logps_loop(start, grp.prompt_id, m.tokens)
                s = seq_importance_ratio(new_logp, m.old_logp)
                assert (s > 1 + config.eps_high) if a > 0 else (s < 1 - config.eps_low)

    def test_ratios_match_per_rollout_means(self):
        # Old log-probs well below the live ones give means of order 1, so
        # a mean summed in another grouping (over padded rows, say) shows
        # in the ratio's last bits.
        policy, groups = update_fixture(seed=8, n_groups=12, group_size=4)
        rng = np.random.default_rng(8)
        groups = [RolloutGroup(g.prompt_id, [
            GroupMember(m.tokens, m.old_logp - rng.uniform(0.0, 2.0, len(m.tokens)), m.reward)
            for m in g.members], g.snapshot_version) for g in groups]
        batch = _check_groups(policy, groups, OptimConfig(group_size=4))
        ratios, _ = _live_ratios(policy, batch, np.arange(len(batch.lengths)))
        expected = [
            float(np.exp(np.mean(token_logps_loop(policy, g.prompt_id, m.tokens) - m.old_logp)))
            for g in groups for m in g.members
        ]
        assert ratios.tobytes() == np.asarray(expected).tobytes()

    def test_token_logps_match_the_full_row_log_softmax(self):
        policy = random_policy(4)
        rollouts = [sample_rollout(policy, IDS[seed % len(IDS)], 40, seed) for seed in range(20)]
        for ro in rollouts:
            got = policy.token_logps(ro.entity_id, ro.tokens)
            assert got.tobytes() == token_logps_loop(policy, ro.entity_id, ro.tokens).tobytes()
        # One call over all rollouts, whose states repeat and are unsorted,
        # gives each token the bytes of its own rollout's loop.
        tokens = np.concatenate([ro.tokens for ro in rollouts])
        lengths = [len(ro.tokens) for ro in rollouts]
        states = policy.token_states([ro.entity_id for ro in rollouts], tokens, lengths)
        assert len(np.unique(states)) < len(states) and (np.diff(states) < 0).any()
        expected = np.concatenate([token_logps_loop(policy, ro.entity_id, ro.tokens)
                                   for ro in rollouts])
        assert policy.state_logps(states, tokens).tobytes() == expected.tobytes()
        coeffs = np.linspace(-1.5, 2.0, len(rollouts))
        grad = policy.new_grad()
        policy.accumulate_score_grad(states, tokens, np.repeat(coeffs, lengths), grad)
        expected = policy.new_grad()
        for ro, coeff in zip(rollouts, coeffs):
            _accumulate_score_grad(policy, ro.entity_id, ro.tokens, float(coeff), expected)
        assert grad.tobytes() == expected.tobytes()

    def test_surrogate_matches_the_loop(self):
        policy, groups = update_fixture(seed=6, n_groups=5, group_size=4, zero_adv=True)
        config = OptimConfig(group_size=4)
        assert surrogate_objective(policy, groups, config) == pytest.approx(
            surrogate_loop(policy, groups, config), rel=1e-12, abs=1e-15)

