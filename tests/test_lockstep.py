"""The lockstep sampler and the array update against their per-rollout loops.

``tests/oracles/rollout_loops.py`` holds the sampler and the update written
one token and one member at a time, drawing from numpy's own
``default_rng``.  The batched code must give the same bytes: tokens,
log-probs, entropies and truncation per row, and the logits after an update
step.  The sampler's array streams must equal numpy's SeedSequence children
and Generators word for word and draw for draw.
"""

import tracemalloc

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
import entrl.toytask as toytask
from entrl.toytask import (
    _PCG_BLOCK,
    EOS,
    RowGrad,
    ToyPolicy,
    _next_tokens,
    _pcg_block,
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


def dense(policy: ToyPolicy, grad: RowGrad) -> np.ndarray:
    """The gradient as a table: its rows' sums added into zeros."""
    table = np.zeros(policy.logits.shape)
    table.reshape(-1, policy.lexicon.vocab_size)[grad.rows] += grad.sums
    return table


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


def draws(streams, count, k=_PCG_BLOCK):
    """``count`` uniforms of each stream, one ``_pcg_block`` call per ``k`` draws (the last may
    draw fewer), as one row per stream."""
    u = []
    for start in range(0, count, k):
        block, streams = _pcg_block(streams, min(k, count - start))
        u.append(block)
    return np.concatenate(u).T


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

        # Blocks of draws continue one stream.
        expected = np.stack([np.random.default_rng(c).random(40) for c in children])
        assert draws(streams, 40).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("k", range(1, _PCG_BLOCK + 1))
    @pytest.mark.parametrize("case", list(STREAM_CASES), ids=list(STREAM_CASES))
    def test_block_draws_of_every_size_continue_the_stream(self, case, k):
        # Every jump-ahead size: 20 draws are whole blocks of k, or end on a shorter one.
        keys, n = STREAM_CASES[case]
        children = [c for key in keys for c in np.random.SeedSequence(key).spawn(n)]
        expected = np.stack([np.random.default_rng(c).random(20) for c in children])
        assert draws(_spawned_streams(keys, n), 20, k).tobytes() == expected.tobytes()
        # The advanced streams are numpy's generators after the same draws.
        streams = _spawned_streams(keys, n)
        for _ in range(3):
            _, streams = _pcg_block(streams, k)
        for i, child in enumerate(children[:50]):
            bits = np.random.PCG64(child)
            bits.advance(3 * k)
            state = bits.state["state"]
            assert streams[:, i].tolist() == [state["state"] >> 64, state["state"] & MASK64,
                                              state["inc"] >> 64, state["inc"] & MASK64]

    def test_seed_streams_are_numpys_generators(self):
        seeds = [0, 3, 2**40, np.int64(9), (3, 1), np.random.SeedSequence((5, 6))]
        expected = np.stack([np.random.default_rng(s).random(20) for s in seeds])
        assert draws(_seed_streams(seeds), 20).tobytes() == expected.tobytes()
        assert draws(_seed_streams(seeds), 20, 1).tobytes() == expected.tobytes()


# Lengths on both sides of the first three blocks of uniforms, and the long case.
SAMPLE_LENGTHS = (1, 7, 8, 9, 16, 17, 24, 40)


class TestLockstepSampler:
    @pytest.mark.parametrize("max_len, eos_logit", [
        *(pytest.param(n, None, id=str(n)) for n in SAMPLE_LENGTHS),
        *(pytest.param(n, -1.0, id=f"{n}-eos-at-minus-1") for n in SAMPLE_LENGTHS)])
    def test_batch_matches_per_token_loop(self, max_len, eos_logit):
        # An EOS logit of -1 among standard normal ones lets most rows run through several blocks.
        policy = random_policy(0)
        if eos_logit is not None:
            policy.logits[:, :, EOS] = eos_logit
            policy.snapshot()
        rows = 120
        ids = [IDS[i % len(IDS)] for i in range(rows)]
        seeds = [np.random.SeedSequence((3, i)) if i % 3 else i for i in range(rows)]
        ent_rows = np.array([LEX.entity_index(ent) for ent in ids])
        batch = _sample_batch(policy, ent_rows, _seed_streams(seeds), max_len)
        assert len(batch.tokens) == rows
        rollouts = [batch.rollout(i, ent) for i, ent in enumerate(ids)]
        for ro, ent, seed in zip(rollouts, ids, seeds):
            assert ro.entity_id == ent
            assert_same_rollout(ro, sample_rollout_loop(policy, ent, max_len, seed))
        lengths = [len(ro.tokens) for ro in rollouts]
        assert max(lengths) == max_len and any(ro.truncated for ro in rollouts)
        if max_len >= 16:
            # Some row ends with an EOS drawn at a block's last position.
            assert any(not ro.truncated and len(ro.tokens) % _PCG_BLOCK == 0 for ro in rollouts)
        if max_len == 40:
            assert any(8 <= n < 16 for n in lengths) and any(16 <= n < 40 for n in lengths)
            assert any(not ro.truncated for ro in rollouts)
        if eos_logit is not None and max_len > 2 * _PCG_BLOCK:
            assert sum(n > 2 * _PCG_BLOCK for n in lengths) > rows // 2
        # The flat arrays are the rows' concatenation, and each row names its entity.
        assert batch.token_ids.tolist() == [t for ro in rollouts for t in ro.tokens]
        assert np.diff(batch.offsets).tolist() == lengths
        assert batch.truncated.tolist() == [ro.truncated for ro in rollouts]
        assert batch.rows.tolist() == [LEX.entity_index(ent) for ent in ids]

    def test_sample_rollout_is_the_one_row_case(self):
        policy = random_policy(1)
        for seed in range(30):
            ent = IDS[seed % len(IDS)]
            expected = sample_rollout_loop(policy, ent, 40, (seed, 2))
            assert_same_rollout(sample_rollout(policy, ent, 40, (seed, 2)), expected)

    def test_token_choice_clamps_to_last_token(self):
        # Rounding can leave a cumulative row's last entry below 1; a
        # uniform at or above it picks the last token, as the clamp after
        # searchsorted did.  A row that turns NaN counts the entries before
        # it, as searchsorted does.
        cum = np.array([[0.25, 0.5, 0.75, 0.9999999999],
                        [0.1, 0.1, 0.6, 0.9999999999],
                        [0.25, 0.5, 0.75, 0.9999999999],
                        [0.2, 0.5, np.nan, np.nan],
                        [0.2, 0.5, np.nan, np.nan]])
        u = np.array([0.99999999999, 0.1, 0.9999999999, 0.6, 0.1])
        np.testing.assert_array_equal(_next_tokens(cum, u, 4), [3, 2, 3, 2, 0])
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


class TestSnapshotTables:
    # The sampler builds an entity's snapshot rows the first time a call after
    # the snapshot samples it; the per-token loop reads the full tables.
    def sample(self, policy, ent_rows, seed):
        seeds = [(seed, i) for i in range(len(ent_rows))]
        batch = _sample_batch(policy, np.array(ent_rows), _seed_streams(seeds), 40)
        return [(batch.rollout(i, IDS[row]), IDS[row], s) for i, (row, s) in enumerate(zip(ent_rows, seeds))]

    @pytest.mark.parametrize("subsets", [([4], [0, 4, 2]), ([0, 4, 2], [4])], ids=["one-first", "three-first"])
    def test_entity_subsets_sample_as_the_full_tables(self, subsets):
        policy = random_policy(6)
        policy.snapshot()
        sampled = [ro for k, subset in enumerate(subsets) for ro in self.sample(policy, subset * 4, k)]
        for ro, ent, seed in sampled:
            assert_same_rollout(ro, sample_rollout_loop(policy, ent, 40, seed))
        # Every row, built in whatever order, has the bytes of one full build.
        full = ToyPolicy(LEX, policy.params_old)._old_tables()
        for built, expected in zip(policy._old_tables(), full):
            assert built.tobytes() == expected.tobytes()

    def test_an_entity_updated_after_sampling_is_rebuilt(self):
        policy = random_policy(7)
        policy.snapshot()
        first = self.sample(policy, [2] * 8, 0)
        sums = np.random.default_rng(0).normal(0.0, 1.0, size=(32, 32))
        policy.apply_gradient(RowGrad(np.arange(2 * 32, 3 * 32), sums), 1.0)  # entity 2's rows
        policy.snapshot()
        again = self.sample(policy, [2] * 8, 0)
        fresh = ToyPolicy(LEX, policy.logits.copy())
        for (ro, ent, seed), (old, _, _) in zip(again, first):
            assert_same_rollout(ro, sample_rollout_loop(fresh, ent, 40, seed))
        assert any(ro.old_logp.tobytes() != old.old_logp.tobytes() for (ro, _, _), (old, _, _) in zip(again, first))

    def test_a_snapshot_rebuilds_only_the_changed_rows(self, monkeypatch):
        policy = random_policy(8)
        policy.logits[3, 5, 7] = -0.0
        policy.snapshot()
        built = []
        log_softmax = toytask._log_softmax
        monkeypatch.setattr(toytask, "_log_softmax", lambda rows: built.append(len(rows)) or log_softmax(rows))
        everyone = list(range(len(IDS))) * 2
        self.sample(policy, everyone, 0)
        assert built == [len(IDS) * 32]
        # Three rows of entities 1 and 4 move, and the whole-table add of 0.0 turns entity 3's
        # -0.0 into +0.0: a change of bytes, not of value, which rebuilds its row too.
        sums = np.random.default_rng(0).normal(0.0, 1.0, size=(3, 32))
        policy.apply_gradient(RowGrad(np.array([32 + 0, 32 + 9, 4 * 32 + 31]), sums), 1.0)
        assert not np.signbit(policy.logits[3, 5, 7])
        policy.snapshot()
        self.sample(policy, everyone, 1)
        policy.snapshot()  # nothing changed: nothing to rebuild
        self.sample(policy, everyone, 2)
        assert built == [len(IDS) * 32, 4]
        full = ToyPolicy(LEX, policy.params_old)._old_tables()
        for tables, expected in zip(policy._old_tables(), full):
            assert tables.tobytes() == expected.tobytes()

    def test_an_assigned_snapshot_rebuilds_every_row(self):
        # ``load_policy`` assigns params_old; tables built before describe the old array.
        policy = random_policy(8)
        self.sample(policy, [0, 3], 0)
        policy.params_old = random_policy(9).params_old
        self.sample(policy, [0, 3], 1)
        full = ToyPolicy(LEX, policy.params_old)._old_tables()
        for tables, expected in zip(policy._old_tables(), full):
            assert tables.tobytes() == expected.tobytes()


class TestMemoryBudget:
    # The budgets behind the ceilings (the comments on toytask.MAX_SAMPLED_TOKENS and
    # optim.MAX_BATCH_ROLLOUTS), with ~10% to spare: ~98 B per emitted token and ~2.4 KB per
    # pass@k sample when EOS is never drawn and every row runs to max_len 24.
    @staticmethod
    def eos_free_policy() -> ToyPolicy:
        policy = random_policy(0)
        policy.logits[:, :, EOS] = -30.0
        policy.snapshot()
        policy._old_tables()  # built once, outside the measured peak
        return policy

    @pytest.mark.parametrize("rows, max_len", [(8192, 24), (512, 200)])
    def test_peak_per_emitted_token(self, rows, max_len):
        policy = self.eos_free_policy()
        streams = _spawned_streams([(1, 2)], rows)
        tracemalloc.start()
        try:
            batch = _sample_batch(policy, np.arange(rows) % len(IDS), streams, max_len)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(batch.offsets[-1]) == rows * max_len
        assert peak / (rows * max_len) < 108, peak / (rows * max_len)

    def test_peak_per_pass_at_k_sample(self):
        policy = self.eos_free_policy()
        tracemalloc.start()
        try:
            measure_pass_at_k(policy, IDS[:1], n=4096, ks=(1,), seed=0, max_len=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 4096 < 2650, peak / 4096


def update_fixture(seed: int, n_groups: int, group_size: int, zero_adv: bool = False,
                   clipped_group: int | None = None, max_len: int = 40, eos_logit: float | None = None):
    """A policy moved off its snapshot and groups sampled from the snapshot.

    With ``zero_adv`` every third group has equal rewards.  The members of
    ``clipped_group`` get old log-probs that put each one past the band on
    its clipped side.  ``eos_logit`` sets every row's EOS logit, which with
    a large ``max_len`` makes long rollouts.
    """
    policy = random_policy(seed)
    if eos_logit is not None:
        policy.logits[:, :, EOS] = eos_logit
    policy.snapshot()
    rng = np.random.default_rng(seed)
    sampled = []
    for g in range(n_groups):
        ent = IDS[g % len(IDS)]
        if zero_adv and g % 3 == 0:
            rewards = [0.2] * group_size
        else:
            rewards = [1.2] + list(rng.choice([0.0, 0.2, 1.2], size=group_size - 1))
        rollouts = [sample_rollout(policy, ent, max_len, (seed, g, m)) for m in range(group_size)]
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

    def test_rollouts_past_the_pairwise_block_match_the_loop(self):
        # Past 128 tokens numpy's pairwise sum splits a row in two, so the
        # ratios' row sums take that path too.
        policy, groups = update_fixture(seed=4, n_groups=6, group_size=4, max_len=300, eos_logit=-1.0)
        lengths = [len(m.tokens) for g in groups for m in g.members]
        assert max(lengths) == 300 and any(128 < n < 300 for n in lengths)
        assert any(n <= 128 for n in lengths)
        config = OptimConfig(group_size=4, learning_rate=3.0, mini_batch_size=1, updates_per_batch=2)
        reference = ToyPolicy(LEX, policy.logits.copy())
        before = policy.logits.copy()
        policy_update_step(policy, groups, config, rng=np.random.default_rng(5))
        policy_update_loop(reference, groups, config, rng=np.random.default_rng(5))
        assert policy.logits.tobytes() == reference.logits.tobytes()
        assert np.any(policy.logits != before)

    @pytest.mark.parametrize("updates", [1, 2, 5])
    def test_one_state_rows_call_per_pass(self, updates, monkeypatch):
        policy, groups = update_fixture(seed=3, n_groups=5, group_size=4)
        calls = []
        state_rows = ToyPolicy.state_rows

        def counted(self, states):
            calls.append(len(states))
            return state_rows(self, states)

        monkeypatch.setattr(ToyPolicy, "state_rows", counted)
        config = OptimConfig(group_size=4, mini_batch_size=1, updates_per_batch=updates)
        policy_update_step(policy, groups, config, rng=np.random.default_rng(0))
        assert len(calls) == updates
        # Together the passes read each rollout's tokens once.
        assert sum(calls) == sum(len(m.tokens) for g in groups for m in g.members)

    @pytest.mark.parametrize("learning_rate", [3.0, 0.0])
    def test_negative_zero_logits_end_as_the_dense_sum_leaves_them(self, learning_rate):
        # The dense ``logits += lr * grad`` adds lr * 0.0 to every cell no
        # rollout visits, which turns -0.0 into +0.0, and at lr 0.0 adds a
        # -0.0 to a visited cell whose sum is negative, which keeps its -0.0.
        policy, groups = update_fixture(seed=3, n_groups=6, group_size=4)
        tokens = [m.tokens for g in groups for m in g.members]
        visited = set(policy.token_states([g.prompt_id for g in groups for _ in g.members],
                                          np.concatenate(tokens), [len(t) for t in tokens]).tolist())
        unvisited, visited = sorted(set(range(len(IDS) * 32)) - visited), sorted(visited)
        table = policy.logits.reshape(-1, 32)
        table[unvisited[:3] + visited[:3]] = -0.0
        config = OptimConfig(group_size=4, learning_rate=learning_rate, mini_batch_size=1, updates_per_batch=1)
        reference = ToyPolicy(LEX, policy.logits.copy())
        policy_update_step(policy, groups, config, rng=np.random.default_rng(5))
        policy_update_loop(reference, groups, config, rng=np.random.default_rng(5))
        assert policy.logits.tobytes() == reference.logits.tobytes()
        assert (table[unvisited[:3]] == 0.0).all() and not np.signbit(table[unvisited[:3]]).any()
        if learning_rate == 0.0:
            assert np.signbit(table[visited[:3]]).any()

    @pytest.mark.parametrize("zero_adv", [True, False], ids=["no-rollouts", "all-clipped"])
    def test_a_pass_with_no_active_rollout_matches_the_loop(self, zero_adv, monkeypatch):
        # One group per pass: group 0 has equal rewards, so its pass has no
        # rollouts; or group 1 is clipped whole, so its pass has no active one.
        policy, groups = update_fixture(seed=3, n_groups=3, group_size=4, zero_adv=zero_adv,
                                        clipped_group=None if zero_adv else 1)
        config = OptimConfig(group_size=4, learning_rate=3.0, mini_batch_size=1, updates_per_batch=3)
        reference = ToyPolicy(LEX, policy.logits.copy())
        accumulated = []
        accumulate = ToyPolicy.accumulate_score_grad

        def recorded(self, rows, tokens, coeffs, grad):
            accumulated.append(len(tokens))
            return accumulate(self, rows, tokens, coeffs, grad)

        monkeypatch.setattr(ToyPolicy, "accumulate_score_grad", recorded)
        policy_update_step(policy, groups, config, rng=np.random.default_rng(5))
        policy_update_loop(reference, groups, config, rng=np.random.default_rng(5))
        assert policy.logits.tobytes() == reference.logits.tobytes()
        assert 0 in accumulated and len(accumulated) == 3

    def test_update_allocates_less_than_one_table(self):
        # 200 entities, of which the groups visit 4: the dense gradient and
        # its lr * grad product each took a whole table.
        lexicon = gen_lexicon(seed=0, n_entities=200, aliases_per_entity=1, alias_len_range=(2, 2),
                              vocab_size=48)
        rng = np.random.default_rng(0)
        policy = ToyPolicy(lexicon, rng.normal(0.0, 1.0, size=(200, 48, 48)))
        policy.snapshot()
        groups = []
        for g, ent in enumerate(lexicon.train_ids[:4]):
            rollouts = [sample_rollout(policy, ent, 24, (g, m)) for m in range(4)]
            members = [GroupMember(ro.tokens, ro.old_logp, r) for ro, r in zip(rollouts, (1.2, 0.2, 0.0, 0.2))]
            groups.append(RolloutGroup(ent, members, policy.snapshot_version))
        config = OptimConfig(group_size=4, learning_rate=3.0, mini_batch_size=1, updates_per_batch=4)
        before = policy.logits.copy()
        tracemalloc.start()
        try:
            policy_update_step(policy, groups, config, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.any(policy.logits != before)
        assert peak < policy.logits.nbytes, (peak, policy.logits.nbytes)

    @pytest.mark.parametrize("n_groups, updates", [(5, 2), (3, 5)])
    def test_gradient_hooks_run_once_per_non_empty_pass(self, n_groups, updates, monkeypatch):
        # A pass is new_grad, one accumulate_score_grad, then apply_gradient:
        # the train benchmark splits the passes at apply_gradient and counts
        # the accumulate_score_grad calls in each.
        policy, groups = update_fixture(seed=3, n_groups=n_groups, group_size=4)
        calls = []
        for name in ("new_grad", "accumulate_score_grad", "apply_gradient"):
            def recorded(self, *args, _name=name, _method=getattr(ToyPolicy, name)):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(ToyPolicy, name, recorded)
        config = OptimConfig(group_size=4, mini_batch_size=1, updates_per_batch=updates)
        policy_update_step(policy, groups, config, rng=np.random.default_rng(0))
        assert calls == ["new_grad", "accumulate_score_grad", "apply_gradient"] * min(n_groups, updates)

    def test_ratios_match_per_rollout_means(self):
        # Old log-probs well below the live ones give means of order 1, so
        # a mean summed in another grouping (over padded rows, say) shows
        # in the ratio's last bits.
        policy, groups = update_fixture(seed=8, n_groups=12, group_size=4)
        rng = np.random.default_rng(8)
        groups = [RolloutGroup(g.prompt_id, [
            GroupMember(m.tokens, m.old_logp - rng.uniform(0.0, 2.0, len(m.tokens)), m.reward)
            for m in g.members], g.snapshot_version) for g in groups]
        batch = _check_groups(policy, groups)
        ratios = _live_ratios(policy, batch, np.arange(len(batch.lengths)))[0]
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
        rows = policy.state_rows(states)
        assert rows.logps(tokens).tobytes() == expected.tobytes()
        coeffs = np.linspace(-1.5, 2.0, len(rollouts))
        grad = policy.new_grad()
        policy.accumulate_score_grad(rows, tokens, np.repeat(coeffs, lengths), grad)
        expected = np.zeros(policy.logits.shape)
        for ro, coeff in zip(rollouts, coeffs):
            _accumulate_score_grad(policy, ro.entity_id, ro.tokens, float(coeff), expected)
        assert dense(policy, grad).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 7, 600])
    def test_score_grad_is_the_in_order_scatter(self, rows):
        # Repeated, unsorted states; coefficients of either sign, zero, and
        # magnitudes 1e-8 to 1e8, so any other summation order shows.
        policy = ToyPolicy(LEX, random_policy(5).logits, temperature=0.7)
        rng = np.random.default_rng(rows)
        states = rng.integers(0, len(IDS) * 32, size=rows)
        tokens = rng.integers(0, 32, size=rows)
        coeffs = rng.normal(size=rows) * 10.0 ** rng.integers(-8, 9, size=rows)
        coeffs[1::5] = 0.0
        grad = policy.new_grad()
        policy.accumulate_score_grad(policy.state_rows(states), tokens, coeffs, grad)

        # np.add.at of each row's full softmax, on a fresh gradient.
        rows_t = policy.logits.reshape(-1, 32)[states] / policy.temperature
        shifted = np.exp(rows_t - rows_t.max(axis=-1, keepdims=True))
        delta = -(shifted / shifted.sum(axis=-1, keepdims=True))
        delta[np.arange(rows), tokens] += 1.0
        expected = np.zeros(policy.logits.shape)
        np.add.at(expected.reshape(-1, 32), states, (coeffs / policy.temperature)[:, None] * delta)
        assert dense(policy, grad).tobytes() == expected.tobytes()
        assert dense(policy, grad).any() == (rows > 0)
        assert grad.rows.tolist() == sorted(set(states.tolist()))

    def test_surrogate_matches_the_loop(self):
        policy, groups = update_fixture(seed=6, n_groups=5, group_size=4, zero_adv=True)
        config = OptimConfig(group_size=4)
        assert surrogate_objective(policy, groups, config) == pytest.approx(
            surrogate_loop(policy, groups, config), rel=1e-12, abs=1e-15)

