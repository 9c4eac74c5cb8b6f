"""Group-normalized advantages, sequence ratios, clipped surrogate, and
the update step's gradient against finite differences."""

import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrl import (
    GroupMember,
    OptimConfig,
    RolloutGroup,
    clipped_term,
    group_advantages,
    policy_update_step,
    seq_importance_ratio,
    surrogate_objective,
)
import entrl.optim as optim
from entrl.optim import MAX_BATCH_ROLLOUTS, STD_FLOOR, _row_sums
from oracles.fd_grad import (
    analytic_gradient,
    assert_clip_margins,
    build_fixture,
    fd_gradient,
    max_relative_error,
)


class TestGroupAdvantages:
    def test_frozen_canonical_values(self):
        # From tests/oracles/optim_values.py: one success among four.
        adv = group_advantages([1.2, 0.2, 0.2, 0.2])
        expected = [1.7320508075688774, -0.5773502691896256,
                    -0.5773502691896256, -0.5773502691896256]
        np.testing.assert_allclose(adv, expected, rtol=0, atol=1e-12)

    def test_population_not_sample_std(self):
        # Sample std (divide by G-1) would give 1.5 / sqrt(3) here.
        adv = group_advantages([2.0, 0.0])
        np.testing.assert_allclose(adv, [1.0, -1.0], atol=1e-12)

    def test_zero_variance_gives_zeros(self):
        np.testing.assert_array_equal(group_advantages([0.2] * 8), np.zeros(8))
        np.testing.assert_array_equal(group_advantages([0.0, 0.0]), np.zeros(2))

    def test_std_floor_respected(self):
        assert STD_FLOOR == 1e-6
        assert np.all(group_advantages([1.0, 1.0 + 1e-9]) == 0.0)
        assert np.all(group_advantages([1.0, 1.0 + 1e-5]) != 0.0)

    def test_normalized_moments(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            g = int(rng.integers(2, 33))
            rewards = rng.choice([0.0, 0.2, 1.2], size=g)
            if rewards.std() < 1e-6:
                continue
            adv = group_advantages(rewards)
            assert abs(adv.mean()) < 1e-9
            assert abs(adv.std() - 1.0) < 1e-9

    def test_rejects_short_or_misshaped_input(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])
        # One group per row of a 2-d array, so misshaped is 3-d, or rows of one reward.
        with pytest.raises(ValueError):
            group_advantages([[[1.0, 2.0]]])
        with pytest.raises(ValueError):
            group_advantages([[1.0], [2.0]])

    @given(st.lists(st.sampled_from([0.0, 0.2, 1.2]), min_size=2, max_size=32),
           st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=200)
    def test_invariant_to_positive_affine_reward_maps(self, rewards, scale, shift):
        base = np.asarray(rewards)
        if base.std() < 1e-3:
            return
        a = group_advantages(base)
        b = group_advantages(scale * base + shift)
        np.testing.assert_allclose(a, b, atol=1e-7)


    @given(st.integers(2, 64).flatmap(lambda g: st.one_of(
               st.lists(st.floats(-1.0, 1.0), min_size=g, max_size=g),
               st.lists(st.sampled_from([0.0, 0.2, 1.2]), min_size=g, max_size=g),
               st.floats(-1.0, 1.0).map(lambda v: [v] * g))),
           st.floats(1.0, 10.0), st.integers(-8, 8))
    @settings(max_examples=500, deadline=None)
    def test_is_numpys_mean_and_std_byte_for_byte(self, rewards, mantissa, exponent):
        r = np.asarray(rewards) * (mantissa * 10.0**exponent)
        std = r.std()
        expected = np.zeros_like(r) if std < STD_FLOOR else (r - r.mean()) / std
        assert group_advantages(r).tobytes() == expected.tobytes()

    @given(st.integers(2, 40).flatmap(lambda g: st.lists(st.one_of(
               st.lists(st.floats(-1.0, 1.0), min_size=g, max_size=g),
               st.lists(st.sampled_from([0.0, 0.2, 1.2]), min_size=g, max_size=g),
               st.floats(-1.0, 1.0).map(lambda v: [v] * g)), min_size=1, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_each_row_of_a_2d_call_is_its_own_1d_call(self, groups):
        got = group_advantages(np.array(groups))
        assert got.shape == (len(groups), len(groups[0]))
        for row, rewards in zip(got, groups):
            assert row.tobytes() == group_advantages(rewards).tobytes()

    def test_a_nan_row_stays_nan_as_in_1d(self):
        # A NaN std is not below the floor, so the row is divided, not zeroed.
        groups = np.array([[1.0, np.nan, 0.2], [0.2, 0.2, 0.2], [1.2, 0.0, 0.2]])
        got = group_advantages(groups)
        assert np.isnan(got[0]).all() and not got[1].any()
        for row, rewards in zip(got, groups):
            assert row.tobytes() == group_advantages(rewards).tobytes()

    def test_one_call_per_group_size(self, monkeypatch):
        policy, groups = build_fixture(seed=0, n_groups=6, group_size=4)
        # Two more sizes: groups of 3 and of 5 members.
        groups += [RolloutGroup(g.prompt_id, g.members[:3], g.snapshot_version) for g in groups[:2]]
        groups.append(RolloutGroup(groups[0].prompt_id, groups[0].members + groups[1].members[:1],
                                   groups[0].snapshot_version))
        expected = [group_advantages([m.reward for m in g.members]) for g in groups]
        calls = []

        def counted(rewards):
            calls.append(np.shape(rewards))
            return group_advantages(rewards)

        monkeypatch.setattr(optim, "group_advantages", counted)
        batch = optim._check_groups(policy, groups)
        assert sorted(calls) == [(1, 5), (2, 3), (6, 4)]
        assert batch.advantages.tobytes() == np.concatenate(expected).tobytes()


ROW_SUM_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                             np.inf, -np.inf, np.nan])


def _reduce_each(flat, lengths):
    starts = np.cumsum(lengths) - lengths
    return np.array([np.add.reduce(flat[a:a + n]) for a, n in zip(starts, lengths)])


@pytest.fixture(scope="class", params=[None, 1], ids=["one-block", "split-by-bit-length"])
def row_sum_cells(request):
    """Runs a class as is, then with every batch of rows past ``ROW_SUM_CELLS``."""
    with pytest.MonkeyPatch.context() as mp:
        if request.param is not None:
            mp.setattr(optim, "ROW_SUM_CELLS", request.param)
        yield


@pytest.mark.usefixtures("row_sum_cells")
class TestRowSums:
    # The ratios and the metrics' entropy sums rest on each row sum being
    # numpy's reduce of that row alone, NaN signs included, in one padded
    # block or split into blocks by bit length.
    @given(st.lists(st.integers(1, 300), min_size=1, max_size=6), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_numpys_reduce_of_that_row(self, lengths, seed, special_share):
        # Magnitudes across the float range, with signed zeros, subnormals,
        # +-1e300, +-inf and nan mixed in at the drawn share.
        lengths = np.array(lengths)
        rng = np.random.default_rng(seed)
        flat = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-320, 300, size=lengths.sum())
        special = rng.random(flat.size) < special_share
        flat[special] = rng.choice(ROW_SUM_SPECIALS, size=int(special.sum()))
        with np.errstate(all="ignore"):  # sums near the float limit may reach inf or nan
            got = _row_sums(flat, np.cumsum(lengths) - lengths, lengths)
            assert got.tobytes() == _reduce_each(flat, lengths).tobytes()

    def test_every_length_to_300(self):
        rng = np.random.default_rng(0)
        lengths = rng.permutation(np.arange(1, 301))
        flat = rng.normal(size=lengths.sum()) * 10.0 ** rng.integers(-12, 12, size=lengths.sum())
        flat[rng.random(flat.size) < 0.1] = -0.0
        got = _row_sums(flat, np.cumsum(lengths) - lengths, lengths)
        assert got.tobytes() == _reduce_each(flat, lengths).tobytes()

    def test_rows_in_any_order_and_none(self):
        flat = np.arange(40.0) / 7.0
        starts, lengths = np.array([30, 0, 9]), np.array([10, 9, 21])
        assert _row_sums(flat, starts, lengths).tobytes() == np.array(
            [np.add.reduce(flat[a:a + n]) for a, n in zip(starts, lengths)]).tobytes()
        assert _row_sums(flat, np.array([], int), np.array([], int)).shape == (0,)

    def test_one_long_row_does_not_pad_the_short_ones(self):
        # One block of 1,025 rows x 10,000 columns would take ~170 MB with its index and mask.
        lengths = np.append(np.full(1024, 3), 10_000)
        flat = np.random.default_rng(0).normal(size=lengths.sum())
        starts = np.cumsum(lengths) - lengths
        tracemalloc.start()
        try:
            got = _row_sums(flat, starts, lengths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert got.tobytes() == _reduce_each(flat, lengths).tobytes()


class TestSeqImportanceRatio:
    def test_frozen_value(self):
        # Mean logp delta 0.25 -> e^0.25, from tests/oracles/optim_values.py.
        s = seq_importance_ratio(
            np.array([-0.9, -0.7, -0.65]), np.array([-1.0, -1.0, -1.0])
        )
        assert s == pytest.approx(1.2840254166877414, abs=1e-12)

    def test_identical_logps_give_exactly_one(self):
        lp = np.array([-2.0, -0.5])
        assert seq_importance_ratio(lp, lp.copy()) == 1.0

    def test_length_normalization(self):
        # Same total delta spread over more tokens gives the same ratio.
        short = seq_importance_ratio(np.array([-0.4]), np.array([-1.0]))
        long = seq_importance_ratio(np.full(3, -0.8), np.full(3, -1.0))
        assert short == pytest.approx(np.exp(0.6), abs=1e-12)
        assert long == pytest.approx(np.exp(0.2), abs=1e-12)

    def test_no_overflow_on_long_sequences(self):
        n = 5000
        assert np.isfinite(seq_importance_ratio(np.full(n, -1.0), np.full(n, -200.0)))


def _one_member_group(policy, tokens, old_logp, reward=1.0):
    return RolloutGroup(
        "E0", [GroupMember(tokens, np.asarray(old_logp, dtype=float), reward)],
        policy.snapshot_version,
    )


class TestBoundaryValidation:
    # Both public entry points share one check of the groups they receive.
    ENTRY_POINTS = [
        lambda policy, groups: policy_update_step(policy, groups, OptimConfig(), np.random.default_rng(0)),
        lambda policy, groups: surrogate_objective(policy, groups, OptimConfig()),
    ]
    ENTRY_IDS = ["policy_update_step", "surrogate_objective"]

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_IDS)
    def test_rejects_empty_tokens(self, entry):
        policy, _ = build_fixture(seed=0)
        with pytest.raises(ValueError, match="empty token"):
            entry(policy, [_one_member_group(policy, (), [])])

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_IDS)
    def test_rejects_positive_logp(self, entry):
        policy, _ = build_fixture(seed=0)
        with pytest.raises(ValueError, match="<= 0"):
            entry(policy, [_one_member_group(policy, (6,), [0.1])])

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_IDS)
    def test_rejects_shape_mismatch(self, entry):
        policy, _ = build_fixture(seed=0)
        with pytest.raises(ValueError, match="shape"):
            entry(policy, [_one_member_group(policy, (6, 7), [-1.0])])

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_IDS)
    @pytest.mark.parametrize("tokens", [(10,), (-1,), (3, 12, 1)])
    def test_rejects_token_outside_vocabulary(self, entry, tokens):
        # A token id past the vocabulary would read another entity's row.
        policy, _ = build_fixture(seed=0)
        with pytest.raises(ValueError, match="token ids"):
            entry(policy, [_one_member_group(policy, tokens, [-1.0] * len(tokens))])

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_IDS)
    @pytest.mark.parametrize("reward", [float("nan"), float("inf")])
    def test_rejects_non_finite_reward(self, entry, reward):
        policy, _ = build_fixture(seed=0)
        with pytest.raises(ValueError, match="reward must be finite"):
            entry(policy, [_one_member_group(policy, (6,), [-1.0], reward)])

    @pytest.mark.parametrize("entry", ENTRY_POINTS, ids=ENTRY_IDS)
    def test_rejects_group_without_members(self, entry):
        policy, _ = build_fixture(seed=0)
        grp = RolloutGroup("E0", [], policy.snapshot_version)
        with pytest.raises(ValueError, match="no members"):
            entry(policy, [grp])


class TestClippedTerm:
    # Values from tests/oracles/optim_values.py; eps = (3e-4, 4e-4).
    @pytest.mark.parametrize("s,adv,expected", [
        (2.0, 1.0, 1.0004),
        (0.5, -1.0, -0.9997),
        (1.0, 0.7, 0.7),
        (0.5, 1.0, 0.5),
        (2.0, -1.0, -2.0),
    ])
    def test_frozen_values(self, s, adv, expected):
        assert clipped_term(s, adv, 3e-4, 4e-4) == pytest.approx(expected, abs=1e-15)

    def test_upper_clip_caps_positive_advantage(self):
        # Ratio above 1+eps_high with positive advantage saturates.
        assert clipped_term(1.1, 2.0, 3e-4, 4e-4) == pytest.approx(2 * 1.0004)

    def test_negative_advantage_never_saturates_above(self):
        # min() keeps the unclipped branch when it is more pessimistic.
        assert clipped_term(1.1, -2.0, 3e-4, 4e-4) == pytest.approx(-2.2)


class TestOptimConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"group_size": 1},
        {"eps_low": 0.0},
        {"eps_high": 1.0},
        {"learning_rate": -0.1},
        {"mini_batch_size": 0},
        {"updates_per_batch": 0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"group_size": 2.5},
        {"mini_batch_size": 1.5},
        {"updates_per_batch": True},
        {"eps_low": True},
        {"eps_high": True},
        {"learning_rate": True},
        {"eps_low": "0.1"},
        {"eps_high": None},
        {"learning_rate": "0.1"},
        {"learning_rate": 10**400},
        {"eps_high": -10**400},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimConfig(**kwargs)

    def test_messages_name_the_field(self):
        with pytest.raises(ValueError, match="^eps_low must be a real number, got '0.1'$"):
            OptimConfig(eps_low="0.1")
        with pytest.raises(ValueError, match="^learning_rate must be finite, got an integer beyond float range$"):
            OptimConfig(learning_rate=10**400)

    def test_integer_and_numpy_reals_allowed(self):
        assert OptimConfig(learning_rate=4, eps_low=np.float64(1e-4), eps_high=np.float32(4e-4))

    def test_fields_are_the_papers_hyperparameters(self):
        # The std floor and the batch ceiling are module constants, not settings.
        assert [f.name for f in dataclasses.fields(OptimConfig)] == [
            "group_size", "eps_low", "eps_high", "learning_rate", "mini_batch_size", "updates_per_batch"]
        with pytest.raises(TypeError):
            OptimConfig(std_floor=1e-6)

    def test_zero_learning_rate_allowed(self):
        assert OptimConfig(learning_rate=0.0).learning_rate == 0.0

    def test_rollouts_per_step_limit(self):
        assert MAX_BATCH_ROLLOUTS == 2**18
        assert OptimConfig(group_size=2**14, mini_batch_size=4, updates_per_batch=4)
        with pytest.raises(ValueError, match=r"group_size x mini_batch_size x updates_per_batch = "
                                             r"16385 x 4 x 4 = 262,160 rollouts per step exceeds "
                                             r"MAX_BATCH_ROLLOUTS = 262,144"):
            OptimConfig(group_size=2**14 + 1, mini_batch_size=4, updates_per_batch=4)
        with pytest.raises(ValueError, match="MAX_BATCH_ROLLOUTS"):
            OptimConfig(group_size=10**12)


class TestSurrogateObjective:
    def test_zero_at_unchanged_parameters(self):
        # All ratios 1: the objective is the mean advantage, exactly 0.
        policy, groups = build_fixture(seed=0)
        ent = groups[0].prompt_id
        rewards = [1.2, 0.2, 0.2, 0.2]
        members = [
            GroupMember(m.tokens, policy.token_logps(ent, m.tokens), r)
            for m, r in zip(groups[0].members, rewards)
        ]
        grp = RolloutGroup(ent, members, policy.snapshot_version)
        value = surrogate_objective(policy, [grp], OptimConfig(group_size=4))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_rejects_empty_groups(self):
        policy, _ = build_fixture(seed=0)
        with pytest.raises(ValueError):
            surrogate_objective(policy, [], OptimConfig())

    def test_stale_snapshot_rejected(self):
        policy, groups = build_fixture(seed=0)
        policy.snapshot()
        with pytest.raises(ValueError, match="stale"):
            surrogate_objective(policy, groups, OptimConfig())


CONFIG = OptimConfig(group_size=4)


class TestPolicyUpdateStep:
    def test_gradient_matches_finite_differences(self):
        policy, groups = build_fixture(seed=0)
        assert_clip_margins(policy, groups, CONFIG, min_margin=1e-4)
        analytic = analytic_gradient(policy, groups, CONFIG)
        fd = fd_gradient(policy, groups, CONFIG, h=1e-5)
        assert np.count_nonzero(analytic) > 0
        assert max_relative_error(analytic, fd) < 1e-4

    def test_clip_selected_members_contribute_no_gradient(self):
        # A member is gradient-free only when min() picks the clipped
        # branch: ratio above the band with positive advantage, or below
        # it with negative advantage.  Build one group of each.
        policy, groups = build_fixture(seed=0)
        ent = groups[0].prompt_id
        members = []
        for member, shift, reward in zip(groups[0].members[:2], (+0.01, -0.01), (1.2, 0.2)):
            live = policy.token_logps(ent, member.tokens)
            old = live - shift
            assert np.all(old <= 0.0)
            members.append(GroupMember(member.tokens, old, reward))
        grp = RolloutGroup(ent, members, policy.snapshot_version)
        for member, adv in zip(grp.members, (1.0, -1.0)):
            s = seq_importance_ratio(policy.token_logps(ent, member.tokens), member.old_logp)
            assert (s > 1 + CONFIG.eps_high) if adv > 0 else (s < 1 - CONFIG.eps_low)
        before = policy.logits.copy()
        policy_update_step(policy, [grp], CONFIG, np.random.default_rng(0))
        np.testing.assert_array_equal(policy.logits, before)

    def test_unfavorable_ratios_keep_their_gradient(self):
        # The mirror case: ratio below the band with positive advantage
        # (or above with negative) stays on the unclipped branch.
        policy, groups = build_fixture(seed=0)
        ent = groups[0].prompt_id
        members = []
        for member, shift, reward in zip(groups[0].members[:2], (-0.01, +0.01), (1.2, 0.2)):
            old = policy.token_logps(ent, member.tokens) - shift
            assert np.all(old <= 0.0)
            members.append(GroupMember(member.tokens, old, reward))
        grp = RolloutGroup(ent, members, policy.snapshot_version)
        before = policy.logits.copy()
        policy_update_step(policy, [grp], CONFIG, np.random.default_rng(0))
        assert np.any(policy.logits != before)

    def test_rerunning_after_saturation_is_a_no_op(self):
        # One large step pushes each member past the band on its own
        # clipped side; replaying the same batch then moves nothing.
        policy, groups = build_fixture(seed=0)
        ent = groups[0].prompt_id
        pool = [m for g in groups if g.prompt_id == ent for m in g.members]
        first = pool[0]
        second = next(m for m in pool if m.tokens[0] != first.tokens[0])
        members = [
            GroupMember(source.tokens, policy.token_logps(ent, source.tokens), reward)
            for source, reward in ((first, 1.2), (second, 0.2))
        ]
        grp = RolloutGroup(ent, members, policy.snapshot_version)
        config = OptimConfig(
            group_size=2, learning_rate=100.0, mini_batch_size=1, updates_per_batch=1
        )
        policy_update_step(policy, [grp], config, np.random.default_rng(0))
        for member, adv in zip(grp.members, (1.0, -1.0)):
            s = seq_importance_ratio(policy.token_logps(ent, member.tokens), member.old_logp)
            assert (s > 1 + config.eps_high) if adv > 0 else (s < 1 - config.eps_low)
        before = policy.logits.copy()
        policy_update_step(policy, [grp], config, np.random.default_rng(0))
        np.testing.assert_array_equal(policy.logits, before)

    def test_zero_learning_rate_is_a_no_op(self):
        policy, groups = build_fixture(seed=2)
        before = policy.logits.copy()
        policy_update_step(policy, groups, OptimConfig(group_size=4, learning_rate=0.0),
                           np.random.default_rng(0))
        np.testing.assert_array_equal(policy.logits, before)

    def test_generator_is_required(self):
        # The mini-batch shuffle is never seeded behind the caller's back.
        assert inspect.signature(policy_update_step).parameters["rng"].default is inspect.Parameter.empty

    def test_deterministic_given_rng(self):
        results = []
        for _ in range(2):
            policy, groups = build_fixture(seed=3)
            policy_update_step(
                policy, groups,
                OptimConfig(group_size=4, learning_rate=2.0, updates_per_batch=2),
                rng=np.random.default_rng(7),
            )
            results.append(policy.logits.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_stale_snapshot_rejected(self):
        policy, groups = build_fixture(seed=0)
        policy.snapshot()
        with pytest.raises(ValueError, match="stale"):
            policy_update_step(policy, groups, CONFIG, np.random.default_rng(0))

    def test_advantages_use_std_floor(self):
        # The update normalizes each group's rewards itself: a spread below
        # STD_FLOOR carries no signal, one above it does.
        policy, groups = build_fixture(seed=0)
        ent = groups[0].prompt_id
        config = OptimConfig(group_size=2, learning_rate=1.0)
        before = policy.logits.copy()
        for spread, moves in ((1e-9, False), (1e-5, True)):
            members = [
                GroupMember(m.tokens, policy.token_logps(ent, m.tokens), reward)
                for m, reward in zip(groups[0].members[:2], (1.0, 1.0 + spread))
            ]
            grp = RolloutGroup(ent, members, policy.snapshot_version)
            policy_update_step(policy, [grp], config, np.random.default_rng(0))
            assert np.any(policy.logits != before) == moves

    def test_moves_only_live_parameters(self):
        # The update returns nothing and leaves its inputs as they were:
        # the groups' log-probs and the sampling snapshot stay untouched.
        policy, groups = build_fixture(seed=4)
        old_logps = [m.old_logp.copy() for g in groups for m in g.members]
        params_old = policy.params_old.copy()
        before = policy.logits.copy()
        result = policy_update_step(
            policy, groups, OptimConfig(group_size=4, learning_rate=2.0), np.random.default_rng(0)
        )
        assert result is None
        assert np.any(policy.logits != before)
        np.testing.assert_array_equal(policy.params_old, params_old)
        for member, old in zip((m for g in groups for m in g.members), old_logps):
            np.testing.assert_array_equal(member.old_logp, old)
        assert np.isfinite(surrogate_objective(policy, groups, CONFIG))
