"""Synthetic lexicon, bigram policy, rollouts, and the training loop."""

import numpy as np
import pytest

from entrl import (
    OptimConfig,
    PolicyConfig,
    PriorStructure,
    SyntheticLexicon,
    gen_lexicon,
    init_activation_prior,
    load_policy,
    measure_pass_at_k,
    metrics_to_csv,
    RewardConfig,
    render_response,
    sample_rollout,
    save_policy,
    toy_reward_config,
    train,
)
from entrl.reward import ABLATIONS, score_response
from entrl.toytask import (
    BOS,
    EOS,
    FILLER,
    SRC_MARK,
    THINK_CLOSE,
    THINK_OPEN,
    ToyPolicy,
    _contains_run,
)

LEX = gen_lexicon(seed=7, n_entities=6, vocab_size=32)


def small_policy(seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 1.0, size=(len(LEX.entities), 32, 32))
    return ToyPolicy(LEX, logits)


class TestGenLexicon:
    def test_deterministic(self):
        a = gen_lexicon(seed=7, n_entities=6, vocab_size=32)
        b = gen_lexicon(seed=7, n_entities=6, vocab_size=32)
        assert a.to_dict() == b.to_dict()
        c = gen_lexicon(seed=8, n_entities=6, vocab_size=32)
        assert a.to_dict() != c.to_dict()

    def test_within_entity_tokens_disjoint(self):
        for ent in LEX.entities:
            seen = [t for alias in ent.aliases for t in alias]
            assert len(seen) == len(set(seen))

    def test_no_cross_entity_contiguous_containment(self):
        all_aliases = [a for e in LEX.entities for a in e.aliases]
        for i, a in enumerate(all_aliases):
            for j, b in enumerate(all_aliases):
                if i != j:
                    assert not _contains_run(a, b)

    def test_alias_lengths_in_range(self):
        lex = gen_lexicon(seed=3, n_entities=4, alias_len_range=(3, 5), vocab_size=48)
        for ent in lex.entities:
            assert all(3 <= len(a) <= 5 for a in ent.aliases)

    def test_no_reserved_tokens_in_aliases(self):
        for ent in LEX.entities:
            for alias in ent.aliases:
                assert all(FILLER < t < LEX.vocab_size for t in alias)

    def test_split_disjoint_and_complete(self):
        ids = {e.entity_id for e in LEX.entities}
        assert set(LEX.train_ids) | set(LEX.test_ids) == ids
        assert not set(LEX.train_ids) & set(LEX.test_ids)
        assert len(LEX.train_ids) >= 1 and len(LEX.test_ids) >= 1

    def test_train_fraction(self):
        lex = gen_lexicon(seed=1, n_entities=10, train_fraction=0.8, vocab_size=48)
        assert len(lex.train_ids) == 8

    def test_canonical_ref_extends_first_alias(self):
        for ent in LEX.entities:
            k = len(ent.aliases[0])
            assert ent.canonical_ref[:k] == ent.aliases[0]
            assert len(ent.canonical_ref) - k in (0, 1, 2)

    def test_ref_pad_range_zero_pins_ref_to_alias(self):
        lex = gen_lexicon(seed=7, n_entities=6, vocab_size=32, ref_pad_range=(0, 0))
        for ent in lex.entities:
            assert ent.canonical_ref == ent.aliases[0]

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"n_entities": 1},
        {"alias_len_range": (0, 2)},
        {"alias_len_range": (3, 2)},
        {"train_fraction": 0.0},
        {"train_fraction": 1.0},
        {"ref_pad_range": (-1, 0)},
        {"ref_pad_range": (2, 1)},
        {"vocab_size": 8, "aliases_per_entity": 4, "alias_len_range": (4, 4)},
        {"seed": True},
        {"vocab_size": 32.0},
        {"n_entities": 2.5},
        {"aliases_per_entity": 0},
        {"alias_len_range": (2.0, 3)},
        {"ref_pad_range": (0, 1.5)},
    ])
    def test_rejects_bad_arguments(self, kwargs):
        base = {"seed": 0, "n_entities": 4, "vocab_size": 32}
        base.update(kwargs)
        with pytest.raises(ValueError):
            gen_lexicon(**base)


class TestSyntheticLexicon:
    def test_token_text_zero_padded(self):
        assert LEX.token_text(7) == "t07"
        wide = gen_lexicon(seed=0, n_entities=4, vocab_size=120)
        assert wide.token_text(7) == "t007"

    def test_alias_text_space_joined(self):
        ent = LEX.entities[0]
        text = LEX.alias_text(ent.aliases[0])
        assert text.split() == [LEX.token_text(t) for t in ent.aliases[0]]

    def test_gold_contains_every_alias(self):
        ent = LEX.entities[0]
        gold = LEX.gold(ent.entity_id)
        assert len(gold.normalized_aliases) == len(ent.aliases)

    def test_ref_lengths_is_canonical_ref_token_count(self):
        ent = LEX.entities[0]
        assert LEX.ref_lengths(ent.entity_id) == [len(ent.canonical_ref)]

    def test_unknown_entity_rejected(self):
        with pytest.raises(ValueError, match="unknown entity_id"):
            LEX.entity("nope")

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "lexicon.json"
        LEX.save(path)
        again = SyntheticLexicon.load(path)
        assert again == LEX

    def test_validation_rejects_overlapping_split(self):
        doc = LEX.to_dict()
        doc["test_ids"] = list(doc["test_ids"]) + [doc["train_ids"][0]]
        with pytest.raises(ValueError, match="overlap"):
            SyntheticLexicon.from_dict(doc)

    def test_validation_rejects_reserved_alias_tokens(self):
        doc = LEX.to_dict()
        doc["entities"][0]["aliases"][0][0] = FILLER
        with pytest.raises(ValueError, match="reserved"):
            SyntheticLexicon.from_dict(doc)

    def test_index_and_golds_built_once_and_outside_equality(self):
        for row, ent in enumerate(LEX.entities):
            assert LEX.entity_index(ent.entity_id) == row
            assert LEX.entity(ent.entity_id) is ent
            assert LEX.gold(ent.entity_id) is LEX.gold(ent.entity_id)
            assert LEX.gold(ent.entity_id).aliases == tuple(map(LEX.alias_text, ent.aliases))
        again = SyntheticLexicon.from_dict(LEX.to_dict())
        assert again == LEX and hash(again) == hash(LEX)
        assert repr(again) == repr(LEX) and "golds" not in repr(LEX)
        assert LEX.token_texts == tuple(map(LEX.token_text, range(LEX.vocab_size)))
        assert "token_texts" not in repr(LEX)

    def test_vocabulary_size_costs_no_memory_until_rendered(self):
        import tracemalloc

        doc = {**LEX.to_dict(), "vocab_size": 10**6}
        tracemalloc.start()
        try:
            big = SyntheticLexicon.from_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a table of 10**6 token texts takes ~65 MB
        assert big.entities == LEX.entities and big.vocab_size == 10**6

    @pytest.mark.parametrize("where, value", [
        (("vocab_size",), 32.0),
        (("vocab_size",), True),
        (("entities", 0, "source_token"), 7.0),
        (("entities", 0, "aliases", 0, 0), 7.5),
        (("entities", 0, "aliases", 0, 0), True),
        (("entities", 0, "canonical_ref"), [6.0]),
        (("entities", 0, "entity_id"), 0),
        (("train_ids",), [["E0"]]),
    ])
    def test_validation_rejects_non_integer_tokens_and_non_string_ids(self, where, value):
        # from_dict coerces nothing, so a loaded lexicon is checked like a built one.
        with pytest.raises(ValueError, match="integer|string"):
            SyntheticLexicon.from_dict(edited_lexicon_doc(where, value))

    @pytest.mark.parametrize("where, value, match", [
        (("entities", 0, "canonical_ref"), [], "empty"),
        (("entities", 0, "aliases", 1), [], "empty"),
        (("entities", 0, "source_token"), FILLER, "reserved"),
        (("entities", 0, "source_token"), 32, "out-of-vocabulary"),
        (("entities", 0, "canonical_ref", 0), EOS, "reserved"),
        (("entities", 0, "canonical_ref", 0), -1, "reserved"),
        (("entities", 1, "canonical_ref", 0), 32, "out-of-vocabulary"),
    ])
    def test_validation_rejects_empty_reference_and_tokens_outside_the_entity_range(
        self, where, value, match
    ):
        # gen_lexicon draws source, alias and reference tokens from (FILLER, vocab_size).
        with pytest.raises(ValueError, match=match):
            SyntheticLexicon.from_dict(edited_lexicon_doc(where, value))

    @pytest.mark.parametrize("doc", [
        [],
        {"entities": []},
        {**LEX.to_dict(), "entities": 5},
        {**LEX.to_dict(), "train_ids": "E0"},
        {**LEX.to_dict(), "entities": [{"entity_id": "E0"}]},
        {**LEX.to_dict(), "entities": [{**LEX.to_dict()["entities"][0], "aliases": [7]}]},
    ])
    def test_from_dict_rejects_documents_of_the_wrong_shape(self, doc):
        with pytest.raises(ValueError, match="lexicon document"):
            SyntheticLexicon.from_dict(doc)


def edited_lexicon_doc(where: tuple, value) -> dict:
    """``LEX.to_dict()`` with the item at path ``where`` set to ``value``."""
    doc = LEX.to_dict()
    *path, last = where
    target = doc
    for key in path:
        target = target[key]
    target[last] = value
    return doc


class TestToyPolicy:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="logits shape"):
            ToyPolicy(LEX, np.zeros((2, 32, 32)))

    def test_snapshot_freezes_and_bumps_version(self):
        policy = small_policy()
        assert policy.snapshot_version == 0
        policy.logits[0, 0, 6] += 1.0
        policy.snapshot()
        assert policy.snapshot_version == 1
        np.testing.assert_array_equal(policy.params_old, policy.logits)
        policy.logits[0, 0, 6] += 1.0
        assert policy.params_old[0, 0, 6] != policy.logits[0, 0, 6]

    def test_token_logps_old_vs_new(self):
        # token_logps reads the live parameters: right after snapshot() they
        # are the snapshot, later they move on their own.
        policy = small_policy()
        ent = LEX.entities[0].entity_id
        tokens = (6, 7, EOS)
        policy.snapshot()
        old = policy.token_logps(ent, tokens)
        before = sample_rollout(policy, ent, max_len=12, seed=2)
        policy.logits += 0.5  # uniform shift keeps softmax identical
        np.testing.assert_allclose(policy.token_logps(ent, tokens), old, atol=1e-12)
        policy.logits[policy.lexicon.entity_index(ent), BOS, 6] += 2.0
        assert policy.token_logps(ent, tokens)[0] != pytest.approx(float(old[0]))
        # Sampling still reads the snapshot.
        after = sample_rollout(policy, ent, max_len=12, seed=2)
        assert after.tokens == before.tokens
        np.testing.assert_array_equal(after.old_logp, before.old_logp)

    def test_token_logps_sum_to_one_over_vocab(self):
        policy = small_policy()
        ent = LEX.entities[0].entity_id
        total = sum(
            np.exp(policy.token_logps(ent, (t,))[0]) for t in range(LEX.vocab_size)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_n_params(self):
        assert small_policy().n_params == 6 * 32 * 32

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_temperature_validation(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            ToyPolicy(LEX, np.zeros((6, 32, 32)), temperature=temperature)

    def test_apply_gradient_shape_check(self):
        policy = small_policy()
        with pytest.raises(ValueError):
            policy.apply_gradient(np.zeros((2, 2)), 0.1)


class TestSampleRollout:
    def test_deterministic_by_seed(self):
        policy = small_policy()
        ent = LEX.entities[0].entity_id
        a = sample_rollout(policy, ent, max_len=12, seed=5)
        b = sample_rollout(policy, ent, max_len=12, seed=5)
        assert a.tokens == b.tokens
        np.testing.assert_array_equal(a.old_logp, b.old_logp)
        c = sample_rollout(policy, ent, max_len=12, seed=6)
        assert a.tokens != c.tokens or not np.array_equal(
            a.old_logp, c.old_logp
        )

    def test_old_logp_matches_recomputation_exactly(self):
        # Right after snapshot() the live log-probs equal the recorded ones.
        policy = small_policy()
        policy.snapshot()
        for e_idx in range(len(LEX.entities)):
            ent = LEX.entities[e_idx].entity_id
            for seed in range(20):
                ro = sample_rollout(policy, ent, max_len=12, seed=seed)
                np.testing.assert_array_equal(ro.old_logp, policy.token_logps(ent, ro.tokens))

    def test_eos_terminates_and_is_included(self):
        policy = small_policy()
        ent = LEX.entities[0].entity_id
        for seed in range(30):
            ro = sample_rollout(policy, ent, max_len=40, seed=seed)
            if not ro.truncated:
                assert ro.tokens[-1] == EOS
                assert EOS not in ro.tokens[:-1]

    def test_truncation_flag(self):
        # EOS unreachable: logits force an endless loop between two tokens.
        logits = np.full((6, 32, 32), -20.0)
        logits[:, :, 6] = 10.0
        policy = ToyPolicy(LEX, logits)
        ro = sample_rollout(policy, LEX.entities[0].entity_id, max_len=5, seed=0)
        assert ro.truncated
        assert len(ro.tokens) == 5
        assert EOS not in ro.tokens

    def test_entropies_per_token(self):
        policy = small_policy()
        ro = sample_rollout(policy, LEX.entities[0].entity_id, max_len=12, seed=3)
        assert ro.entropies.shape == (len(ro.tokens),)
        assert np.all(ro.entropies >= 0.0)

    def test_max_len_validation(self):
        # The sampler's check covers its callers; TestTrain covers train's.
        ent = LEX.entities[0].entity_id
        for max_len in (0, True, 2.5):
            with pytest.raises(ValueError, match="max_len"):
                sample_rollout(small_policy(), ent, max_len=max_len, seed=0)
            with pytest.raises(ValueError, match="max_len"):
                measure_pass_at_k(small_policy(), [ent], n=2, ks=(1,), seed=0, max_len=max_len)

    @pytest.mark.parametrize(
        "seed", [np.random.default_rng(0), np.random.PCG64(0), None, True, 1.5]
    )
    def test_rejects_seeds_that_are_not_int_tuple_or_seed_sequence(self, seed):
        # A rollout never advances a caller's generator, and None would seed
        # from the operating system.
        with pytest.raises(TypeError, match="seed must be"):
            sample_rollout(small_policy(), LEX.entities[0].entity_id, max_len=12, seed=seed)

    def test_accepts_int_tuple_and_seed_sequence(self):
        policy = small_policy()
        ent = LEX.entities[0].entity_id
        a = sample_rollout(policy, ent, max_len=12, seed=np.random.SeedSequence((3, 1)))
        b = sample_rollout(policy, ent, max_len=12, seed=(3, 1))
        c = sample_rollout(policy, ent, max_len=12, seed=np.int64(3))
        assert a.tokens == b.tokens
        assert c.tokens == sample_rollout(policy, ent, max_len=12, seed=3).tokens


def format_response(lexicon, tokens, config):
    """The f-string rendering that ``render_response``'s token table replaced."""
    width = len(str(lexicon.vocab_size - 1))
    marks = {THINK_OPEN: config.open_marker, THINK_CLOSE: config.close_marker, SRC_MARK: "<src>"}
    return " ".join(marks[t] if t in marks else f"t{t:0{width}d}"
                    for t in tokens if t not in (BOS, EOS))


class TestRenderResponse:
    def test_markers_and_spacing(self):
        tokens = (BOS, THINK_OPEN, FILLER, THINK_CLOSE, 6, 7, EOS)
        text = render_response(LEX, tokens, toy_reward_config())
        assert text == "<think> t05 </think> t06 t07"

    def test_custom_markers(self):
        cfg = RewardConfig(length_unit="tokens", open_marker="[[", close_marker="]]")
        tokens = (THINK_OPEN, THINK_CLOSE, 8, EOS)
        assert render_response(LEX, tokens, cfg) == "[[ ]] t08"

    @pytest.mark.parametrize("vocab_size", [48, 1001, 1500])
    @pytest.mark.parametrize("markers", [("<think>", "</think>"), ("[[", "]]"), ("<r>", "</r>")])
    def test_same_text_as_formatting_each_token(self, vocab_size, markers):
        lex = gen_lexicon(seed=3, n_entities=4, vocab_size=vocab_size)
        cfg = RewardConfig(length_unit="tokens", open_marker=markers[0], close_marker=markers[1])
        rng = np.random.default_rng(vocab_size)
        cases = [(), (BOS, EOS), (SRC_MARK, 9, THINK_OPEN, FILLER, THINK_CLOSE, vocab_size - 1, EOS),
                 *(tuple(rng.integers(0, vocab_size, size=12).tolist()) for _ in range(50))]
        for tokens in cases:
            assert render_response(lex, tokens, cfg) == format_response(lex, tokens, cfg)

    @pytest.mark.parametrize("tokens", [(6, 32), (-1, 6), (THINK_OPEN, 10**6)])
    def test_rejects_tokens_outside_the_vocabulary(self, tokens):
        with pytest.raises(ValueError, match="token ids"):
            render_response(LEX, tokens, toy_reward_config())

    def test_round_trip_through_reward(self):
        # A rendered well-formed sequence passes the strict parser.
        from entrl import parse_segments

        tokens = (BOS, THINK_OPEN, FILLER, THINK_CLOSE, 6, 7, EOS)
        cfg = toy_reward_config()
        seg = parse_segments(render_response(LEX, tokens, cfg), cfg)
        assert seg.format_valid == 1
        assert seg.trans == "t06 t07"


class TestToyRewardConfig:
    def test_token_unit_default(self):
        assert toy_reward_config().length_unit == "tokens"


class TestMeasurePassAtK:
    def test_counts_and_curve(self):
        policy = small_policy()
        ids = LEX.train_ids[:2]
        curve, counts = measure_pass_at_k(policy, ids, n=32, ks=(1, 8), seed=4)
        assert len(counts) == 2
        assert all(0 <= c <= 32 for c in counts)
        assert curve.ks == (1, 8)
        assert curve.estimates[0] <= curve.estimates[1] + 1e-12

    def test_deterministic(self):
        policy = small_policy()
        ids = LEX.train_ids[:2]
        a = measure_pass_at_k(policy, ids, n=16, ks=(1,), seed=4)
        b = measure_pass_at_k(policy, ids, n=16, ks=(1,), seed=4)
        assert a == b

    @pytest.mark.parametrize("kwargs", [
        {"n": 0},
        {"n": -1},
        {"n": 2.0},
        {"n": True},
        {"entity_ids": ()},
        {"seed": True},
        {"seed": 1.0},
        {"seed": -1},
        {"ks": (0,)},
        {"ks": (1, 9)},
        {"ks": ()},
        {"ks": (1.5,)},
        {"ks": (True,)},
    ])
    def test_rejects_bad_values(self, kwargs, monkeypatch):
        # Rejected before any rollout is sampled.
        import entrl.toytask as toytask

        def no_sampling(*args, **kw):
            raise AssertionError("sampled before rejecting")

        monkeypatch.setattr(toytask, "_sample_batch", no_sampling)
        args = {"entity_ids": LEX.train_ids[:2], "n": 8, "ks": (1,), "seed": 0, **kwargs}
        with pytest.raises(ValueError):
            measure_pass_at_k(small_policy(), **args)

    def test_memory_grows_with_tokens_emitted_not_max_len(self):
        # The prior's rollouts end at EOS within a few tokens; a sampler that
        # sized its buffers by rows x max_len would need ~40 GB here.
        import tracemalloc

        policy = prior_policy()
        tracemalloc.start()
        try:
            curve, counts = measure_pass_at_k(policy, LEX.train_ids[:2], n=64, ks=(1,),
                                              seed=3, max_len=10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts) == 2
        assert peak < 4 * 2**20


class TestPolicyConfig:
    @pytest.mark.parametrize("kwargs", [
        {"max_len": 0},
        {"max_len": True},
        {"max_len": 2.5},
        {"eval_samples": -1},
        {"eval_samples": 0},
        {"eval_samples": 64.0},
        {"k_high": 0},
        {"k_high": False},
        {"k_high": 512},
        {"max_attempts": 0},
        {"max_attempts": True},
        {"pass64_floor": float("nan")},
        {"pass64_floor": float("inf")},
        {"pass64_floor": -0.1},
        {"pass64_floor": 1.5},
        {"pass64_floor": True},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PolicyConfig(**kwargs)

    def test_edge_values_allowed(self):
        cfg = PolicyConfig(max_len=1, eval_samples=64, k_high=64, pass64_floor=1.0, max_attempts=1)
        assert cfg.k_high == cfg.eval_samples
        assert PolicyConfig(pass64_floor=0.0, max_len=np.int64(3)).pass64_floor == 0.0


class TestPriorStructure:
    def test_defaults(self):
        st = PriorStructure()
        assert (st.chain_strength, st.distractor_eos, st.alias_end_eos) == (6.0, 4.0, 6.0)

    def test_rejects_non_finite(self):
        for kwargs in ({"chain_strength": float("nan")}, {"distractor_eos": float("inf")},
                       {"chain_strength": True}, {"alias_end_eos": False}):
            with pytest.raises(ValueError):
                PriorStructure(**kwargs)


class TestInitActivationPrior:
    def test_reaches_latent_regime(self):
        cfg = PolicyConfig(eval_samples=96, k_high=32, pass64_floor=0.5)
        policy = init_activation_prior(LEX, cfg, target_pass1_max=0.15, seed=2)
        curve, _ = measure_pass_at_k(
            policy, LEX.train_ids, n=96, ks=(1, 32), seed=123
        )
        pass1, pass_high = curve.estimates
        assert pass1 <= 0.15
        assert pass_high >= 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            init_activation_prior(LEX, PolicyConfig(), target_pass1_max=0.0, seed=0)
        for temperature in (0.0, float("nan")):
            with pytest.raises(ValueError, match="temperature"):
                init_activation_prior(
                    LEX, PolicyConfig(temperature=temperature), target_pass1_max=0.1, seed=0
                )


SMALL_OPTIM = OptimConfig(group_size=4, mini_batch_size=2, updates_per_batch=2)

# Random logits almost never emit a well-formed response, so training on
# them is a provable no-op (all rewards 0).  Reward-bearing tests start
# from the structured prior instead; built once, copied per test.
_PRIOR_LOGITS = init_activation_prior(
    LEX,
    PolicyConfig(eval_samples=64, k_high=16, pass64_floor=0.3),
    target_pass1_max=0.3,
    seed=2,
).logits


def prior_policy():
    return ToyPolicy(LEX, _PRIOR_LOGITS.copy())


class TestTrain:
    def test_steps_zero_measures_without_updating(self):
        policy = small_policy()
        before = policy.logits.copy()
        res = train(LEX, policy, toy_reward_config(), SMALL_OPTIM, steps=0, seed=3)
        np.testing.assert_array_equal(policy.logits, before)
        assert len(res.metrics) == 1
        assert res.metrics[0].step == 0
        assert len(res.final_rollouts) == 2 * 2 * 4

    def test_metrics_row_per_step(self):
        res = train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, steps=3, seed=3)
        assert [row.step for row in res.metrics] == [0, 1, 2]
        for row in res.metrics:
            assert 0.0 <= row.mean_reward <= 1.2
            assert 0.0 <= row.pass1_eval <= 1.0
            assert row.mean_trans_length >= 0.0
            assert row.mean_entropy >= 0.0

    def test_deterministic_same_seed(self):
        a = train(LEX, prior_policy(), toy_reward_config(), SMALL_OPTIM, steps=3, seed=5)
        b = train(LEX, prior_policy(), toy_reward_config(), SMALL_OPTIM, steps=3, seed=5)
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.policy.logits, b.policy.logits)

    def test_different_seed_differs(self):
        a = train(LEX, prior_policy(), toy_reward_config(), SMALL_OPTIM, steps=3, seed=5)
        b = train(LEX, prior_policy(), toy_reward_config(), SMALL_OPTIM, steps=3, seed=6)
        assert not np.array_equal(a.policy.logits, b.policy.logits)

    def test_rewards_move_parameters(self):
        policy = prior_policy()
        before = policy.logits.copy()
        res = train(LEX, policy, toy_reward_config(), SMALL_OPTIM, steps=3, seed=5)
        assert any(row.mean_reward > 0.0 for row in res.metrics)
        assert not np.array_equal(policy.logits, before)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, steps=-1)
        with pytest.raises(ValueError):
            train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, steps=1, seed=-1)
        for kwargs in ({"steps": True}, {"steps": 1.5}, {"steps": 1, "seed": True}):
            with pytest.raises(ValueError, match="integer"):
                train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, **kwargs)
        with pytest.raises(ValueError, match="unknown ablation"):
            train(
                LEX, small_policy(), toy_reward_config(), SMALL_OPTIM,
                steps=1, ablation="nope",
            )
        for max_len in (True, 2.5):
            with pytest.raises(ValueError, match="max_len"):
                train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, steps=1,
                      max_len=max_len)

    @pytest.mark.parametrize(
        "bad", [{"max_len": 0}, {"max_len": -3}, {"max_len": True}, {"max_len": 2.5},
                {"ablation": "nope"}],
        ids=["0", "-3", "True", "2.5", "nope"],
    )
    def test_bad_max_len_rejected_before_the_snapshot(self, bad):
        policy = prior_policy()
        policy.logits[0, 0, 6] += 1.0  # live parameters off the snapshot
        params_old = policy.params_old.copy()
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            train(LEX, policy, toy_reward_config(), SMALL_OPTIM, steps=1, **bad)
        assert policy.snapshot_version == 0
        assert policy.params_old.tobytes() == params_old.tobytes()

    def test_rejects_a_lexicon_that_is_not_the_policys(self):
        # Rows and gold sets come from the policy's lexicon; training it
        # against another would score every rollout against foreign golds.
        policy = prior_policy()
        before = policy.logits.copy()
        other = gen_lexicon(seed=8, n_entities=6, vocab_size=32)
        with pytest.raises(ValueError, match="policy's lexicon"):
            train(other, policy, toy_reward_config(), SMALL_OPTIM, steps=1, seed=3)
        np.testing.assert_array_equal(policy.logits, before)
        assert policy.snapshot_version == 0
        # An equal lexicon, loaded separately, is the policy's.
        same = SyntheticLexicon.from_dict(LEX.to_dict())
        assert len(train(same, policy, toy_reward_config(), SMALL_OPTIM, steps=1).metrics) == 1

    def test_update_hook_sees_every_step(self, monkeypatch):
        # The benchmark checks rewards by wrapping toytask.policy_update_step;
        # train must reach it by that name, once per step, with scored groups.
        import entrl.toytask as toytask

        calls = []

        def recorder(policy, groups, config, rng=None):
            calls.append(groups)

        monkeypatch.setattr(toytask, "policy_update_step", recorder)
        batch = SMALL_OPTIM.mini_batch_size * SMALL_OPTIM.updates_per_batch
        alpha = toy_reward_config().alpha
        allowed = {0.0, alpha, alpha + 1}
        for steps in (2, 0):
            calls.clear()
            train(LEX, prior_policy(), toy_reward_config(), SMALL_OPTIM, steps=steps, seed=5)
            assert len(calls) == steps
            for groups in calls:
                assert len(groups) == batch
                for group in groups:
                    assert len(group.members) == SMALL_OPTIM.group_size
                    assert {m.reward for m in group.members} <= allowed

    def test_ablation_changes_rewards_not_sampling(self):
        # Same seed: step-0 rollouts are identical, so only reward-derived
        # columns may differ between ablations.
        a = train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, steps=0, seed=9)
        b = train(
            LEX, small_policy(), toy_reward_config(), SMALL_OPTIM,
            steps=0, seed=9, ablation="no_len_gate",
        )
        assert a.metrics[0].mean_trans_length == b.metrics[0].mean_trans_length
        assert a.metrics[0].mean_entropy == b.metrics[0].mean_entropy
        for ra, rb in zip(a.final_rollouts, b.final_rollouts):
            assert ra.trans_len == rb.trans_len
            assert rb.breakdown.len_gate == (1 if rb.breakdown.fmt_gate else 0)

    def test_final_rollout_scores_consistent(self):
        res = train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, steps=2, seed=4)
        for score in res.final_rollouts:
            b = score.breakdown
            assert b.reward == pytest.approx(b.fmt_gate * b.len_gate * (0.2 + b.match))

    def test_final_rollouts_agree_with_last_metrics_row(self):
        res = train(LEX, prior_policy(), toy_reward_config(), SMALL_OPTIM, steps=2, seed=5)
        final = res.final_rollouts
        assert len(final) == 2 * 2 * 4
        # Same sums in the same order as the metrics row, so equal exactly.
        trans_len_sum, reward_sum = 0, 0.0
        for score in final:
            trans_len_sum += score.trans_len
            reward_sum += score.breakdown.reward
        assert trans_len_sum / len(final) == res.metrics[-1].mean_trans_length
        assert reward_sum / len(final) == res.metrics[-1].mean_reward


def counted_scorer(monkeypatch):
    """Replace the scorer ``train`` uses with one that records each pair it scores."""
    import entrl.toytask as toytask

    seen = []

    def scorer(raw, gold, ref_lengths, config, ablation="full"):
        seen.append((gold.entity_id, raw))
        return score_response(raw, gold, ref_lengths, config, ablation)

    monkeypatch.setattr(toytask, "score_response", scorer)
    return seen


class TestScoreCache:
    @pytest.mark.parametrize("ablation", ABLATIONS)
    def test_cached_scores_equal_fresh_ones(self, ablation, monkeypatch):
        seen = counted_scorer(monkeypatch)
        cfg = toy_reward_config()
        res = train(LEX, prior_policy(), cfg, SMALL_OPTIM, steps=6, ablation=ablation, seed=5)
        assert len(seen) < 6 * len(res.final_rollouts)  # some rollouts were cache hits
        for s in res.final_rollouts:
            ent = s.entity_id
            breakdown, seg = score_response(render_response(LEX, s.rollout.tokens, cfg),
                                            LEX.gold(ent), LEX.ref_lengths(ent), cfg, ablation)
            assert s.breakdown == breakdown
            assert s.trans_len == len(seg.trans.split())

    def test_one_score_per_distinct_pair_of_a_step(self, monkeypatch):
        seen = counted_scorer(monkeypatch)
        optim = OptimConfig(group_size=16, mini_batch_size=4, updates_per_batch=2)
        res = train(LEX, prior_policy(), toy_reward_config(), optim, steps=1, seed=5)
        pairs = {(s.entity_id, s.rollout.tokens) for s in res.final_rollouts}
        assert len(pairs) < len(res.final_rollouts)
        assert len(seen) == len(set(seen)) == len(pairs)

    def test_equal_scores_are_one_object(self):
        res = train(LEX, prior_policy(), toy_reward_config(), SMALL_OPTIM, steps=4, seed=5)
        by_value = {}
        for s in res.final_rollouts:
            assert by_value.setdefault((s.breakdown, s.trans_len), s.breakdown) is s.breakdown
        assert len(by_value) < len(res.final_rollouts)

    def test_measure_pass_at_k_counts_unchanged_by_the_bound(self, monkeypatch):
        import entrl.toytask as toytask

        policy = prior_policy()
        kept = measure_pass_at_k(policy, LEX.train_ids, n=64, ks=(1, 8), seed=2)
        monkeypatch.setattr(toytask, "SCORE_CACHE_SIZE", 1)
        assert measure_pass_at_k(policy, LEX.train_ids, n=64, ks=(1, 8), seed=2) == kept


class TestMetricsCsv:
    def test_header_and_rows(self, tmp_path):
        res = train(LEX, small_policy(), toy_reward_config(), SMALL_OPTIM, steps=2, seed=1)
        path = tmp_path / "metrics.csv"
        metrics_to_csv(res.metrics, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,mean_reward,mean_trans_length,mean_entropy,pass1_eval"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(res.metrics[0].mean_reward)


class TestPolicySerialization:
    def test_round_trip(self, tmp_path):
        policy = small_policy()
        policy.snapshot()
        policy.logits[0, 0, 6] += 0.25
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        again = load_policy(path, LEX)
        np.testing.assert_array_equal(again.logits, policy.logits)
        np.testing.assert_array_equal(again.params_old, policy.params_old)
        assert again.snapshot_version == policy.snapshot_version
        assert again.temperature == policy.temperature

    def test_lexicon_mismatch_rejected(self, tmp_path):
        policy = small_policy()
        path = tmp_path / "policy.npz"
        save_policy(policy, path)
        other = gen_lexicon(seed=99, n_entities=6, vocab_size=32)
        with pytest.raises(ValueError, match="does not match"):
            load_policy(path, other)

    @pytest.mark.parametrize("field,value,match", [
        ("params_old", np.full((6, 32, 33), np.nan), "shape"),
        ("params_old", np.full((6, 32, 32), np.nan), "non-finite"),
        ("logits", np.full((6, 32, 32), np.inf), "non-finite"),
        ("temperature", np.array([1.0, 1.0]), "temperature must be a real scalar"),
        ("temperature", np.asarray("1.0"), "temperature must be a real scalar"),
        ("snapshot_version", np.asarray(1.5), "snapshot_version must be an integer"),
        ("snapshot_version", np.asarray(-3), "snapshot_version must be an integer"),
        ("snapshot_version", np.array([1]), "snapshot_version must be an integer"),
        *[(name, None, f"lacks {name}") for name in
          ("logits", "params_old", "temperature", "snapshot_version", "lexicon_digest")],
    ])
    def test_doctored_parameters_rejected(self, tmp_path, field, value, match):
        # A value of None drops the array from the file.
        path = tmp_path / "policy.npz"
        save_policy(small_policy(), path)
        with np.load(path) as data:
            arrays = dict(data)
        if value is None:
            del arrays[field]
        else:
            arrays[field] = value
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=match):
            load_policy(path, LEX)
