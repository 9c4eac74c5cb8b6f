"""Golden digest of a short fixed-seed training run.

The criterion-5 configuration trained for a few steps must reproduce
``metrics.csv`` and the saved ``logits``/``params_old`` arrays bit for bit.
Any change to sampling, scoring or the update that alters a single float
changes one of these digests; a refactor that keeps them is equivalent.
"""

import hashlib

import numpy as np

import entrl.toytask as toytask
from entrl import (
    OptimConfig,
    PolicyConfig,
    gen_lexicon,
    init_activation_prior,
    metrics_to_csv,
    save_policy,
    toy_reward_config,
    train,
)

STEPS = 20
METRICS_SHA256 = "4a19ef6bb11ae9dc14896e9d27c6c44984d639b05b010114a8b7389aff611ea2"
LOGITS_SHA256 = "36ed239d54ef4dd095bbe3ffe668fc683244d4477676474becdf10bbe200a24c"
PARAMS_OLD_SHA256 = "4d90373632e7bafd0f07faad20a7f0f405433d828787b3f3d20010d8774fd9e7"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _training_run_digests(tmp_path) -> tuple[str, str, str]:
    lexicon = gen_lexicon(seed=42, n_entities=20, vocab_size=48)
    policy = init_activation_prior(lexicon, PolicyConfig(), target_pass1_max=0.10, seed=5)
    result = train(
        lexicon, policy, toy_reward_config(), OptimConfig(learning_rate=4.0),
        steps=STEPS, ablation="full", seed=11,
    )
    metrics_to_csv(result.metrics, tmp_path / "metrics.csv")
    save_policy(result.policy, tmp_path / "policy.npz")
    with np.load(tmp_path / "policy.npz", allow_pickle=False) as data:
        logits, params_old = data["logits"], data["params_old"]
    return (_sha256((tmp_path / "metrics.csv").read_bytes()),
            _sha256(np.ascontiguousarray(logits).tobytes()),
            _sha256(np.ascontiguousarray(params_old).tobytes()))


def test_short_training_run_matches_golden_digests(tmp_path):
    assert _training_run_digests(tmp_path) == (METRICS_SHA256, LOGITS_SHA256, PARAMS_OLD_SHA256)


def test_score_cache_of_one_pair_keeps_the_digests(tmp_path, monkeypatch):
    # The cache is emptied before nearly every rollout's score is stored.
    monkeypatch.setattr(toytask, "SCORE_CACHE_SIZE", 1)
    assert _training_run_digests(tmp_path) == (METRICS_SHA256, LOGITS_SHA256, PARAMS_OLD_SHA256)
