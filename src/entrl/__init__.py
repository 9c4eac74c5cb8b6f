"""Verifiable-reward reinforcement learning toolkit for entity translation.

The pieces compose in reward -> advantage -> update order:

* :mod:`entrl.textnorm` normalizes text and matches gold entity aliases;
* :mod:`entrl.reward` gates responses on format and length and pays a
  partial reward for compliance plus a unit for a correct entity;
* :mod:`entrl.optim` turns grouped rewards into normalized advantages and
  applies the clipped sequence-level surrogate update;
* :mod:`entrl.toytask` is a self-contained synthetic training environment
  with a tabular policy;
* :mod:`entrl.evalkit` provides pass@k, entity accuracy, and chrF;
* :mod:`entrl.scoring` / :mod:`entrl.cli` expose batch scoring, a line
  protocol service, and the training loop as commands.

Quick taste::

    from entrl import GoldEntitySet, RewardConfig, compute_reward

    gold = GoldEntitySet("E0", ("La Casa de Papel",))
    config = RewardConfig()
    out = compute_reward("<think>ok</think> la casa de papel", gold, [20], config)
    assert out.reward == 1.2
"""

import importlib

__version__ = "0.1.0"

# The package's public names, by defining module: the only list of them.
_EXPORTS = {
    "evalkit": ("PassAtKCurve", "PassAtKInput", "chrf", "entity_accuracy", "pass_at_k_curve",
                "pass_at_k_single"),
    "optim": ("GroupMember", "OptimConfig", "RolloutGroup", "clipped_term", "group_advantages",
              "policy_update_step", "seq_importance_ratio", "surrogate_objective"),
    "reward": ("ABLATIONS", "RewardBreakdown", "RewardConfig", "compute_reward", "length_gate",
               "parse_segments", "score_response"),
    "scoring": ("RecordError", "RewardService", "ScoreSummary", "decode_line", "score_lines",
                "score_record", "serve_stdio", "summarize"),
    "textnorm": ("GoldEntitySet", "match_entity", "normalize"),
    "toytask": ("PolicyConfig", "PriorStructure", "SyntheticLexicon", "ToyPolicy", "gen_lexicon",
                "init_activation_prior", "load_policy", "measure_pass_at_k", "metrics_to_csv",
                "render_response", "sample_rollout", "save_policy", "toy_reward_config", "train"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's module on first use (PEP 562).

    The result is not stored here, so a function patched later in its
    defining module is the one ``entrl.<name>`` returns.
    """
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
