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

from .evalkit import (
    PassAtKCurve,
    PassAtKInput,
    chrf,
    entity_accuracy,
    pass_at_k_curve,
    pass_at_k_single,
)
from .optim import (
    GroupMember,
    OptimConfig,
    RolloutGroup,
    clipped_term,
    group_advantages,
    policy_update_step,
    seq_importance_ratio,
    surrogate_objective,
)
from .reward import (
    ABLATIONS,
    RewardBreakdown,
    RewardConfig,
    compute_reward,
    length_gate,
    parse_segments,
    score_response,
)
from .scoring import (
    RecordError,
    RewardService,
    ScoreSummary,
    decode_line,
    score_lines,
    score_record,
    serve_stdio,
    summarize,
)
from .textnorm import GoldEntitySet, match_entity, normalize
from .toytask import (
    PolicyConfig,
    PriorStructure,
    SyntheticLexicon,
    ToyPolicy,
    gen_lexicon,
    init_activation_prior,
    load_policy,
    measure_pass_at_k,
    metrics_to_csv,
    render_response,
    sample_rollout,
    save_policy,
    toy_reward_config,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ABLATIONS",
    "GoldEntitySet",
    "GroupMember",
    "OptimConfig",
    "PassAtKCurve",
    "PassAtKInput",
    "PolicyConfig",
    "PriorStructure",
    "RecordError",
    "RewardBreakdown",
    "RewardConfig",
    "RewardService",
    "RolloutGroup",
    "ScoreSummary",
    "SyntheticLexicon",
    "ToyPolicy",
    "chrf",
    "clipped_term",
    "compute_reward",
    "decode_line",
    "entity_accuracy",
    "gen_lexicon",
    "group_advantages",
    "init_activation_prior",
    "length_gate",
    "load_policy",
    "match_entity",
    "measure_pass_at_k",
    "metrics_to_csv",
    "normalize",
    "parse_segments",
    "pass_at_k_curve",
    "pass_at_k_single",
    "policy_update_step",
    "render_response",
    "sample_rollout",
    "save_policy",
    "score_lines",
    "score_record",
    "score_response",
    "seq_importance_ratio",
    "serve_stdio",
    "summarize",
    "surrogate_objective",
    "toy_reward_config",
    "train",
]
