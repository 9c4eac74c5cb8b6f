"""The package surface: its public names, and what each command imports.

``entrl`` loads a module on first use of one of its names, so the scoring
commands run without numpy, the toy task or the optimizer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entrl

# The public names by defining module, as the package has exported them.
NAMES = {
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
PAIRS = [(module, name) for module, names in NAMES.items() for name in names]

# Runs score, serve --stdio and passk in one interpreter, then prints which
# of the trainer's modules it loaded.
COMMANDS = """
import json, sys
from entrl.cli import main
score_in, passk_in, out = sys.argv[1:]
assert main(["score", "--input", score_in, "--output", out + ".score"]) == 0
assert main(["serve", "--stdio"]) == 0
assert main(["passk", "--input", passk_in, "--ks", "1,2", "--output", out + ".passk"]) == 0
print(json.dumps([m for m in ("numpy", "entrl.toytask", "entrl.optim") if m in sys.modules]))
"""


def test_all_holds_every_public_name_once():
    assert len(PAIRS) == 46
    assert entrl.__all__ == sorted(name for _, name in PAIRS)


@pytest.mark.parametrize("module, name", PAIRS)
def test_name_is_its_defining_modules_object(module, name):
    namespace: dict = {}
    exec(f"from entrl import {name}", namespace)
    home = sys.modules[f"entrl.{module}"]
    assert namespace[name] is getattr(home, name)


def test_submodule_resolves_after_a_bare_import(monkeypatch):
    monkeypatch.delattr(entrl, "toytask", raising=False)
    assert entrl.toytask is sys.modules["entrl.toytask"]


def test_name_follows_a_patch_in_its_module(monkeypatch):
    # The span tracer wraps functions in their defining modules; the
    # package must not hold a copy that outlives the patch.
    monkeypatch.setattr(entrl.textnorm, "normalize", len)
    assert entrl.normalize is len
    monkeypatch.undo()
    assert entrl.normalize is sys.modules["entrl.textnorm"].normalize


def test_dir_lists_every_public_name():
    assert set(entrl.__all__) <= set(dir(entrl))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        entrl.no_such_name


def test_scoring_commands_load_neither_numpy_nor_the_trainer(tmp_path):
    record = {"id": "a", "response": "<think> x </think> munich",
              "gold_aliases": ["Munich"], "ref_lengths": [6]}
    lines = json.dumps(record) + "\n" + json.dumps({**record, "id": "b"}) + "\n"
    score_in = tmp_path / "score.jsonl"
    score_in.write_text(lines, encoding="utf-8")
    passk_in = tmp_path / "counts.jsonl"
    passk_in.write_text('{"n": 4, "c": 1}\n{"n": 4, "c": 3}\n', encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "ENTRL_CONFIG"}
    src = str(Path(entrl.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COMMANDS, str(score_in), str(passk_in), str(tmp_path / "out")],
        input=lines, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
