"""Every config constructor, and every numeric parameter of the estimators, rejects what it
cannot honour with ``ValueError``.

The values are the ones a JSON config can hold (booleans, strings, null,
lists, objects, signed zeros, -1, integers past int64 and past float range,
the largest floats, NaN and the infinities), plus a few valid ones so that
combinations reach the later checks.  Building a config from any of them,
alone or together, must succeed or raise ``ValueError``; a ``TypeError`` or
an ``OverflowError`` means a check compared or converted a value it had not
yet typed.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrl import (OptimConfig, PassAtKInput, PolicyConfig, PriorStructure, RewardConfig, chrf,
                   pass_at_k_curve)
from entrl.cli import CONFIG_ENV_VAR, CliError, reward_config_from

VALUES = (
    True, False, "", "x", "0.5", "<t>", "tokens", None, [], ["x"], [0.5], {}, {"open": "<a>"},
    0, 0.0, -0.0, -1, 2, 0.5, 2**63, 10**400, -(10**400), 1e308, -1e308,
    math.nan, math.inf, -math.inf,
)
CONFIGS = (RewardConfig, OptimConfig, PolicyConfig, PriorStructure)


def build(cls, kwargs) -> None:
    try:
        cls(**kwargs)
    except ValueError:
        pass


@pytest.mark.parametrize("cls", CONFIGS, ids=[c.__name__ for c in CONFIGS])
def test_each_field_alone(cls):
    for field in dataclasses.fields(cls):
        for value in VALUES:
            build(cls, {field.name: value})


@pytest.mark.parametrize("cls", CONFIGS, ids=[c.__name__ for c in CONFIGS])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_fields_together(cls, data):
    names = [f.name for f in dataclasses.fields(cls)]
    build(cls, data.draw(st.dictionaries(st.sampled_from(names), st.sampled_from(VALUES))))


_VALUE = st.sampled_from(VALUES)
_MARKERS = st.one_of(_VALUE, st.dictionaries(st.sampled_from(["open", "close"]), _VALUE))


@settings(max_examples=300, deadline=None)
@given(section=st.fixed_dictionaries({}, optional={
    "alpha": _VALUE, "tau": _VALUE, "length_unit": _VALUE, "markers": _MARKERS}))
def test_reward_config_from_reports_every_bad_value(section):
    # A bad value is an error the CLI reports, never an exception it would not catch.
    try:
        assert isinstance(reward_config_from({"reward": section}), RewardConfig)
    except CliError as exc:
        assert str(exc).startswith(("bad reward config: ", "reward.markers must be an object")), exc


# The real command in a child process, with the prior patched to fail: a bad value must be
# reported before --out is created or the prior is built.
_TRAIN = ("import sys, entrl.toytask as toytask; from entrl.cli import main; "
          "toytask.init_activation_prior = lambda *a, **k: sys.exit('prior built'); "
          "sys.exit(main(sys.argv[1:]))")


@pytest.mark.parametrize("section, key, value", [("reward", "tau", 10**400), ("optim", "learning_rate", math.nan),
                                                 ("train", "temperature", -math.inf)])
def test_train_command_reports_a_bad_value_in_each_section(tmp_path, section, key, value):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({section: {key: value}}))
    env = {k: v for k, v in os.environ.items() if k != CONFIG_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(__file__).resolve().parents[1] / "src"),
                                                      env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", _TRAIN, "train", "--config", str(cfg), "--lexicon",
                            str(tmp_path / "lexicon.json"), "--out", str(out)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 1, child.stderr
    assert child.stderr.startswith(f"error: bad {section} config: {key} must be "), child.stderr
    assert child.stdout == "" and not out.exists()


def settled(call):
    """``call()``, or None if it raised ``ValueError``; either way within a second."""
    t0 = time.perf_counter()
    try:
        return call()
    except ValueError:
        return None
    finally:
        assert time.perf_counter() - t0 < 1.0


def check_pass_at_k(n=2, counts=(1,), ks=(1,)) -> None:
    curve = settled(lambda: pass_at_k_curve(PassAtKInput(n, counts, ks)))
    assert curve is None or all(0.0 <= e <= 1.0 for e in curve.estimates)


def check_chrf(**params) -> None:
    score = settled(lambda: chrf("abc", "abd", **params))
    assert score is None or 0.0 <= score <= 100.0, params


def test_estimator_parameters_alone():
    for value in VALUES:
        check_pass_at_k(n=value)
        check_pass_at_k(counts=(value,))
        check_pass_at_k(ks=(value,))
        check_chrf(max_n=value)
        check_chrf(beta=value)
    for whole in (None, 3, "x", "1"):  # counts and ks as a whole, not a sequence of entries
        check_pass_at_k(counts=whole)
        check_pass_at_k(ks=whole)


# Small integers as well, so that combinations pass the checks and reach the estimators.
_NUMBER = st.sampled_from(VALUES + (1, 3))


@settings(max_examples=300, deadline=None)
@given(n=_NUMBER, counts=st.lists(_NUMBER, max_size=3), ks=st.lists(_NUMBER, max_size=3))
def test_pass_at_k_fields_together(n, counts, ks):
    check_pass_at_k(n, tuple(counts), tuple(ks))


@settings(max_examples=300, deadline=None)
@given(params=st.fixed_dictionaries({}, optional={"max_n": _NUMBER, "beta": _NUMBER}))
def test_chrf_parameters_together(params):
    check_chrf(**params)
