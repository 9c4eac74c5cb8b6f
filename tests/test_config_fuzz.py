"""Every config constructor rejects what it cannot honour with ``ValueError``.

The values are the ones a JSON config can hold (booleans, strings, null,
lists, objects, signed zeros, -1, integers past int64 and past float range,
the largest floats, NaN and the infinities), plus a few valid ones so that
combinations reach the later checks.  Building a config from any of them,
alone or together, must succeed or raise ``ValueError``; a ``TypeError`` or
an ``OverflowError`` means a check compared or converted a value it had not
yet typed.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrl import OptimConfig, PolicyConfig, PriorStructure, RewardConfig
from entrl.cli import CliError, reward_config_from

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
