"""Gated reward semantics: parsing, gates, ablations, exact values."""

import dataclasses
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrl import (
    ABLATIONS,
    GoldEntitySet,
    RewardConfig,
    compute_reward,
    length_gate,
    parse_segments,
    score_response,
)
from oracles.parse_ref import parse_segments_ref

GOLD = GoldEntitySet("city", ("Munich", "München"))
CFG = RewardConfig()


def ref_chars(text):
    return [len(text)]


class TestParseSegments:
    def test_valid_response(self):
        seg = parse_segments("<think> some reasoning </think> munich", CFG)
        assert seg.format_valid == 1
        assert seg.think == " some reasoning "
        assert seg.trans == "munich"

    def test_leading_whitespace_allowed(self):
        seg = parse_segments("  \n<think>r</think> x", CFG)
        assert seg.format_valid == 1

    def test_empty_think_allowed(self):
        assert parse_segments("<think></think> x", CFG).format_valid == 1

    @pytest.mark.parametrize("raw", [
        "munich",
        "<think> no close munich",
        "no open </think> munich",
        "</think> reversed <think> munich",
        "<think> a </think><think> b </think> munich",
        "<think> a </think> b </think> munich",
        "text before <think> a </think> munich",
        "<think> reasoning </think>",
        "<think> reasoning </think>   ",
        "",
    ])
    def test_invalid_responses(self, raw):
        seg = parse_segments(raw, CFG)
        assert seg.format_valid == 0
        assert seg.think == "" and seg.trans == ""

    def test_custom_markers(self):
        cfg = RewardConfig(open_marker="[[", close_marker="]]")
        seg = parse_segments("[[ plan ]] answer", cfg)
        assert seg.format_valid == 1
        assert seg.trans == "answer"


# Whitespace that str.isspace and str.strip treat alike, ASCII and not.
WHITESPACE = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000")


def _pieces(config):
    """Each marker, each of its prefixes and suffixes, whitespace and a few other characters."""
    fragments = {m[:k] for m in (config.open_marker, config.close_marker) for k in range(1, len(m) + 1)}
    fragments |= {m[k:] for m in (config.open_marker, config.close_marker) for k in range(len(m))}
    return sorted(fragments) + list(WHITESPACE) + ["a", "x", "é", "\u3042", "<", ">", "/", "munich"]


PARSE_CONFIGS = {
    "default": RewardConfig(),
    "overlapping": RewardConfig(open_marker="ab", close_marker="bc"),
    "opener-starts-with-space": RewardConfig(open_marker=" a", close_marker="b"),
    "whitespace-opener": RewardConfig(open_marker="\n", close_marker="b"),
}


class TestParseSegmentsEquivalence:
    @pytest.mark.parametrize("name", list(PARSE_CONFIGS))
    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_parser(self, name, data):
        config = PARSE_CONFIGS[name]
        raw = "".join(data.draw(st.lists(st.sampled_from(_pieces(config)), max_size=12)))
        assert parse_segments(raw, config) == parse_segments_ref(raw, config)

    @pytest.mark.parametrize("raw", [" a b c", "  a b x", "\u3000 a bx", " ab x"])
    def test_an_opener_that_starts_with_whitespace_never_validates(self, raw):
        config = PARSE_CONFIGS["opener-starts-with-space"]
        assert parse_segments(raw, config).format_valid == 0
        assert parse_segments_ref(raw, config).format_valid == 0


class TestRewardConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"tau": 0.0},
        {"length_unit": "words"},
        {"open_marker": ""},
        {"open_marker": "<m>", "close_marker": "<m>end"},
        {"tau": float("nan")},
        {"tau": float("inf")},
        {"alpha": True},
        {"tau": True},
        {"alpha": "0.2"},
        {"alpha": Decimal("0.2")},
        {"tau": 10**400},
        {"tau": None},
        {"open_marker": 5},
        {"close_marker": ["x"]},
        {"open_marker": b"<t>"},
        {"close_marker": None},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RewardConfig(**kwargs)

    def test_stores_floats(self):
        cfg = RewardConfig(alpha=Fraction(1, 4), tau=3)
        assert (cfg.alpha, cfg.tau) == (0.25, 3.0)
        assert type(cfg.alpha) is float and type(cfg.tau) is float
        assert cfg == RewardConfig(alpha=0.25, tau=3.0)
        assert hash(cfg) == hash(RewardConfig(alpha=0.25, tau=3.0))

    def test_replace_rebuilds_the_passing_rewards(self):
        cfg = dataclasses.replace(CFG, alpha=0.3)
        assert repr(cfg) == repr(RewardConfig(alpha=0.3))
        assert compute_reward("<think>a</think> munich", GOLD, [6], cfg).reward == 1.3
        assert compute_reward("<think>a</think> paris", GOLD, [6], cfg).reward == 0.3
        assert compute_reward("<think>a</think> munich", GOLD, [6], CFG).reward == 1.2


class TestLengthGate:
    def test_inclusive_bound_characters(self):
        cfg = RewardConfig()
        # mean ref 2, tau 2 -> bound 4.0, inclusive.
        assert length_gate("abcd", [2], cfg) == 1
        assert length_gate("abcde", [2], cfg) == 0

    def test_mean_of_multiple_refs(self):
        cfg = RewardConfig()
        # refs 2 and 4 -> mean 3 -> bound 6.
        assert length_gate("abcdef", [2, 4], cfg) == 1
        assert length_gate("abcdefg", [2, 4], cfg) == 0

    def test_token_unit(self):
        cfg = RewardConfig(length_unit="tokens")
        assert length_gate("a b c d", [2], cfg) == 1
        assert length_gate("a b c d e", [2], cfg) == 0

    def test_rejects_empty_or_nonpositive_refs(self):
        with pytest.raises(ValueError):
            length_gate("x", [], CFG)
        with pytest.raises(ValueError):
            length_gate("x", [3, 0], CFG)


class TestCanonicalRewards:
    def test_full_reward_exact(self):
        r = compute_reward(
            "<think> recall the city </think> München", GOLD, ref_chars("München"), CFG
        )
        assert r.reward == 1.2
        assert (r.fmt_gate, r.len_gate, r.match) == (1, 1, 1)

    def test_format_only_reward_exact(self):
        r = compute_reward(
            "<think> hmm </think> berlin", GOLD, ref_chars("München"), CFG
        )
        assert r.reward == 0.2
        assert (r.fmt_gate, r.len_gate, r.match) == (1, 1, 0)

    def test_invalid_format_zero(self):
        r = compute_reward("munich", GOLD, ref_chars("München"), CFG)
        assert r.reward == 0.0
        assert (r.fmt_gate, r.len_gate, r.match) == (0, 0, 0)

    def test_overlong_zero_but_match_reported(self):
        long_trans = "munich " + "x" * 40
        r = compute_reward(
            f"<think>r</think> {long_trans}", GOLD, ref_chars("München"), CFG
        )
        assert r.reward == 0.0
        assert (r.fmt_gate, r.len_gate, r.match) == (1, 0, 1)

    def test_alias_in_think_earns_nothing(self):
        r = compute_reward(
            "<think> munich münchen </think> berlin", GOLD, ref_chars("München"), CFG
        )
        assert r.match == 0
        assert r.reward == 0.2

    def test_think_length_does_not_count(self):
        raw = "<think>" + "y" * 500 + "</think> munich"
        r = compute_reward(raw, GOLD, ref_chars("München"), CFG)
        assert r.len_gate == 1
        assert r.reward == 1.2

    def test_reward_identity_holds_bit_for_bit(self):
        cases = [
            "<think>r</think> munich",
            "<think>r</think> berlin",
            "<think>r</think> munich" + " pad" * 30,
            "<think>r</think> berlin" + " pad" * 30,
            "no format munich",
            "<think>r</think>",
        ]
        for raw in cases:
            r = compute_reward(raw, GOLD, ref_chars("München"), CFG)
            assert r.reward == r.fmt_gate * r.len_gate * (CFG.alpha + r.match)

    def test_reward_values_are_exact_floats(self):
        # alpha + match must not accumulate representation error.
        r = compute_reward("<think>r</think> munich", GOLD, [7], CFG)
        assert r.reward == 0.2 + 1
        assert r.reward == 1.2


class TestAblations:
    RAW_LONG_MATCH = "<think>r</think> munich " + "pad " * 50
    REFS = ref_chars("München")

    def test_registry(self):
        assert ABLATIONS == ("full", "no_len_gate", "soft_format", "no_think")

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ValueError, match="unknown ablation"):
            compute_reward("x", GOLD, self.REFS, CFG, ablation="nope")

    def test_no_len_gate_opens_length(self):
        full = compute_reward(self.RAW_LONG_MATCH, GOLD, self.REFS, CFG)
        ablated = compute_reward(self.RAW_LONG_MATCH, GOLD, self.REFS, CFG, "no_len_gate")
        assert full.reward == 0.0 and full.len_gate == 0
        assert ablated.reward == 1.2 and ablated.len_gate == 1

    def test_no_len_gate_keeps_format_gate(self):
        r = compute_reward("munich no format", GOLD, self.REFS, CFG, "no_len_gate")
        assert r.reward == 0.0 and r.fmt_gate == 0

    def test_soft_format_accepts_block_anywhere(self):
        raw = "preamble <think>r</think> munich"
        assert compute_reward(raw, GOLD, self.REFS, CFG).reward == 0.0
        soft = compute_reward(raw, GOLD, self.REFS, CFG, "soft_format")
        assert soft.reward == 1.2

    def test_soft_format_has_no_length_gate(self):
        soft = compute_reward(self.RAW_LONG_MATCH, GOLD, self.REFS, CFG, "soft_format")
        assert soft.reward == 1.2

    def test_soft_format_still_needs_markers(self):
        assert compute_reward("munich", GOLD, self.REFS, CFG, "soft_format").reward == 0.0

    def test_no_think_scores_whole_response(self):
        r = compute_reward("munich", GOLD, self.REFS, CFG, "no_think")
        assert (r.fmt_gate, r.len_gate, r.match) == (1, 1, 1)
        assert r.reward == 1.2

    def test_no_think_keeps_length_gate(self):
        r = compute_reward("munich " + "x" * 40, GOLD, self.REFS, CFG, "no_think")
        assert r.reward == 0.0 and r.len_gate == 0


class TestScoreResponse:
    def test_returns_breakdown_and_segments(self):
        breakdown, seg = score_response(
            "<think> plan </think> munich", GOLD, ref_chars("München"), CFG
        )
        assert breakdown.reward == 1.2
        assert seg.trans == "munich"

    @given(st.text(max_size=60))
    @settings(max_examples=300)
    def test_reward_range_on_arbitrary_input(self, raw):
        for ablation in ABLATIONS:
            r = compute_reward(raw, GOLD, [7], CFG, ablation)
            assert r.reward in (0.0, 0.2, 1.2)
            assert r.reward == r.fmt_gate * r.len_gate * (CFG.alpha + r.match)
