"""Gated verifiable reward for entity translation.

A response is split into a reasoning segment and a translation segment by a
pair of markers.  Two binary gates (format, length) multiply a binary entity
match, so the reward takes exactly three values:

    reward = fmt_gate * len_gate * (alpha + match)  in  {0, alpha, alpha + 1}

``alpha`` pays for producing a well-formed, length-sane response even when
the entity is wrong; the remaining unit is reserved for a correct entity.
Matching only ever sees the translation segment: an entity mentioned in the
reasoning segment earns nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .textnorm import GoldEntitySet, match_entity

__all__ = [
    "ABLATIONS",
    "RewardConfig",
    "ResponseSegments",
    "RewardBreakdown",
    "parse_segments",
    "length_gate",
    "compute_reward",
    "score_response",
]

ABLATIONS = ("full", "no_len_gate", "soft_format", "no_think")


@dataclass(frozen=True)
class RewardConfig:
    """Scoring constants.  Defaults: alpha=0.2, tau=2, character lengths."""

    alpha: float = 0.2
    tau: float = 2.0
    length_unit: str = "characters"
    open_marker: str = "<think>"
    close_marker: str = "</think>"

    def __post_init__(self) -> None:
        for name in ("alpha", "tau"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a real number, not a boolean")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.length_unit not in ("characters", "tokens"):
            raise ValueError(f"unknown length_unit {self.length_unit!r}")
        if not self.open_marker or not self.close_marker:
            raise ValueError("markers must be non-empty")
        # Containment between markers would make occurrence counts ambiguous.
        if self.open_marker in self.close_marker or self.close_marker in self.open_marker:
            raise ValueError("markers must not contain each other")


@dataclass(frozen=True)
class ResponseSegments:
    """Parse result.  When the strict parser reports ``format_valid=1`` the
    raw response is exactly leading whitespace + open marker + ``think`` +
    close marker + untrimmed translation; ``trans`` is that translation with
    surrounding whitespace removed."""

    format_valid: int
    think: str = ""
    trans: str = ""


@dataclass(frozen=True)
class RewardBreakdown:
    """Gate bits, match bit, and the resulting scalar reward.

    ``fmt_gate=0`` forces ``len_gate`` and ``match`` to 0 because no
    translation segment exists to measure.  A failed length gate does not
    hide the match bit; accuracy metrics count matches regardless of gates.
    """

    fmt_gate: int
    len_gate: int
    match: int
    reward: float


def parse_segments(raw: str, config: RewardConfig) -> ResponseSegments:
    """Strictly decompose a raw response into think and translation segments.

    Valid means: exactly one open marker, positioned at the start of the
    response modulo leading whitespace; exactly one close marker, after the
    open marker; and a non-empty translation after trimming.  Anything else
    yields ``format_valid=0`` with empty segments.
    """
    invalid = ResponseSegments(format_valid=0)
    if raw.count(config.open_marker) != 1 or raw.count(config.close_marker) != 1:
        return invalid
    if not raw.lstrip().startswith(config.open_marker):
        return invalid
    open_end = raw.index(config.open_marker) + len(config.open_marker)
    close_start = raw.index(config.close_marker)
    if close_start < open_end:
        return invalid
    trans = raw[close_start + len(config.close_marker):].strip()
    if not trans:
        return invalid
    return ResponseSegments(format_valid=1, think=raw[open_end:close_start], trans=trans)


def _parse_soft(raw: str, config: RewardConfig) -> ResponseSegments:
    # Soft variant: the first well-formed think block anywhere makes the
    # response eligible; the translation (possibly empty) is what follows it.
    open_start = raw.find(config.open_marker)
    if open_start < 0:
        return ResponseSegments(format_valid=0)
    open_end = open_start + len(config.open_marker)
    close_start = raw.find(config.close_marker, open_end)
    if close_start < 0:
        return ResponseSegments(format_valid=0)
    trans = raw[close_start + len(config.close_marker):].strip()
    return ResponseSegments(format_valid=1, think=raw[open_end:close_start], trans=trans)


def _measured_length(trans: str, unit: str) -> int:
    if unit == "tokens":
        return len(trans.split())
    return len(trans)


def length_gate(trans: str, ref_lengths: list[int], config: RewardConfig) -> int:
    """Return 1 if the translation is at most tau times the mean reference length.

    The bound is inclusive.  Length is characters of the trimmed translation
    or whitespace-delimited tokens, per ``config.length_unit``.
    """
    if not ref_lengths:
        raise ValueError("ref_lengths must be non-empty")
    if any(n <= 0 for n in ref_lengths):
        raise ValueError(f"ref_lengths must be positive, got {ref_lengths!r}")
    mean_ref = sum(ref_lengths) / len(ref_lengths)
    return int(_measured_length(trans, config.length_unit) <= config.tau * mean_ref)


def _check_ablation(ablation) -> None:
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}, expected one of {ABLATIONS}")


def score_response(
    raw: str,
    gold: GoldEntitySet,
    ref_lengths: list[int],
    config: RewardConfig,
    ablation: str = "full",
) -> tuple[RewardBreakdown, ResponseSegments]:
    """Score one response and also return its parsed segments.

    ``ablation`` selects the gate variant:

    * ``full`` - strict format gate and length gate (the default scorer);
    * ``no_len_gate`` - strict format gate, length gate forced open;
    * ``soft_format`` - a think block anywhere qualifies, no length gate;
    * ``no_think`` - no format gate at all, the whole response is the
      translation, length gate retained.
    """
    _check_ablation(ablation)

    if ablation == "no_think":
        seg = ResponseSegments(format_valid=1, think="", trans=raw.strip())
    elif ablation == "soft_format":
        seg = _parse_soft(raw, config)
    else:
        seg = parse_segments(raw, config)

    if not seg.format_valid:
        return RewardBreakdown(0, 0, 0, 0.0), seg

    if ablation in ("no_len_gate", "soft_format"):
        len_bit = 1
    else:
        len_bit = length_gate(seg.trans, ref_lengths, config)
    match = match_entity(seg.trans, gold)
    reward = float(len_bit) * (config.alpha + match)
    return RewardBreakdown(1, len_bit, match, reward), seg


def compute_reward(
    raw: str,
    gold: GoldEntitySet,
    ref_lengths: list[int],
    config: RewardConfig,
    ablation: str = "full",
) -> RewardBreakdown:
    """Gated reward for one raw response against one entity's gold aliases."""
    breakdown, _ = score_response(raw, gold, ref_lengths, config, ablation)
    return breakdown
