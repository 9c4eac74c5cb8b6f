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

from .evalkit import _check_real
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
    """Scoring constants, ``alpha`` and ``tau`` stored as floats.  Defaults: alpha=0.2, tau=2, character lengths."""

    alpha: float = 0.2
    tau: float = 2.0
    length_unit: str = "characters"
    open_marker: str = "<think>"
    close_marker: str = "</think>"

    def __post_init__(self) -> None:
        alpha, tau = _check_real("alpha", self.alpha, (0.0, 1.0)), _check_real("tau", self.tau, (0.0, math.inf))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)
        if self.length_unit not in ("characters", "tokens"):
            raise ValueError(f"unknown length_unit {self.length_unit!r}")
        for name in ("open_marker", "close_marker"):
            if not isinstance(marker := getattr(self, name), str) or not marker:
                raise ValueError(f"{name} must be a non-empty string, got {marker!r}")
        # Containment between markers would make occurrence counts ambiguous.
        if self.open_marker in self.close_marker or self.close_marker in self.open_marker:
            raise ValueError("markers must not contain each other")
        # One passing breakdown per (length bit, match bit).  Not a field: equality, repr and
        # ``replace`` see only the constants.
        object.__setattr__(self, "_passing", tuple(
            tuple(RewardBreakdown(1, len_bit, match, float(len_bit) * (alpha + match)) for match in (0, 1))
            for len_bit in (0, 1)))


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


_FORMAT_FAIL = ResponseSegments(format_valid=0)
_FORMAT_FAIL_BREAKDOWN = RewardBreakdown(0, 0, 0, 0.0)


def parse_segments(raw: str, config: RewardConfig) -> ResponseSegments:
    """Strictly decompose a raw response into think and translation segments.

    Valid means: exactly one open marker, positioned at the start of the
    response modulo leading whitespace; exactly one close marker, after the
    open marker; and a non-empty translation after trimming.  Anything else
    yields ``format_valid=0`` with empty segments, as does any response when
    the open marker starts with whitespace.
    """
    opener, closer = config.open_marker, config.close_marker
    open_start, close_start = raw.find(opener), raw.find(closer)
    # Counting from the first occurrence counts every occurrence.
    if (open_start < 0 or close_start < 0 or raw.count(opener, open_start) != 1
            or raw.count(closer, close_start) != 1):
        return _FORMAT_FAIL
    if (open_start and not raw[:open_start].isspace()) or opener[0].isspace():
        return _FORMAT_FAIL
    open_end = open_start + len(opener)
    if close_start < open_end:
        return _FORMAT_FAIL
    trans = raw[close_start + len(closer):].strip()
    if not trans:
        return _FORMAT_FAIL
    return ResponseSegments(format_valid=1, think=raw[open_end:close_start], trans=trans)


def _parse_soft(raw: str, config: RewardConfig) -> ResponseSegments:
    # Soft variant: the first well-formed think block anywhere makes the
    # response eligible; the translation (possibly empty) is what follows it.
    open_start = raw.find(config.open_marker)
    if open_start < 0:
        return _FORMAT_FAIL
    open_end = open_start + len(config.open_marker)
    close_start = raw.find(config.close_marker, open_end)
    if close_start < 0:
        return _FORMAT_FAIL
    trans = raw[close_start + len(config.close_marker):].strip()
    return ResponseSegments(format_valid=1, think=raw[open_end:close_start], trans=trans)


def _measured_length(trans: str, unit: str) -> int:
    if unit == "tokens":
        return len(trans.split())
    return len(trans)


def length_gate(trans: str, ref_lengths: list[int], config: RewardConfig) -> int:
    """Return 1 if the translation is at most tau times the mean reference length.

    The bound is inclusive.  Length is characters of the trimmed translation
    or whitespace-delimited tokens, per ``config.length_unit``.  Reference
    lengths whose mean is not a finite float (a NaN, an infinity, or ints
    too large for a float) raise ``ValueError``.
    """
    if not ref_lengths:
        raise ValueError("ref_lengths must be non-empty")
    if min(ref_lengths) <= 0:
        raise ValueError(f"ref_lengths must be positive, got {ref_lengths!r}")
    try:
        mean_ref = sum(ref_lengths) / len(ref_lengths)
    except OverflowError:
        mean_ref = math.inf
    if not math.isfinite(mean_ref):
        raise ValueError("ref_lengths must have a finite mean")
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
        return _FORMAT_FAIL_BREAKDOWN, seg

    if ablation in ("no_len_gate", "soft_format"):
        len_bit = 1
    else:
        len_bit = length_gate(seg.trans, ref_lengths, config)
    return config._passing[len_bit][match_entity(seg.trans, gold)], seg


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
