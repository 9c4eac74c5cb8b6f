"""Evaluation estimators: pass@k, entity accuracy, chrF.

pass@k uses the unbiased estimator computed from n samples per problem with
c correct, as a numerically stable running product or its log.  chrF is the character
n-gram F-score in its original form: precision and recall are averaged
across n-gram orders first and combined into a single F-beta at the end.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from .reward import RewardBreakdown

__all__ = [
    "pass_at_k_single",
    "pass_at_k_curve",
    "PassAtKInput",
    "PassAtKCurve",
    "entity_accuracy",
    "chrf",
]


def _is_int(value) -> bool:
    """An integer of any integral type (numpy's included); a boolean is not one."""
    # A plain int is tested first: the ABC check takes ~0.9 us a call against
    # ~0.1 us, and the scorer runs this on every ref_lengths entry.
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


# pass_at_k_single multiplies out at most this many factors of its product.
EXACT_FACTORS = 10_000


def pass_at_k_single(n: int, c: int, k: int) -> float:
    """Unbiased pass@k from n samples with c correct.

    Estimates the probability that at least one of k fresh samples would be
    correct, as 1 - C(n-c, k)/C(n, k), evaluated via the running product
    prod_{j<min(k,c)} (n-max(k,c)-j)/(n-j) so no binomial coefficients
    overflow.  The ratio is symmetric in k and c, so the product takes
    min(k, c) factors, not k.  Every factor is <= 1, so the loop stops as
    soon as 1 - product rounds to 1.0; later factors cannot change that.
    Past ``EXACT_FACTORS`` factors, where the loop could run ~6*sqrt(n) times,
    ``_log_miss`` gives the product's log, within ~1e-12 but not bit for bit.

    Args:
        n: number of samples drawn for the problem, n >= 1.
        c: number of correct samples, 0 <= c <= n.
        k: the k of pass@k, 1 <= k <= n.
        All three are integers, not booleans.

    Returns:
        The estimate in [0, 1].  When n - c < k every size-k subset of the
        n samples contains a correct one, so the estimator returns exactly
        1.0; when c == 0 it returns exactly 0.0.
    """
    if not all(map(_is_int, (n, c, k))):
        raise ValueError(f"n, c and k must be integers, got {(n, c, k)!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= c <= n:
        raise ValueError(f"c must be in [0, {n}], got {c}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if n - c < k:
        return 1.0
    few, many = sorted((k, c))
    if few > EXACT_FACTORS:
        # Every factor is <= 1 - many/n, so past 40 n the product is below
        # e**-40, which 1 - product cannot resolve.
        return 1.0 if few * many > 40 * n else -math.expm1(_log_miss(n, many, few))
    miss_prob = 1.0
    for j in range(few):
        miss_prob *= float(n - many - j) / float(n - j)
        if 1.0 - miss_prob == 1.0:
            break
    return 1.0 - miss_prob


def _log_miss(n: int, many: int, few: int) -> float:
    """log C(n-many, few)/C(n, few) = lgamma(a) - lgamma(a-few) - lgamma(b) + lgamma(b-few),
    a = n-many+1 and b = n+1, by Stirling's lgamma(x) = (x-1/2)log(x) - x + c + 1/(12x).

    Its leading terms are few*log(a/b) + chi(b) - chi(a), chi(x) = (x-few-1/2)log1p(-u)
    + few for u = few/x, summed as a series in u so no large terms cancel.  For
    few > EXACT_FACTORS and few*many <= 40n, n >= 2.5e6, u <= 0.004 and every
    argument exceeds n/2, so each truncation is below 1e-20.
    """
    def chi(x: int) -> float:
        u = few / x
        return few * u * sum(u ** (i - 2) / (i * (i - 1)) for i in range(2, 10)) - 0.5 * math.log1p(-u)

    a, b = n - many + 1, n + 1
    return (few * math.log1p(-many / b) + chi(b) - chi(a)
            + 1 / (12 * a) - 1 / (12 * (a - few)) - 1 / (12 * b) + 1 / (12 * (b - few)))


@dataclass(frozen=True)
class PassAtKInput:
    """Per-problem correct counts from a fixed sampling budget.

    ``ks`` is stored sorted and deduplicated; every k must be in [1, n] and
    every count in [0, n].  ``n``, the counts and the ks must be integers,
    not booleans.
    """

    n: int
    counts: tuple[int, ...]
    ks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        not_ints = [v for v in (self.n, *self.counts, *self.ks) if not _is_int(v)]
        if not_ints:
            raise ValueError(f"n, counts and ks must be integers, got {not_ints!r}")
        object.__setattr__(self, "ks", tuple(sorted(set(self.ks))))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.counts:
            raise ValueError("counts must be non-empty")
        bad = [c for c in self.counts if not 0 <= c <= self.n]
        if bad:
            raise ValueError(f"counts outside [0, {self.n}]: {bad!r}")
        if not self.ks:
            raise ValueError("ks must be non-empty")
        if self.ks[0] < 1 or self.ks[-1] > self.n:
            raise ValueError(f"ks must lie in [1, {self.n}], got {self.ks!r}")


@dataclass(frozen=True)
class PassAtKCurve:
    """pass@k estimates averaged over problems, one per k."""

    ks: tuple[int, ...]
    estimates: tuple[float, ...] = field(default=())


def pass_at_k_curve(data: PassAtKInput) -> PassAtKCurve:
    """Average the per-problem estimator over all problems for each k.

    The curve is non-decreasing in k, and pass@1 equals mean(c) / n exactly.
    """
    estimates = tuple(
        sum(pass_at_k_single(data.n, c, k) for c in data.counts) / len(data.counts)
        for k in data.ks
    )
    return PassAtKCurve(ks=data.ks, estimates=estimates)


def entity_accuracy(breakdowns: Iterable[RewardBreakdown]) -> float:
    """Percentage of breakdowns whose match bit is set.

    Gate bits are ignored: a correct entity in an over-long response still
    counts.
    """
    rows = list(breakdowns)
    if not rows:
        raise ValueError("no breakdowns to aggregate")
    return 100.0 * sum(1 for b in rows if b.match) / len(rows)


def _ngram_counts(text: str, n: int) -> Counter:
    return Counter(text[i : i + n] for i in range(len(text) - n + 1))


def chrf(hypothesis: str, reference: str, max_n: int = 6, beta: float = 2.0) -> float:
    """Character n-gram F-score in [0, 100].

    Whitespace is removed from both strings before n-grams are extracted.
    For each order n in [1, max_n], precision and recall come from clipped
    n-gram overlap counts; an order where both sides have no n-grams is
    skipped, while an order where only one side has n-grams contributes
    zero precision and recall.  The per-order precisions and recalls are
    averaged uniformly and combined once:

        F = 100 * (1 + beta^2) * P * R / (beta^2 * P + R)

    with F = 0 when the denominator is zero.  Two empty strings are
    identical, which scores 100 by convention.
    """
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")

    hyp = "".join(hypothesis.split())
    ref = "".join(reference.split())
    if not hyp and not ref:
        return 100.0

    precisions: list[float] = []
    recalls: list[float] = []
    for n in range(1, max_n + 1):
        hyp_counts = _ngram_counts(hyp, n)
        ref_counts = _ngram_counts(ref, n)
        hyp_total = sum(hyp_counts.values())
        ref_total = sum(ref_counts.values())
        if hyp_total == 0 and ref_total == 0:
            continue
        overlap = sum(min(cnt, ref_counts[g]) for g, cnt in hyp_counts.items())
        precisions.append(overlap / hyp_total if hyp_total else 0.0)
        recalls.append(overlap / ref_total if ref_total else 0.0)

    avg_p = sum(precisions) / len(precisions)
    avg_r = sum(recalls) / len(recalls)
    denom = beta * beta * avg_p + avg_r
    if denom == 0.0:
        return 0.0
    return 100.0 * (1.0 + beta * beta) * avg_p * avg_r / denom
