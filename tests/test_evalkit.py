"""Estimator correctness: pass@k against exhaustive enumeration, chrF
against hand-derived rational values, entity accuracy arithmetic."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrl import (
    PassAtKCurve,
    PassAtKInput,
    RewardBreakdown,
    chrf,
    entity_accuracy,
    pass_at_k_curve,
    pass_at_k_single,
)
from entrl.evalkit import EXACT_FACTORS
from oracles.passk_enum import pass_at_k_exhaustive


def log_space_reference(n, c, k):
    """1 - C(n-c, k)/C(n, k) from the exactly rounded sum of the product's log factors."""
    few, many = sorted((k, c))
    terms = np.log1p(-many / (n - np.arange(few, dtype=float)))
    return -math.expm1(math.fsum(terms.tolist()))


class TestPassAtKSingle:
    def test_matches_exhaustive_enumeration_small_n(self):
        # Full oracle sweep up to n=8 here; the acceptance suite extends
        # the same check to n=12.
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    expected = float(pass_at_k_exhaustive(n, c, k))
                    assert abs(pass_at_k_single(n, c, k) - expected) < 1e-12

    def test_frozen_spot_values(self):
        # From tests/oracles/passk_enum.py.
        assert abs(pass_at_k_single(6, 5, 1) - 5 / 6) < 1e-12
        assert abs(pass_at_k_single(10, 3, 4) - 5 / 6) < 1e-12
        assert pass_at_k_single(8, 0, 3) == 0.0

    def test_all_correct_is_exactly_one(self):
        assert pass_at_k_single(5, 5, 2) == 1.0

    def test_short_miss_budget_is_exactly_one(self):
        # n - c < k: every k-subset contains a correct sample.
        assert pass_at_k_single(12, 1, 12) == 1.0
        assert pass_at_k_single(128, 120, 16) == 1.0

    def test_large_n_no_overflow(self):
        value = pass_at_k_single(10_000, 1, 5_000)
        assert 0.0 <= value <= 1.0

    def test_few_correct_huge_k_takes_c_steps(self):
        # C(n-c, k)/C(n, k) has c factors here; a k-factor loop would not return.
        assert pass_at_k_single(10**11, 1, 10**11 - 1) == pytest.approx(1 - 1e-11, rel=0, abs=1e-15)

    def test_huge_k_and_c_stop_once_the_result_is_one(self):
        # 4e10 factors of about 0.6: the product reaches 1.0's resolution
        # after ~75 of them; a full loop would not return.
        assert pass_at_k_single(10**11, 4 * 10**10, 4 * 10**10) == 1.0

    def test_early_stop_is_bit_identical_to_the_full_product(self):
        rng = random.Random(5)
        for _ in range(2000):
            n = rng.randint(1, 5000)
            c, k = rng.randint(0, n), rng.randint(1, n)
            expected = 1.0
            if n - c >= k:
                miss_prob = 1.0
                for j in range(min(k, c)):
                    miss_prob *= float(n - max(k, c) - j) / float(n - j)
                expected = 1.0 - miss_prob
            assert pass_at_k_single(n, c, k).hex() == expected.hex(), (n, c, k)

    @pytest.mark.parametrize("n,c,k", [
        (10**11, 2 * 10**6, 2 * 10**6),
        (10**12, 10**6, 10**6),
        (10**10, 10**5, 2 * 10**4),
        (10**9, 2 * 10**4, 3 * 10**4),
        (3 * 10**6, EXACT_FACTORS + 1, EXACT_FACTORS + 1),
        (10**15, 10**5, 10**5),
    ])
    def test_many_factors_agree_with_a_log_space_reference(self, n, c, k):
        t0 = time.perf_counter()
        value = pass_at_k_single(n, c, k)
        assert time.perf_counter() - t0 < 0.05  # the product loop took 0.39 s on the first case
        assert abs(value - log_space_reference(n, c, k)) < 1e-12

    def test_closed_form_matches_the_product_past_the_threshold(self):
        rng = random.Random(3)
        for _ in range(20):
            few = rng.randint(EXACT_FACTORS + 1, EXACT_FACTORS + 2000)
            many = rng.randint(few, 4 * few)
            n = few + many + int(few * many / rng.uniform(0.01, 40.0))
            miss_prob = 1.0
            for j in range(few):
                miss_prob *= float(n - many - j) / float(n - j)
            for c, k in ((few, many), (many, few)):
                assert abs(pass_at_k_single(n, c, k) - (1.0 - miss_prob)) < 1e-12, (n, c, k)

    @pytest.mark.parametrize("n,c,k", [(0, 0, 1), (4, -1, 1), (4, 5, 1), (4, 2, 0), (4, 2, 5),
                                       (4.5, 1, 1), (4, 1.0, 1), (4, 1, 2.0), (True, True, True)])
    def test_rejects_bad_arguments(self, n, c, k):
        with pytest.raises(ValueError):
            pass_at_k_single(n, c, k)

    @given(st.integers(1, 40).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(1, n))
    ))
    @settings(max_examples=200)
    def test_monotone_in_k_and_c(self, ncs):
        n, c, k = ncs
        v = pass_at_k_single(n, c, k)
        assert 0.0 <= v <= 1.0
        if k < n:
            assert pass_at_k_single(n, c, k + 1) >= v - 1e-12
        if c < n:
            assert pass_at_k_single(n, c + 1, k) >= v - 1e-12


class TestPassAtKCurve:
    def test_mean_over_problems(self):
        data = PassAtKInput(n=4, counts=(0, 2, 4), ks=(1, 2))
        curve = pass_at_k_curve(data)
        expected_1 = (0.0 + 0.5 + 1.0) / 3
        assert abs(curve.estimates[0] - expected_1) < 1e-12
        expected_2 = (
            pass_at_k_single(4, 0, 2) + pass_at_k_single(4, 2, 2) + pass_at_k_single(4, 4, 2)
        ) / 3
        assert abs(curve.estimates[1] - expected_2) < 1e-12

    def test_pass1_equals_mean_rate(self):
        data = PassAtKInput(n=10, counts=(1, 3, 6), ks=(1,))
        curve = pass_at_k_curve(data)
        assert abs(curve.estimates[0] - (1 + 3 + 6) / 30) < 1e-12

    def test_ks_sorted_and_deduplicated(self):
        data = PassAtKInput(n=8, counts=(4,), ks=(8, 1, 4, 1))
        assert data.ks == (1, 4, 8)

    def test_curve_non_decreasing(self):
        data = PassAtKInput(n=16, counts=(1, 2, 0, 5), ks=tuple(range(1, 17)))
        est = pass_at_k_curve(data).estimates
        assert all(b >= a - 1e-12 for a, b in zip(est, est[1:]))

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "counts": (0,), "ks": (1,)},
        {"n": 4, "counts": (), "ks": (1,)},
        {"n": 4, "counts": (5,), "ks": (1,)},
        {"n": 4, "counts": (2,), "ks": ()},
        {"n": 4, "counts": (2,), "ks": (5,)},
        {"n": 4, "counts": (2,), "ks": (0,)},
        {"n": 4.5, "counts": (1,), "ks": (1,)},
        {"n": True, "counts": (1,), "ks": (1,)},
        {"n": 4, "counts": (1.0,), "ks": (1,)},
        {"n": 4, "counts": (True,), "ks": (1,)},
        {"n": 4, "counts": (1,), "ks": (2.0,)},
        {"n": 4, "counts": (1,), "ks": (True,)},
    ])
    def test_rejects_bad_input(self, kwargs):
        with pytest.raises(ValueError):
            PassAtKInput(**kwargs)

    def test_curve_type(self):
        assert isinstance(pass_at_k_curve(PassAtKInput(2, (1,), (1,))), PassAtKCurve)


def bd(match, fmt=1, ln=1):
    reward = float(fmt * ln) * (0.2 + match)
    return RewardBreakdown(fmt, ln, match, reward)


class TestEntityAccuracy:
    def test_percentage(self):
        rows = [bd(1), bd(0), bd(1), bd(0), bd(0)]
        assert entity_accuracy(rows) == 40.0

    def test_match_counted_despite_failed_gates(self):
        rows = [bd(1, fmt=1, ln=0), bd(0)]
        assert entity_accuracy(rows) == 50.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            entity_accuracy([])


class TestChrf:
    def test_hand_derived_case(self):
        # 700/11, derived in tests/oracles/chrf_manual.py.
        assert abs(chrf("ab", "abc", max_n=2, beta=2.0) - 700 / 11) < 1e-9

    def test_second_hand_derived_case(self):
        # 2435750/72439 from the same oracle.
        assert abs(chrf("the cat", "the cat on the mat") - 2435750 / 72439) < 1e-9

    def test_identity_is_100(self):
        assert chrf("abcd", "abcd") == 100.0
        assert chrf("a", "a") == 100.0

    def test_disjoint_is_0(self):
        assert chrf("xy", "ab") == 0.0

    def test_whitespace_removed_before_ngrams(self):
        assert chrf("the cat", "thecat") == 100.0
        assert chrf("a  b\tc", "abc") == 100.0

    def test_both_empty_is_100(self):
        assert chrf("", "") == 100.0
        assert chrf("  ", "\t") == 100.0

    def test_one_side_empty_is_0(self):
        assert chrf("", "abc") == 0.0
        assert chrf("abc", "") == 0.0

    def test_orders_beyond_length_skipped(self):
        # Strings of length 2: orders 3..6 have no n-grams on either side
        # and must not dilute the average.
        assert chrf("ab", "ab") == 100.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            chrf("a", "b", max_n=0)
        with pytest.raises(ValueError):
            chrf("a", "b", beta=0.0)

    @given(st.text(max_size=30), st.text(max_size=30))
    @settings(max_examples=300)
    def test_bounds(self, hyp, ref):
        value = chrf(hyp, ref)
        assert 0.0 <= value <= 100.0

    @given(st.text(min_size=1, max_size=30).filter(lambda s: s.strip()))
    @settings(max_examples=200)
    def test_self_similarity(self, text):
        assert chrf(text, text) == 100.0
