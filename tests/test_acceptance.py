"""End-to-end acceptance checks, one test per shipped guarantee.

Each test runs inside the ``criterion`` context manager, which records a
single PASS/FAIL line (with its runtime against the stated budget) that the
conftest hook prints in the terminal summary.  Tolerances and budgets are
part of the guarantees; nothing here is tuned at test time, all seeds and
hyperparameters are frozen constants.
"""

import json
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import record_acceptance
from oracles.chrf_manual import chrf_exact
from oracles.fd_grad import (
    analytic_gradient,
    assert_clip_margins,
    build_fixture,
    fd_gradient,
    max_relative_error,
)
from oracles.passk_enum import pass_at_k_exhaustive

from entrl import (
    GoldEntitySet,
    OptimConfig,
    PolicyConfig,
    PriorStructure,
    RewardBreakdown,
    RewardConfig,
    chrf,
    compute_reward,
    gen_lexicon,
    group_advantages,
    init_activation_prior,
    measure_pass_at_k,
    pass_at_k_single,
    score_lines,
    summarize,
    toy_reward_config,
    train,
)
from entrl.cli import main


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(num, label, "FAIL", time.perf_counter() - start, budget_s)
        raise
    elapsed = time.perf_counter() - start
    _report(num, label, "PASS" if elapsed < budget_s else "FAIL", elapsed, budget_s)
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.2f}s, budget {budget_s:.0f}s"


def _report(num: int, label: str, status: str, elapsed: float, budget_s: float) -> None:
    line = f"criterion {num} ({label}): {status} in {elapsed:.2f}s (budget {budget_s:.0f}s)"
    record_acceptance(line)
    print(line)


def test_criterion_1_reward_exactness():
    with criterion(1, "reward exactness", 1.0):
        cfg = RewardConfig()
        assert cfg.alpha == 0.2 and cfg.tau == 2.0
        gold = GoldEntitySet("E", ("Neuschwanstein", "Schloss Neuschwanstein"))
        refs = [14]

        # The three canonical outcomes, compared exactly.
        hit = compute_reward("<think> the castle </think> neuschwanstein", gold, refs, cfg)
        assert hit.reward == 1.2
        compliant = compute_reward("<think> unsure </think> some castle", gold, refs, cfg)
        assert compliant.reward == 0.2
        invalid = compute_reward("neuschwanstein, no think block", gold, refs, cfg)
        assert invalid.reward == 0.0

        # Exhaustive gate table.  A failed format gate collapses the other
        # bits to zero, so five bit combinations are observable; the three
        # remaining table rows have fmt=0 and are zero by annihilation.
        short_gold = GoldEntitySet("S", ("mm",))
        tight = [1]  # bound = tau * 1 = 2 chars
        probes = {
            (1, 1, 1): ("<think> t </think> mm", tight),
            (1, 1, 0): ("<think> t </think> no", tight),
            (1, 0, 1): ("<think> t </think> mm padding far too long", tight),
            (1, 0, 0): ("<think> t </think> wrong and far too long", tight),
            (0, 0, 0): ("no markers anywhere", tight),
        }
        seen = set()
        for expected_bits, (response, ref_lengths) in probes.items():
            b = compute_reward(response, short_gold, ref_lengths, cfg)
            assert (b.fmt_gate, b.len_gate, b.match) == expected_bits
            table_value = float(b.fmt_gate * b.len_gate) * (cfg.alpha + float(b.match))
            assert b.reward == table_value
            seen.add(expected_bits)
        assert seen == {(1, 1, 1), (1, 1, 0), (1, 0, 1), (1, 0, 0), (0, 0, 0)}
        for len_bit in (0, 1):
            for match_bit in (0, 1):
                assert float(0 * len_bit) * (cfg.alpha + float(match_bit)) == 0.0


def test_criterion_2_pass_at_k_oracle_equivalence():
    with criterion(2, "pass@k oracle equivalence", 30.0):
        for n in range(1, 13):
            for c in range(0, n + 1):
                for k in range(1, n + 1):
                    estimate = pass_at_k_single(n, c, k)
                    exact = float(pass_at_k_exhaustive(n, c, k))
                    assert abs(estimate - exact) <= 1e-12, (n, c, k)
                    if n - c < k:
                        assert estimate == 1.0, (n, c, k)

        # n=128 against a fresh 10^5-draw simulation of the subset
        # experiment (number of correct in a k-subset is hypergeometric).
        rng = np.random.default_rng(20240817)
        n = 128
        for c in (1, 13, 64, 120, 127):
            for k in (1, 4, 16, 64, 128):
                draws = rng.hypergeometric(c, n - c, k, size=100_000)
                mc = float(np.mean(draws > 0))
                assert abs(pass_at_k_single(n, c, k) - mc) < 0.01, (c, k)
        assert pass_at_k_single(128, 120, 16) == 1.0


def test_criterion_3_advantage_normalization():
    with criterion(3, "advantage normalization", 5.0):
        rng = np.random.default_rng(7)
        reward_levels = np.array([0.0, 0.2, 1.2])
        checked = 0
        while checked < 1000:
            g = int(rng.integers(2, 33))
            if rng.random() < 0.5:
                rewards = rng.choice(reward_levels, size=g)
            else:
                rewards = rng.normal(rng.normal(), 1.0 + rng.random(), size=g)
            if float(np.std(rewards)) < 1e-4:
                continue
            adv = group_advantages(rewards)
            assert abs(float(np.mean(adv))) < 1e-9
            assert abs(float(np.std(adv)) - 1.0) < 1e-9
            checked += 1

        for value in reward_levels:
            for g in (2, 7, 32):
                assert np.all(group_advantages(np.full(g, value)) == 0.0)


def test_criterion_4_gradient_correctness():
    with criterion(4, "surrogate gradient vs finite differences", 10.0):
        config = OptimConfig(group_size=4)
        policy, groups = build_fixture(seed=0, n_groups=6, group_size=4)
        assert policy.n_params <= 200
        assert len(groups) >= 5
        # Every member must sit clear of its clip boundary so the finite
        # difference stencil cannot flip a min() branch.
        assert_clip_margins(policy, groups, config, min_margin=1e-4)
        analytic = analytic_gradient(policy, groups, config)
        fd = fd_gradient(policy, groups, config, h=1e-5)
        assert np.count_nonzero(analytic) > 0
        assert max_relative_error(analytic, fd) < 1e-4


def test_criterion_5_knowledge_activation():
    with criterion(5, "knowledge activation", 300.0):
        steps = 800
        assert steps <= 2000
        lexicon = gen_lexicon(seed=42, n_entities=20, vocab_size=48)
        policy = init_activation_prior(lexicon, PolicyConfig(), target_pass1_max=0.10, seed=5)

        before, _ = measure_pass_at_k(policy, lexicon.train_ids, n=256, ks=(1, 64), seed=99)
        p1_init, p64_init = before.estimates
        assert p1_init <= 0.10, f"init pass@1 {p1_init:.3f}"
        assert p64_init >= 0.70, f"init pass@64 {p64_init:.3f}"

        result = train(
            lexicon, policy, toy_reward_config(), OptimConfig(learning_rate=4.0),
            steps=steps, ablation="full", seed=11,
        )
        after, _ = measure_pass_at_k(result.policy, lexicon.train_ids, n=256, ks=(1, 64), seed=99)
        p1_final, p64_final = after.estimates
        assert p1_final >= 0.50, f"final pass@1 {p1_final:.3f}"
        assert p64_final >= p64_init - 0.05, f"final pass@64 {p64_final:.3f} vs init {p64_init:.3f}"


def test_criterion_6_length_gate_ablation():
    with criterion(6, "length gate ablation", 600.0):
        # Geometry where extra tokens genuinely buy match probability:
        # weak alias chains, leaky stopping, slow termination, and a tight
        # length bound (no reference padding).
        lexicon = gen_lexicon(
            seed=42, n_entities=20, vocab_size=48,
            alias_len_range=(3, 4), ref_pad_range=(0, 0),
        )
        structure = PriorStructure(chain_strength=3.5, distractor_eos=2.0, alias_end_eos=3.0)
        steps = 1600

        def run(ablation):
            policy = init_activation_prior(
                lexicon, PolicyConfig(), target_pass1_max=0.10, seed=5, structure=structure,
            )
            result = train(
                lexicon, policy, toy_reward_config(), OptimConfig(learning_rate=4.0),
                steps=steps, ablation=ablation, seed=11,
            )
            lengths = [row.mean_trans_length for row in result.metrics]
            window = float(np.mean(lengths[-(steps // 10):]))
            return window, result.final_rollouts

        full_window, full_rollouts = run("full")
        ablated_window, _ = run("no_len_gate")
        assert ablated_window >= 1.5 * full_window, (
            f"ablated {ablated_window:.2f} vs full {full_window:.2f}"
        )

        cfg = toy_reward_config()
        bounds = {
            e.entity_id: cfg.tau * float(np.mean(lexicon.ref_lengths(e.entity_id)))
            for e in lexicon.entities
        }
        within = sum(1 for r in full_rollouts if r.trans_len <= bounds[r.entity_id])
        fraction = within / len(full_rollouts)
        assert fraction >= 0.95, f"only {fraction:.3f} of final rollouts within bound"


def test_criterion_7_chrf_reference_values():
    with criterion(7, "chrF reference values", 1.0):
        assert chrf("the same text", "the same text") == 100.0
        assert chrf("abc", "xyz") == 0.0
        assert abs(chrf("ab", "abc", max_n=2, beta=2.0) - 63.636) <= 1e-3
        # Exact rational cross-checks.
        assert abs(chrf("ab", "abc", max_n=2, beta=2.0) - float(chrf_exact("ab", "abc", 2, 2))) < 1e-9
        assert abs(
            chrf("the cat", "the cat on the mat")
            - float(chrf_exact("the cat", "the cat on the mat", 6, 2))
        ) < 1e-9


def corpus_record(rng, idx):
    """One varied, well-formed scoring record."""
    gold = [["Gare du Nord", "North Station"], ["München", "Munich"], ["Wuthering Heights"]][idx % 3]
    alias = gold[rng.integers(0, len(gold))]
    kind = rng.random()
    if kind < 0.4:
        response = f"<think> recall {idx} </think> {alias.upper()}"
    elif kind < 0.6:
        response = f"<think> unsure </think> not it {idx}"
    elif kind < 0.8:
        response = f"no think markers {idx}"
    else:
        response = f"<think> pad </think> {alias} {'x' * 60}"
    record = {"id": f"r{idx:04d}", "response": response, "gold_aliases": gold}
    if idx % 2:
        record["ref_lengths"] = [len(a) for a in gold]
    else:
        record["refs"] = gold
    return record


def collect_over_socket(address, lines):
    import socket

    with socket.create_connection(address, timeout=20) as sock:
        with sock.makefile("rwb") as f:
            for line in lines:
                f.write(line)
            f.flush()
            sock.shutdown(socket.SHUT_WR)
            return [json.loads(reply) for reply in f]


def test_criterion_8_service_library_equivalence(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ENTRL_CONFIG", raising=False)
    with criterion(8, "service and batch scoring agree", 30.0):
        rng = np.random.default_rng(2024)
        records = [corpus_record(rng, i) for i in range(1000)]
        lines = [json.dumps(r, ensure_ascii=False).encode("utf-8") + b"\n" for r in records]
        inp = tmp_path / "corpus.jsonl"
        inp.write_bytes(b"".join(lines))

        out = tmp_path / "scored.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 0
        batch_summary = json.loads(capsys.readouterr().out)
        batch_replies = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(batch_replies) == 1000

        # The served path: the real CLI process, queried over eight
        # concurrent connections.
        proc = subprocess.Popen(
            [sys.executable, "-m", "entrl.cli", "serve", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
        )
        try:
            banner = json.loads(proc.stdout.readline())
            host, port = banner["listening"].rsplit(":", 1)
            address = (host, int(port))
            chunks = [lines[i::8] for i in range(8)]
            results = [None] * 8

            def worker(i):
                results[i] = collect_over_socket(address, chunks[i])

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
            proc.stdout.close()

        service_replies = {r["id"]: r for chunk in results for r in chunk}
        assert len(service_replies) == 1000
        for reply in batch_replies:
            assert service_replies[reply["id"]] == reply

        def rebuild(replies):
            return [
                RewardBreakdown(r["fmt"], r["len"], r["match"], r["reward"])
                for r in replies
            ]

        batch_built = summarize(rebuild(batch_replies))
        service_built = summarize(rebuild([service_replies[r["id"]] for r in batch_replies]))
        assert batch_built == service_built
        assert batch_built.to_dict() == batch_summary

        # And both agree with the library called directly.
        _, direct_breakdowns = score_lines(lines, RewardConfig())
        assert summarize(direct_breakdowns) == batch_built
