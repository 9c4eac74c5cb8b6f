"""Command-line behavior: config handling, all five subcommands, exit codes."""

import io
import json
import os
import random
import re
import signal
import socket
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from entrl import (
    PassAtKInput,
    RewardConfig,
    SyntheticLexicon,
    load_policy,
    pass_at_k_curve,
    score_lines,
)
from entrl.cli import CONFIG_ENV_VAR, load_config, main, optim_config_from, reward_config_from
from entrl.scoring import MAX_LINE_BYTES

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o, ensure_ascii=False) for o in objs) + "\n", encoding="utf-8")


def score_record_obj(rid, response, aliases=("Munich",), ref_lengths=(6,)):
    return {
        "id": rid,
        "response": response,
        "gold_aliases": list(aliases),
        "ref_lengths": list(ref_lengths),
    }


GOOD = "<think> recall </think> munich"


def entrl_process(*args, unbuffered=True, address_space=None, **kwargs) -> subprocess.Popen:
    """The real ``entrl`` command as a child process, importing this checkout,
    with its address space capped at ``address_space`` bytes when given."""
    env = {k: v for k, v in os.environ.items() if k not in (CONFIG_ENV_VAR, "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = ["-m", "entrl"]
    if address_space is not None:
        command = ["-c", f"import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, ({address_space},) * 2); "
                         "runpy.run_module('entrl', run_name='__main__', alter_sys=True)"]
    return subprocess.Popen([sys.executable, *command, *args], env=env, **kwargs)


def mixed_lines(n, seed):
    """n input lines: mostly records, and every kind of bad line, one of them overlong."""
    rng = random.Random(seed)
    bad = [b"{broken json", b"\xff\xfe not utf-8", b"", b"   ", b"[1, 2]", b'{"id": "x", "response": 3}',
           json.dumps(score_record_obj("y", GOOD, aliases=())).encode(), b"x" * (MAX_LINE_BYTES + 1)]
    lines = []
    for i in range(n):
        if rng.random() < 0.1:
            lines.append(bad[i % len(bad)])
            continue
        response = rng.choice([GOOD, "no markers", "<think> p </think> münchen", "<think> a </think> " + "b " * 30])
        rec = score_record_obj(f"r{i}", response, aliases=rng.choice([("Munich",), ("München", "Munich")]))
        line = json.dumps(rec, ensure_ascii=rng.random() < 0.5).encode()
        lines.append(line + b"\r" * (rng.random() < 0.2))
    return lines


class TestConfigHandling:
    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"rewards": {}}')
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "unknown top-level config key(s): rewards" in capsys.readouterr().err

    def test_unknown_section_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reward": {"allpha": 0.2}}')
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "unknown reward config key(s): allpha" in capsys.readouterr().err

    def test_std_floor_is_not_a_setting(self, tmp_path, capsys):
        # The advantage floor is the constant optim.STD_FLOOR.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optim": {"std_floor": 1e-6}}')
        args = ["train", "--config", str(cfg), "--lexicon", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert "unknown optim config key(s): std_floor" in capsys.readouterr().err

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1]")
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_invalid_json_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_number_past_digit_limit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reward": {"tau": ' + "1" * 5000 + "}}")
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(tmp_path / "nope.json"), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_env_var_supplies_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reward": {"markers": {"open": "[[", "close": "]]"}}}')
        monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", "[[ r ]] munich")])
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 0
        assert json.loads(out.read_text())["reward"] == 1.2

    def test_flag_overrides_env_var(self, tmp_path, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        monkeypatch.setenv(CONFIG_ENV_VAR, str(bad))
        good = tmp_path / "good.json"
        good.write_text("{}")
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--config", str(good), "--output", str(out)]) == 0

    def test_env_var_config_reaches_train_and_flag_wins(self, tmp_path, capsys, monkeypatch):
        # Each config is rejected before the lexicon is read, and its error
        # shows which of the two files was used.
        env_cfg = tmp_path / "env.json"
        env_cfg.write_text('{"optim": {"learning_rate": true}}')
        monkeypatch.setenv(CONFIG_ENV_VAR, str(env_cfg))
        args = ["train", "--lexicon", str(tmp_path / "none.json"), "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert "learning_rate must be a real number, not a boolean" in capsys.readouterr().err
        flag_cfg = tmp_path / "flag.json"
        flag_cfg.write_text('{"optim": {"G": 2.5}}')
        assert main(args + ["--config", str(flag_cfg)]) == 1
        err = capsys.readouterr().err
        assert "group_size must be an integer" in err and "learning_rate" not in err

    def test_optim_alias_clash(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optim": {"G": 4, "group_size": 8}, "train": {"steps": 1}}')
        code = main(["train", "--config", str(cfg), "--lexicon", "x", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "alias clash" in capsys.readouterr().err

    def test_readme_config_example_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        (example,) = [block for block in blocks if '"optim"' in block]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(example, encoding="utf-8")
        doc = load_config(str(cfg))
        assert reward_config_from(doc) == RewardConfig(tau=2)
        assert optim_config_from(doc).group_size == 16

    def test_bad_reward_value_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reward": {"alpha": 2.0}}')
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "bad reward config" in capsys.readouterr().err

    def test_reward_value_beyond_float_range_reported(self, tmp_path, capsys):
        # A 401-digit tau is rejected with the config, not by an OverflowError on the first scored line.
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reward": {"tau": 1' + "0" * 400 + "}}")
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "bad reward config: tau must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("markers, field, shown", [
        ('{"open": 5}', "open_marker", "5"), ('{"close": ["x"]}', "close_marker", "['x']"),
        ('{"open": null}', "open_marker", "None"), ('{"close": ""}', "close_marker", "''")])
    def test_non_string_marker_reported(self, tmp_path, capsys, markers, field, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reward": {"markers": ' + markers + "}}")
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("a", GOOD)])
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad reward config: {field} must be a non-empty string, got {shown}\n")


class TestScoreCommand:
    def test_round_trip_counts_and_summary(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        lines = [
            json.dumps(score_record_obj("a", GOOD)),
            "{broken json",
            json.dumps(score_record_obj("c", "no markers")),
        ]
        inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 0

        replies = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(replies) == 3
        assert replies[0] == {"id": "a", "fmt": 1, "len": 1, "match": 1, "reward": 1.2}
        assert replies[1]["line"] == 2
        assert replies[2]["reward"] == 0.0

        summary = json.loads(capsys.readouterr().out)
        assert summary["n_records"] == 2
        assert summary["gate_failure_counts"] == {"fmt": 1, "len": 0}

    def test_lone_surrogate_id_written_as_escape(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        inp.write_text(json.dumps(score_record_obj("\ud800", GOOD)) + "\n")  # ASCII, with the escape
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["id"] == "\ud800"

    def test_empty_input_is_fatal(self, tmp_path, capsys):
        inp = tmp_path / "in.jsonl"
        inp.write_text("")
        code = main(["score", "--input", str(inp), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "is empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_input_is_fatal(self, tmp_path, capsys):
        code = main(["score", "--input", str(tmp_path / "nope"), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_non_ascii_preserved_in_output(self, tmp_path):
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [score_record_obj("u", "<think> p </think> münchen", aliases=("München",), ref_lengths=(7,))])
        out = tmp_path / "out.jsonl"
        assert main(["score", "--input", str(inp), "--output", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["reward"] == 1.2


class TestServeCommand:
    def test_stdio_matches_batch_scoring(self, tmp_path, monkeypatch):
        records = [
            score_record_obj("a", GOOD),
            score_record_obj("b", "broken response"),
        ]
        raw = b"".join(json.dumps(r).encode() + b"\n" for r in records)
        fake_out = SimpleNamespace(buffer=io.BytesIO())
        monkeypatch.setattr(sys, "stdin", SimpleNamespace(buffer=io.BytesIO(raw)))
        monkeypatch.setattr(sys, "stdout", fake_out)
        assert main(["serve", "--stdio"]) == 0

        replies = [json.loads(l) for l in fake_out.buffer.getvalue().splitlines()]
        batch, _ = score_lines(raw.splitlines(), RewardConfig())
        assert replies == batch

    def test_stdio_process_matches_score_command(self, tmp_path):
        # The real stdout of serve --stdio, unbuffered as the environment may
        # ask, against entrl score on the same lines, the last without a newline.
        lines = mixed_lines(1000, seed=8)
        data = b"\n".join(lines)
        inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
        inp.write_bytes(data)
        with entrl_process("score", "--input", str(inp), "--output", str(out),
                           stdout=subprocess.PIPE) as score:
            score.communicate(timeout=120)
        assert score.returncode == 0
        with entrl_process("serve", "--stdio", stdin=subprocess.PIPE, stdout=subprocess.PIPE) as serve:
            served, _ = serve.communicate(data, timeout=120)
        assert serve.returncode == 0
        batch = out.read_bytes().split(b"\n")
        served = served.split(b"\n")
        assert batch.pop() == served.pop() == b""
        assert len(batch) == len(served) == len(lines)
        errors = 0
        for raw_batch, raw_served in zip(batch, served):
            reply = json.loads(raw_batch)
            if "error" in reply:
                errors += 1
                assert json.loads(raw_served)["error"] == reply["error"]
            else:
                assert raw_served == raw_batch
        assert errors > 50
        assert json.loads(batch[lines.index(b"x" * (MAX_LINE_BYTES + 1))])["error"] == (
            f"line longer than {MAX_LINE_BYTES} bytes")

    # Buffered, 5 replies stay in the stdout buffer when the flush fails and
    # 100 are written past it; unbuffered, each write fails at once.
    @pytest.mark.parametrize("unbuffered", [True, False])
    @pytest.mark.parametrize("n_lines", [5, 100])
    def test_stdio_exits_quietly_when_stdout_closes(self, unbuffered, n_lines):
        with entrl_process("serve", "--stdio", unbuffered=unbuffered, stdin=subprocess.PIPE,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            try:
                proc.stdin.write(b"".join(json.dumps(score_record_obj(f"r{i}", GOOD)).encode() + b"\n"
                                          for i in range(n_lines)))
                proc.stdin.close()
            except BrokenPipeError:
                pass
            assert proc.wait(timeout=30) == 0
            assert proc.stderr.read() == b""

    def test_sigterm_stops_the_tcp_server_with_exit_0(self):
        with entrl_process("serve", "--bind", "127.0.0.1:0", stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE) as proc:
            try:
                assert "listening" in json.loads(proc.stdout.readline())
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=5) == 0
                assert proc.stderr.read() == b""
            finally:
                proc.kill()

    @pytest.mark.parametrize("bind", ["nohost", ":8000", "127.0.0.1:notaport", "127.0.0.1:70000", "127.0.0.1:-1"])
    def test_bad_bind(self, bind, capsys):
        assert main(["serve", "--bind", bind]) == 1
        assert "--bind" in capsys.readouterr().err

    def test_bind_in_use(self, capsys):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            code = main(["serve", "--bind", f"127.0.0.1:{port}"])
        assert code == 1
        assert "cannot bind" in capsys.readouterr().err


class TestPasskCommand:
    def test_curve_csv_and_summary(self, tmp_path, capsys):
        inp = tmp_path / "counts.jsonl"
        write_jsonl(inp, [{"id": "p0", "n": 6, "c": 5}, {"id": "p1", "n": 6, "c": 3}])
        out = tmp_path / "curve.csv"
        assert main(["passk", "--input", str(inp), "--ks", "1,2,6", "--output", str(out)]) == 0

        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "k,estimate"
        got = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
        expected = pass_at_k_curve(PassAtKInput(n=6, counts=(5, 3), ks=(1, 2, 6)))
        assert got == dict(zip(expected.ks, expected.estimates))

        doc = json.loads(capsys.readouterr().out)
        assert doc["ks"] == [1, 2, 6]
        assert doc["estimates"] == list(expected.estimates)

    def test_correct_count_alias(self, tmp_path):
        inp = tmp_path / "counts.jsonl"
        write_jsonl(inp, [{"n": 4, "correct_count": 2}])
        out = tmp_path / "curve.csv"
        assert main(["passk", "--input", str(inp), "--ks", "1", "--output", str(out)]) == 0
        assert float(out.read_text().splitlines()[1].split(",")[1]) == 0.5

    def test_inconsistent_n_is_fatal_with_line_number(self, tmp_path, capsys):
        inp = tmp_path / "counts.jsonl"
        write_jsonl(inp, [{"n": 6, "c": 1}, {"n": 6, "c": 2}, {"n": 8, "c": 2}])
        code = main(["passk", "--input", str(inp), "--ks", "1", "--output", str(tmp_path / "o")])
        assert code == 1
        assert "line 3: n=8 but earlier records had n=6" in capsys.readouterr().err

    def test_invalid_json_line_is_fatal(self, tmp_path, capsys):
        inp = tmp_path / "counts.jsonl"
        inp.write_text('{"n": 6, "c": 1}\n{oops\n')
        code = main(["passk", "--input", str(inp), "--ks", "1", "--output", str(tmp_path / "o")])
        assert code == 1
        assert "line 2:" in capsys.readouterr().err

    def test_n_beyond_float_range_is_fatal(self, tmp_path, capsys):
        inp = tmp_path / "counts.jsonl"
        inp.write_text('{"n": ' + str(10**400) + ', "c": 1}\n')
        code = main(["passk", "--input", str(inp), "--ks", "1", "--output", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("line", ['{"c": 1}', '{"n": 6}', '{"n": 6, "c": 1.5}', '{"n": "6", "c": 1}', "[1]",
                                      '{"n": true, "c": 1}', '{"n": 6, "c": true}',
                                      pytest.param('{"n": ' + "1" * 5000 + ', "c": 1}', id="int-past-digit-limit"),
                                      pytest.param("[" * 100_000, id="nested-too-deeply")])
    def test_bad_records_are_fatal(self, tmp_path, capsys, line):
        inp = tmp_path / "counts.jsonl"
        inp.write_text(line + "\n")
        code = main(["passk", "--input", str(inp), "--ks", "1", "--output", str(tmp_path / "o")])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("ks", ["", ",,", "a,b", "1,x"])
    def test_bad_ks_flag(self, tmp_path, capsys, ks):
        inp = tmp_path / "counts.jsonl"
        write_jsonl(inp, [{"n": 6, "c": 1}])
        assert main(["passk", "--input", str(inp), "--ks", ks, "--output", str(tmp_path / "o")]) == 1
        assert "--ks" in capsys.readouterr().err

    def test_few_correct_huge_k(self, tmp_path, capsys):
        inp = tmp_path / "counts.jsonl"
        write_jsonl(inp, [{"n": 10**11, "c": 1}])
        out = tmp_path / "curve.csv"
        assert main(["passk", "--input", str(inp), "--ks", str(10**11 - 1), "--output", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["estimates"] == [pytest.approx(1 - 1e-11, rel=0, abs=1e-15)]

    def test_k_beyond_n_is_fatal(self, tmp_path, capsys):
        inp = tmp_path / "counts.jsonl"
        write_jsonl(inp, [{"n": 6, "c": 1}])
        assert main(["passk", "--input", str(inp), "--ks", "7", "--output", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("tail", [b"\n", b""], ids=["newline", "no-newline"])
    def test_overlong_line_is_fatal_with_line_number(self, tmp_path, capsys, tail):
        inp = tmp_path / "counts.jsonl"
        inp.write_bytes(b'{"n": 6, "c": 1}\n{"n": 6, "c": 1' + b" " * MAX_LINE_BYTES + b"}" + tail)
        assert main(["passk", "--input", str(inp), "--ks", "1", "--output", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: line 2: line longer than {MAX_LINE_BYTES} bytes\n"

    def test_overlong_line_is_dropped_as_it_is_read(self, tmp_path, capsys):
        # An 8 MiB line: the reader holds at most its buffer plus MAX_LINE_BYTES.
        inp = tmp_path / "counts.jsonl"
        with open(inp, "wb") as f:
            for _ in range(128):
                f.write(b" " * (64 * 1024))
            f.write(b"\n")
        tracemalloc.start()
        try:
            code = main(["passk", "--input", str(inp), "--ks", "1", "--output", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and "line 1: line longer than" in capsys.readouterr().err
        assert peak < 1.5 * MAX_LINE_BYTES

    def test_unwritable_output_is_reported(self, tmp_path, capsys):
        inp, blocker = tmp_path / "counts.jsonl", tmp_path / "file"
        write_jsonl(inp, [{"n": 6, "c": 1}])
        blocker.write_text("x")
        assert main(["passk", "--input", str(inp), "--ks", "1", "--output", str(blocker / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(blocker / 'o')!r}")


class TestGenCommand:
    def test_outputs_and_shapes(self, tmp_path, capsys):
        out = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(out)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["train_entities"] == 15 and doc["test_entities"] == 5

        lexicon = SyntheticLexicon.load(out / "lexicon.json")
        assert len(lexicon.entities) == 20

        train = [json.loads(l) for l in (out / "train_prompts.jsonl").read_text().splitlines()]
        test = [json.loads(l) for l in (out / "test_prompts.jsonl").read_text().splitlines()]
        assert len(train) == 15 and len(test) == 5
        assert set(r["id"] for r in train).isdisjoint(r["id"] for r in test)
        for rec in train + test:
            assert set(rec) == {"id", "prompt", "gold_aliases", "ref_lengths"}
            assert rec["prompt"].startswith("<src> ")
            assert rec["gold_aliases"] and all(isinstance(a, str) for a in rec["gold_aliases"])
            assert all(isinstance(n, int) and n > 0 for n in rec["ref_lengths"])

    def test_prompt_records_scoreable_once_answered(self, tmp_path, capsys):
        out = tmp_path / "task"
        assert main(["gen", "--seed", "3", "--entities", "6", "--out", str(out)]) == 0
        capsys.readouterr()
        # Generated prompt records plus a response field feed straight into
        # score; the extra prompt key is ignored.  Token-unit lengths apply.
        rec = json.loads((out / "train_prompts.jsonl").read_text().splitlines()[0])
        rec["response"] = f"<think> recall </think> {rec['gold_aliases'][0]}"
        inp = tmp_path / "in.jsonl"
        write_jsonl(inp, [rec])
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"reward": {"length_unit": "tokens"}}')
        scored = tmp_path / "scored.jsonl"
        code = main(["score", "--input", str(inp), "--config", str(cfg), "--output", str(scored)])
        assert code == 0
        assert json.loads(scored.read_text())["reward"] == 1.2

    def test_deterministic_for_seed(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--seed", "7", "--out", str(a)]) == 0
        assert main(["gen", "--seed", "7", "--out", str(b)]) == 0
        capsys.readouterr()
        assert (a / "lexicon.json").read_bytes() == (b / "lexicon.json").read_bytes()
        assert (a / "train_prompts.jsonl").read_bytes() == (b / "train_prompts.jsonl").read_bytes()

    def test_bad_geometry_is_fatal(self, tmp_path, capsys):
        assert main(["gen", "--seed", "1", "--entities", "0", "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_out_below_a_file_is_reported(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert main(["gen", "--seed", "1", "--out", str(blocker / "sub")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {str(blocker / 'sub')!r}: ")
        assert captured.out == ""


def _float_alias_token(doc):
    doc["entities"][0]["aliases"][0][0] = 7.5
    return json.dumps(doc)


class TestTrainCommand:
    def test_missing_lexicon_flag(self, tmp_path, capsys):
        code = main(["train", "--steps", "1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "no lexicon" in capsys.readouterr().err

    def test_unreadable_lexicon(self, tmp_path, capsys):
        code = main(["train", "--steps", "1", "--lexicon", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cannot load lexicon" in capsys.readouterr().err

    @pytest.mark.parametrize("text_of", [
        pytest.param(lambda doc: json.dumps([doc]), id="top-level-list"),
        pytest.param(lambda doc: json.dumps({**doc, "entities": 5}), id="entities-not-a-list"),
        pytest.param(lambda doc: json.dumps({**doc, "train_ids": [doc["train_ids"]]}),
                     id="list-in-train_ids"),
        pytest.param(_float_alias_token, id="float-alias-token"),
        pytest.param(lambda doc: "[" * 100_000 + "]" * 100_000, id="nested-too-deeply"),
    ])
    def test_malformed_lexicon_is_fatal(self, tmp_path, capsys, text_of):
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        path = task / "lexicon.json"
        path.write_text(text_of(json.loads(path.read_text())))
        capsys.readouterr()
        code = main(["train", "--steps", "1", "--lexicon", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cannot load lexicon" in capsys.readouterr().err

    def test_unknown_ablation_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": {"ablation": "no_gates_at_all"}}')
        code = main(["train", "--config", str(cfg), "--lexicon", "x", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown ablation" in capsys.readouterr().err

    def test_bad_train_value_reported(self, tmp_path, capsys, monkeypatch):
        # Counts are integers and the rest real numbers; nothing is coerced.  A bad value from
        # the config or a flag is reported before --out is created or the prior is built.
        task, out = tmp_path / "task", tmp_path / "o"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("entrl.toytask.init_activation_prior", lambda *a, **k: pytest.fail("prior built"))
        cfg = tmp_path / "cfg.json"
        cases = [(train, []) for train in (
            '{"steps": "abc"}', '{"steps": 2.9}', '{"steps": -1}', '{"seed": "3"}', '{"max_len": true}',
            '{"temperature": "1.0"}', '{"temperature": false}', '{"temperature": ' + str(10**400) + "}",
            '{"target_pass1_max": "0.1"}', '{"target_pass1_max": true}')]
        cases += [("{}", ["--steps", "-1"]), ("{}", ["--seed", "-1"])]
        for train, flags in cases:
            cfg.write_text('{"train": ' + train + "}")
            code = main(["train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"),
                         "--out", str(out), *flags])
            assert code == 1, (train, flags)
            assert capsys.readouterr().err.startswith("error: bad train config: "), (train, flags)
            assert not out.exists(), (train, flags)

    @pytest.mark.parametrize("lexicon", ["5", "true", '["x"]'])
    def test_non_string_lexicon_in_config_reported(self, tmp_path, capsys, lexicon):
        out, cfg = tmp_path / "o", tmp_path / "cfg.json"
        cfg.write_text('{"train": {"lexicon": ' + lexicon + "}}")
        code = main(["train", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad train config: lexicon must be a path string")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_integer_group_size_rejected_before_prior(self, tmp_path, capsys, monkeypatch):
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        monkeypatch.setattr("entrl.toytask.init_activation_prior", lambda *a, **k: pytest.fail("prior built"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optim": {"G": 2.5}}')
        code = main(["train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad optim config" in capsys.readouterr().err

    def test_learning_rate_beyond_float_range_rejected_before_prior(self, tmp_path, capsys, monkeypatch):
        # A 401-digit integer compares below inf but cannot become a float: an error, not a
        # traceback from the first update.
        task, out = tmp_path / "task", tmp_path / "o"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("entrl.toytask.init_activation_prior", lambda *a, **k: pytest.fail("prior built"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optim": {"learning_rate": ' + str(10**400) + "}}")
        code = main(["train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"),
                     "--out", str(out), "--steps", "1"])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: bad optim config: learning_rate must be finite, got an integer beyond float range")
        assert not out.exists()

    def test_zero_max_len_rejected_before_prior(self, tmp_path, capsys, monkeypatch):
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        monkeypatch.setattr("entrl.toytask.init_activation_prior", lambda *a, **k: pytest.fail("prior built"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": {"max_len": 0}}')
        code = main(["train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "bad train config: max_len must be an integer >= 1, got 0" in capsys.readouterr().err

    def test_out_below_a_file_reported_before_prior(self, tmp_path, capsys, monkeypatch):
        task, blocker = tmp_path / "task", tmp_path / "file"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        capsys.readouterr()
        blocker.write_text("x")
        monkeypatch.setattr("entrl.toytask.init_activation_prior", lambda *a, **k: pytest.fail("prior built"))
        code = main(["train", "--lexicon", str(task / "lexicon.json"), "--out", str(blocker / "sub")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(blocker / 'sub')!r}: ")

    def test_unreachable_prior_reported(self, tmp_path, capsys):
        # A one-token response cannot hold a translation, so the prior's regime check fails.
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        capsys.readouterr()
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": {"max_len": 1}}')
        code = main(["train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: activation prior not reached in 10 attempts")
        assert captured.out == ""

    @pytest.mark.parametrize("case", ["vocab_size", "G"])
    def test_sizes_beyond_memory_exit_with_an_error(self, tmp_path, case):
        # A vocabulary of 10**7 tokens asks for a 14 PiB policy table, and G =
        # 10**12 for 3.2e13 rollouts a step.  The child runs in 4 GB of
        # address space, so a missing check fails fast instead of paging.
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        lexicon, cfg = task / "lexicon.json", tmp_path / "cfg.json"
        if case == "vocab_size":
            lexicon.write_text(json.dumps({**json.loads(lexicon.read_text()), "vocab_size": 10**7}))
        cfg.write_text(json.dumps({"optim": {"G": 10**12}} if case == "G" else {}))
        child = entrl_process("train", "--config", str(cfg), "--lexicon", str(lexicon), "--steps", "1",
                              "--out", str(tmp_path / "o"), address_space=4 * 10**9,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        out, err = child.communicate(timeout=120)
        assert child.returncode == 1, err
        limit = "MAX_POLICY_CELLS" if case == "vocab_size" else "MAX_BATCH_ROLLOUTS"
        assert err.decode().startswith("error: ") and limit in err.decode()
        assert b"Traceback" not in err and out == b""

    def test_non_finite_temperature_reported(self, tmp_path, capsys):
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"train": {"temperature": NaN}}')
        code = main(["train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "temperature must be finite and in (0, inf), got nan" in capsys.readouterr().err

    def test_end_to_end_artifacts(self, tmp_path, capsys):
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optim": {"G": 4, "mini_batch": 2, "updates_per_batch": 1}, "train": {"steps": 9, "seed": 5}}')
        run = tmp_path / "run"
        # Flag overrides the config file's steps; seed comes from the file.
        code = main([
            "train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"),
            "--steps", "2", "--out", str(run),
        ])
        assert code == 0

        out_lines = capsys.readouterr().out.splitlines()
        doc = json.loads(out_lines[-1])
        assert doc["steps"] == 2
        assert doc["ablation"] == "full"
        assert 0.0 <= doc["final_pass1"] <= 1.0
        assert doc["metrics"] == str(run / "metrics.csv")

        rows = (run / "metrics.csv").read_text().splitlines()
        assert rows[0] == "step,mean_reward,mean_trans_length,mean_entropy,pass1_eval"
        assert len(rows) == 3

        lexicon = SyntheticLexicon.load(task / "lexicon.json")
        policy = load_policy(run / "policy.npz", lexicon)
        assert policy.logits.shape == (20, 48, 48)
        assert np.isfinite(policy.logits).all()

    def test_ablation_flag_recorded(self, tmp_path, capsys):
        task = tmp_path / "task"
        assert main(["gen", "--seed", "42", "--out", str(task)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"optim": {"G": 4, "mini_batch": 2, "updates_per_batch": 1}}')
        run = tmp_path / "run"
        code = main([
            "train", "--config", str(cfg), "--lexicon", str(task / "lexicon.json"),
            "--steps", "1", "--seed", "5", "--ablation", "no_len_gate", "--out", str(run),
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert doc["ablation"] == "no_len_gate"
