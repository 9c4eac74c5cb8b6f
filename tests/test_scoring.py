"""Record scoring, batch summaries, and the line-protocol service."""

import io
import json
import socket
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entrl import (
    RecordError,
    RewardConfig,
    RewardService,
    ScoreSummary,
    decode_line,
    score_lines,
    score_record,
    serve_stdio,
    summarize,
)
from entrl.scoring import MAX_REF_LENGTH

CFG = RewardConfig()


def record(rid="r1", response="<think> plan </think> munich", aliases=("Munich",), ref_lengths=(6,)):
    return {
        "id": rid,
        "response": response,
        "gold_aliases": list(aliases),
        "ref_lengths": list(ref_lengths),
    }


class TestDecodeLine:
    def test_bytes_and_str_agree(self):
        raw = '{"id": "a"}'
        assert decode_line(raw) == decode_line(raw.encode("utf-8")) == {"id": "a"}

    def test_surrounding_whitespace_stripped(self):
        assert decode_line(b'  {"id": "a"}\r\n') == {"id": "a"}

    def test_non_utf8_bytes(self):
        with pytest.raises(RecordError, match="invalid UTF-8"):
            decode_line(b'{"id": "\xff"}')

    def test_empty_line(self):
        with pytest.raises(RecordError, match="empty line"):
            decode_line(b"   \n")

    def test_invalid_json(self):
        with pytest.raises(RecordError, match="invalid JSON"):
            decode_line(b"{not json")

    def test_non_object_json(self):
        with pytest.raises(RecordError, match="not a JSON object"):
            decode_line(b"[1, 2]")

    def test_record_error_is_value_error(self):
        assert issubclass(RecordError, ValueError)


class TestScoreRecord:
    def test_reply_shape(self):
        reply, breakdown = score_record(record(), CFG)
        assert reply == {"id": "r1", "fmt": 1, "len": 1, "match": 1, "reward": 1.2}
        assert breakdown.reward == 1.2

    def test_refs_instead_of_ref_lengths(self):
        rec = record()
        del rec["ref_lengths"]
        rec["refs"] = ["munich"]
        reply, _ = score_record(rec, CFG)
        assert reply["reward"] == 1.2

    def test_refs_use_token_unit_when_configured(self):
        cfg = RewardConfig(length_unit="tokens")
        rec = record(response="<think> p </think> munich")
        del rec["ref_lengths"]
        # One reference of three tokens: bound is tau * 3 = 6 tokens.
        rec["refs"] = ["munich city region"]
        reply, _ = score_record(rec, cfg)
        assert reply["len"] == 1 and reply["reward"] == 1.2

    def test_both_refs_and_ref_lengths_rejected(self):
        rec = record()
        rec["refs"] = ["munich"]
        with pytest.raises(RecordError, match="exactly one of"):
            score_record(rec, CFG)

    def test_neither_refs_nor_ref_lengths_rejected(self):
        rec = record()
        del rec["ref_lengths"]
        with pytest.raises(RecordError, match="exactly one of"):
            score_record(rec, CFG)

    @pytest.mark.parametrize("lengths", [[], [0], [-1], [1.5], [True], "6", [MAX_REF_LENGTH + 1]])
    def test_bad_ref_lengths(self, lengths):
        rec = record()
        rec["ref_lengths"] = lengths
        with pytest.raises(RecordError):
            score_record(rec, CFG)

    def test_ref_length_bound_is_inclusive(self):
        reply, _ = score_record(record(ref_lengths=(MAX_REF_LENGTH,)), CFG)
        assert reply["len"] == 1

    @pytest.mark.parametrize("refs", [[], [42], ["munich", 3], "munich"])
    def test_bad_refs(self, refs):
        rec = record()
        del rec["ref_lengths"]
        rec["refs"] = refs
        with pytest.raises(RecordError, match="refs must be"):
            score_record(rec, CFG)

    def test_zero_length_ref_text(self):
        rec = record()
        del rec["ref_lengths"]
        rec["refs"] = [""]
        with pytest.raises(RecordError, match="zero length"):
            score_record(rec, CFG)

    @pytest.mark.parametrize("rid", [None, 7, ["x"]])
    def test_bad_id(self, rid):
        rec = record()
        rec["id"] = rid
        with pytest.raises(RecordError, match="id"):
            score_record(rec, CFG)

    def test_missing_response(self):
        rec = record()
        del rec["response"]
        with pytest.raises(RecordError, match="response"):
            score_record(rec, CFG)

    @pytest.mark.parametrize("aliases", [[], [1], ["Munich", 2], "Munich"])
    def test_bad_gold_aliases(self, aliases):
        rec = record()
        rec["gold_aliases"] = aliases
        with pytest.raises(RecordError, match="gold_aliases"):
            score_record(rec, CFG)

    def test_alias_normalizing_to_empty_reported_with_id(self):
        rec = record(aliases=("   ",))
        with pytest.raises(RecordError, match="record 'r1'"):
            score_record(rec, CFG)

    def test_gate_failures_show_in_reply(self):
        rec = record(response="munich with no think block")
        reply, breakdown = score_record(rec, CFG)
        assert reply["fmt"] == 0 and reply["reward"] == 0.0
        assert breakdown.fmt_gate == 0


class TestSummarize:
    def test_empty_batch(self):
        assert summarize([]) == ScoreSummary(0, 0.0, 0.0, {"fmt": 0, "len": 0})

    def test_counts_and_means(self):
        recs = [
            record("a"),                                             # 1.2
            record("b", response="<think> p </think> wrong tokens"), # 0.2
            record("c", response="no markers at all"),               # 0.0
        ]
        _, breakdowns = score_lines([json.dumps(r) for r in recs], CFG)
        summary = summarize(breakdowns)
        assert summary.n_records == 3
        assert summary.entity_accuracy_pct == pytest.approx(100.0 / 3.0)
        assert summary.mean_reward == pytest.approx((1.2 + 0.2 + 0.0) / 3.0)
        assert summary.gate_failure_counts == {"fmt": 1, "len": 0}

    def test_len_failures_counted_only_among_parsed(self):
        # Overlong but parsed: counts as a len failure.  Unparsed: fmt only.
        long_rec = record("a", response="<think> p </think> " + "x" * 50)
        recs = [long_rec, record("b", response="no markers")]
        _, breakdowns = score_lines([json.dumps(r) for r in recs], CFG)
        assert summarize(breakdowns).gate_failure_counts == {"fmt": 1, "len": 1}

    def test_to_dict_round_trips_through_json(self):
        _, breakdowns = score_lines([json.dumps(record())], CFG)
        doc = json.loads(json.dumps(summarize(breakdowns).to_dict()))
        assert doc["n_records"] == 1
        assert doc["entity_accuracy_pct"] == 100.0
        assert doc["gate_failure_counts"] == {"fmt": 0, "len": 0}


class TestScoreLines:
    def test_output_positions_match_input(self):
        lines = [
            json.dumps(record("a")).encode(),
            b"{broken",
            json.dumps(record("c")).encode(),
        ]
        replies, breakdowns = score_lines(lines, CFG)
        assert len(replies) == 3
        assert replies[0]["id"] == "a"
        assert replies[1] == {"line": 2, "error": replies[1]["error"]}
        assert "invalid JSON" in replies[1]["error"]
        assert replies[2]["id"] == "c"
        assert len(breakdowns) == 2

    def test_record_level_errors_become_objects(self):
        replies, breakdowns = score_lines([b'{"id": 5}'], CFG)
        assert replies == [{"line": 1, "error": "missing or non-string id"}]
        assert breakdowns == []

    def test_accepts_str_lines(self):
        replies, _ = score_lines([json.dumps(record())], CFG)
        assert replies[0]["reward"] == 1.2


def request_lines(n):
    """n JSONL requests with a known reward pattern (indices divisible by 3 fail)."""
    lines = []
    for i in range(n):
        response = "<think> p </think> munich" if i % 3 else "missing markers"
        lines.append(json.dumps(record(f"r{i}", response=response)).encode() + b"\n")
    return lines


class TestServeStdio:
    def test_replies_line_for_line(self):
        lines = request_lines(6)
        out = io.BytesIO()
        serve_stdio(CFG, io.BytesIO(b"".join(lines)), out)
        replies = [json.loads(l) for l in out.getvalue().splitlines()]
        assert len(replies) == 6
        assert replies[1]["reward"] == 1.2
        assert replies[0]["reward"] == 0.0

    def test_error_reply_carries_id_when_parseable(self):
        out = io.BytesIO()
        serve_stdio(CFG, io.BytesIO(b'{"id": "x", "response": 3}\n'), out)
        reply = json.loads(out.getvalue())
        assert reply["id"] == "x"
        assert "response" in reply["error"]

    def test_error_reply_without_id(self):
        out = io.BytesIO()
        serve_stdio(CFG, io.BytesIO(b"not json\n"), out)
        reply = json.loads(out.getvalue())
        assert reply["id"] is None
        assert "invalid JSON" in reply["error"]

    def test_non_ascii_round_trip(self):
        rec = record("u", response="<think> p </think> münchen", aliases=("München",), ref_lengths=(7,))
        out = io.BytesIO()
        serve_stdio(CFG, io.BytesIO(json.dumps(rec, ensure_ascii=False).encode() + b"\n"), out)
        assert json.loads(out.getvalue())["reward"] == 1.2

    def test_lone_surrogate_id_echoed_as_escape(self):
        # "\ud800" is valid JSON but not encodable as UTF-8; the reply
        # carries it back as the same escape.
        line = json.dumps(record("\ud800")).encode()
        out = io.BytesIO()
        serve_stdio(CFG, io.BytesIO(line + b"\n"), out)
        assert b'"id": "\\ud800"' in out.getvalue()
        assert json.loads(out.getvalue())["id"] == "\ud800"


def test_deeply_nested_line_gets_one_error_reply():
    # Lines that raised past the error path: json.loads raises RecursionError
    # on deep nesting and ValueError on an int past Python's digit limit, and
    # a huge ref_lengths overflowed the mean reference length.  None may
    # abort the batch or end the service loop.
    ok = json.dumps(record("ok")).encode()
    (expected,), _ = score_lines([ok], CFG)
    bad_lines = [
        (b"[" * 100_000, None, "invalid JSON"),
        (b'{"id": "a", "x": ' + b"1" * 5000 + b"}", None, "invalid JSON"),
        (json.dumps(record("big", ref_lengths=(10**400,))).encode(), "big", "ref_lengths"),
    ]
    for bad, rid, error in bad_lines:
        lines = [bad, ok]
        replies, _ = score_lines(lines, CFG)
        assert len(replies) == 2
        assert replies[0]["line"] == 1 and error in replies[0]["error"]
        assert replies[1] == expected
        out = io.BytesIO()
        serve_stdio(CFG, io.BytesIO(b"\n".join(lines) + b"\n"), out)
        served = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == [{"id": rid, "error": replies[0]["error"]}, expected]


# Text with any code point, lone surrogates included (json.dumps escapes them),
# and a few strings that get records deep into the scoring path.
_text = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ("", "Munich", "<think> plan </think> munich", "\ud800"))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)
_json_lines = st.fixed_dictionaries({}, optional={
    "id": _json_values,
    "response": _json_values,
    "gold_aliases": st.lists(_text, max_size=3) | _json_values,
    "ref_lengths": st.lists(st.integers(-(10**400), 10**400), max_size=3) | _json_values,
    "refs": st.lists(_text, max_size=3) | _json_values,
}).map(lambda obj: json.dumps(obj).encode())
_byte_lines = st.binary(max_size=48).map(lambda raw: raw.replace(b"\n", b""))


@settings(max_examples=300, deadline=None)
@given(st.lists(_byte_lines | _json_lines, max_size=8))
@example([b"abc\xe2\x82"])  # truncated UTF-8: its error text must not depend on the newline
def test_every_line_gets_exactly_one_reply(lines):
    replies, _ = score_lines(lines, CFG)
    assert len(replies) == len(lines)
    framed = b"".join(line + b"\n" for line in lines)
    assert score_lines(io.BytesIO(framed), CFG)[0] == replies
    out = io.BytesIO()
    serve_stdio(CFG, io.BytesIO(framed), out)
    served = out.getvalue().split(b"\n")
    assert served.pop() == b""
    assert len(served) == len(lines)
    # Batch and service give the same scored reply, or the same error text.
    for lineno, (batch, reply) in enumerate(zip(replies, map(json.loads, served)), start=1):
        if "error" in batch:
            assert batch["line"] == lineno and reply["error"] == batch["error"]
        else:
            assert reply == batch


def roundtrip(address, lines):
    """Send lines over one connection, read one reply per line."""
    with socket.create_connection(address, timeout=10) as sock:
        with sock.makefile("rwb") as f:
            for line in lines:
                f.write(line)
            f.flush()
            sock.shutdown(socket.SHUT_WR)
            return [json.loads(l) for l in f]


class TestRewardService:
    @pytest.fixture()
    def service(self):
        server = RewardService(("127.0.0.1", 0), CFG)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def test_single_connection_order_preserved(self, service):
        lines = request_lines(10)
        replies = roundtrip(service.server_address, lines)
        assert [r.get("id") for r in replies] == [f"r{i}" for i in range(10)]

    def test_matches_batch_path_field_for_field(self, service):
        lines = request_lines(12)
        batch_replies, _ = score_lines(lines, CFG)
        service_replies = roundtrip(service.server_address, lines)
        # Batch error objects are positional, service ones carry ids; this
        # corpus is all well-formed so both paths emit the same objects.
        assert service_replies == batch_replies

    def test_concurrent_connections(self, service):
        lines = request_lines(8)
        results = {}

        def worker(idx):
            results[idx] = roundtrip(service.server_address, lines)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert set(results) == {0, 1, 2, 3}
        assert all(results[i] == results[0] for i in results)

    def test_malformed_line_does_not_kill_connection(self, service):
        lines = [b"garbage\n"] + request_lines(2)
        replies = roundtrip(service.server_address, lines)
        assert len(replies) == 3
        assert "error" in replies[0]
        assert replies[2]["id"] == "r1"
