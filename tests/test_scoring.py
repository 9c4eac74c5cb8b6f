"""Record scoring, batch summaries, and the line-protocol service."""

import io
import itertools
import json
import socket
import struct
import sys
import threading
import tracemalloc
from unittest import mock

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
from entrl import scoring
from entrl.scoring import MAX_LINE_BYTES, MAX_REF_LENGTH, READ_BYTES

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


class ChoppedStream(io.RawIOBase):
    """A raw stream whose reads return at most the given lengths, in turn."""

    def __init__(self, data: bytes, sizes):
        self.data, self.sizes, self.pos = data, itertools.cycle(sizes), 0

    def readable(self):
        return True

    def readinto(self, buf):
        n = min(len(buf), next(self.sizes), len(self.data) - self.pos)
        buf[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


class CountingWriter:
    """An unbuffered writer that keeps each write and counts flushes."""

    def __init__(self):
        self.writes, self.flushes = [], 0

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)

    def flush(self):
        self.flushes += 1


def assert_served(served: bytes, replies: list) -> None:
    """One reply line per batch reply: the same scored reply, or the same error text."""
    lines = served.split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == len(replies)
    for lineno, (batch, reply) in enumerate(zip(replies, map(json.loads, lines)), start=1):
        if "error" in batch:
            assert batch["line"] == lineno and reply["error"] == batch["error"]
        else:
            assert reply == batch


# Text with any code point, lone surrogates included (json.dumps escapes them),
# and a few strings that get records deep into the scoring path.
_text = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ("", "Munich", "<think> plan </think> munich", "\ud800"))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_text, inner, max_size=4),
    max_leaves=12,
)
_json_objects = st.fixed_dictionaries({}, optional={
    "id": _json_values,
    "response": _json_values,
    "gold_aliases": st.lists(_text, max_size=3) | _json_values,
    "ref_lengths": st.lists(st.integers(-(10**400), 10**400), max_size=3) | _json_values,
    "refs": st.lists(_text, max_size=3) | _json_values,
})
_json_lines = _json_objects.map(lambda obj: json.dumps(obj).encode())
# Unescaped non-ASCII, so reads can split multi-byte sequences.
_utf8_json_lines = _json_objects.map(
    lambda obj: json.dumps(obj, ensure_ascii=False).encode("utf-8", "surrogatepass"))
_byte_lines = st.binary(max_size=48).map(lambda raw: raw.replace(b"\n", b""))
# Some lines end in \r, so the framing puts \r\n pairs that reads can split.
_lines = st.tuples(_byte_lines | _json_lines | _utf8_json_lines, st.booleans()).map(
    lambda pair: pair[0] + b"\r" * pair[1])


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_lines, max_size=8), sizes=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       final_newline=st.booleans(), max_line=st.sampled_from((None, 0, 1, 7, 30)))
# Truncated UTF-8: its error text must not depend on the newline.
@example(lines=[b"abc\xe2\x82"], sizes=[64], final_newline=True, max_line=None)
def test_every_line_gets_exactly_one_reply(lines, sizes, final_newline, max_line):
    replies, _ = score_lines(lines, CFG)
    assert len(replies) == len(lines)
    framed = b"".join(line + b"\n" for line in lines)
    assert score_lines(io.BytesIO(framed), CFG)[0] == replies
    out = io.BytesIO()
    serve_stdio(CFG, io.BytesIO(framed), out)
    # Batch and service give the same scored reply, or the same error text.
    assert_served(out.getvalue(), replies)

    # Reads of the drawn lengths split lines, UTF-8 sequences and \r\n pairs,
    # a non-empty last line may end without a newline, and with a small
    # bound some lines are overlong.
    if not final_newline and lines and lines[-1]:
        framed = framed[:-1]
    with mock.patch.object(scoring, "MAX_LINE_BYTES", MAX_LINE_BYTES if max_line is None else max_line):
        bounded = [None if len(line) > scoring.MAX_LINE_BYTES else line for line in lines]
        expected, _ = score_lines(bounded, CFG)
        out = io.BytesIO()
        serve_stdio(CFG, ChoppedStream(framed, sizes), out)
    assert_served(out.getvalue(), expected)


def test_overlong_lines_get_one_error_reply_each(monkeypatch):
    monkeypatch.setattr(scoring, "MAX_LINE_BYTES", 40)
    short = b'{"id": "s"}'
    lines = [short, b"x" * 41, b"y" * 40, b"z" * 500, short, b"w" * 41]
    framed = b"\n".join(lines)   # the last, overlong line has no newline
    too_long = {"id": None, "error": "line longer than 40 bytes"}
    for sizes in ([READ_BYTES], [1], [3, 17], [41, 40]):
        out = io.BytesIO()
        serve_stdio(CFG, ChoppedStream(framed, sizes), out)
        replies = [json.loads(line) for line in out.getvalue().splitlines()]
        assert len(replies) == 6
        assert replies[1] == replies[3] == replies[5] == too_long
        assert replies[2]["error"].startswith("invalid JSON")
        assert replies[0] == replies[4] and replies[0]["id"] == "s"


def test_one_write_and_one_flush_per_read():
    lines = request_lines(10)
    reads = [b"".join(lines[:3]), lines[3], b"".join(lines[4:])]
    out = CountingWriter()
    serve_stdio(CFG, ChoppedStream(b"".join(reads), [len(r) for r in reads]), out)
    assert len(out.writes) == out.flushes == 3
    assert [w.count(b"\n") for w in out.writes] == [3, 1, 6]
    replies, _ = score_lines(lines, CFG)
    assert [json.loads(line) for line in b"".join(out.writes).splitlines()] == replies


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
        # A short poll, so that shutdown() in teardown returns within 0.05 s.
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
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

    def test_overlong_line_is_dropped_as_it_arrives(self, service):
        # 4 MiB without a newline, then one good line: the first gets one
        # error reply, and the connection holds no more than the read buffer
        # plus MAX_LINE_BYTES (and a bytearray's growth slack).
        piece = b"x" * (64 * 1024)
        good = request_lines(1)[0]
        tracemalloc.start()
        try:
            with socket.create_connection(service.server_address, timeout=10) as sock:
                for _ in range(64):
                    sock.sendall(piece)
                sock.sendall(b"\n" + good)
                sock.shutdown(socket.SHUT_WR)
                with sock.makefile("rb") as f:
                    replies = [json.loads(line) for line in f]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert replies == [{"id": None, "error": f"line longer than {MAX_LINE_BYTES} bytes"},
                           score_lines([good], CFG)[0][0]]
        assert peak < 1.5 * MAX_LINE_BYTES

    def test_client_reset_ends_only_its_connection(self, service):
        errors, handled = [], threading.Event()
        service.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
        shutdown_request = service.shutdown_request

        def record_end(request):
            shutdown_request(request)
            handled.set()

        service.shutdown_request = record_end
        data = b"".join(request_lines(20000))
        sock = socket.create_connection(service.server_address, timeout=10)
        sock.setblocking(False)
        sent = 0
        try:   # pipeline as many lines as the socket takes without waiting
            while sent < len(data):
                sent += sock.send(data[sent:sent + 65536])
        except BlockingIOError:
            pass
        sock.settimeout(10)
        assert sock.recv(1)   # the server is replying
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()          # a reset, with replies still on their way
        assert handled.wait(10)
        assert errors == []
        assert roundtrip(service.server_address, request_lines(3))[2]["id"] == "r2"

    def test_malformed_line_does_not_kill_connection(self, service):
        lines = [b"garbage\n"] + request_lines(2)
        replies = roundtrip(service.server_address, lines)
        assert len(replies) == 3
        assert "error" in replies[0]
        assert replies[2]["id"] == "r1"
