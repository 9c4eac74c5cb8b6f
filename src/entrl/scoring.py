"""Record scoring shared by the batch command and the line-protocol service.

One JSON object per line in, one per line out.  A malformed line produces an
error object in the same position instead of aborting the run, so output
line counts always equal input line counts.  The service speaks the same
format over a TCP stream socket (or stdin/stdout) and is stateless; batch
and service paths both score each line with ``score_line`` and write it with
``_encode_reply``, so they agree field for field and error text for error
text.

Both read through ``_read_lines``, one bounded read at a time, and write a
read's replies together.  A line longer than ``MAX_LINE_BYTES`` gets one
error reply and is dropped as it arrives, so a connection holds at most the
read buffer plus ``MAX_LINE_BYTES``.
"""

from __future__ import annotations

import json
import socketserver
from collections.abc import Iterable, Iterator
from dataclasses import asdict, dataclass

from .evalkit import _is_int
from .reward import RewardBreakdown, RewardConfig, _measured_length, compute_reward
from .textnorm import GoldEntitySet

__all__ = [
    "RecordError",
    "ScoreSummary",
    "decode_line",
    "score_record",
    "summarize",
    "score_line",
    "score_lines",
    "RewardService",
    "serve_stdio",
]

# Largest accepted ref_lengths entry; far above any real reference, and it
# keeps the mean reference length a finite float.
MAX_REF_LENGTH = 10**9
# Longest input line scored, newline excluded.
MAX_LINE_BYTES = 1 << 20
# Size of the buffer each read fills.
READ_BYTES = 1 << 14


class RecordError(ValueError):
    """A single input record is unusable; processing continues."""


def decode_line(raw: bytes | str | None) -> dict:
    """Decode one input line to a JSON object, strictly UTF-8; ``None`` stands for
    a line that ``_read_lines`` dropped as longer than ``MAX_LINE_BYTES``."""
    if raw is None:
        raise RecordError(f"line longer than {MAX_LINE_BYTES} bytes")
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RecordError(f"invalid UTF-8: {exc}") from None
    raw = raw.strip()
    if not raw:
        raise RecordError("empty line")
    try:
        obj = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or an int past Python's digit limit
        raise RecordError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise RecordError("invalid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise RecordError("record is not a JSON object")
    return obj


def _ref_lengths_from(record: dict, config: RewardConfig) -> list[int]:
    has_lengths = "ref_lengths" in record
    has_refs = "refs" in record
    if has_lengths == has_refs:
        raise RecordError("exactly one of ref_lengths/refs is required")
    if has_lengths:
        lengths = record["ref_lengths"]
        if not isinstance(lengths, list) or not lengths:
            raise RecordError("ref_lengths must be a non-empty list")
        if not all(_is_int(n) and 0 < n <= MAX_REF_LENGTH for n in lengths):
            raise RecordError(f"ref_lengths must be integers in [1, {MAX_REF_LENGTH}]")
        return lengths
    refs = record["refs"]
    if not isinstance(refs, list) or not refs or not all(isinstance(r, str) for r in refs):
        raise RecordError("refs must be a non-empty list of strings")
    lengths = [_measured_length(r, config.length_unit) for r in refs]
    if any(n <= 0 for n in lengths):
        raise RecordError("a reference has zero length")
    return lengths


def score_record(record: dict, config: RewardConfig) -> tuple[dict, RewardBreakdown]:
    """Validate and score one record; returns the reply object and breakdown."""
    rid = record.get("id")
    if not isinstance(rid, str):
        raise RecordError("missing or non-string id")
    response = record.get("response")
    if not isinstance(response, str):
        raise RecordError(f"record {rid!r}: missing or non-string response")
    aliases = record.get("gold_aliases")
    if not isinstance(aliases, list) or not aliases or not all(isinstance(a, str) for a in aliases):
        raise RecordError(f"record {rid!r}: gold_aliases must be a non-empty list of strings")
    ref_lengths = _ref_lengths_from(record, config)
    try:
        gold = GoldEntitySet(rid, tuple(aliases))
    except ValueError as exc:
        raise RecordError(f"record {rid!r}: {exc}") from None
    breakdown = compute_reward(response, gold, ref_lengths, config)
    reply = {
        "id": rid,
        "fmt": breakdown.fmt_gate,
        "len": breakdown.len_gate,
        "match": breakdown.match,
        "reward": breakdown.reward,
    }
    return reply, breakdown


@dataclass(frozen=True)
class ScoreSummary:
    """Aggregate view of one scored batch."""

    n_records: int
    entity_accuracy_pct: float
    mean_reward: float
    gate_failure_counts: dict

    def to_dict(self) -> dict:
        return asdict(self)


def summarize(breakdowns: Iterable[RewardBreakdown]) -> ScoreSummary:
    """Aggregate scored records in one pass; length failures are counted among parsed ones.

    ``breakdowns`` may be a generator: nothing is kept per record, and rewards
    are summed left to right in record order.
    """
    n = matches = fmt_failures = len_failures = 0
    total = 0.0
    for b in breakdowns:
        n += 1
        matches += bool(b.match)
        total += b.reward
        fmt_failures += b.fmt_gate == 0
        len_failures += b.fmt_gate == 1 and b.len_gate == 0
    if not n:
        return ScoreSummary(0, 0.0, 0.0, {"fmt": 0, "len": 0})
    return ScoreSummary(
        n_records=n,
        entity_accuracy_pct=100.0 * matches / n,
        mean_reward=total / n,
        gate_failure_counts={"fmt": fmt_failures, "len": len_failures},
    )


def score_line(raw: bytes | str | None, config: RewardConfig) -> tuple[dict, RewardBreakdown | None]:
    """Score one raw line, with or without its trailing newline.

    Exactly one trailing ``\\n`` is dropped before decoding, so a line gets
    the same reply however it was framed; ``None`` stands for a line that
    ``_read_lines`` dropped as longer than ``MAX_LINE_BYTES``.  Returns the
    reply and breakdown, or ``({"id", "error"}, None)`` for a bad line; the
    id is echoed when the line decoded to an object holding a string id.
    """
    record = None
    try:
        if raw is not None:
            raw = raw.removesuffix(b"\n" if isinstance(raw, bytes) else "\n")
        record = decode_line(raw)
        return score_record(record, config)
    except RecordError as exc:
        rid = record.get("id") if record is not None else None
        return {"id": rid if isinstance(rid, str) else None, "error": str(exc)}, None


def score_lines(lines, config: RewardConfig, start: int = 1) -> tuple[list[dict], list[RewardBreakdown]]:
    """Score raw lines, such as an open binary file; errors become positional error objects.

    ``start`` is the line number of the first line.
    """
    replies: list[dict] = []
    breakdowns: list[RewardBreakdown] = []
    for lineno, raw in enumerate(lines, start=start):
        reply, breakdown = score_line(raw, config)
        if breakdown is None:
            reply = {"line": lineno, "error": reply["error"]}
        else:
            breakdowns.append(breakdown)
        replies.append(reply)
    return replies, breakdowns


# One encoder for every reply: json.dumps with a non-default option builds a
# new JSONEncoder on each call.
_REPLY_JSON = json.JSONEncoder(ensure_ascii=False)


def _encode_reply(reply: dict) -> bytes:
    # An id may hold a lone surrogate (from a "\ud800" escape); it goes back
    # out as the same JSON escape instead of failing to encode.
    return _REPLY_JSON.encode(reply).encode("utf-8", "backslashreplace") + b"\n"


def _read_lines(in_stream) -> Iterator[list[bytes | None]]:
    """Yield the lines that each read of a binary stream completes, one list per read.

    Each read fills one buffer through ``readinto1`` (a raw stream's
    ``readinto``).  Lines come without their newline, a last line with none
    at end of input, and a line longer than ``MAX_LINE_BYTES`` as one
    ``None`` when it ends.
    """
    buf = bytearray(READ_BYTES)
    view = memoryview(buf)
    read = getattr(in_stream, "readinto1", None) or in_stream.readinto
    head = bytearray()   # the start of a line that earlier reads brought
    overlong = False     # the current line is past MAX_LINE_BYTES
    while n := read(view):
        lines: list[bytes | None] = view[:n].tobytes().split(b"\n")
        tail = lines.pop()
        if lines:
            if overlong or len(head) + len(lines[0]) > MAX_LINE_BYTES:
                lines[0] = None
            elif head:
                head += lines[0]
                lines[0] = bytes(head)
            head.clear()
            overlong = False
            if n > MAX_LINE_BYTES:   # only then can a later line of this read be too long
                lines[1:] = [None if len(line) > MAX_LINE_BYTES else line for line in lines[1:]]
            yield lines
        if overlong or len(head) + len(tail) > MAX_LINE_BYTES:
            overlong = True
            head.clear()
        else:
            head += tail
    if overlong or head:
        yield [None if overlong else bytes(head)]


class _LineHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True
    rbufsize = 0   # a raw socket reader: _read_lines has its own buffer

    def handle(self) -> None:
        try:
            serve_stdio(self.server.reward_config, self.rfile, self.wfile)
        except ConnectionError:  # the client hung up or reset; only its connection ends
            pass


class RewardService(socketserver.ThreadingTCPServer):
    """Newline-delimited JSON scoring over TCP.

    Each connection is served by its own thread; replies preserve that
    connection's request order.  Identical requests always produce
    identical replies because no state outlives a request, apart from
    ``textnorm``'s pure, bounded alias memo.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], config: RewardConfig):
        super().__init__(address, _LineHandler)
        self.reward_config = config


def serve_stdio(config: RewardConfig, in_stream, out_stream) -> None:
    """Serve the same line protocol over a pair of byte streams.

    The replies to the lines of one read go out in one ``write`` and one
    ``flush``.
    """
    for lines in _read_lines(in_stream):
        out_stream.write(b"".join([_encode_reply(score_line(raw, config)[0]) for raw in lines]))
        out_stream.flush()
