"""Seeded JSONL corpora for the scoring workloads, with the expected replies.

Every line is built to a plan (valid record with chosen gates, or one kind
of malformed line), and the expected reply is computed here from the
documented reply contract, not by calling the package.  ``fold`` and
``parse`` restate the matching and format rules of the README so that a
reply that drifts from them is reported as wrong.
"""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass

OPEN, CLOSE = "<think>", "</think>"
ALPHA, TAU = 0.2, 2.0

# Entities with non-ASCII aliases.  Several fold to different strings than
# their ASCII spellings (Đ, Ł and ı carry no combining mark), which the
# oracle below accounts for like the scorer does.
ENTITIES = (
    ("München", "Munich", "Monaco di Baviera", "Muenchen"),
    ("Đà Nẵng", "Da Nang", "Tourane"),
    ("São Paulo", "Sampa"),
    ("Zürich", "Zurich", "Zurigo", "Zuri"),
    ("Kraków", "Cracow", "Krakau"),
    ("Île-de-France", "Paris Region"),
    ("Córdoba", "Cordova", "Qurṭuba"),
    ("Reykjavík", "Reykjavik"),
    ("Łódź", "Lodz", "Litzmannstadt"),
    ("Göteborg", "Gothenburg", "Gotemburgo"),
    ("Tōkyō", "Tokyo", "東京"),
    ("Αθήνα", "Athens", "Athína", "Atene"),
    ("Москва", "Moscow", "Moskva", "Moscou"),
    ("Ciudad de México", "Mexico City", "CDMX"),
    ("Hà Nội", "Hanoi", "Thăng Long"),
    ("Київ", "Kyiv", "Kyïv", "Kiew"),
    ("Şanlıurfa", "Urfa", "Edessa"),
    ("Brașov", "Kronstadt", "Brassó"),
    ("Nîmes", "Nemausus"),
    ("Ålesund", "Aalesund"),
    ("Besançon", "Vesontio", "Bisanz"),
    ("Mönchengladbach", "Gladbach"),
    ("Kōbe", "Kobe", "神戸"),
    ("Bogotá", "Santa Fe de Bogotá"),
)
FILLER = (
    "the", "river", "harbour", "old town", "cathedral", "north", "winter", "market",
    "señor", "café", "naïve", "façade", "über", "ngày", "город", "δρόμος", "港",
    "bridge", "station", "festival", "coast", "valley", "museum", "square",
)
WRAP = ("", "", "the city of ", "in ", "→ ", "answer: ")
TAIL = ("", "", " city", " (capital)", ", of course", " region")

# Malformed-line kinds and their share of a corpus.  Deeply nested JSON is
# left out: one such line aborts the whole batch run and the stdio server.
ERROR_KINDS = ("invalid_utf8", "invalid_json", "not_object", "empty_line", "bad_field")
ERROR_SHARE = 0.04


def fold(text: str) -> str:
    """Lowercase, strip combining marks after NFD, recompose, collapse whitespace."""
    stripped = "".join(c for c in unicodedata.normalize("NFD", text.lower())
                       if not unicodedata.combining(c))
    return " ".join(unicodedata.normalize("NFC", stripped).split())


def parse(raw: str) -> str | None:
    """Translation segment of a strictly well-formed response, else None."""
    if raw.count(OPEN) != 1 or raw.count(CLOSE) != 1 or not raw.lstrip().startswith(OPEN):
        return None
    open_end, close_start = raw.index(OPEN) + len(OPEN), raw.index(CLOSE)
    if close_start < open_end:
        return None
    return raw[close_start + len(CLOSE):].strip() or None


def expected_reply(rid: str, response: str, aliases: list, ref_lengths: list) -> dict:
    trans = parse(response)
    if trans is None:
        return {"id": rid, "fmt": 0, "len": 0, "match": 0, "reward": 0.0}
    len_bit = int(len(trans) <= TAU * (sum(ref_lengths) / len(ref_lengths)))
    folded = fold(trans)
    match = int(any(fold(a) in folded for a in aliases))
    return {"id": rid, "fmt": 1, "len": len_bit, "match": match,
            "reward": float(len_bit) * (ALPHA + match)}


@dataclass
class Line:
    """One corpus line: the bytes sent and what must come back for it."""

    raw: bytes
    kind: str                 # "ok" or one of ERROR_KINDS
    reply: dict | None        # expected reply of a valid record
    rid: str | None = None    # id the service echoes in an error reply


@dataclass
class Corpus:
    lines: list

    def data(self) -> bytes:
        return b"".join(ln.raw + b"\n" for ln in self.lines)

    def mean_bytes(self) -> float:
        return sum(len(ln.raw) + 1 for ln in self.lines) / len(self.lines)

    def expected_summary(self) -> dict:
        ok = [ln.reply for ln in self.lines if ln.kind == "ok"]
        return {
            "n_records": len(ok),
            "entity_accuracy_pct": 100.0 * sum(r["match"] for r in ok) / len(ok),
            "mean_reward": sum(r["reward"] for r in ok) / len(ok),
            "gate_failure_counts": {
                "fmt": sum(1 for r in ok if r["fmt"] == 0),
                "len": sum(1 for r in ok if r["fmt"] == 1 and r["len"] == 0),
            },
        }


def _variant(rng: random.Random, alias: str) -> str:
    """A surface form of ``alias`` that differs in case, marks or spacing."""
    pick = rng.randrange(5)
    if pick == 1:
        return alias.upper()
    if pick == 2:
        return alias.lower()
    if pick == 3:
        return unicodedata.normalize("NFD", alias)
    if pick == 4:
        return alias.replace(" ", "  \n ")
    return alias


def _words(rng: random.Random, n_chars: int) -> str:
    out, size = [], 0
    while size < n_chars:
        word = rng.choice(FILLER)
        out.append(word)
        size += len(word) + 1
    return " ".join(out)


def _response(rng: random.Random, entity: tuple, think_max: int) -> str:
    think = " " + _words(rng, rng.randrange(think_max + 1)) + " "
    if rng.random() < 0.5:
        core = rng.choice(WRAP) + _variant(rng, rng.choice(entity)) + rng.choice(TAIL)
    elif rng.random() < 0.5:
        core = rng.choice(rng.choice(ENTITIES))      # usually another entity
    else:
        core = _words(rng, rng.randrange(4, 30))
    lead = rng.choice(("", "", " ", "\n"))
    trail = rng.choice(("", " ", "\t"))
    roll = rng.random()
    if roll < 0.82:
        return f"{lead}{OPEN}{think}{CLOSE} {core}{trail}"
    broken = (
        f"{core}",                                   # no think block
        f"{OPEN}{think} {core}",                     # close marker missing
        f"{OPEN}{OPEN}{think}{CLOSE} {core}",        # open marker twice
        f"note: {OPEN}{think}{CLOSE} {core}",        # text before the block
        f"{OPEN}{think}{CLOSE}   ",                  # empty translation
        f"{CLOSE}{think}{OPEN} {core}",              # markers reversed
        f"{OPEN}{think}{CLOSE} {core} {CLOSE}",      # close marker twice
    )
    return rng.choice(broken)


def _valid_record(rng: random.Random, rid: str, think_max: int, max_aliases: int) -> tuple:
    entity = rng.choice(ENTITIES)
    n_aliases = rng.randint(1, max_aliases)
    aliases = list(entity[:n_aliases])
    while len(aliases) < n_aliases:
        aliases.append(_variant(rng, rng.choice(entity)))
    response = _response(rng, entity, think_max)
    trans = parse(response) or "x"
    half = -(-len(trans) // 2)
    n_refs = rng.randint(1, 3)
    gate = rng.random()
    if gate < 0.1 and len(trans) % 2 == 0:
        lengths = [half] * n_refs                    # on the inclusive bound
    elif gate < 0.3 and half > 1:
        lengths = [rng.randint(1, half - 1) for _ in range(n_refs)]
    else:
        lengths = [rng.randint(half, len(trans) + 12) for _ in range(n_refs)]
    record = {"id": rid, "response": response, "gold_aliases": aliases}
    if rng.random() < 0.5:
        record["ref_lengths"] = lengths
    else:
        record["refs"] = [_words(rng, n)[:n] for n in lengths]
        lengths = [len(r) for r in record["refs"]]
    return record, expected_reply(rid, response, aliases, lengths)


def _bad_field(rng: random.Random, record: dict) -> tuple:
    """Break exactly one field; returns the record and the id an error echoes."""
    rec = dict(record)
    rid = rec["id"]
    pick = rng.randrange(11)
    if pick == 0:
        del rec["id"]
        rid = None
    elif pick == 1:
        rec["id"] = 7
        rid = None
    elif pick == 2:
        rec["response"] = None
    elif pick == 3:
        rec["gold_aliases"] = []
    elif pick == 4:
        rec["gold_aliases"] = ["Munich", 3]
    elif pick == 5:
        rec["gold_aliases"] = [" \u0301 "]     # folds to the empty string
    elif pick == 6:
        rec.pop("refs", None)
        rec.pop("ref_lengths", None)
    elif pick == 7:
        rec["refs"], rec["ref_lengths"] = ["abc"], [3]
    elif pick == 8:
        rec.pop("refs", None)
        rec["ref_lengths"] = [4, rng.choice((0, -2, True, 2.5))]
    elif pick == 9:
        rec.pop("ref_lengths", None)
        rec["refs"] = ["abc", ""]
    else:
        rec.pop("refs", None)
        rec["ref_lengths"] = []
    return rec, rid


def _malformed(rng: random.Random, kind: str, record: dict) -> tuple:
    text = json.dumps(record, ensure_ascii=False)
    if kind == "invalid_utf8":
        data = text.encode("utf-8")
        cut = rng.randrange(1, len(data))
        return data[:cut] + rng.choice((b"\xff", b"\xc3(", b"\xe2\x82", b"\xed\xa0\x80")) + data[cut:], None
    if kind == "invalid_json":
        return text[: rng.randrange(1, len(text) - 1)].encode("utf-8"), None
    if kind == "not_object":
        return rng.choice(('[1, 2, 3]', '"München"', "42", "null", "true", "[]")).encode("utf-8"), None
    if kind == "empty_line":
        return rng.choice((b"", b"   ", b"\t")), None
    rec, rid = _bad_field(rng, record)
    return json.dumps(rec, ensure_ascii=False).encode("utf-8"), rid


def build(seed: int, n: int, think_max: int, max_aliases: int, tag: str) -> Corpus:
    """``n`` lines from ``seed``; ``tag`` keeps the batch and service corpora apart."""
    rng = random.Random(f"{tag}:{seed}")
    lines = []
    for i in range(n):
        record, reply = _valid_record(rng, f"{tag}{i}", think_max, max_aliases)
        # The last line stays valid so no trailing blank line is dropped.
        if i < n - 1 and rng.random() < ERROR_SHARE:
            kind = ERROR_KINDS[rng.randrange(len(ERROR_KINDS))]
            raw, rid = _malformed(rng, kind, record)
            lines.append(Line(raw, kind, None, rid))
        else:
            raw = json.dumps(record, ensure_ascii=False).encode("utf-8")
            lines.append(Line(raw, "ok", reply, record["id"]))
    return Corpus(lines)


def check_reply(line: Line, reply: dict, position: int | None) -> bool:
    """Compare one reply with its line's expectation.

    ``position`` is the 1-based line number for batch replies and None for
    service replies, whose error objects carry the record id instead.
    """
    if line.kind == "ok":
        return reply == line.reply
    if not isinstance(reply.get("error"), str) or not reply["error"]:
        return False
    if position is not None:
        return set(reply) == {"line", "error"} and reply["line"] == position
    return set(reply) == {"id", "error"} and reply["id"] == line.rid
