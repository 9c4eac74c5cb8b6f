"""Synthetic entity-translation environment with a tabular bigram policy.

The environment is small enough to train on one core in seconds yet keeps
the structure of the real task: a prompt names an entity, the policy emits
``<think> ... </think> translation`` as a token sequence, and the gated
reward scores the rendered text.  Each entity has a few alias token
sequences; the policy is a per-entity bigram softmax table, so latent
knowledge, format compliance, and length behavior are all directly
inspectable in the logits.

Token sequences render to text (``t07 t11`` style) and are scored by the
same reward pipeline used for real text, with token-unit lengths.  There is
one sampling path (temperature strictly positive, drawn from the policy's
frozen snapshot) and one scored-rollout loop, shared by ``train`` and
``measure_pass_at_k``: sample, then render and score each distinct response once.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .evalkit import PassAtKCurve, PassAtKInput, _is_int, pass_at_k_curve
from .optim import GroupMember, OptimConfig, RolloutGroup, policy_update_step
from .reward import RewardBreakdown, RewardConfig, _check_ablation, _measured_length, score_response
from .textnorm import GoldEntitySet

__all__ = [
    "BOS",
    "EOS",
    "THINK_OPEN",
    "THINK_CLOSE",
    "SRC_MARK",
    "FILLER",
    "N_SPECIALS",
    "Entity",
    "SyntheticLexicon",
    "gen_lexicon",
    "PolicyConfig",
    "ToyPolicy",
    "Rollout",
    "RolloutScore",
    "sample_rollout",
    "render_response",
    "toy_reward_config",
    "init_activation_prior",
    "measure_pass_at_k",
    "TrainMetricsRow",
    "TrainResult",
    "train",
    "metrics_to_csv",
    "save_policy",
    "load_policy",
]

BOS = 0
EOS = 1
THINK_OPEN = 2
THINK_CLOSE = 3
SRC_MARK = 4
FILLER = 5
N_SPECIALS = 5

# Substream tags: every random decision derives its generator from
# (seed, tag, ...indices), so runs are reproducible piece by piece.
_STREAM_LEXICON = 0
_STREAM_INIT = 1
_STREAM_INIT_EVAL = 2
_STREAM_PROMPTS = 3
_STREAM_ROLLOUT = 4
_STREAM_SHUFFLE = 5
_STREAM_EVAL = 6


@dataclass(frozen=True)
class Entity:
    entity_id: str
    source_token: int
    aliases: tuple[tuple[int, ...], ...]
    canonical_ref: tuple[int, ...]


@dataclass(frozen=True)
class SyntheticLexicon:
    """Vocabulary, entities with alias token sequences, and the entity split.

    Token ids below ``N_SPECIALS`` are reserved (bos, eos, think markers,
    source marker); ``FILLER`` is a content token reserved for think-segment
    padding.  An entity's source token, aliases and canonical reference use
    only the tokens above ``FILLER``.
    """

    vocab_size: int
    entities: tuple[Entity, ...]
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]
    index: dict[str, int] = field(init=False, compare=False, repr=False)
    golds: tuple[GoldEntitySet, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not _is_int(self.vocab_size):
            raise ValueError(f"vocab_size must be an integer, got {self.vocab_size!r}")
        if self.vocab_size <= FILLER + 1:
            raise ValueError(f"vocab_size {self.vocab_size} leaves no alias tokens")
        ids = [e.entity_id for e in self.entities]
        if not all(isinstance(i, str) for i in (*ids, *self.train_ids, *self.test_ids)):
            raise ValueError("entity ids must be strings")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate entity ids")
        if set(self.train_ids) & set(self.test_ids):
            raise ValueError("train/test splits overlap")
        if set(self.train_ids) | set(self.test_ids) != set(ids):
            raise ValueError("splits do not cover the entity set")
        for ent in self.entities:
            tokens = (ent.source_token, *ent.canonical_ref, *(t for a in ent.aliases for t in a))
            if not all(map(_is_int, tokens)):
                raise ValueError(f"{ent.entity_id}: token ids must be integers")
            if not ent.canonical_ref or not all(ent.aliases):
                raise ValueError(f"{ent.entity_id}: empty alias or canonical_ref")
            if any(t <= FILLER or t >= self.vocab_size for t in tokens):
                raise ValueError(f"{ent.entity_id}: uses reserved or out-of-vocabulary tokens")
        object.__setattr__(self, "index", {e_id: i for i, e_id in enumerate(ids)})
        object.__setattr__(self, "golds", tuple(GoldEntitySet(
            e.entity_id, tuple(map(self.alias_text, e.aliases))) for e in self.entities))

    def entity_index(self, entity_id: str) -> int:
        try:
            return self.index[entity_id]
        except KeyError:
            raise ValueError(f"unknown entity_id {entity_id!r}") from None

    def entity(self, entity_id: str) -> Entity:
        return self.entities[self.entity_index(entity_id)]

    def token_text(self, token: int) -> str:
        width = len(str(self.vocab_size - 1))
        return f"t{token:0{width}d}"

    @cached_property
    def token_texts(self) -> tuple[str, ...]:
        """``token_text`` of every token id, built on first use, so a lexicon
        that is never rendered costs nothing for a large ``vocab_size``."""
        return tuple(map(self.token_text, range(self.vocab_size)))

    def alias_text(self, alias: tuple[int, ...]) -> str:
        return " ".join(self.token_text(t) for t in alias)

    def gold(self, entity_id: str) -> GoldEntitySet:
        return self.golds[self.entity_index(entity_id)]

    def ref_lengths(self, entity_id: str) -> list[int]:
        return [len(self.entity(entity_id).canonical_ref)]

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "specials": {
                "bos": BOS,
                "eos": EOS,
                "think_open": THINK_OPEN,
                "think_close": THINK_CLOSE,
                "src_mark": SRC_MARK,
                "filler": FILLER,
            },
            "entities": [
                {
                    "entity_id": e.entity_id,
                    "source_token": e.source_token,
                    "aliases": [list(a) for a in e.aliases],
                    "canonical_ref": list(e.canonical_ref),
                }
                for e in self.entities
            ],
            "train_ids": list(self.train_ids),
            "test_ids": list(self.test_ids),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticLexicon":
        """Inverse of ``to_dict``.  Lists become tuples and nothing is
        coerced, so a loaded lexicon is checked as a built one is; a document
        of the wrong shape raises ``ValueError``."""
        entities = []
        for e in _doc_value(doc, "entities", list):
            aliases = _doc_value(e, "aliases", list)
            if not all(isinstance(a, list) for a in aliases):
                raise ValueError("lexicon document: each alias must be a list")
            entities.append(Entity(
                entity_id=_doc_value(e, "entity_id"),
                source_token=_doc_value(e, "source_token"),
                aliases=tuple(map(tuple, aliases)),
                canonical_ref=tuple(_doc_value(e, "canonical_ref", list)),
            ))
        return cls(
            vocab_size=_doc_value(doc, "vocab_size"),
            entities=tuple(entities),
            train_ids=tuple(_doc_value(doc, "train_ids", list)),
            test_ids=tuple(_doc_value(doc, "test_ids", list)),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SyntheticLexicon":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError("invalid JSON: nested too deeply") from None
        return cls.from_dict(doc)


def _doc_value(doc, key: str, kind: type = object):
    """``doc[key]`` of a lexicon document, where ``doc`` must be an object
    holding ``key`` and the value an instance of ``kind``."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"lexicon document: expected an object with key {key!r}")
    if not isinstance(doc[key], kind):
        raise ValueError(f"lexicon document: {key} must be a {kind.__name__}, "
                         f"got {type(doc[key]).__name__}")
    return doc[key]


def _contains_run(hay: tuple[int, ...], needle: tuple[int, ...]) -> bool:
    n = len(needle)
    return any(hay[i : i + n] == needle for i in range(len(hay) - n + 1))


def gen_lexicon(
    seed: int,
    n_entities: int = 20,
    aliases_per_entity: int = 3,
    alias_len_range: tuple[int, int] = (2, 4),
    train_fraction: float = 0.75,
    vocab_size: int = 48,
    ref_pad_range: tuple[int, int] = (0, 2),
) -> SyntheticLexicon:
    """Generate a seeded lexicon with disjoint train/test entity splits.

    Within one entity no token is reused across its aliases, which keeps
    the bigram chains of different aliases from interfering.  Across
    entities no alias may appear as a contiguous run inside another, so a
    match can never be ambiguous.  Collisions are regenerated internally;
    persistent failure (vocabulary too small for the request) raises.

    ``ref_pad_range`` bounds the random padding appended to the first
    alias to form the canonical reference; (0, 0) makes the length bound
    tau * mean reference length as tight as the alias itself.
    """
    for name, value in (("seed", seed), ("n_entities", n_entities),
                        ("aliases_per_entity", aliases_per_entity), ("vocab_size", vocab_size)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if n_entities < 2:
        raise ValueError("need at least 2 entities to split")
    if aliases_per_entity < 1:
        raise ValueError(f"aliases_per_entity must be >= 1, got {aliases_per_entity}")
    lo, hi = alias_len_range
    if not (_is_int(lo) and _is_int(hi) and 1 <= lo <= hi):
        raise ValueError(f"bad alias_len_range {alias_len_range!r}")
    pad_lo, pad_hi = ref_pad_range
    if not (_is_int(pad_lo) and _is_int(pad_hi) and 0 <= pad_lo <= pad_hi):
        raise ValueError(f"bad ref_pad_range {ref_pad_range!r}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    pool = np.arange(FILLER + 1, vocab_size)
    if len(pool) < aliases_per_entity * hi:
        raise ValueError(
            f"vocab_size {vocab_size} cannot host {aliases_per_entity} aliases "
            f"of up to {hi} tokens"
        )

    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_LEXICON)))
    width = len(str(n_entities - 1))
    source_tokens = rng.permutation(pool)[:n_entities]
    kept_aliases: list[tuple[int, ...]] = []
    entities: list[Entity] = []
    for i in range(n_entities):
        for attempt in range(200):
            lengths = rng.integers(lo, hi + 1, size=aliases_per_entity)
            picks = rng.permutation(pool)[: int(lengths.sum())]
            aliases, start = [], 0
            for ln in lengths:
                aliases.append(tuple(int(t) for t in picks[start : start + ln]))
                start += int(ln)
            clash = any(
                _contains_run(a, b) or _contains_run(b, a)
                for a in aliases
                for b in kept_aliases
            )
            if not clash:
                break
        else:
            raise RuntimeError(
                f"could not place aliases for entity {i} without collisions; "
                f"vocabulary too crowded"
            )
        pad = rng.integers(pad_lo, pad_hi + 1)
        ref = aliases[0] + tuple(int(t) for t in rng.choice(pool, size=pad))
        entities.append(
            Entity(
                entity_id=f"E{i:0{width}d}",
                source_token=int(source_tokens[i % len(source_tokens)]),
                aliases=tuple(aliases),
                canonical_ref=ref,
            )
        )
        kept_aliases.extend(aliases)

    order = rng.permutation(n_entities)
    n_train = int(np.clip(round(train_fraction * n_entities), 1, n_entities - 1))
    ids = [entities[int(j)].entity_id for j in order]
    return SyntheticLexicon(
        vocab_size=vocab_size,
        entities=tuple(entities),
        train_ids=tuple(sorted(ids[:n_train])),
        test_ids=tuple(sorted(ids[n_train:])),
    )


@dataclass(frozen=True)
class PolicyConfig:
    """Knobs for policy construction and its Monte Carlo verification."""

    temperature: float = 1.0
    max_len: int = 24
    eval_samples: int = 256
    pass64_floor: float = 0.70
    k_high: int = 64
    max_attempts: int = 10

    def __post_init__(self) -> None:
        for name in ("max_len", "eval_samples", "k_high", "max_attempts"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if self.k_high > self.eval_samples:
            raise ValueError(f"k_high {self.k_high} exceeds eval_samples {self.eval_samples}")
        if isinstance(self.pass64_floor, bool):
            raise ValueError("pass64_floor must be a real number, not a boolean")
        if not 0.0 <= self.pass64_floor <= 1.0:
            raise ValueError(f"pass64_floor must be in [0, 1], got {self.pass64_floor}")


# numpy's SeedSequence hash and PCG64 generator (numpy/random/bit_generator.pyx,
# pcg64.h): fixed algorithms, so a batch of streams can be computed as arrays
# and still equal numpy's own Generators draw for draw.
_MASK32 = 0xFFFF_FFFF
_MASK64 = (1 << 64) - 1
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_WORDS = 4
# Powers of the mixing multiplier, for the constant before each pool word and after the last.
_HASH_A_STEPS = np.array([pow(_HASH_MULT_A, d, 1 << 32) for d in range(_POOL_WORDS + 1)], np.uint32)
# generate_state's hash constant before each of its 8 output words, and after the last.
_HASH_B = np.array([_HASH_INIT_B * pow(_HASH_MULT_B, j, 1 << 32) & _MASK32 for j in range(9)],
                   np.uint32)


def _key_words(key) -> int:
    """The number of 32-bit words SeedSequence makes of ``key``'s ints (0 takes one)."""
    if isinstance(key, (int, np.integer)):
        return max(1, -(-int(key).bit_length() // 32))
    return sum(map(_key_words, key))


def _spawned_streams(keys, n: int) -> np.ndarray:
    """The PCG64 stream of ``SeedSequence(key).spawn(n)[i]`` for each key, then each i.

    A child's entropy is its parent's, zero-padded to the pool, followed by
    the word ``i``, so its pool is the parent's pool with ``i`` mixed in,
    hashed with the constant the parent's own mixing left behind.
    Returns the ``(4, len(keys) * n)`` array ``_pcg_uniforms`` reads.
    """
    pools = np.array([np.random.SeedSequence(key).pool for key in keys], np.uint32)
    # The mixing hash constant after the parent's 4 calls per pool word, 12 for
    # the all-pairs pass and 4 per word beyond the pool, then one per pool word.
    after_parent = [_HASH_INIT_A * pow(_HASH_MULT_A, 16 + 4 * max(0, _key_words(key) - _POOL_WORDS),
                                       1 << 32) & _MASK32 for key in keys]
    consts = (np.array(after_parent, np.uint32)[:, None] * _HASH_A_STEPS)[:, None, :]
    hashed = (np.arange(n, dtype=np.uint32)[None, :, None] ^ consts[..., :-1]) * consts[..., 1:]
    hashed ^= hashed >> 16
    pool = _MIX_MULT_L * pools[:, None, :] - _MIX_MULT_R * hashed
    pool ^= pool >> 16
    # generate_state(4, np.uint64): 8 hashed words cycling the pool, paired little-endian.
    words = (np.tile(pool, 2) ^ _HASH_B[:-1]) * _HASH_B[1:]
    words ^= words >> 16
    words = words.reshape(-1, 8).astype(np.uint64)
    seed_hi, seed_lo, seq_hi, seq_lo = (words[:, 2 * k] | words[:, 2 * k + 1] << 32 for k in range(4))
    # PCG64's seeding: inc = 2 * seq + 1; state = inc + seed, then one LCG step.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    state_lo = inc_lo + seed_lo
    state_hi = inc_hi + seed_hi + (state_lo < seed_lo)
    return np.stack([*_pcg_step(state_hi, state_lo, inc_hi, inc_lo), inc_hi, inc_lo])


def _seed_streams(seeds) -> np.ndarray:
    """The PCG64 stream of ``default_rng(seed)`` for each seed, as ``_spawned_streams``."""
    words = []
    for seed in seeds:
        state = np.random.PCG64(seed).state["state"]
        words.append([state["state"] >> 64, state["state"] & _MASK64,
                      state["inc"] >> 64, state["inc"] & _MASK64])
    return np.array(words, np.uint64).T


def _mulhi64(x: np.ndarray, c: int) -> np.ndarray:
    """The high 64 bits of ``x * c``, for uint64 ``x`` and a 64-bit constant ``c``."""
    x0, x1, c0, c1 = x & _MASK32, x >> 32, c & _MASK32, c >> 32
    p01, p10 = x0 * c1, x1 * c0
    mid = (x0 * c0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return x1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(state_hi, state_lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """One PCG64 LCG step, ``state * mult + inc`` modulo 2**128, on hi/lo uint64 arrays."""
    lo = state_lo * _PCG_MULT_LO + inc_lo
    hi = (_mulhi64(state_lo, _PCG_MULT_LO) + state_lo * _PCG_MULT_HI + state_hi * _PCG_MULT_LO
          + inc_hi + (lo < inc_lo))
    return hi, lo


def _pcg_uniforms(streams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The next uniform of each stream, as ``Generator.random`` draws it, and
    the advanced streams.

    ``streams`` rows are the 128-bit state's high and low words and the
    increment's; column ``i`` is one stream.  A draw is an LCG step, the
    XSL-RR output of the new state, and ``(x >> 11) * 2**-53``.
    """
    state_hi, state_lo, inc_hi, inc_lo = streams
    state_hi, state_lo = _pcg_step(state_hi, state_lo, inc_hi, inc_lo)
    x, rot = state_hi ^ state_lo, state_hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * 2.0**-53, np.stack([state_hi, state_lo, inc_hi, inc_lo])


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted = rows - rows.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class ToyPolicy:
    """Entity-conditioned bigram softmax policy at a finite, positive temperature.

    ``logits[entity, prev_token, next_token]`` are the live parameters;
    ``params_old`` is the frozen snapshot that rollouts are sampled from.
    ``snapshot()`` refreshes it and bumps ``snapshot_version`` so stale
    rollouts can be detected.  Right after a snapshot, ``token_logps``
    returns the log-probs that sampling records, bit for bit.  ``state_logps``
    and ``accumulate_score_grad`` compute one live softmax row per distinct
    (entity, previous token) state in a call and gather it per token.
    """

    def __init__(self, lexicon: SyntheticLexicon, logits: np.ndarray, temperature: float = 1.0):
        logits = np.ascontiguousarray(logits, dtype=float)
        expected = (len(lexicon.entities), lexicon.vocab_size, lexicon.vocab_size)
        if logits.shape != expected:
            raise ValueError(f"logits shape {logits.shape} != {expected}")
        if isinstance(temperature, bool) or not 0.0 < temperature < np.inf:
            raise ValueError(f"temperature must be finite and > 0, got {temperature}")
        self.lexicon = lexicon
        self.logits = logits
        self.temperature = float(temperature)
        self.params_old = logits.copy()
        self.snapshot_version = 0
        self._old_tables_cache: tuple | None = None

    @property
    def n_params(self) -> int:
        return self.logits.size

    def snapshot(self) -> None:
        """Freeze the current parameters as the sampling distribution."""
        self.params_old = self.logits.copy()
        self.snapshot_version += 1
        self._old_tables_cache = None

    def _old_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # (log-prob, cumulative-prob, entropy) tables under the snapshot;
        # rebuilt lazily once per snapshot.
        if self._old_tables_cache is None:
            logp = _log_softmax(self.params_old / self.temperature)
            probs = np.exp(logp)
            cum = np.cumsum(probs, axis=-1)
            ent = -(probs * logp).sum(axis=-1)
            self._old_tables_cache = (logp, cum, ent)
        return self._old_tables_cache

    def token_states(self, entity_ids, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """State of each token of concatenated sequences: the row of
        ``logits.reshape(-1, vocab_size)`` it is drawn from, (entity, previous
        token).  Sequence ``i`` has ``lengths[i]`` tokens and entity ``entity_ids[i]``."""
        if len(tokens) and not 0 <= tokens.min() <= tokens.max() < self.lexicon.vocab_size:
            raise ValueError(f"token ids must be in [0, {self.lexicon.vocab_size})")
        prevs = np.empty_like(tokens)
        prevs[1:] = tokens[:-1]
        prevs[np.cumsum(lengths) - lengths] = BOS
        ents = np.fromiter(map(self.lexicon.entity_index, entity_ids), np.intp, len(lengths))
        return np.repeat(ents * self.lexicon.vocab_size, lengths) + prevs

    def state_logps(self, states: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Live log-probabilities of ``tokens[i]`` in state ``states[i]``."""
        table = self.logits.reshape(-1, self.lexicon.vocab_size)
        distinct, row = np.unique(states, return_inverse=True)
        return _log_softmax(table[distinct] / self.temperature)[row, tokens]

    def token_logps(self, entity_id: str, tokens: tuple[int, ...]) -> np.ndarray:
        """Per-token log-probabilities of ``tokens`` for this entity's prompt
        under the live parameters."""
        toks = np.asarray(tokens, dtype=np.intp)
        return self.state_logps(self.token_states([entity_id], toks, [len(toks)]), toks)

    def new_grad(self) -> np.ndarray:
        return np.zeros(self.logits.shape)

    def accumulate_score_grad(
        self, states: np.ndarray, tokens: np.ndarray, coeffs: np.ndarray, grad: np.ndarray
    ) -> None:
        """Add coeffs[i] * grad of log pi(tokens[i] | states[i]) into ``grad``
        (from ``new_grad``), row by row in the given order."""
        table = self.logits.reshape(-1, self.lexicon.vocab_size)
        distinct, row = np.unique(states, return_inverse=True)
        rows = table[distinct] / self.temperature
        shifted = np.exp(rows - rows.max(axis=-1, keepdims=True))
        delta = -(shifted / shifted.sum(axis=-1, keepdims=True))[row]
        delta[np.arange(len(delta)), tokens] += 1.0
        np.add.at(grad.reshape(-1, self.lexicon.vocab_size), states,
                  (coeffs / self.temperature)[:, None] * delta)

    def apply_gradient(self, grad: np.ndarray, learning_rate: float) -> None:
        if grad.shape != self.logits.shape:
            raise ValueError("gradient shape mismatch")
        self.logits += learning_rate * grad


@dataclass
class Rollout:
    """One sampled response: tokens, snapshot log-probs, and bookkeeping."""

    entity_id: str
    tokens: tuple[int, ...]
    old_logp: np.ndarray
    truncated: bool
    entropies: np.ndarray


@dataclass(slots=True)
class RolloutScore:
    """One scored rollout: the sample, its reward breakdown, and the token
    count of its translation segment (0 when the format gate fails)."""

    rollout: Rollout
    breakdown: RewardBreakdown
    trans_len: int

    @property
    def entity_id(self) -> str:
        return self.rollout.entity_id


def _next_tokens(cum_rows: np.ndarray, u: np.ndarray, vocab_size: int) -> np.ndarray:
    """Inverse-CDF token choice, one row per sequence.

    Counting the entries ``<= u`` of a non-decreasing row is
    ``searchsorted(row, u, side="right")``; a ``u`` above the row's last
    cumulative value (rounding) picks the last token.
    """
    return np.minimum(np.count_nonzero(cum_rows <= u[:, None], axis=1), vocab_size - 1)


def _check_max_len(max_len) -> None:
    if not _is_int(max_len) or max_len < 1:
        raise ValueError(f"max_len must be an integer >= 1, got {max_len!r}")


def _sample_batch(policy: ToyPolicy, entity_ids, streams: np.ndarray, max_len: int) -> list[Rollout]:
    """Sample one rollout per ``(entity_ids[i], streams[:, i])`` row, all rows in lockstep.

    Row ``i`` takes its uniforms from its own stream, one per token while
    the row is alive, so its rollout does not depend on the other rows.
    The streams are PCG64 states held as arrays (from ``_spawned_streams``
    or ``_seed_streams``), and each equals, draw for draw, the
    ``default_rng`` it stands for; a dead row's stream is dropped with its
    state.  Memory grows with the tokens emitted, not with
    ``max_len``.
    """
    _check_max_len(max_len)
    vocab = policy.lexicon.vocab_size
    logp_table, cum_table, ent_table = policy._old_tables()
    logp_table, cum_table = logp_table.reshape(-1, vocab), cum_table.reshape(-1, vocab)
    ent_table = ent_table.reshape(-1)
    rows = np.arange(len(entity_ids))
    base = vocab * np.fromiter(map(policy.lexicon.entity_index, entity_ids), np.intp, len(rows))
    states = base + BOS
    emitted = []  # per position: (rows alive, their tokens, log-probs, entropies)
    for _ in range(max_len):
        u, streams = _pcg_uniforms(streams)
        toks = _next_tokens(cum_table[states], u, vocab)
        emitted.append((rows, toks, logp_table[states, toks], ent_table[states]))
        alive = toks != EOS
        if not alive.all():
            rows, base, toks, streams = rows[alive], base[alive], toks[alive], streams[:, alive]
            if rows.size == 0:
                break
        states = base + toks

    row_of, toks_at, logps_at, ents_at = (np.concatenate(part) for part in zip(*emitted))
    # Emitted position by position; a stable sort by row keeps each row's positions in order.
    order = np.argsort(row_of, kind="stable")
    toks, logps, ents = toks_at[order].tolist(), logps_at[order], ents_at[order]
    ends = np.cumsum(np.bincount(row_of, minlength=len(entity_ids))).tolist()
    out, start = [], 0
    for entity_id, end in zip(entity_ids, ends):
        tokens = tuple(toks[start:end])
        out.append(Rollout(entity_id, tokens, logps[start:end],
                           truncated=tokens[-1] != EOS, entropies=ents[start:end]))
        start = end
    return out


def sample_rollout(policy: ToyPolicy, entity_id: str, max_len: int, seed) -> Rollout:
    """Sample one response from the policy's frozen snapshot.

    Generation starts after BOS, ends at EOS or after ``max_len`` tokens.
    The emitted EOS is part of the sequence and carries a log-probability;
    a sequence that never emits EOS is marked truncated.  ``seed`` is an
    int, a tuple of ints or a SeedSequence.  The row's stream is the PCG64
    state of ``PCG64(seed).state`` held as arrays, so each token takes the
    uniform ``default_rng(seed)`` would draw next.  Anything else raises
    ``TypeError``: a Generator or BitGenerator would not be advanced by the
    rollout, ``None`` would seed from the operating system, and a bool or
    float is not an integer seed.
    ``old_logp`` and ``entropies`` are read from the snapshot's tables,
    built once per snapshot.
    """
    seed_types = (int, np.integer, tuple, np.random.SeedSequence)
    if isinstance(seed, bool) or not isinstance(seed, seed_types):
        raise TypeError(
            f"seed must be an int, a tuple or a SeedSequence, got {type(seed).__name__}"
        )
    return _sample_batch(policy, [entity_id], _seed_streams([seed]), max_len)[0]


def render_response(lexicon: SyntheticLexicon, tokens: tuple[int, ...], config: RewardConfig) -> str:
    """Render a token sequence to the text form the reward pipeline scores,
    with ``config``'s think markers and the lexicon's ``token_texts`` table
    of ``token_text``; a token id outside the vocabulary raises ``ValueError``."""
    texts = lexicon.token_texts
    if tokens and not 0 <= min(tokens) <= max(tokens) < len(texts):
        raise ValueError(f"token ids must be in [0, {len(texts)})")
    marks = {THINK_OPEN: config.open_marker, THINK_CLOSE: config.close_marker, SRC_MARK: "<src>"}
    return " ".join([marks.get(t) or texts[t] for t in tokens if t != BOS and t != EOS])


def toy_reward_config() -> RewardConfig:
    """Reward config for the toy task: token-unit lengths, default gates."""
    return RewardConfig(length_unit="tokens")


# The most distinct (entity_id, tokens) pairs whose score one ``train`` or
# ``measure_pass_at_k`` call keeps; a full cache is emptied before the next pair.
SCORE_CACHE_SIZE = 8192


class _Scores(dict):
    """``(breakdown, trans_len)`` of each ``(entity_id, tokens)`` pair under one reward
    config and ablation, from ``score_response`` on first lookup: the reward is a
    pure function of the pair.  Equal scores are held as one object, so a cached
    pair costs only its key and a dict slot."""

    def __init__(self, lexicon: SyntheticLexicon, config: RewardConfig, ablation: str = "full"):
        super().__init__()
        self.lexicon, self.config, self.ablation, self.distinct = lexicon, config, ablation, {}

    def __missing__(self, key: tuple[str, tuple[int, ...]]) -> tuple[RewardBreakdown, int]:
        entity_id, tokens = key
        lex = self.lexicon
        breakdown, seg = score_response(render_response(lex, tokens, self.config), lex.gold(entity_id),
                                        lex.ref_lengths(entity_id), self.config, self.ablation)
        score = (breakdown, _measured_length(seg.trans, "tokens"))
        score = self.distinct.setdefault(score, score)
        if len(self) >= SCORE_CACHE_SIZE:
            self.clear()
        self[key] = score
        return score


def _scored_rollouts(policy: ToyPolicy, prompts: list[tuple[str, tuple]], n: int, max_len: int,
                     scores: _Scores) -> list[RolloutScore]:
    """Sample ``n`` rollouts for each ``(entity_id, key)`` prompt, all in one
    lockstep batch, and score each through ``scores``.

    Rollout ``i`` of a prompt draws what ``default_rng`` would from child
    ``i`` of ``SeedSequence(key)``.  Returns the scores in prompt order, then
    sampling order.  A pair in ``scores`` (up to ``SCORE_CACHE_SIZE``, one
    cache per call) is not rendered or scored again; its score equals a fresh one.
    """
    entity_ids = [ent_id for ent_id, _ in prompts for _ in range(n)]
    streams = _spawned_streams([key for _, key in prompts], n)
    return [RolloutScore(ro, *scores[ro.entity_id, ro.tokens])
            for ro in _sample_batch(policy, entity_ids, streams, max_len)]


def measure_pass_at_k(
    policy: ToyPolicy,
    entity_ids,
    n: int,
    ks,
    seed: int,
    max_len: int = 24,
    config: RewardConfig | None = None,
) -> tuple[PassAtKCurve, tuple[int, ...]]:
    """Monte Carlo pass@k over entities: n fresh samples each, then the
    unbiased estimator.  A sample counts as correct when its parsed
    translation segment matches a gold alias; gates do not apply.
    Each entity's ``n`` samples are drawn as one lockstep batch, after ``n`` and
    ``ks`` pass ``PassAtKInput``'s checks.  Each distinct ``(entity_id, tokens)``
    pair is scored once per call, with up to ``SCORE_CACHE_SIZE`` pairs held.

    Returns the curve and the per-entity correct counts.
    """
    data = PassAtKInput(n=n, counts=(0,), ks=tuple(ks))
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    entity_ids = tuple(entity_ids)
    if not entity_ids:
        raise ValueError("no entity ids")
    if config is None:
        config = toy_reward_config()
    counts, scores = [], _Scores(policy.lexicon, config)
    for e_idx, ent_id in enumerate(entity_ids):
        # One batch per entity: one batch for all gives the same counts, but raised
        # the train benchmark's peak_rss_mb from 45.1-45.2 to 59.5-59.6 MB (4 of 4 runs).
        prompt = (ent_id, (seed, _STREAM_EVAL, e_idx))
        scored = _scored_rollouts(policy, [prompt], n, max_len, scores)
        counts.append(sum(s.breakdown.match for s in scored))
    curve = pass_at_k_curve(replace(data, counts=tuple(counts)))
    return curve, tuple(counts)


@dataclass(frozen=True)
class PriorStructure:
    """Logit strengths for the structured prior.

    ``chain_strength`` sets how reliably an alias chain completes once its
    first token is chosen; lowering it makes each completion attempt risky,
    which rewards retrying and so couples translation length to match
    probability.  ``distractor_eos`` sets how fast undirected walks
    terminate; ``alias_end_eos`` sets how reliably a completed alias stops.
    """

    chain_strength: float = 6.0
    distractor_eos: float = 4.0
    alias_end_eos: float = 6.0

    def __post_init__(self) -> None:
        for name in ("chain_strength", "distractor_eos", "alias_end_eos"):
            value = getattr(self, name)
            if isinstance(value, bool) or not np.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")


def _structured_logits(
    lexicon: SyntheticLexicon,
    start_boosts: dict[str, float],
    noise: np.ndarray,
    structure: PriorStructure,
) -> np.ndarray:
    """Build prior logits: format skeleton strong, alias chains per
    ``structure``, alias starts weak (that is where the latent knowledge
    sits)."""
    logits = 0.3 * noise
    # Specials and the think filler are unreachable by default; structure
    # below re-opens them where they belong.
    logits[:, :, BOS] = -9.0
    logits[:, :, SRC_MARK] = -9.0
    logits[:, :, THINK_OPEN] = -9.0
    logits[:, :, THINK_CLOSE] = -9.0
    logits[:, :, FILLER] = -9.0
    # Content rows drift toward EOS; too slow a drift lets undirected walks
    # stumble into alias chains often enough to put a floor under pass@1.
    logits[:, FILLER + 1 :, EOS] = structure.distractor_eos
    for e, ent in enumerate(lexicon.entities):
        logits[e, BOS, THINK_OPEN] = 7.0
        logits[e, THINK_OPEN, FILLER] = 5.5
        logits[e, THINK_OPEN, THINK_CLOSE] = 4.0
        logits[e, FILLER, THINK_CLOSE] = 7.0
        logits[e, THINK_CLOSE, EOS] = -9.0
        boost = start_boosts[ent.entity_id]
        for alias in ent.aliases:
            logits[e, THINK_CLOSE, alias[0]] = boost
            for a, b in zip(alias, alias[1:]):
                logits[e, a, b] = structure.chain_strength
            logits[e, alias[-1], EOS] = structure.alias_end_eos
    return logits


def init_activation_prior(
    lexicon: SyntheticLexicon,
    policy_cfg: PolicyConfig,
    target_pass1_max: float,
    seed: int,
    structure: PriorStructure | None = None,
) -> ToyPolicy:
    """Construct a policy in the latent-knowledge regime and verify it.

    The format skeleton (think block, then a translation, then EOS) is
    near-deterministic, and each alias chain is easy to follow once its
    first token is chosen; only the choice of that first token is weak.
    The per-entity start logit is tuned by Monte Carlo on the train split
    until measured pass@1 <= ``target_pass1_max`` while pass@``k_high``
    stays at or above ``policy_cfg.pass64_floor``.  Raises with the
    measured rates if the regime is not reached within
    ``policy_cfg.max_attempts``.
    """
    if not 0.0 < target_pass1_max < 1.0:
        raise ValueError(f"target_pass1_max must be in (0, 1), got {target_pass1_max}")
    if structure is None:
        structure = PriorStructure()

    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_INIT)))
    shape = (len(lexicon.entities), lexicon.vocab_size, lexicon.vocab_size)
    noise = rng.normal(0.0, 1.0, size=shape)
    target_p = min(0.75 * target_pass1_max, 0.06)
    boosts = {e.entity_id: -1.0 for e in lexicon.entities}

    history = []
    for attempt in range(policy_cfg.max_attempts):
        policy = ToyPolicy(
            lexicon,
            _structured_logits(lexicon, boosts, noise, structure),
            temperature=policy_cfg.temperature,
        )
        curve, counts = measure_pass_at_k(
            policy,
            lexicon.train_ids,
            n=policy_cfg.eval_samples,
            ks=(1, policy_cfg.k_high),
            seed=int(np.random.SeedSequence((seed, _STREAM_INIT_EVAL, attempt)).generate_state(1)[0]),
            max_len=policy_cfg.max_len,
        )
        pass1, pass_high = curve.estimates
        history.append((pass1, pass_high))
        # Accept with margin so an independent measurement seed stays inside
        # the target too.
        if pass1 <= 0.9 * target_pass1_max and pass_high >= policy_cfg.pass64_floor:
            return policy
        # Nudge each entity's start logit toward the per-entity target rate.
        n = policy_cfg.eval_samples
        for ent_id, c in zip(lexicon.train_ids, counts):
            measured = max(c / n, 1.0 / (2 * n))
            step = float(np.clip(np.log(target_p / measured), -2.5, 2.5))
            boosts[ent_id] += step

    raise RuntimeError(
        f"activation prior not reached in {policy_cfg.max_attempts} attempts; "
        f"measured (pass@1, pass@{policy_cfg.k_high}) per attempt: {history!r}"
    )


@dataclass(frozen=True)
class TrainMetricsRow:
    """Per-step training metrics, one CSV row."""

    step: int
    mean_reward: float
    mean_trans_length: float
    mean_entropy: float
    pass1_eval: float


@dataclass
class TrainResult:
    policy: ToyPolicy
    metrics: list[TrainMetricsRow]
    final_rollouts: list[RolloutScore]


def _metrics_row(step: int, scored: list[RolloutScore]) -> TrainMetricsRow:
    """Step metrics from the step's scored rollouts.

    The sums run in sampling order with plain float addition, so each
    column is a fixed function of the rollouts, bit for bit.
    """
    reward_sum = entropy_sum = 0.0
    trans_len_sum = match_sum = token_count = 0
    for s in scored:
        reward_sum += s.breakdown.reward
        trans_len_sum += s.trans_len
        match_sum += s.breakdown.match
        entropy_sum += float(s.rollout.entropies.sum())
        token_count += len(s.rollout.tokens)
    n = len(scored)
    return TrainMetricsRow(
        step=step,
        mean_reward=reward_sum / n,
        mean_trans_length=trans_len_sum / n,
        mean_entropy=entropy_sum / max(token_count, 1),
        pass1_eval=match_sum / n,
    )


def train(
    lexicon: SyntheticLexicon,
    policy: ToyPolicy,
    reward_cfg: RewardConfig,
    optim_cfg: OptimConfig,
    steps: int,
    ablation: str = "full",
    seed: int = 0,
    max_len: int = 24,
) -> TrainResult:
    """Run the group-based training loop on the toy task.

    Each outer step freezes a snapshot, samples ``mini_batch_size *
    updates_per_batch`` prompts from the train split with ``group_size``
    rollouts each, all ``B * G`` rollouts in one lockstep batch, scores
    them under the selected ablation, and hands the
    groups to ``policy_update_step``, which normalizes rewards within each
    group and applies the mini-batch update passes.
    Metrics row ``s`` describes the rollouts sampled at step ``s`` before
    that step's update; ``steps=0`` emits a single measurement-only row.
    ``final_rollouts`` is the last step's list of scored rollouts.
    Each distinct ``(entity_id, tokens)`` pair is scored once per call, across
    steps, with up to ``SCORE_CACHE_SIZE`` pairs held.

    Every random choice derives from ``seed`` through tagged substreams,
    so identical calls produce identical metrics and parameters.
    """
    if not _is_int(steps) or steps < 0:
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _check_max_len(max_len)
    _check_ablation(ablation)
    if lexicon != policy.lexicon:
        raise ValueError("lexicon is not the policy's lexicon")
    if not lexicon.train_ids:
        raise ValueError("lexicon has no train entities")

    batch_size = optim_cfg.mini_batch_size * optim_cfg.updates_per_batch
    train_ids = np.asarray(lexicon.train_ids)

    metrics: list[TrainMetricsRow] = []
    scores = _Scores(lexicon, reward_cfg, ablation)
    measure_only = steps == 0
    for step in range(max(steps, 1)):
        policy.snapshot()
        prompt_rng = np.random.default_rng(
            np.random.SeedSequence((seed, _STREAM_PROMPTS, step))
        )
        batch = prompt_rng.choice(train_ids, size=batch_size, replace=True)

        size = optim_cfg.group_size
        prompts = [(str(ent_id), (seed, _STREAM_ROLLOUT, step, p_idx))
                   for p_idx, ent_id in enumerate(batch)]
        scored = _scored_rollouts(policy, prompts, size, max_len, scores)
        groups = []
        for p_idx, (ent_id, _) in enumerate(prompts):
            members = [GroupMember(s.rollout.tokens, s.rollout.old_logp, s.breakdown.reward)
                       for s in scored[p_idx * size:(p_idx + 1) * size]]
            groups.append(RolloutGroup(ent_id, members, policy.snapshot_version))

        metrics.append(_metrics_row(step, scored))
        if not measure_only:
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence((seed, _STREAM_SHUFFLE, step))
            )
            policy_update_step(policy, groups, optim_cfg, rng=shuffle_rng)

    return TrainResult(policy=policy, metrics=metrics, final_rollouts=scored)


def metrics_to_csv(rows: list[TrainMetricsRow], path: str | Path) -> None:
    """Write metrics rows as CSV with a header, one row per step."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(TrainMetricsRow))
        writer.writerows(map(astuple, rows))


def _lexicon_digest(lexicon: SyntheticLexicon) -> str:
    doc = json.dumps(lexicon.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(doc).hexdigest()


def save_policy(policy: ToyPolicy, path: str | Path) -> None:
    np.savez(
        path,
        logits=policy.logits,
        params_old=policy.params_old,
        temperature=np.asarray(policy.temperature),
        snapshot_version=np.asarray(policy.snapshot_version),
        lexicon_digest=np.asarray(_lexicon_digest(policy.lexicon)),
    )


def load_policy(path: str | Path, lexicon: SyntheticLexicon) -> ToyPolicy:
    with np.load(path, allow_pickle=False) as data:
        names = ("logits", "params_old", "temperature", "snapshot_version", "lexicon_digest")
        if missing := [name for name in names if name not in data.files]:
            raise ValueError(f"policy file lacks {', '.join(missing)}")
        # Entity ids are positional, so only the full lexicon content
        # identifies the table's row/column meaning.
        if str(data["lexicon_digest"]) != _lexicon_digest(lexicon):
            raise ValueError("policy file does not match this lexicon")
        temperature, version = data["temperature"], data["snapshot_version"]
        if temperature.ndim or temperature.dtype.kind not in "fiu":
            raise ValueError(f"policy file temperature must be a real scalar, got {temperature!r}")
        if version.ndim or version.dtype.kind not in "iu" or version < 0:
            raise ValueError(f"policy file snapshot_version must be an integer >= 0, got {version!r}")
        policy = ToyPolicy(lexicon, data["logits"], float(temperature))
        params_old = np.asarray(data["params_old"], dtype=float)
        if params_old.shape != policy.logits.shape:
            raise ValueError(f"params_old shape {params_old.shape} != {policy.logits.shape}")
        if not (np.isfinite(policy.logits).all() and np.isfinite(params_old).all()):
            raise ValueError("policy file holds non-finite parameters")
        policy.params_old = params_old
        policy.snapshot_version = int(version)
    return policy
