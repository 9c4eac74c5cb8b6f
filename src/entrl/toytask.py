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
``measure_pass_at_k``: sample one batch record of arrays, then score each
distinct (entity row, token bytes) key once.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import astuple, dataclass, field, fields, replace
from functools import cached_property, lru_cache, reduce
from operator import add
from pathlib import Path

import numpy as np

from .evalkit import PassAtKCurve, PassAtKInput, _check_int, _check_real, _is_int, pass_at_k_curve
from .optim import MAX_BATCH_ROLLOUTS, GroupMember, OptimConfig, RolloutGroup, _row_sums, policy_update_step
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
    "PriorStructure",
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

    @property
    def ref_lengths(self) -> list[int]:
        return [len(self.canonical_ref)]


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
        _check_int("vocab_size", self.vocab_size, FILLER + 2)  # one alias token at least
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
        return self.entity(entity_id).ref_lengths

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


def _run_text(tokens: tuple[int, ...]) -> str:
    """``tokens`` as ``",6,9,"``: a sequence is a contiguous run of another exactly when its text
    is a substring of the other's."""
    return f",{','.join(map(str, tokens))},"


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
    for name, value, minimum in (("seed", seed, 0), ("n_entities", n_entities, 2),
                                 ("aliases_per_entity", aliases_per_entity, 1),
                                 ("vocab_size", vocab_size, FILLER + 2)):
        _check_int(name, value, minimum)
    (lo, hi), (pad_lo, pad_hi) = alias_len_range, ref_pad_range
    for name, low, high, minimum in (("alias_len_range", lo, hi, 1), ("ref_pad_range", pad_lo, pad_hi, 0)):
        _check_int(f"{name}[0]", low, minimum)
        _check_int(f"{name}[1]", high, low)
    fraction = _check_real("train_fraction", train_fraction, (0.0, 1.0))
    pool = np.arange(FILLER + 1, vocab_size)
    if len(pool) < aliases_per_entity * hi:
        raise ValueError(
            f"vocab_size {vocab_size} cannot host {aliases_per_entity} aliases "
            f"of up to {hi} tokens"
        )

    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_LEXICON)))
    width = len(str(n_entities - 1))
    source_tokens = rng.permutation(pool)[:n_entities]
    kept_texts: list[str] = []
    entities: list[Entity] = []
    for i in range(n_entities):
        for attempt in range(200):
            lengths = rng.integers(lo, hi + 1, size=aliases_per_entity)
            picks = rng.permutation(pool)[: int(lengths.sum())]
            aliases, start = [], 0
            for ln in lengths:
                aliases.append(tuple(int(t) for t in picks[start : start + ln]))
                start += int(ln)
            texts = list(map(_run_text, aliases))
            if not any(a in b or b in a for a in texts for b in kept_texts):
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
        kept_texts.extend(texts)

    order = rng.permutation(n_entities)
    n_train = int(np.clip(round(fraction * n_entities), 1, n_entities - 1))
    ids = [entities[int(j)].entity_id for j in order]
    return SyntheticLexicon(
        vocab_size=vocab_size,
        entities=tuple(entities),
        train_ids=tuple(sorted(ids[:n_train])),
        test_ids=tuple(sorted(ids[n_train:])),
    )


@dataclass(frozen=True)
class PolicyConfig:
    """The toy policy's sampling temperature and longest response; every toy-task
    function that takes them defaults to these."""

    temperature: float = 1.0
    max_len: int = 24

    def __post_init__(self) -> None:
        _check_real("temperature", self.temperature, (0.0, np.inf))
        _check_int("max_len", self.max_len, 1)


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


@lru_cache
def _hash_after_parent(words: int) -> int:
    """The mixing hash constant after ``SeedSequence`` mixes a key of ``words`` 32-bit words: 4
    calls per pool word, 12 for the all-pairs pass and 4 per word beyond the pool."""
    return _HASH_INIT_A * pow(_HASH_MULT_A, 16 + 4 * max(0, words - _POOL_WORDS), 1 << 32) & _MASK32


def _spawned_streams(keys, n: int) -> np.ndarray:
    """The PCG64 stream of ``SeedSequence(key).spawn(n)[i]`` for each key, then each i.

    A child's entropy is its parent's, zero-padded to the pool, followed by
    the word ``i``, so its pool is the parent's pool with ``i`` mixed in,
    hashed with the constant the parent's own mixing left behind.
    Returns the ``(4, len(keys) * n)`` array ``_pcg_block`` reads.
    """
    pools = np.array([np.random.SeedSequence(key).pool for key in keys], np.uint32)
    # The parent's mixing hash constant, then its steps before and after each pool word.
    after_parent = np.array([_hash_after_parent(_key_words(key)) for key in keys], np.uint32)
    consts = (after_parent[:, None] * _HASH_A_STEPS)[:, None, :]
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
    return _pcg_block(np.stack([state_hi, state_lo, inc_hi, inc_lo]), 1)[1]


def _seed_streams(seeds) -> np.ndarray:
    """The PCG64 stream of ``default_rng(seed)`` for each seed, as ``_spawned_streams``."""
    words = []
    for seed in seeds:
        state = np.random.PCG64(seed).state["state"]
        words.append([state["state"] >> 64, state["state"] & _MASK64,
                      state["inc"] >> 64, state["inc"] & _MASK64])
    return np.array(words, np.uint64).T


def _mulhi64(x, c):
    """The high 64 bits of ``x * c``, for uint64 arrays or 64-bit ints ``x`` and ``c`` that broadcast."""
    x0, x1, c0, c1 = x & _MASK32, x >> 32, c & _MASK32, c >> 32
    p01, p10 = x0 * c1, x1 * c0
    mid = (x0 * c0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return x1 * c1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


# The most uniforms one ``_pcg_block`` call draws per stream, and its jump-ahead constants as high
# and low uint64 words: ``k`` LCG steps take a state to ``A_k * state + C_k * inc`` modulo 2**128,
# with ``A_k = mult**k`` and ``C_k`` the sum of ``mult**j`` for ``j < k``.  Row ``k - 1`` is ``k``'s.
_PCG_BLOCK = 8
_PCG_MULT = _PCG_MULT_HI << 64 | _PCG_MULT_LO
_JUMP_A = [pow(_PCG_MULT, k, 1 << 128) for k in range(1, _PCG_BLOCK + 1)]
_JUMP_C = [sum(pow(_PCG_MULT, j, 1 << 128) for j in range(k)) % (1 << 128) for k in range(1, _PCG_BLOCK + 1)]
_JUMP_A_HI, _JUMP_A_LO, _JUMP_C_HI, _JUMP_C_LO = (np.array([[v >> shift & _MASK64] for v in values], np.uint64)
                                                  for values in (_JUMP_A, _JUMP_C) for shift in (64, 0))


def _pcg_block(streams: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``k`` (at most ``_PCG_BLOCK``) uniforms of each stream, as ``Generator.random``
    draws them, and the streams advanced past them.

    ``streams`` rows are the 128-bit state's high and low words and the
    increment's; column ``i`` is one stream, and column ``i`` of the
    ``(k, n)`` uniforms holds its draws in order.  Draw ``j`` is the XSL-RR
    output of the state ``j + 1`` LCG steps on, one jump-ahead product for
    all ``k`` at once, then ``(x >> 11) * 2**-53``.
    """
    state_hi, state_lo, inc_hi, inc_lo = streams
    a_hi, a_lo, c_hi, c_lo = _JUMP_A_HI[:k], _JUMP_A_LO[:k], _JUMP_C_HI[:k], _JUMP_C_LO[:k]
    inc_part = c_lo * inc_lo
    lo = a_lo * state_lo + inc_part
    hi = (_mulhi64(a_lo, state_lo) + a_lo * state_hi + a_hi * state_lo
          + _mulhi64(c_lo, inc_lo) + c_lo * inc_hi + c_hi * inc_lo + (lo < inc_part))
    x, rot = hi ^ lo, hi >> 58
    x = x >> rot | x << (64 - rot & 63)
    return (x >> 11) * 2.0**-53, np.stack([hi[-1], lo[-1], inc_hi, inc_lo])


# Cells (entities x vocab_size**2) of a policy table: 128 MiB per float64 table, ~7 held at the peak.
MAX_POLICY_CELLS = 2**24


def _table_shape(lexicon: SyntheticLexicon) -> tuple[int, int, int]:
    n_ent, vocab = len(lexicon.entities), lexicon.vocab_size
    if n_ent * vocab**2 > MAX_POLICY_CELLS:
        raise ValueError(f"policy table of {n_ent} entities x {vocab}**2 tokens = {n_ent * vocab**2:,} "
                         f"cells exceeds MAX_POLICY_CELLS = {MAX_POLICY_CELLS:,}")
    return n_ent, vocab, vocab


def _shifted_exp(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rows`` less each row's max, the ``exp`` of that, and each row's total of the ``exp``: the
    parts of a log-softmax (``shifted - log(total)``) and a softmax (``exp / total``)."""
    shifted = rows - rows.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return shifted, exp, exp.sum(axis=-1, keepdims=True)


def _log_softmax(rows: np.ndarray) -> np.ndarray:
    shifted, _, total = _shifted_exp(rows)
    return shifted - np.log(total)


@dataclass(frozen=True)
class StateRows:
    """Live policy rows of a sequence of states: the ``distinct`` states, each state's ``index``
    into them, and each distinct row's log-softmax (``_log_softmax``'s arithmetic) and softmax
    (``exp(rows - max) / sum``).  A row's values do not depend on the other rows."""

    distinct: np.ndarray
    index: np.ndarray
    logp: np.ndarray
    probs: np.ndarray

    def logps(self, tokens: np.ndarray) -> np.ndarray:
        """The log-probability of ``tokens[i]`` in state ``i``."""
        return self.logp[self.index, tokens]

    def __getitem__(self, keep) -> "StateRows":
        """The rows of the states ``keep`` selects, on the same distinct rows."""
        return replace(self, index=self.index[keep])


@dataclass
class RowGrad:
    """A score gradient that is zero outside its ``rows`` of ``logits.reshape(-1, vocab_size)``:
    ``sums[i]`` is the gradient of row ``rows[i]``."""

    rows: np.ndarray
    sums: np.ndarray


class ToyPolicy:
    """Entity-conditioned bigram softmax policy at a finite, positive temperature.

    ``logits[entity, prev_token, next_token]`` are the live parameters;
    ``params_old`` is the frozen snapshot that rollouts are sampled from.
    ``snapshot()`` refreshes it and bumps ``snapshot_version`` so stale
    rollouts can be detected.  The sampler's tables under the snapshot keep
    a built flag per (entity, previous token) row: ``snapshot()`` clears it
    only for the rows whose logit bytes changed, and the sampler rebuilds
    those of its entities in one call.  Right after a snapshot, ``token_logps``
    returns the log-probs that sampling records, bit for bit.  ``state_rows``
    computes the live log-softmax and softmax row of each distinct (entity,
    previous token) state once, and both the live log-probs and
    ``accumulate_score_grad`` read those rows.  A pass's gradient is a
    ``RowGrad`` holding only those rows, and ``apply_gradient`` writes only
    them, apart from one in-place add of ``learning_rate * 0.0`` to the table.
    """

    def __init__(self, lexicon: SyntheticLexicon, logits: np.ndarray,
                 temperature: float = PolicyConfig.temperature):
        expected = _table_shape(lexicon)
        logits = np.ascontiguousarray(logits, dtype=float)
        if logits.shape != expected:
            raise ValueError(f"logits shape {logits.shape} != {expected}")
        self.lexicon = lexicon
        self.logits = logits
        self.temperature = _check_real("temperature", temperature, (0.0, np.inf))
        self.params_old = logits.copy()
        self.snapshot_version = 0
        self._old_tables_cache: tuple | None = None
        self._tables_source: np.ndarray | None = None  # the params_old the built flags describe

    @property
    def n_params(self) -> int:
        return self.logits.size

    def snapshot(self) -> None:
        """Freeze the current parameters as the sampling distribution."""
        previous, self.params_old = self.params_old, self.logits.copy()
        self.snapshot_version += 1
        if previous is self._tables_source:
            built = self._old_tables_cache[-1]
            # Compared as int64 words, so a -0.0 -> +0.0 or a NaN payload change is a change.
            built &= (previous.view(np.int64) == self.params_old.view(np.int64)).all(-1)
            self._tables_source = self.params_old

    def _old_tables(self, ent_rows=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log-prob, cumulative-prob, entropy) tables under the snapshot, full-size and kept across
        snapshots.  A built flag per (entity, previous token) row says whether the row holds the
        snapshot's values; ``snapshot()`` clears it only for rows whose logits changed, and a
        ``params_old`` replaced other than by ``snapshot()`` clears every flag.  One call
        builds every unflagged row of the entities at lexicon indices ``ent_rows`` (all entities
        when None), and every row has the bytes of building all at once."""
        if self._old_tables_cache is None:
            shape = self.params_old.shape
            self._old_tables_cache = (np.empty(shape), np.empty(shape), np.empty(shape[:2]),
                                      np.zeros(shape[:2], bool))
        logp, cum, ent, built = self._old_tables_cache
        if self._tables_source is not self.params_old:  # first use, or replaced other than by snapshot()
            built[:] = False
            self._tables_source = self.params_old
        wanted = ~built
        if ent_rows is not None:
            entities = np.zeros(len(built), bool)
            entities[ent_rows] = True
            wanted &= entities[:, None]
        if (todo := np.flatnonzero(wanted)).size:
            vocab = self.lexicon.vocab_size
            rows_logp = _log_softmax(self.params_old.reshape(-1, vocab)[todo] / self.temperature)
            probs = np.exp(rows_logp)
            logp.reshape(-1, vocab)[todo], cum.reshape(-1, vocab)[todo] = rows_logp, np.cumsum(probs, axis=-1)
            ent.reshape(-1)[todo] = -(probs * rows_logp).sum(axis=-1)
            built.reshape(-1)[todo] = True
        return logp, cum, ent

    def token_states(self, entity_ids, tokens: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """State of each token of concatenated sequences: the row of
        ``logits.reshape(-1, vocab_size)`` it is drawn from, (entity, previous
        token).  Sequence ``i`` has ``lengths[i]`` tokens and entity ``entity_ids[i]``;
        each distinct id is looked up once."""
        if len(tokens) and not 0 <= tokens.min() <= tokens.max() < self.lexicon.vocab_size:
            raise ValueError(f"token ids must be in [0, {self.lexicon.vocab_size})")
        prevs = np.empty_like(tokens)
        prevs[1:] = tokens[:-1]
        prevs[np.cumsum(lengths) - lengths] = BOS
        rows = {e_id: self.lexicon.entity_index(e_id) for e_id in dict.fromkeys(entity_ids)}
        ents = np.fromiter(map(rows.__getitem__, entity_ids), np.intp, len(lengths))
        return np.repeat(ents * self.lexicon.vocab_size, lengths) + prevs

    def state_rows(self, states: np.ndarray) -> StateRows:
        """The live rows of ``states``, one per distinct state, computed once for a pass."""
        table = self.logits.reshape(-1, self.lexicon.vocab_size)
        seen = np.zeros(len(table), bool)
        seen[states] = True
        distinct = np.flatnonzero(seen)
        shifted, exp, total = _shifted_exp(table[distinct] / self.temperature)
        return StateRows(distinct, (np.cumsum(seen) - 1)[states], shifted - np.log(total), exp / total)

    def token_logps(self, entity_id: str, tokens: tuple[int, ...]) -> np.ndarray:
        """Per-token log-probabilities of ``tokens`` for this entity's prompt
        under the live parameters."""
        toks = np.asarray(tokens, dtype=np.intp)
        return self.state_rows(self.token_states([entity_id], toks, [len(toks)])).logps(toks)

    def new_grad(self) -> RowGrad:
        """An empty gradient, for one ``accumulate_score_grad`` call to fill."""
        return RowGrad(np.empty(0, np.intp), np.empty((0, self.lexicon.vocab_size)))

    def accumulate_score_grad(
        self, rows: StateRows, tokens: np.ndarray, coeffs: np.ndarray, grad: RowGrad
    ) -> None:
        """Set the fresh ``grad`` to the sum of coeffs[i] * grad of log pi(tokens[i] | state i),
        where ``rows`` holds the live rows of the states: ``grad`` takes ``rows.distinct``, and one
        ``np.bincount`` sums each of their cells' terms in row order."""
        vocab = self.lexicon.vocab_size
        coeffs = coeffs / self.temperature
        # coeffs[i] * (onehot - probs), product by product: -(p * c) is (-p) * c, and
        # 1.0 - p is (-p) + 1.0.
        terms = np.take(rows.probs, rows.index, axis=0)
        terms *= -coeffs[:, None]
        terms[np.arange(len(terms)), tokens] = coeffs * (1.0 - rows.probs[rows.index, tokens])
        sums = np.bincount((rows.index[:, None] * vocab + np.arange(vocab)).ravel(), terms.ravel(),
                           rows.distinct.size * vocab)
        grad.rows, grad.sums = rows.distinct, sums.reshape(-1, vocab)

    def apply_gradient(self, grad: RowGrad, learning_rate: float) -> None:
        """``logits += learning_rate * dense``, bit for bit, where ``dense`` is ``grad`` written into a
        table of zeros: each row of ``grad`` gains ``learning_rate * (0.0 + sums)``, and every other
        cell ``learning_rate * 0.0``, which turns a ``-0.0`` into ``+0.0``."""
        if grad.sums.shape != (len(grad.rows), self.lexicon.vocab_size):
            raise ValueError("gradient shape mismatch")
        cells = np.unravel_index(grad.rows, self.logits.shape[:2])
        # The rows' sums are taken before the += below, as the dense sum adds to the old values.
        updated = self.logits[cells] + learning_rate * (0.0 + grad.sums)
        self.logits += learning_rate * 0.0
        self.logits[cells] = updated


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


@dataclass(frozen=True)
class _RolloutBatch:
    """One lockstep batch's rollouts as arrays.  Row ``i`` is the entity at lexicon index
    ``rows[i]`` with ``tokens[i]``; its ``token_ids``, snapshot ``old_logp`` and
    ``entropies`` are ``offsets[i]:offsets[i + 1]`` of the flat arrays."""

    rows: np.ndarray
    tokens: list[tuple[int, ...]]
    token_ids: np.ndarray
    old_logp: np.ndarray
    entropies: np.ndarray
    offsets: np.ndarray
    truncated: np.ndarray

    def rollout(self, i: int, entity_id: str) -> Rollout:
        """Row ``i`` as a record; ``entity_id`` is the id of its lexicon row."""
        start, end = self.offsets[i], self.offsets[i + 1]
        return Rollout(entity_id, self.tokens[i], self.old_logp[start:end],
                       bool(self.truncated[i]), self.entropies[start:end])


def _next_tokens(cum_rows: np.ndarray, u: np.ndarray, vocab_size: int) -> np.ndarray:
    """Inverse-CDF token choice, one row per sequence.

    Counting the entries ``<= u`` of a non-decreasing row is
    ``searchsorted(row, u, side="right")``; a ``u`` at or above the row's last
    cumulative value (rounding) picks the last token.  Those entries are a
    prefix of the row (a cumulative sum is NaN from its first NaN on), so
    the count is the index of the first entry that is not, found by ``argmin``.
    """
    below = cum_rows <= u[:, None]
    return np.where(below[:, -1], vocab_size - 1, below.argmin(axis=1))


# Tokens one ``_sample_batch`` call may emit: ~98 B each in flight at max_len 24 and ~89 B at 200
# (tracemalloc, EOS never drawn; the block draw's ``(_PCG_BLOCK, rows)`` temporaries are ~3 B of
# the 98), so ~0.8 GB at the limit; 2**18 rollouts of the default max_len 24 are 2**18 x 24 = 6.3M.
MAX_SAMPLED_TOKENS = 2**23


def _sample_batch(policy: ToyPolicy, ent_rows: np.ndarray, streams: np.ndarray,
                  max_len: int) -> _RolloutBatch:
    """Sample one rollout per ``(ent_rows[i], streams[:, i])`` row, where ``ent_rows[i]``
    is an entity's lexicon index, all rows in lockstep, into one batch record.

    Row ``i`` takes its uniforms from its own stream, one per token while
    the row is alive, so its rollout does not depend on the other rows.
    The streams are PCG64 states held as arrays (from ``_spawned_streams``
    or ``_seed_streams``), and each equals, draw for draw, the
    ``default_rng`` it stands for.  Every ``_PCG_BLOCK`` positions one
    ``_pcg_block`` call draws the next uniforms of every live row at once;
    position ``pos`` reads row ``pos % _PCG_BLOCK`` of them at each live
    row's column, and the rows alive at the next block continue from the
    block's last state, so a dead row's stream is dropped with its state and
    its unread draws.  Each position records the live rows' states and
    tokens; their snapshot log-probs and entropies are gathered once, after
    the last position.  Memory grows with the tokens emitted, not with
    ``max_len``, and more than ``MAX_SAMPLED_TOKENS`` of them raise ``ValueError``.
    """
    _check_int("max_len", max_len, 1)
    vocab = policy.lexicon.vocab_size
    logp_table, cum_table, ent_table = policy._old_tables(ent_rows)
    logp_table, cum_table = logp_table.reshape(-1, vocab), cum_table.reshape(-1, vocab)
    ent_table = ent_table.reshape(-1)
    rows, base = np.arange(len(ent_rows)), vocab * ent_rows
    states, cols = base + BOS, rows  # cols: each live row's column of the block's uniforms
    emitted, n_emitted = [], 0  # per position: (rows alive, their states, their tokens)
    for pos in range(max_len):
        n_emitted += rows.size
        if n_emitted > MAX_SAMPLED_TOKENS:
            raise ValueError(f"{len(ent_rows):,} rollouts of max_len {max_len:,} emitted more than "
                             f"MAX_SAMPLED_TOKENS = {MAX_SAMPLED_TOKENS:,} tokens")
        if pos % _PCG_BLOCK == 0:
            block, streams = _pcg_block(streams[:, cols], min(_PCG_BLOCK, max_len - pos))
            cols = np.arange(rows.size)
        toks = _next_tokens(np.take(cum_table, states, axis=0), block[pos % _PCG_BLOCK, cols], vocab)
        emitted.append((rows, states, toks))
        alive = toks != EOS
        if not alive.all():
            rows, base, toks, cols = rows[alive], base[alive], toks[alive], cols[alive]
            if rows.size == 0:
                break
        states = base + toks

    row_of, states_at, toks_at = (np.concatenate(part) for part in zip(*emitted))
    # Emitted position by position; a stable sort by row keeps each row's positions in order.
    order = np.argsort(row_of, kind="stable")
    states_at, token_ids = states_at[order], toks_at[order]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=len(ent_rows)))))
    toks, bounds = token_ids.tolist(), offsets.tolist()
    return _RolloutBatch(ent_rows, [tuple(toks[a:b]) for a, b in zip(bounds, bounds[1:])],
                         token_ids, logp_table[states_at, token_ids], ent_table[states_at], offsets,
                         token_ids[offsets[1:] - 1] != EOS)


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
    ent_rows = np.array([policy.lexicon.entity_index(entity_id)])
    return _sample_batch(policy, ent_rows, _seed_streams([seed]), max_len).rollout(0, entity_id)


def _marked_texts(lexicon: SyntheticLexicon, config: RewardConfig) -> list[str]:
    """The lexicon's ``token_texts`` table of ``token_text`` with ``config``'s think markers and
    ``<src>`` in place of their tokens' texts: the table ``_render`` reads."""
    texts = list(lexicon.token_texts)
    texts[THINK_OPEN], texts[THINK_CLOSE], texts[SRC_MARK] = config.open_marker, config.close_marker, "<src>"
    return texts


def _render(texts: list[str], tokens) -> str:
    """``tokens``, ids in range, as ``texts`` entries joined by spaces; BOS and EOS, the two
    lowest ids, are dropped."""
    return " ".join([texts[t] for t in tokens if t > EOS])


def render_response(lexicon: SyntheticLexicon, tokens: tuple[int, ...], config: RewardConfig) -> str:
    """Render a token sequence to the text form the reward pipeline scores,
    with ``config``'s think markers and the lexicon's ``token_texts`` table
    of ``token_text``; a token id outside the vocabulary raises ``ValueError``.
    Each call builds the marked table; ``_Scores`` builds it once and renders its
    sampled, in-range tokens through the same ``_render``."""
    texts = lexicon.token_texts
    if tokens and not 0 <= min(tokens) <= max(tokens) < len(texts):
        raise ValueError(f"token ids must be in [0, {len(texts)})")
    return _render(_marked_texts(lexicon, config), tokens)


def toy_reward_config() -> RewardConfig:
    """Reward config for the toy task: token-unit lengths, default gates."""
    return RewardConfig(length_unit="tokens")


# The most (entity, tokens) pairs one ``train`` or ``measure_pass_at_k`` call keeps, ~1.6 MB of 24-token
# byte keys (8,192 tuple keys took ~2.5 MB); a full cache is emptied before the next pair.
SCORE_CACHE_SIZE = 16384


class _Scores(dict):
    """``(breakdown, trans_len)`` of each (entity, tokens) pair under one reward config and
    ablation, from ``score_response`` on first lookup: the reward is a pure function of the pair.
    Its key is the entity row, then the tokens, as bytes of one unsigned type that holds every id,
    so distinct pairs never share a key.  Equal scores are held as one object.  A miss renders
    through the marked token table, built once here."""

    def __init__(self, lexicon: SyntheticLexicon, config: RewardConfig, ablation: str = "full"):
        super().__init__()
        self.config, self.ablation, self.distinct = config, ablation, {}
        self.texts, self.golds = _marked_texts(lexicon, config), lexicon.golds
        self.dtype = np.min_scalar_type(max(lexicon.vocab_size, len(lexicon.entities)) - 1)
        self.ref_lengths = [e.ref_lengths for e in lexicon.entities]

    def lookup(self, batch: _RolloutBatch) -> list[tuple[RewardBreakdown, int]]:
        """The score of each row of ``batch``, in row order; only the misses run in Python."""
        flat = np.insert(batch.token_ids, batch.offsets[:-1], batch.rows).astype(self.dtype).tobytes()
        bounds = ((batch.offsets + np.arange(len(batch.offsets))) * self.dtype.itemsize).tolist()
        keys = [flat[a:b] for a, b in zip(bounds, bounds[1:])]
        out = list(map(self.get, keys))
        texts, config, ablation, distinct = self.texts, self.config, self.ablation, self.distinct
        rows, tokens, golds, ref_lengths = batch.rows.tolist(), batch.tokens, self.golds, self.ref_lengths
        scored = {}  # this batch's misses, each scored once, in first-seen order
        for i, key in enumerate(keys):
            if out[i] is not None:
                continue
            score = scored.get(key)
            if score is None:
                row = rows[i]
                breakdown, seg = score_response(_render(texts, tokens[i]), golds[row],
                                                ref_lengths[row], config, ablation)
                trans_len = _measured_length(seg.trans, "tokens")
                # Within one config and ablation the gate and match bits fix the reward.
                score = distinct.setdefault(
                    (breakdown.fmt_gate, breakdown.len_gate, breakdown.match, trans_len), (breakdown, trans_len))
                if len(self) >= SCORE_CACHE_SIZE:
                    self.clear()
                self[key] = scored[key] = score
            out[i] = score
        return out


# Rollouts one ``measure_pass_at_k`` batch holds: 4 entities of the prior's n = 256 share each position's
# numpy calls, while the peak RSS of 3 set-ups, 240 train steps and an n = 512 eval stays at 42.9-43.0 MB
# (42.7 MB at one entity a batch, 43.6-43.8 MB at 2,048 rows).
PASS_AT_K_BATCH_ROWS = 1024


def measure_pass_at_k(
    policy: ToyPolicy,
    entity_ids,
    n: int,
    ks,
    seed: int,
    max_len: int = PolicyConfig.max_len,
    config: RewardConfig | None = None,
) -> tuple[PassAtKCurve, tuple[int, ...]]:
    """Monte Carlo pass@k over entities: n fresh samples each, then the
    unbiased estimator.  A sample counts as correct when its parsed
    translation segment matches a gold alias; gates do not apply.
    Whole entities, ``n`` samples each, are drawn together in lockstep batches of up to
    ``PASS_AT_K_BATCH_ROWS`` rollouts (one entity per batch when ``n`` is larger), after ``n``
    and ``ks`` pass ``PassAtKInput``'s checks and ``n`` is at most ``optim.MAX_BATCH_ROLLOUTS``.
    Entity ``i`` of ``entity_ids`` samples from the streams of ``(seed, _STREAM_EVAL, i)``
    wherever its batch starts, so the counts do not depend on the batching.
    Each distinct (entity, tokens) pair is scored once per call, with up to
    ``SCORE_CACHE_SIZE`` pairs held.

    Returns the curve and the per-entity correct counts.
    """
    data = PassAtKInput(n=n, counts=(0,), ks=ks)
    if n > MAX_BATCH_ROLLOUTS:
        raise ValueError(f"n = {n:,} samples per entity x ~2.4 KB = ~{n * 2.4e-6:,.1f} GB exceeds "
                         f"MAX_BATCH_ROLLOUTS = {MAX_BATCH_ROLLOUTS:,}")
    _check_int("seed", seed, 0)
    ent_rows = list(map(policy.lexicon.entity_index, entity_ids))
    if not ent_rows:
        raise ValueError("no entity ids")
    if config is None:
        config = toy_reward_config()
    counts, scores = [], _Scores(policy.lexicon, config)
    per_batch = max(1, PASS_AT_K_BATCH_ROWS // n)
    for start in range(0, len(ent_rows), per_batch):
        rows = ent_rows[start:start + per_batch]
        keys = [(seed, _STREAM_EVAL, e_idx) for e_idx in range(start, start + len(rows))]
        batch = _sample_batch(policy, np.repeat(rows, n), _spawned_streams(keys, n), max_len)
        matches = [breakdown.match for breakdown, _ in scores.lookup(batch)]
        counts += (sum(matches[i:i + n]) for i in range(0, len(matches), n))
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
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))


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


# The prior's regime check, the same for every caller: pass@PRIOR_K over PRIOR_SAMPLES samples per
# train entity stays >= PRIOR_PASS_K_FLOOR while pass@1 is low, within PRIOR_ATTEMPTS nudges.
PRIOR_SAMPLES, PRIOR_K, PRIOR_PASS_K_FLOOR, PRIOR_ATTEMPTS = 256, 64, 0.70, 10


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
    until measured pass@1 <= ``target_pass1_max`` while pass@``PRIOR_K``
    stays at or above ``PRIOR_PASS_K_FLOOR``.  Raises with the measured
    rates if the regime is not reached within ``PRIOR_ATTEMPTS``.
    """
    _check_real("target_pass1_max", target_pass1_max, (0.0, 1.0))
    _check_int("seed", seed, 0)
    if structure is None:
        structure = PriorStructure()

    shape = _table_shape(lexicon)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_INIT)))
    noise = rng.normal(0.0, 1.0, size=shape)
    target_p = min(0.75 * target_pass1_max, 0.06)
    boosts = {e.entity_id: -1.0 for e in lexicon.entities}

    history = []
    for attempt in range(PRIOR_ATTEMPTS):
        policy = ToyPolicy(
            lexicon,
            _structured_logits(lexicon, boosts, noise, structure),
            temperature=policy_cfg.temperature,
        )
        curve, counts = measure_pass_at_k(
            policy,
            lexicon.train_ids,
            n=PRIOR_SAMPLES,
            ks=(1, PRIOR_K),
            seed=int(np.random.SeedSequence((seed, _STREAM_INIT_EVAL, attempt)).generate_state(1)[0]),
            max_len=policy_cfg.max_len,
        )
        pass1, pass_high = curve.estimates
        history.append((pass1, pass_high))
        # Accept with margin so an independent measurement seed stays inside
        # the target too.
        if pass1 <= 0.9 * target_pass1_max and pass_high >= PRIOR_PASS_K_FLOOR:
            return policy
        # Nudge each entity's start logit toward the per-entity target rate.
        for ent_id, c in zip(lexicon.train_ids, counts):
            measured = max(c / PRIOR_SAMPLES, 1.0 / (2 * PRIOR_SAMPLES))
            step = float(np.clip(np.log(target_p / measured), -2.5, 2.5))
            boosts[ent_id] += step

    raise RuntimeError(
        f"activation prior not reached in {PRIOR_ATTEMPTS} attempts; "
        f"measured (pass@1, pass@{PRIOR_K}) per attempt: {history!r}"
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


def _metrics_row(step: int, batch: _RolloutBatch, scored: list, rewards: list[float]) -> TrainMetricsRow:
    """Step metrics from a batch, its scores and their rewards, bit for bit the per-rollout loop's:
    each entropy sum is its row's own ``sum``, and sums fold from 0.0 in sampling order."""
    entropy_sums = _row_sums(batch.entropies, batch.offsets[:-1], np.diff(batch.offsets))
    n = len(scored)
    return TrainMetricsRow(
        step=step,
        mean_reward=reduce(add, rewards, 0.0) / n,
        mean_trans_length=sum(trans_len for _, trans_len in scored) / n,
        mean_entropy=reduce(add, entropy_sums.tolist(), 0.0) / max(int(batch.offsets[-1]), 1),
        pass1_eval=sum(breakdown.match for breakdown, _ in scored) / n,
    )


def train(
    lexicon: SyntheticLexicon,
    policy: ToyPolicy,
    reward_cfg: RewardConfig,
    optim_cfg: OptimConfig,
    steps: int,
    ablation: str = "full",
    seed: int = 0,
    max_len: int = PolicyConfig.max_len,
) -> TrainResult:
    """Run the group-based training loop on the toy task.

    Each outer step freezes a snapshot, samples ``mini_batch_size *
    updates_per_batch`` prompts from the train split with ``group_size``
    rollouts each, all ``B * G`` rollouts in one lockstep batch record,
    scores them under the selected ablation, and hands the groups, built
    straight from the batch, to ``policy_update_step``, which normalizes
    rewards within each group and applies the mini-batch update passes.
    Metrics row ``s`` describes the rollouts sampled at step ``s`` before
    that step's update; ``steps=0`` emits a single measurement-only row.
    ``final_rollouts`` is the last step's rollouts, the only ones built as records.
    Each distinct (entity, tokens) pair is scored once per call, across
    steps, with up to ``SCORE_CACHE_SIZE`` pairs held.

    Every random choice derives from ``seed`` through tagged substreams,
    so identical calls produce identical metrics and parameters.
    """
    _check_int("steps", steps, 0)
    _check_int("seed", seed, 0)
    _check_int("max_len", max_len, 1)
    _check_ablation(ablation)
    if lexicon != policy.lexicon:
        raise ValueError("lexicon is not the policy's lexicon")
    if not lexicon.train_ids:
        raise ValueError("lexicon has no train entities")

    batch_size = optim_cfg.mini_batch_size * optim_cfg.updates_per_batch
    train_rows = np.array(list(map(lexicon.entity_index, lexicon.train_ids)))

    metrics: list[TrainMetricsRow] = []
    scores = _Scores(lexicon, reward_cfg, ablation)
    measure_only = steps == 0
    for step in range(max(steps, 1)):
        policy.snapshot()
        prompt_rng = np.random.default_rng(
            np.random.SeedSequence((seed, _STREAM_PROMPTS, step))
        )
        prompt_rows = prompt_rng.choice(train_rows, size=batch_size, replace=True)
        prompt_ids = [lexicon.entities[row].entity_id for row in prompt_rows.tolist()]

        size = optim_cfg.group_size
        streams = _spawned_streams([(seed, _STREAM_ROLLOUT, step, p) for p in range(batch_size)], size)
        batch = _sample_batch(policy, np.repeat(prompt_rows, size), streams, max_len)
        scored, bounds = scores.lookup(batch), batch.offsets.tolist()
        rewards = [breakdown.reward for breakdown, _ in scored]
        members = [GroupMember(tokens, batch.old_logp[a:b], reward)
                   for tokens, a, b, reward in zip(batch.tokens, bounds, bounds[1:], rewards)]
        groups = [RolloutGroup(ent_id, members[p_idx * size:(p_idx + 1) * size], policy.snapshot_version)
                  for p_idx, ent_id in enumerate(prompt_ids)]

        metrics.append(_metrics_row(step, batch, scored, rewards))
        if not measure_only:
            shuffle_rng = np.random.default_rng(
                np.random.SeedSequence((seed, _STREAM_SHUFFLE, step))
            )
            policy_update_step(policy, groups, optim_cfg, rng=shuffle_rng)

    final = [RolloutScore(batch.rollout(i, prompt_ids[i // size]), *score)
             for i, score in enumerate(scored)]
    return TrainResult(policy=policy, metrics=metrics, final_rollouts=final)


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
        temperature, version = data["temperature"], data["snapshot_version"][()]  # a 0-d array's scalar
        if temperature.ndim or temperature.dtype.kind not in "fiu":
            raise ValueError(f"policy file temperature must be a real scalar, got {temperature!r}")
        _check_int("policy file snapshot_version", version, 0)
        logits, params_old = data["logits"], data["params_old"]
        for name, table in (("logits", logits), ("params_old", params_old)):
            if table.dtype.kind not in "fiu":
                raise ValueError(f"policy file {name} must hold real numbers, got dtype {table.dtype}")
        policy = ToyPolicy(lexicon, logits, float(temperature))
        params_old = params_old.astype(float, copy=False)
        if params_old.shape != policy.logits.shape:
            raise ValueError(f"params_old shape {params_old.shape} != {policy.logits.shape}")
        if not (np.isfinite(policy.logits).all() and np.isfinite(params_old).all()):
            raise ValueError("policy file holds non-finite parameters")
        policy.params_old = params_old
        policy.snapshot_version = int(version)
    return policy
