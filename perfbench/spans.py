"""Span tracing by wrapping the package's public functions from outside.

``Tracer.install`` replaces each listed function at every module attribute
that holds it (modules import each other's functions by name) and each
listed method on its class.  Nothing under ``src/`` is edited.  Spans are
kept in per-thread arrays and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from array import array
from time import perf_counter

import numpy as np

# (module, attribute) pairs; "Class.method" wraps the method on the class.
# GoldEntitySet.__init__ is its construction, including alias normalization.
TRACED = (
    ("textnorm", "normalize"),
    ("textnorm", "match_entity"),
    ("textnorm", "GoldEntitySet.__init__"),
    ("reward", "parse_segments"),
    ("reward", "length_gate"),
    ("reward", "score_response"),
    ("reward", "compute_reward"),
    ("toytask", "gen_lexicon"),
    ("toytask", "init_activation_prior"),
    ("toytask", "sample_rollout"),
    ("toytask", "render_response"),
    ("toytask", "measure_pass_at_k"),
    ("toytask", "train"),
    ("toytask", "ToyPolicy.snapshot"),
    ("toytask", "ToyPolicy.token_logps"),
    ("toytask", "ToyPolicy.accumulate_score_grad"),
    ("toytask", "ToyPolicy.new_grad"),
    ("toytask", "ToyPolicy.apply_gradient"),
    ("optim", "group_advantages"),
    ("optim", "policy_update_step"),
    ("optim", "surrogate_objective"),
    ("evalkit", "pass_at_k_curve"),
    ("scoring", "decode_line"),
    ("scoring", "score_record"),
    ("scoring", "score_lines"),
    ("scoring", "summarize"),
    ("cli", "main"),
)
# A call to one of these starts a new request or step id in its thread.
BOUNDARIES = ("toytask.ToyPolicy.snapshot", "scoring.decode_line")


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


class _Buffer:
    """One thread's spans: parallel arrays plus the stack of open spans."""

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rid = array("i")
        self.stack: list[int] = []
        self.current_rid = 0
        self.counters: dict[str, float] = {}


class Tracer:
    """Collects spans (name, start, end, parent, request/step id) and counters.

    A call to a function in ``BOUNDARIES`` starts a new id in its thread;
    every span opened in that thread until the next one carries it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def count(self, key: str, amount: float = 1) -> None:
        counters = self._buffer().counters
        counters[key] = counters.get(key, 0) + amount

    @property
    def counters(self) -> dict:
        """Counters summed over every thread."""
        total: dict[str, float] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for key, value in list(buf.counters.items()):
                total[key] = total.get(key, 0) + value
        return total

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` recording one span per call; ``observe(args, result)``
        runs after the span closes and feeds counters."""
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        boundary = name in BOUNDARIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            if boundary:
                buf.current_rid = next(tracer._ids)
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.rid.append(buf.current_rid)
            buf.end.append(0.0)
            buf.stack.append(idx)
            buf.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = perf_counter()
                buf.stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def install(self, package: str = "entrl") -> None:
        """Wrap every entry of ``TRACED`` in the imported ``package``.

        The wrappers are built on the first call; ``uninstall`` restores the
        originals and a later ``install`` puts the same wrappers back.
        """
        if not self._patches:
            self._patches = self._build(package)
        for owner, key, _, wrapped in self._patches:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._patches):
            setattr(owner, key, orig)

    def _build(self, package: str) -> list:
        observers = _observers(self)
        owners = {m: importlib.import_module(f"{package}.{m}") for m, _ in TRACED}
        modules = [m for k, m in list(sys.modules.items())
                   if k == package or k.startswith(package + ".")]
        patches = []
        for mod_name, attr in TRACED:
            name = span_name(mod_name, attr)
            owner = owners[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                patches.append((cls, meth, orig, self.wrap(orig, name, observers.get(name))))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name, observers.get(name))
            for mod in modules:
                patches.extend((mod, key, orig, wrapped)
                               for key, value in vars(mod).items() if value is orig)
        return patches

    def spans(self) -> dict:
        """All spans as numpy arrays, with duration and self time per span."""
        parts = {key: [] for key in _FIELDS}
        offset = 0
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            n = len(buf.start)
            parent = np.asarray(buf.parent[:n], dtype=np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "start", "end", "rid"):
                parts[key].append(np.asarray(getattr(buf, key)[:n], dtype=_FIELDS[key]))
            offset += n
        return _with_self_time({key: np.concatenate(v) if v else np.zeros(0, _FIELDS[key])
                                for key, v in parts.items()})

    def dump(self, path) -> None:
        """Write spans and counters to ``path`` (a ``.npz`` file)."""
        sp, counters = self.spans(), self.counters
        np.savez(path, names=np.asarray(self.names, dtype=str),
                 counter_keys=np.asarray(list(counters), dtype=str),
                 counter_values=np.asarray(list(counters.values()), dtype=float),
                 **{key: sp[key] for key in _FIELDS})


def _observers(tracer: Tracer) -> dict:
    """Counters read from arguments and results, keyed by span name."""

    def normalize(args, result):
        tracer.count("textnorm.normalize.chars", len(args[0]))

    def score_response(args, result):
        b = result[0]
        tracer.count("reward.outcomes")
        tracer.count("reward.fmt_fail", b.fmt_gate == 0)
        tracer.count("reward.len_fail", b.fmt_gate == 1 and b.len_gate == 0)
        tracer.count("reward.match", b.match)

    def sample_rollout(args, rollout):
        tracer.count("toytask.tokens", len(rollout.tokens))
        tracer.count("toytask.truncated", rollout.truncated)

    def group_advantages(args, adv):
        tracer.count("optim.groups")
        tracer.count("optim.zero_adv_groups", not adv.any())

    return {"textnorm.normalize": normalize, "reward.score_response": score_response,
            "toytask.sample_rollout": sample_rollout, "optim.group_advantages": group_advantages}


_FIELDS = {"name": np.int64, "start": np.float64, "end": np.float64,
           "parent": np.int64, "rid": np.int64}


def _with_self_time(sp: dict) -> dict:
    """Add ``dur`` and ``self``: a span's duration minus its children's."""
    sp["dur"] = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    child = np.bincount(sp["parent"][has_parent], weights=sp["dur"][has_parent],
                        minlength=len(sp["dur"]))
    sp["self"] = sp["dur"] - child[: len(sp["dur"])]
    return sp


def load(path) -> tuple[list, dict, dict]:
    """Read a dump back: (names, spans with self time, counters)."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        sp = {key: data[key] for key in _FIELDS}
        counters = {str(k): float(v) for k, v in zip(data["counter_keys"], data["counter_values"])}
    return names, _with_self_time(sp), counters
