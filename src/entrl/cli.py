"""Command-line interface: score, serve, passk, gen, train.

Configuration is a JSON document with ``reward``, ``optim``, and ``train``
sections.  Precedence is command-line flags, then the config file, then
built-in defaults; the ``ENTRL_CONFIG`` environment variable names a config
file to use when ``--config`` is absent.  Unknown config keys are errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

from .evalkit import PassAtKInput, _is_int, pass_at_k_curve
from .reward import ABLATIONS, RewardConfig, _check_ablation
from .scoring import (RecordError, RewardService, _encode_reply, _read_lines, decode_line,
                      score_lines, serve_stdio, summarize)

__all__ = ["main", "CliError"]

CONFIG_ENV_VAR = "ENTRL_CONFIG"

_REWARD_KEYS = {"alpha", "tau", "length_unit", "markers"}
_OPTIM_ALIASES = {"G": "group_size", "mini_batch": "mini_batch_size"}
_TRAIN_KEYS = {"steps", "max_len", "temperature", "seed", "lexicon", "ablation", "target_pass1_max"}


class CliError(Exception):
    """Fatal command error; message goes to stderr, exit code is 1."""


def _check_keys(section: str, given, allowed) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise CliError(f"unknown {section} config key(s): {', '.join(unknown)}")


def _optim_keys() -> set:
    from .optim import OptimConfig

    return {f.name for f in dataclasses.fields(OptimConfig)} | set(_OPTIM_ALIASES)


def load_config(path_flag: str | None) -> dict:
    path = path_flag or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read config {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, int digit limit, deep nesting
        raise CliError(f"config {path!r} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise CliError(f"config {path!r} must be a JSON object")
    _check_keys("top-level", doc, {"reward", "optim", "train"})
    for name, keys in (("reward", _REWARD_KEYS), ("optim", None), ("train", _TRAIN_KEYS)):
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise CliError(f"config section {name!r} must be an object")
        if section:  # so only a config with optim keys imports the trainer's optim module
            _check_keys(name, section, keys or _optim_keys())
    return doc


def reward_config_from(doc: dict, defaults: RewardConfig | None = None) -> RewardConfig:
    section = doc.get("reward", {})
    overrides = {key: section[key] for key in ("alpha", "tau", "length_unit") if key in section}
    if "markers" in section:
        markers = section["markers"]
        if not isinstance(markers, dict):
            raise CliError("reward.markers must be an object with open/close")
        _check_keys("reward.markers", markers, {"open", "close"})
        overrides.update({f"{end}_marker": markers[end] for end in ("open", "close") if end in markers})
    try:
        return dataclasses.replace(defaults or RewardConfig(), **overrides)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad reward config: {exc}") from None


def optim_config_from(doc: dict):
    from .optim import OptimConfig

    section = doc.get("optim", {})
    kwargs: dict = {}
    for key, value in section.items():
        canon = _OPTIM_ALIASES.get(key, key)
        if canon in kwargs:
            raise CliError(f"optim config sets {canon!r} twice (alias clash on {key!r})")
        kwargs[canon] = value
    try:
        return OptimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad optim config: {exc}") from None


def _reads(src, path: str):
    """``_read_lines(src)``, with a read error reported as a ``CliError``."""
    try:
        yield from _read_lines(src)
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc}") from None


def _scored(reads, config: RewardConfig, out):
    """Score each read's lines, write their replies, and yield their breakdowns."""
    n_lines = 0
    for lines in reads:
        replies, scored = score_lines(lines, config, start=n_lines + 1)
        n_lines += len(lines)
        out.write(b"".join(map(_encode_reply, replies)))
        yield from scored


def cmd_score(args: argparse.Namespace) -> int:
    """Score the input read by read; an empty input creates no output file."""
    config = reward_config_from(load_config(args.config))
    try:
        src = open(args.input, "rb")
    except OSError as exc:
        raise CliError(f"cannot read {args.input!r}: {exc}") from None
    with src:
        reads = _reads(src, args.input)
        first = next(reads, None)
        if first is None:
            raise CliError(f"input {args.input!r} is empty")
        try:
            with open(args.output, "wb") as out:
                summary = summarize(_scored(itertools.chain((first,), reads), config, out))
        except OSError as exc:
            raise CliError(f"cannot write {args.output!r}: {exc}") from None
    print(json.dumps(summary.to_dict(), ensure_ascii=False))
    return 0


def _parse_bind(bind: str) -> tuple[str, int]:
    host, sep, port = bind.rpartition(":")
    if not sep or not host:
        raise CliError(f"--bind expects host:port, got {bind!r}")
    try:
        port_no = int(port)
    except ValueError:
        raise CliError(f"bad port in --bind {bind!r}") from None
    if not 0 <= port_no <= 65535:
        raise CliError(f"port in --bind {bind!r} must be in 0-65535")
    return host, port_no


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def cmd_serve(args: argparse.Namespace) -> int:
    config = reward_config_from(load_config(args.config))
    if args.stdio:
        try:
            serve_stdio(config, sys.stdin.buffer, sys.stdout.buffer)
        except BrokenPipeError:
            # The reader hung up.  Point stdout at devnull so that the flush
            # at interpreter exit does not fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return 0
    host, port = _parse_bind(args.bind)
    try:
        server = RewardService((host, port), config)
    except OSError as exc:
        raise CliError(f"cannot bind {args.bind!r}: {exc}") from None
    import signal  # here, so that score and serve --stdio start without it

    # SIGTERM takes the KeyboardInterrupt path: close the socket, exit 0.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        bound = server.server_address
        print(json.dumps({"listening": f"{bound[0]}:{bound[1]}"}), flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
    return 0


def cmd_passk(args: argparse.Namespace) -> int:
    try:
        ks = tuple(int(part) for part in args.ks.split(",") if part.strip())
    except ValueError:
        raise CliError(f"--ks must be comma-separated integers, got {args.ks!r}") from None
    if not ks:
        raise CliError("--ks lists no values")

    n_seen: int | None = None
    counts: list[int] = []
    try:
        with open(args.input, "rb") as lines:
            for lineno, raw in enumerate(lines, start=1):
                try:
                    obj = decode_line(raw.removesuffix(b"\n"))
                except RecordError as exc:
                    raise CliError(f"line {lineno}: {exc}") from None
                if "n" not in obj:
                    raise CliError(f"line {lineno}: expected an object with n and c")
                c = obj.get("c", obj.get("correct_count"))
                n = obj["n"]
                if not (_is_int(n) and _is_int(c)):
                    raise CliError(f"line {lineno}: n and c must be integers")
                if n_seen is None:
                    n_seen = n
                elif n != n_seen:
                    raise CliError(f"line {lineno}: n={n} but earlier records had n={n_seen}")
                counts.append(c)
    except OSError as exc:
        raise CliError(f"cannot read {args.input!r}: {exc}") from None
    if not counts:
        raise CliError(f"input {args.input!r} is empty")
    try:
        curve = pass_at_k_curve(PassAtKInput(n=n_seen, counts=tuple(counts), ks=ks))
    except (ValueError, OverflowError) as exc:  # OverflowError: n beyond float range
        raise CliError(str(exc)) from None

    rows = ["k,estimate"] + [f"{k},{est}" for k, est in zip(curve.ks, curve.estimates)]
    try:
        Path(args.output).write_text("\n".join(rows) + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {args.output!r}: {exc}") from None
    print(json.dumps({"ks": list(curve.ks), "estimates": list(curve.estimates)}))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .toytask import gen_lexicon

    try:
        lexicon = gen_lexicon(
            seed=args.seed,
            n_entities=args.entities,
            aliases_per_entity=args.aliases,
            alias_len_range=(args.alias_len_min, args.alias_len_max),
            train_fraction=args.train_frac,
            vocab_size=args.vocab_size,
        )
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lexicon.save(out / "lexicon.json")
    for name, ids in (("train_prompts.jsonl", lexicon.train_ids), ("test_prompts.jsonl", lexicon.test_ids)):
        records = []
        for ent_id in ids:
            ent = lexicon.entity(ent_id)
            records.append(
                json.dumps(
                    {
                        "id": ent_id,
                        "prompt": f"<src> {lexicon.token_text(ent.source_token)}",
                        "gold_aliases": [lexicon.alias_text(a) for a in ent.aliases],
                        "ref_lengths": lexicon.ref_lengths(ent_id),
                    },
                    ensure_ascii=False,
                )
            )
        (out / name).write_text("\n".join(records) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "lexicon": str(out / "lexicon.json"),
                "train_entities": len(lexicon.train_ids),
                "test_entities": len(lexicon.test_ids),
            }
        )
    )
    return 0


def _train_value(section: dict, key: str, default, kinds):
    """``section[key]`` (or ``default``) if it is an instance of ``kinds`` and not a bool."""
    value = section.get(key, default)
    if kinds is int:
        if not _is_int(value):
            raise TypeError(f"{key} must be an integer, got {value!r}")
    elif isinstance(value, bool) or not isinstance(value, kinds):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return value


def cmd_train(args: argparse.Namespace) -> int:
    from .toytask import (PolicyConfig, SyntheticLexicon, init_activation_prior, measure_pass_at_k,
                          metrics_to_csv, save_policy, toy_reward_config, train)

    doc = load_config(args.config)
    reward_cfg = reward_config_from(doc, defaults=toy_reward_config())
    optim_cfg = optim_config_from(doc)
    section = doc.get("train", {})

    try:
        steps = args.steps if args.steps is not None else _train_value(section, "steps", 2000, int)
        seed = args.seed if args.seed is not None else _train_value(section, "seed", 0, int)
        max_len = _train_value(section, "max_len", 24, int)
        temperature = float(_train_value(section, "temperature", 1.0, (int, float)))
        target = float(_train_value(section, "target_pass1_max", 0.10, (int, float)))
    except (TypeError, OverflowError) as exc:  # OverflowError: an int beyond float range
        raise CliError(f"bad train config: {exc}") from None
    ablation = args.ablation or section.get("ablation", "full")
    try:
        _check_ablation(ablation)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    lexicon_path = args.lexicon or section.get("lexicon")
    if not lexicon_path:
        raise CliError("no lexicon: pass --lexicon or set train.lexicon in the config")
    try:
        lexicon = SyntheticLexicon.load(lexicon_path)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load lexicon {lexicon_path!r}: {exc}") from None

    try:
        policy_cfg = PolicyConfig(temperature=temperature, max_len=max_len)
        policy = init_activation_prior(lexicon, policy_cfg, target_pass1_max=target, seed=seed)
        result = train(
            lexicon,
            policy,
            reward_cfg,
            optim_cfg,
            steps=steps,
            ablation=ablation,
            seed=seed,
            max_len=max_len,
        )
    except (ValueError, RuntimeError) as exc:
        raise CliError(str(exc)) from None

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metrics_to_csv(result.metrics, out / "metrics.csv")
    save_policy(result.policy, out / "policy.npz")
    curve, _ = measure_pass_at_k(
        result.policy, lexicon.train_ids, n=128, ks=(1,), seed=seed, max_len=max_len,
        config=reward_cfg,
    )
    last = result.metrics[-1]
    print(
        json.dumps(
            {
                "steps": steps,
                "ablation": ablation,
                "final_mean_reward": last.mean_reward,
                "final_mean_trans_length": last.mean_trans_length,
                "final_pass1": curve.estimates[0],
                "metrics": str(out / "metrics.csv"),
                "policy": str(out / "policy.npz"),
            }
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser("score", help="score a JSONL file of responses")
    p_score.add_argument("--input", required=True)
    p_score.add_argument("--config")
    p_score.add_argument("--output", required=True)
    p_score.set_defaults(func=cmd_score)

    p_serve = sub.add_parser("serve", help="serve scoring over a line-protocol socket")
    p_serve.add_argument("--bind", default="127.0.0.1:8377")
    p_serve.add_argument("--config")
    p_serve.add_argument("--stdio", action="store_true", help="serve over stdin/stdout instead")
    p_serve.set_defaults(func=cmd_serve)

    p_passk = sub.add_parser("passk", help="pass@k curve from per-problem counts")
    p_passk.add_argument("--input", required=True)
    p_passk.add_argument("--ks", required=True, help="comma-separated k values")
    p_passk.add_argument("--output", required=True)
    p_passk.set_defaults(func=cmd_passk)

    p_gen = sub.add_parser("gen", help="generate a synthetic lexicon and prompt files")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--entities", type=int, default=20)
    p_gen.add_argument("--aliases", type=int, default=3)
    p_gen.add_argument("--train-frac", type=float, default=0.75)
    p_gen.add_argument("--vocab-size", type=int, default=48)
    p_gen.add_argument("--alias-len-min", type=int, default=2)
    p_gen.add_argument("--alias-len-max", type=int, default=4)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="train the toy policy with gated rewards")
    p_train.add_argument("--config")
    p_train.add_argument("--ablation", choices=ABLATIONS)
    p_train.add_argument("--seed", type=int)
    p_train.add_argument("--steps", type=int)
    p_train.add_argument("--lexicon")
    p_train.add_argument("--out", required=True)
    p_train.set_defaults(func=cmd_train)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
