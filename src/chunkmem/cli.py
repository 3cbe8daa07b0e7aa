"""Command line: train, eval, gradcheck, bench, dump-episodes.

Settings can come from a flat key-value config file (`--config run.cfg`,
lines like `top-k 4`); explicit flags always win over the file. Every
failure exits nonzero with a single `error: <Type>: <message>` line on
stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .benchmark import format_report, run_bench
from .errors import ContractError, ShapeMismatchError
from .gradcheck import corrupted_backward_is_caught, run_full_gradcheck
from .tasks import dump_episodes_jsonl
from .training import (
    RunConfig,
    evaluate,
    load_checkpoint,
    model_config,
    train,
)

# flag, RunConfig field, value type
_RUN_FLAGS = [
    ("--task", "task", str),
    ("--dances", "n_dances", int),
    ("--delay", "delay", int),
    ("--chain-length", "chain_length", int),
    ("--pairs", "n_pairs", int),
    ("--item-dim", "item_dim", int),
    ("--model", "model", str),
    ("--chunk-size", "chunk_size", int),
    ("--top-k", "top_k", int),
    ("--layers", "n_layers", int),
    ("--d-model", "d_model", int),
    ("--heads", "n_heads", int),
    ("--window", "local_window", int),
    ("--xl-length", "xl_extra_length", int),
    ("--aux-weight", "aux_weight", float),
    ("--lr", "lr", float),
    ("--batch", "batch", int),
    ("--steps", "steps", int),
    ("--seed", "seed", int),
    ("--eval-every", "eval_every", int),
    ("--eval-episodes", "eval_episodes", int),
    ("--target-acc", "target_accuracy", float),
    ("--dtype", "dtype", str),
]

_FLAG_BY_KEY = {flag.lstrip("-"): (field, typ) for flag, field, typ in _RUN_FLAGS}


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    for flag, field, typ in _RUN_FLAGS:
        p.add_argument(flag, dest=field, type=typ, default=None)
    p.add_argument("--config", default=None,
                   help="key-value settings file; explicit flags win")


def _parse_config_file(path: str) -> dict:
    """The file's settings by key, as (value converted to the flag's type,
    line number). A bad line raises ContractError naming path:line."""
    values = {}
    with open(path, "rb") as f:
        for ln, raw in enumerate(f, 1):
            where = f"{path}:{ln}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ContractError(f"{where}: not UTF-8 text") from None
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                key, _, value = line.partition(" ")
            key, value = key.strip(), value.strip()
            if key not in _FLAG_BY_KEY:
                raise ContractError(f"{where}: unknown config key {key!r}")
            if not value:
                raise ContractError(f"{where}: no value for {key!r}")
            typ = _FLAG_BY_KEY[key][1]
            try:
                values[key] = (typ(value), ln)
            except ValueError:
                raise ContractError(f"{where}: {key} needs {typ.__name__}, "
                                    f"got {value!r}") from None
    return values


def _run_config(args) -> tuple[RunConfig, set]:
    """Flags, then the config file for what they leave unset; returns the
    run config and the fields that a flag or the file set. When the
    result is invalid, the file's values are dropped back to their
    defaults from the last line up; if one drop makes it valid, the error
    names that value's path:line, with the error it met there. Otherwise
    the flags are at fault, and the error is the one first raised."""
    kwargs, from_file = {}, []
    file_values = _parse_config_file(args.config) if args.config else {}
    for flag, field, _typ in _RUN_FLAGS:
        value = getattr(args, field)
        if value is None and flag.lstrip("-") in file_values:
            value, line = file_values[flag.lstrip("-")]
            from_file.append((line, field))
        if value is not None:
            kwargs[field] = value
    try:
        return RunConfig(**kwargs), set(kwargs)
    except ContractError as e:
        first = err = e
    for line, field in sorted(from_file, reverse=True):
        del kwargs[field]
        try:
            RunConfig(**kwargs)
        except ContractError as e:
            err = e
            continue
        raise ContractError(f"{args.config}:{line}: {err}") from None
    raise first


def _require_writable(path: str | None) -> None:
    if path is None:
        return
    parent = os.path.dirname(os.path.abspath(path)) or "."
    if not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        raise ContractError(f"output path not writable: {path}")


def _cmd_train(args) -> int:
    rc, _given = _run_config(args)
    _require_writable(args.out)
    _require_writable(args.checkpoint)

    def show(row):
        print(f"step {row.step} train_loss {row.train_loss:.6f} "
              f"train_acc {row.train_acc:.4f} eval_acc {row.eval_acc:.4f} "
              f"wall_ms {row.wall_ms:.0f} scores {row.attention_score_count}",
              flush=True)

    init_model = None if args.resume is None else load_checkpoint(args.resume)
    _model, rows = train(rc, metrics_path=args.out,
                         checkpoint_path=args.checkpoint,
                         init_model=init_model, progress=show)
    if rows:
        print(f"done step {rows[-1].step} eval_acc {rows[-1].eval_acc:.4f}")
    else:
        print("done step 0")
    return 0


# eval compares these model fields with the checkpoint's always, the others
# when a flag or the config file sets the run field of _SOURCE or their name
_ALWAYS_COMPARED = ("task", "n_classes", "item_dim")
_SOURCE = {"kind": "model", "dancer_vocab": "n_dances"}


def _cmd_eval(args) -> int:
    rc, given = _run_config(args)
    model = load_checkpoint(args.checkpoint)
    asked = model_config(rc)
    for name in (f.name for f in dataclasses.fields(asked)):
        have, want = getattr(model.config, name), getattr(asked, name)
        if have != want and (name in _ALWAYS_COMPARED
                             or _SOURCE.get(name, name) in given):
            raise ShapeMismatchError(
                f"checkpoint has {name} {have!r}, the run asks for {want!r}")
    acc = evaluate(model, rc, n_episodes=args.episodes)
    print(f"eval_acc {acc!r} ({args.episodes} episodes)")
    return 0


def _cmd_gradcheck(args) -> int:
    rows = run_full_gradcheck(seed=args.seed, tol=args.tol)
    ok = True
    for name, err, passed in rows:
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {name} {err:.3e}")
    caught = corrupted_backward_is_caught(args.tol)
    ok &= caught
    print(f"{'PASS' if caught else 'FAIL'} harness_catches_corruption")
    print(f"gradcheck {'ok' if ok else 'FAILED'} "
          f"({len(rows) + 1} cases, tol {args.tol:g})")
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    report = run_bench(n_chunks=args.n_chunks, chunk_size=args.chunk_size,
                       top_k=args.top_k, d_model=args.d_model,
                       n_heads=args.n_heads, trials=args.trials,
                       seed=args.seed)
    print(format_report(report, n_layers=args.n_layers))
    return 0


def _cmd_dump(args) -> int:
    _require_writable(args.out)
    n = dump_episodes_jsonl(
        args.out, args.task, args.episodes, args.seed,
        n_dances=args.n_dances, delay=args.delay,
        chain_length=args.chain_length, n_pairs=args.n_pairs,
        item_dim=args.item_dim)
    print(f"wrote {n} episodes to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunkmem",
        description="chunked episodic memory: training and diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model and write metrics")
    _add_run_flags(p)
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.add_argument("--checkpoint", default=None,
                   help="where to save the final model")
    p.add_argument("--resume", default=None,
                   help="checkpoint to warm-start from")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_run_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--episodes", type=int, default=1000)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of every op and block")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("bench",
                       help="score-count and wall-time comparison vs dense")
    p.add_argument("--n-chunks", type=int, default=32)
    p.add_argument("--chunk-size", type=int, default=8)
    p.add_argument("--top-k", type=int, default=2)
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", dest="n_heads", type=int, default=4)
    p.add_argument("--layers", dest="n_layers", type=int, default=2)
    p.add_argument("--trials", type=int, default=21)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("dump-episodes", help="write episodes as JSON lines")
    p.add_argument("--task", default="ballet")
    p.add_argument("--dances", dest="n_dances", type=int, default=2)
    p.add_argument("--delay", type=int, default=16)
    p.add_argument("--chain-length", type=int, default=1)
    p.add_argument("--pairs", dest="n_pairs", type=int, default=8)
    p.add_argument("--item-dim", type=int, default=32)
    p.add_argument("--episodes", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # one parseable line, nonzero exit
        message = " ".join(str(e).split())
        print(f"error: {type(e).__name__}: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
