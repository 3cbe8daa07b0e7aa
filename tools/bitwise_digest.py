"""Digest the library's outputs, gradients and files, one line per case.

Usage, with the checkout to digest on PYTHONPATH:

    PYTHONPATH=../parent/src python3 tools/bitwise_digest.py > parent.txt
    PYTHONPATH=src python3 tools/bitwise_digest.py > change.txt
    diff parent.txt change.txt

Each line is `<case> <digest>`, the digest being the first 16 hex digits
of a sha256 over every array the case produces: its dtype, its shape and
its bytes. Names given as arguments run only those cases; --list prints
the names. A change that keeps every line is bitwise neutral on:

- local/...: local_attention's output and the gradients of its input and
  of wq, wk, wv and wo, for ten geometries (dense, blocked and XL, with
  and without carried rows), with and without top-k, in both dtypes;
- recall/...: hcam_block's output and the gradients of its input, its
  norm's gain and bias, w_rel and the four MHA weights, for one query
  seeing every chunk and for per-row windows with empty top-k slots and
  pass-through rows, with and without position rows, in both dtypes;
- loss/...: one training minibatch's loss and every parameter gradient,
  per model kind at 2 dances / delay 16 and 4 dances / delay 32, and pai;
- train/...: a 3-step train run of the same configurations: checkpoint
  bytes, metrics rows without wall_ms, and a 16-episode evaluate run 5
  episodes at a time;
- step/...: 100 stack_step outputs against a full memory with overlap,
  and the forward_sequence replay of the same inputs, per kind.

Only names that have stayed in the library across recent versions are
called, so one copy of this script digests older checkouts as well.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from chunkmem.attention import (hcam_block, local_attention,  # noqa: E402
                                sinusoidal_table)
from chunkmem.rng import make_rng  # noqa: E402
from chunkmem.stack import (KINDS, Model, ModelConfig,  # noqa: E402
                            forward_sequence, init_state, stack_step)
from chunkmem.tensor import GradTape, Tensor  # noqa: E402
from chunkmem.training import (RunConfig, _minibatch,  # noqa: E402
                               build_model, evaluate, train)

DTYPES = ("float32", "float64")

# name: (window, xl_extra, T, n_carry); blocks start at 4 reaches
GEOMETRIES = {
    "dense": (4, 0, 8, 0),
    "dense-short": (4, 0, 3, 0),
    "dense-carry": (4, 0, 8, 3),
    "blocked": (4, 0, 20, 0),
    "blocked-carry": (4, 0, 20, 3),
    "blocked-carry-past-reach": (4, 0, 20, 6),
    "t1-carry": (4, 0, 1, 3),
    "xl-dense": (4, 4, 12, 0),
    "xl-blocked": (4, 4, 36, 0),
    "xl-blocked-carry-past-reach": (4, 4, 36, 10),
}

# name: (visible (lo, hi) per query row or None for one query seeing all
# chunks, position rows); 5 chunks, top-k 2. The windows give rows that see
# no chunk (first, middle and last), one chunk (an empty top-k slot) and
# several, in runs of equal bounds.
WINDOWS = ([0, 0, 0, 1, 1, 3, 3, 2, 0], [0, 1, 1, 4, 4, 3, 3, 5, 0])
RECALLS = {
    "one-query": (None, True),
    "one-query-nopos": (None, False),
    "windows": (WINDOWS, True),
    "windows-nopos": (WINDOWS, False),
}

# name: RunConfig settings
RUNS = {
    **{f"{kind}-d2": dict(model=kind, n_dances=2, delay=16)
       for kind in ("hcam", "trxl", "trxl-topk", "lstm")},
    **{f"{kind}-d4": dict(model=kind, n_dances=4, delay=32)
       for kind in ("hcam", "trxl", "trxl-topk", "lstm")},
    "pai": dict(task="pai", model="hcam"),
}


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def local_case(geometry, topk, dtype):
    window, xl, t_len, n_carry = GEOMETRIES[geometry]
    d, heads = 8, 2
    cfg = ModelConfig(kind="hcam", d_model=d, n_heads=heads, n_layers=1,
                      dtype=dtype)
    params = Model(cfg, seed=5).layers[0].attn
    rng = make_rng(11)
    seq = Tensor(rng.normal(size=(2, n_carry + t_len, d)).astype(dtype))
    g = Tensor(rng.normal(size=(2, t_len, d)).astype(dtype))
    weights = (params.wq, params.wk, params.wv, params.wo)
    tape = GradTape()
    for t in (seq, *weights):
        tape.watch(t)
    out = local_attention(tape, seq, window, params, heads,
                          pos_table=sinusoidal_table(window + xl, d,
                                                     dtype=np.dtype(dtype)),
                          n_carry=n_carry, xl_extra=xl, topk=topk)
    grads = tape.backward(tape.reduce_sum(tape.multiply(out, g)))
    return digest(out.data, *(grads[t].data for t in (seq, *weights)))


def recall_case(recall, dtype):
    visible, with_pos = RECALLS[recall]
    d, heads, n_chunks, c = 8, 2, 5, 3
    cfg = ModelConfig(kind="hcam", d_model=d, n_heads=heads, n_layers=1,
                      dtype=dtype)
    p = Model(cfg, seed=5).layers[0].hcam
    rng = make_rng(17)
    q = 1 if visible is None else len(visible[0])
    x = Tensor(rng.normal(size=(2, q, d)).astype(dtype))
    chunks = rng.normal(size=(2, n_chunks, c, d)).astype(dtype)
    g = Tensor(rng.normal(size=(2, q, d)).astype(dtype))
    weights = (p.ln_gain, p.ln_bias, p.w_rel,
               p.mha.wq, p.mha.wk, p.mha.wv, p.mha.wo)
    tape = GradTape()
    for t in (x, *weights):
        tape.watch(t)
    out = hcam_block(tape, x, chunks.mean(-2), chunks, p, heads, top_k=2,
                     pos_table=sinusoidal_table(c, d) if with_pos else None,
                     visible=None if visible is None else tuple(
                         np.array(v) for v in visible))
    grads = tape.backward(tape.reduce_sum(tape.multiply(out, g)))
    return digest(out.data, *(grads[t].data for t in (x, *weights)))


def run_config(run, dtype, **kw):
    return RunConfig(**RUNS[run], dtype=dtype, batch=8, seed=7, **kw)


def loss_case(run, dtype):
    rc = run_config(run, dtype)
    model = build_model(rc)
    tape = GradTape()
    model.watch_all(tape)
    loss, correct = _minibatch(tape, model, rc, 0)
    grads = tape.backward(loss)
    return digest(loss.data, np.array(correct),
                  *(grads[p].data for p in model.params.values()))


def train_case(run, dtype):
    rc = run_config(run, dtype, steps=3, eval_every=1, eval_episodes=8)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.ckpt")
        model, rows = train(rc, checkpoint_path=path)
        with open(path, "rb") as f:
            blob = np.frombuffer(f.read(), dtype=np.uint8)
    metrics = np.array([(r.step, r.train_loss, r.train_acc, r.eval_acc,
                         r.attention_score_count) for r in rows])
    acc = evaluate(model, rc, n_episodes=16, max_batch=5)
    return digest(blob, metrics, np.array(acc))


def step_case(kind, dtype):
    cfg = ModelConfig(kind=kind, d_model=16, n_heads=2, n_layers=2,
                      chunk_size=4, top_k=2, local_window=4,
                      xl_extra_length=4, overlap=1, capacity=6, dtype=dtype)
    model = Model(cfg, seed=3)
    xs = make_rng(13).normal(size=(100, 16)).astype(dtype)
    tape = GradTape(recording=False)
    state = init_state(model)
    steps = [stack_step(tape, model, state, Tensor(x)).data for x in xs]
    replay, _ = forward_sequence(tape, model, Tensor(xs))
    return digest(np.stack(steps), replay.data)


def cases() -> dict:
    """Every case by name, as a zero-argument callable."""
    out = {}
    for geometry in GEOMETRIES:
        for topk in (None, 2):
            for dtype in DTYPES:
                out[f"local/{geometry}/topk-{topk}/{dtype}"] = (
                    lambda a=(geometry, topk, dtype): local_case(*a))
    for recall in RECALLS:
        for dtype in DTYPES:
            out[f"recall/{recall}/{dtype}"] = (
                lambda a=(recall, dtype): recall_case(*a))
    for run in RUNS:
        for dtype in DTYPES:
            out[f"loss/{run}/{dtype}"] = lambda a=(run, dtype): loss_case(*a)
    for run in RUNS:
        for dtype in DTYPES:
            out[f"train/{run}/{dtype}"] = lambda a=(run, dtype): train_case(*a)
    for kind in KINDS:
        for dtype in DTYPES:
            out[f"step/{kind}/{dtype}"] = lambda a=(kind, dtype): step_case(*a)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*", help="cases to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print case names")
    args = parser.parse_args(argv)
    table = cases()
    if args.list:
        print("\n".join(table))
        return 0
    unknown = [n for n in args.names if n not in table]
    if unknown:
        parser.error(f"unknown case(s): {', '.join(unknown)}")
    for name in args.names or table:
        print(f"{name} {table[name]()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
