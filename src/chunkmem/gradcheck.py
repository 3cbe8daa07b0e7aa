"""Finite-difference gradient checking.

Central differences at H=1e-5 in 64-bit give ~1e-10 truncation error on
O(1) losses, so a 1e-4 relative tolerance has orders of magnitude of
headroom; anything past it is a real backward bug. Large tensors are
checked on a sampled subset of entries, which is what keeps the full
suite under the runtime budget.
"""

from __future__ import annotations

import numpy as np

from .rng import make_rng
from .tensor import GradTape, Tensor

H = 1e-5  # central-difference step
FLOOR = 1e-6  # least denominator of a relative error
TOL_DEFAULT = 1e-4


def max_rel_err(a: np.ndarray, n: np.ndarray) -> float:
    """Worst elementwise |a-n| / max(|a|, |n|, FLOOR)."""
    a = np.asarray(a, dtype=np.float64)
    n = np.asarray(n, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), FLOOR)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - n) / denom))


def fd_check(build_loss, inputs: dict, max_entries: int | None = 40,
             rng=None) -> dict:
    """Compare tape gradients of build_loss against central differences.

    build_loss(tape, tensors) must return a scalar Tensor and be a pure
    function of the tensor values. Returns {input name: max relative error}
    over all (or `max_entries` sampled) entries of each input.
    """
    if rng is None:
        rng = make_rng(0)
    tensors = {k: Tensor(np.asarray(v, dtype=np.float64)) for k, v in inputs.items()}
    tape = GradTape()
    for t in tensors.values():
        tape.watch(t)
    loss = build_loss(tape, tensors)
    grads = tape.backward(loss)

    def eval_loss():
        return float(build_loss(GradTape(recording=False), tensors).data)

    report = {}
    for name, t in tensors.items():
        analytic = grads[t].data.reshape(-1)
        flat = t.data.reshape(-1)
        idxs = np.arange(flat.size)
        if max_entries is not None and flat.size > max_entries:
            idxs = rng.choice(flat.size, size=max_entries, replace=False)
        worst = 0.0
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + H
            fp = eval_loss()
            flat[i] = orig - H
            fm = eval_loss()
            flat[i] = orig
            num = (fp - fm) / (2.0 * H)
            worst = max(worst, max_rel_err(analytic[i], num))
        report[name] = worst
    return report


# ---- the op-by-op suite ----


def _op_cases(rng):
    """One named finite-difference case per tape op."""
    d = 5

    def r(*shape):
        return rng.uniform(-1.0, 1.0, size=shape)

    cases = []

    def case(name, inputs, fn):
        cases.append((name, inputs, fn))

    case("add", {"a": r(3, 4), "b": r(3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.add(v["a"], v["b"]))))
    case("add_broadcast", {"a": r(3, 4), "b": r(4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.add(v["a"], v["b"]))))
    case("multiply", {"a": r(3, 4), "b": r(3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.multiply(v["a"], v["b"]))))
    case("multiply_broadcast", {"a": r(2, 3, 4), "b": r(3, 1)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.multiply(v["a"], v["b"]))))
    case("scale", {"a": r(3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.scale(v["a"], 1.7))))
    case("matmul", {"a": r(3, 4), "b": r(4, 5)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.matmul(v["a"], v["b"]))))
    case("matmul_batched", {"a": r(2, 3, 3, 4), "b": r(3, 4, 2)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.matmul(v["a"], v["b"]))))
    case("reshape", {"a": r(3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.reshape(v["a"], (2, 6)))))
    case("transpose", {"a": r(2, 3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.transpose(v["a"], (2, 0, 1)))))
    case("swap_last2", {"a": r(2, 3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.swap_last2(v["a"]))))
    case("concat", {"a": r(2, 3), "b": r(4, 3)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.concat([v["a"], v["b"]], axis=0))))
    case("slice_ax", {"a": r(4, 6)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.slice_ax(v["a"], 1, 1, 4))))

    gidx = rng.integers(0, 6, size=(3, 2))
    case("gather_last", {"a": r(3, 6)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.gather_last(v["a"], gidx))))

    tidx = np.array([0, 3, 3, 1])  # duplicate row: gradients must accumulate
    case("take_rows", {"a": r(5, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.take_rows(v["a"], tidx))))
    tidx_b = rng.integers(0, 5, size=(2, 3))
    case("take_rows_batched", {"a": r(2, 5, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.take_rows(v["a"], tidx_b))))

    eidx = rng.integers(0, 7, size=(4, 3))
    case("embed_lookup", {"t": r(7, d)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.embed_lookup(v["t"], eidx))))

    relu_in = r(3, 4)
    relu_in[np.abs(relu_in) < 0.1] = 0.3  # keep clear of the kink
    case("relu", {"a": relu_in},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.relu(v["a"]))))
    case("tanh", {"a": r(3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.tanh(v["a"]))))
    case("sigmoid", {"a": 3.0 * r(3, 4)},
         lambda tp, v: tp.reduce_sum(tp.sigmoid(v["a"])))
    case("reduce_sum_axis", {"a": r(3, 4)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.reduce_sum(v["a"], axis=0))))
    soft_w = Tensor(r(3, 5))  # fixed mixing weights so the loss sees all rows
    case("softmax", {"a": 2.0 * r(3, 5)},
         lambda tp, v: tp.reduce_sum(tp.multiply(
             tp.softmax(v["a"]), soft_w)))
    case("layer_norm", {"a": r(3, d), "g": 1.0 + 0.3 * r(d), "b": 0.3 * r(d)},
         lambda tp, v: tp.reduce_sum(tp.tanh(tp.layer_norm(v["a"], v["g"], v["b"]))))

    ce_t = rng.integers(0, 5, size=(4,))
    case("cross_entropy_logits", {"a": 2.0 * r(4, 5)},
         lambda tp, v: tp.cross_entropy_logits(v["a"], ce_t))
    case("cross_entropy_logits_sum", {"a": 2.0 * r(4, 5)},
         lambda tp, v: tp.cross_entropy_logits(v["a"], ce_t, reduction="sum"))

    # two bands of 3 columns; b's first 2 columns go to columns 0, 0 and 1
    # of rows 0, 1 and 2 in both, and its last column is not read
    runs = [((slice(0, 1),), col, 0) for col in (0, 3)] + [
        ((slice(1, 3),), col, 1) for col in (0, 3)]
    case("add_placed", {"a": r(2, 3, 6), "b": r(2, 3, 3)},
         lambda tp, v: tp.reduce_sum(tp.tanh(
             tp.add_placed(v["a"], v["b"], 2, runs))))

    return cases


def run_op_checks(seed: int = 0,
                  tol: float = TOL_DEFAULT) -> list[tuple[str, float, bool]]:
    """Finite-difference every tape op; returns (name, max rel err, ok) rows."""
    rng = make_rng(seed)
    rows = []
    for name, inputs, fn in _op_cases(rng):
        report = fd_check(fn, inputs, rng=rng)
        err = max(report.values())
        rows.append((name, err, err < tol))
    return rows


def corrupted_backward_is_caught(tol: float = TOL_DEFAULT) -> bool:
    """Self-test: a deliberately wrong backward must trip the checker."""
    def bad_tanh(tape, t):
        out = np.tanh(t.data)
        return tape._emit(out, (t,), lambda g: (g * (1.0 - out * out) * 1.02,))

    report = fd_check(
        lambda tp, v: tp.reduce_sum(bad_tanh(tp, v["a"])),
        {"a": np.linspace(-0.8, 0.9, 12).reshape(3, 4)},
    )
    return report["a"] > tol


# ---- composed blocks ----
#
# Finite differences only match the tape where no detached value depends on
# a perturbed input, so the stack cases stay in regimes where everything
# detached is a plain constant: one recall layer (its memory holds raw
# inputs), windowed-only XL, and the LSTM (nothing detached at all). Each
# stack case builds a real Model with Model.from_params from the watched
# tensors: every layer parameter is an input, and the task's embeddings and
# heads, which stack_step never reads, are constants.


def _composed_cases(rng, sparse_rng, padded_rng):
    from .attention import (MIN_WINDOWS_FOR_BLOCKS, AttentionParams,
                            HcamParams, hcam_block, local_attention,
                            sinusoidal_table)
    from .stack import Model, ModelConfig, init_state, param_specs, stack_step

    d, heads = 8, 2

    def r(*shape, g=rng):
        return g.uniform(-0.5, 0.5, size=shape)

    def proj(g=rng):
        return r(d, d, g=g)

    cases = []

    pos2 = sinusoidal_table(2, d)

    def hcam_case(name, mem_chunks, n_rows, top_k, visible=None, g=rng):
        mem_summ = mem_chunks.mean(axis=1)

        def hcam_loss(tp, v):
            params = HcamParams(
                v["ln_g"], v["ln_b"], v["w_rel"],
                AttentionParams(v["wq"], v["wk"], v["wv"], v["wo"]))
            out = hcam_block(tp, v["x"], mem_summ, mem_chunks, params, heads,
                             top_k, pos_table=pos2, visible=visible)
            return tp.reduce_sum(tp.tanh(out))

        cases.append((name, {
            "x": r(n_rows, d, g=g), "ln_g": 1.0 + 0.2 * r(d, g=g),
            "ln_b": 0.2 * r(d, g=g), "w_rel": proj(g), "wq": proj(g),
            "wk": proj(g), "wv": proj(g), "wo": proj(g),
        }, hcam_loss, g))

    hcam_case("hcam_block", r(3, 2, d), 4, 2)
    # the next two draw from sparse_rng, so every other case keeps its values
    # and sampled entries. One query reads its one picked chunk of five
    hcam_case("hcam_block_sparse", r(5, 2, d, g=sparse_rng), 1, 1,
              g=sparse_rng)
    # runs of rows with their own chunk windows, one of them empty; at
    # most four distinct picks, so a subset of the five is read
    hcam_case("hcam_block_visible", r(5, 2, d, g=sparse_rng), 5, 1,
              visible=(np.array([0, 0, 1, 1, 2]), np.array([0, 2, 3, 3, 5])),
              g=sparse_rng)
    # its own generator too: rows that see 0, 1 and 3 chunks with top_k 2,
    # so empty slots and a row that sees nothing sit inside one read
    hcam_case("hcam_block_padded", r(4, 2, d, g=padded_rng), 6, 2,
              visible=(np.array([0, 0, 1, 1, 2, 0]),
                       np.array([0, 1, 4, 4, 2, 3])), g=padded_rng)

    # long enough that local_attention scores blocks, with carried rows
    win, carry = 3, 2
    t_blk = MIN_WINDOWS_FOR_BLOCKS * win + 1
    pos_w = sinusoidal_table(win, d)

    def local_loss(tp, v):
        out = local_attention(
            tp, v["x"], win, AttentionParams(v["wq"], v["wk"], v["wv"], v["wo"]),
            heads, pos_table=pos_w, n_carry=carry)
        return tp.reduce_sum(tp.tanh(out))

    cases.append(("local_attention_blocked", {
        "x": r(carry + t_blk, d), "wq": proj(), "wk": proj(), "wv": proj(),
        "wo": proj(),
    }, local_loss, rng))

    fills = {"uniform": lambda s: r(*s), "ones": lambda s: 1.0 + 0.2 * r(*s),
             "zeros": lambda s: 0.1 * r(*s)}

    def stack_case(name, n_steps, **config):
        cfg = ModelConfig(d_model=d, n_heads=heads, mlp_hidden=2 * d, **config)
        values = {n: fills[fill](shape)
                  for n, (shape, fill) in param_specs(cfg).items()}
        inputs = {n: v for n, v in values.items() if n.startswith("layer")}
        fixed = {n: Tensor(v) for n, v in values.items() if n not in inputs}
        xs = r(n_steps, d)

        def loss(tp, v):
            model = Model.from_params(cfg, {**fixed, **v})
            state = init_state(model)
            total = None
            for t in range(n_steps):
                y = stack_step(tp, model, state, Tensor(xs[t]))
                s = tp.reduce_sum(tp.tanh(y))
                total = s if total is None else tp.add(total, s)
            return total

        cases.append((name, inputs, loss, rng))

    stack_case("stack_step_hcam", 7, kind="hcam", n_layers=1, chunk_size=2,
               top_k=2, local_window=3)
    stack_case("stack_step_trxl", 5, kind="trxl", n_layers=2, local_window=3,
               xl_extra_length=0)
    stack_case("stack_step_lstm", 4, kind="lstm", n_layers=2)
    return cases


def run_composed_checks(seed: int = 0, tol: float = TOL_DEFAULT
                        ) -> list[tuple[str, float, bool]]:
    """Finite-difference the recall block and the stepped stacks. Each case
    samples 25 entries an input from the generator that drew its inputs."""
    rows = []
    for name, inputs, fn, rng in _composed_cases(
            make_rng(seed), make_rng(seed + 1), make_rng(seed + 2)):
        report = fd_check(fn, inputs, max_entries=25, rng=rng)
        err = max(report.values())
        rows.append((name, err, err < tol))
    return rows


def run_full_gradcheck(seed: int = 0, tol: float = TOL_DEFAULT):
    """Op-by-op plus composed checks; the one list the CLI and tests print."""
    return run_op_checks(seed=seed, tol=tol) + run_composed_checks(seed=seed,
                                                                   tol=tol)
