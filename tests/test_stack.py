"""Stack-level behavior: step/sequence equivalence, baselines, parameters."""

import numpy as np
import pytest

from chunkmem.attention import hcam_block, local_attention
from chunkmem.errors import ContractError, ShapeError
from chunkmem.rng import make_rng
from chunkmem.stack import (
    KINDS,
    Model,
    ModelConfig,
    StackState,
    forward_sequence,
    init_state,
    lstm_cell,
    parameter_count,
    parity_report,
    stack_step,
)
from chunkmem.memory import ChunkMemory
from chunkmem.tensor import GradTape, Tensor


# ---------------------------------------------------------------- references

def np_softmax(x):
    s = x - x.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def np_ln(v, g, b, eps=1e-5):
    mu = v.mean(axis=-1, keepdims=True)
    var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + eps) * g + b


def ref_mha(q_in, k_in, v_in, params, n_heads, keep_top=None):
    """Per-head loop attention; key and value inputs may differ."""
    d = q_in.shape[-1]
    dh = d // n_heads
    wq, wk, wv, wo = (params.wq.data, params.wk.data,
                      params.wv.data, params.wo.data)
    q_all, k_all, v_all = q_in @ wq, k_in @ wk, v_in @ wv
    heads = []
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = q_all[:, sl] @ k_all[:, sl].T / np.sqrt(dh)
        if keep_top is not None and keep_top < s.shape[-1]:
            masked = np.full_like(s, -np.inf)
            for r in range(s.shape[0]):
                order = np.argsort(-s[r], kind="stable")[:keep_top]
                masked[r, order] = s[r, order]
            s = masked
        heads.append(np_softmax(s) @ v_all[:, sl])
    return np.concatenate(heads, axis=-1) @ wo


def np_mlp(h, layer):
    z = np_ln(h, layer.mlp_ln_g.data, layer.mlp_ln_b.data)
    a = np.maximum(0.0, z @ layer.w1.data + layer.b1.data)
    return h + a @ layer.w2.data + layer.b2.data


def ref_hcam_steps(model, xs):
    """Step-at-a-time hcam stack over xs (T, d). Per step and layer: write
    the layer input to a ChunkMemory, attend locally over the carried rows,
    recall with hcam_block over what ChunkMemory.read() returns, apply the
    MLP. Unlike the library, nothing is grouped or projected ahead."""
    cfg = model.config
    tape = GradTape(recording=False)
    mems = [ChunkMemory(cfg.chunk_size, cfg.overlap, cfg.capacity)
            for _ in model.layers]
    recent = [[] for _ in model.layers]
    outs = []
    for row in xs:
        x = Tensor(row[None, :])
        for layer, mem, rows in zip(model.layers, mems, recent):
            mem.write_step(x.data[0])
            seq = tape.concat(rows + [x], axis=-2)
            normed = tape.layer_norm(seq, layer.attn_ln_g, layer.attn_ln_b)
            h = tape.add(x, local_attention(
                tape, normed, cfg.local_window, layer.attn, cfg.n_heads,
                pos_table=model.pos_local, n_carry=len(rows)))
            summaries, chunks = mem.read()
            h = hcam_block(tape, h, summaries, chunks, layer.hcam, cfg.n_heads,
                           cfg.top_k, pos_table=model.pos_chunk)
            rows.append(x)
            del rows[:max(0, len(rows) - (cfg.local_window - 1))]
            x = Tensor(np_mlp(h.data, layer))
        outs.append(x.data[0])
    return np.stack(outs)


def ref_trxl_forward(xs, layer, n_heads, window, xl, pos, keep_top=None):
    """Whole-sequence XL layer reference: per-step loop, positions added to
    the key inputs directly (the library realizes the same term as a score
    bias, so agreement checks that equivalence too)."""
    t_len, d = xs.shape
    span = window + xl
    g_a, b_a = layer.attn_ln_g.data, layer.attn_ln_b.data
    normed = np_ln(xs, g_a, b_a)
    out = np.zeros_like(xs)
    for t in range(t_len):
        s0 = max(0, t - span + 1)
        idx = np.arange(s0, t + 1)
        codes = idx - s0
        k_in = normed[idx] + pos[codes]
        att = ref_mha(normed[t:t + 1], k_in, normed[idx], layer.attn,
                      n_heads, keep_top=keep_top)
        out[t] = np_mlp(xs[t] + att[0], layer)
    return out


def run_steps(model, xs, counter=None):
    """Outputs from one stack_step call per row of xs (T, d)."""
    tape = GradTape()
    state = init_state(model)
    outs = []
    for t in range(xs.shape[0]):
        y = stack_step(tape, model, state, Tensor(xs[t]), counter=counter)
        outs.append(y.data.reshape(-1))
    return np.stack(outs)


def run_sequence(model, xs, counter=None):
    tape = GradTape()
    y, _ = forward_sequence(tape, model, Tensor(xs), counter=counter)
    return y.data


# ------------------------------------------------------------ configuration

def test_config_validation():
    with pytest.raises(ContractError):
        ModelConfig(kind="nope")
    with pytest.raises(ContractError):
        ModelConfig(d_model=10, n_heads=4)
    with pytest.raises(ContractError):
        ModelConfig(chunk_size=4, overlap=4)
    with pytest.raises(ContractError):
        ModelConfig(top_k=0)
    with pytest.raises(ContractError):
        ModelConfig(local_window=0)
    with pytest.raises(ContractError):
        ModelConfig(dtype="float16")
    with pytest.raises(ContractError):
        ModelConfig(task="sorting")
    for bad in (dict(d_model=-64), dict(n_heads=0), dict(n_layers=0),
                dict(dancer_vocab=0), dict(direction_vocab=0),
                dict(query_vocab=0), dict(n_classes=0), dict(item_dim=0),
                dict(mlp_hidden=-5)):
        with pytest.raises(ContractError):
            ModelConfig(**bad)


def test_mlp_hidden_defaults_to_4x():
    assert ModelConfig(d_model=24, n_heads=4).mlp_hidden == 96
    assert ModelConfig(d_model=24, n_heads=4, mlp_hidden=7).mlp_hidden == 7


def test_model_build_deterministic():
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers=2)
    a, b = Model(cfg, seed=3), Model(cfg, seed=3)
    assert sorted(a.params) == sorted(b.params)
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data)
    c = Model(cfg, seed=4)
    assert not np.array_equal(a.params["layer0.attn.wq"].data,
                              c.params["layer0.attn.wq"].data)


def test_from_params_adopts_tensors():
    cfg = ModelConfig(kind="hcam", d_model=8, n_heads=2, n_layers=2)
    model = Model(cfg, seed=1)
    again = Model.from_params(cfg, dict(reversed(model.params.items())))
    assert list(again.params) == list(model.params)
    assert all(again.params[k] is t for k, t in model.params.items())
    assert again.layers[1].hcam.mha.wk is model.params["layer1.hcam.mha.wk"]
    assert again.layers[0].w2 is model.params["layer0.mlp.w2"]
    xs = make_rng(2).normal(size=(9, 8))
    assert np.array_equal(run_sequence(model, xs), run_sequence(again, xs))


def test_from_params_rejects_a_bad_table():
    cfg = ModelConfig(kind="lstm", d_model=8, n_heads=2, n_layers=1)
    good = {k: t.data for k, t in Model(cfg, seed=0).params.items()}
    missing = dict(good)
    del missing["layer0.wh"]
    with pytest.raises(ContractError, match="layer0.wh"):
        Model.from_params(cfg, missing)
    with pytest.raises(ContractError, match="layer1.wx"):
        Model.from_params(cfg, {**good, "layer1.wx": good["layer0.wx"]})
    with pytest.raises(ShapeError, match="layer0.b"):
        Model.from_params(cfg, {**good, "layer0.b": np.zeros(8)})
    with pytest.raises(ContractError, match="float32"):
        Model.from_params(cfg, {**good, "head.b": np.zeros(8, np.float32)})


def test_parameter_counts_match_formula():
    d, hid, ncls = 16, 64, 8
    per_attn = 2 * d + 4 * d * d + 2 * d + d * hid + hid + hid * d + d
    per_hcam = per_attn + 2 * d + 5 * d * d
    emb = 9 * d + 9 * d + 14 * d + d * ncls + ncls \
        + d * 9 + 9 + d * 9 + 9
    for kind, per in (("trxl", per_attn), ("hcam", per_hcam)):
        cfg = ModelConfig(kind=kind, d_model=d, n_heads=2, n_layers=2,
                          n_classes=ncls)
        assert parameter_count(cfg) == emb + 2 * per


def test_parity_report_mentions_both_kinds():
    rep = parity_report(d_model=32, n_layers=1, n_heads=2)
    assert "hcam" in rep and "trxl" in rep
    hcam_n, trxl_n = (int(line.split()[1]) for line in rep.splitlines())
    d = 32
    assert hcam_n - trxl_n == 1 * (5 * d * d + 2 * d)


# ---------------------------------------------- step vs sequence: recall

HCAM_CASES = [
    dict(chunk_size=4, top_k=2, local_window=5, capacity=1024, overlap=0,
         n_layers=2),
    dict(chunk_size=4, top_k=1, local_window=3, capacity=2, overlap=0,
         n_layers=1),
    dict(chunk_size=5, top_k=2, local_window=4, capacity=3, overlap=2,
         n_layers=2),
    dict(chunk_size=1, top_k=3, local_window=1, capacity=4, overlap=0,
         n_layers=1),
    # several local-attention blocks; overlapping chunks evicted mid-call
    dict(chunk_size=3, top_k=2, local_window=4, capacity=2, overlap=1,
         n_layers=2),
]


@pytest.mark.parametrize("case", HCAM_CASES)
def test_hcam_step_equals_sequence(case):
    cfg = ModelConfig(kind="hcam", d_model=12, n_heads=2, **case)
    model = Model(cfg, seed=5)
    xs = make_rng(7).normal(size=(17, 12))
    a = run_steps(model, xs)
    b = run_sequence(model, xs)
    ref = ref_hcam_steps(model, xs)
    assert np.max(np.abs(a - b)) < 1e-9
    assert np.max(np.abs(a - ref)) < 1e-9
    assert np.max(np.abs(b - ref)) < 1e-9


def test_hcam_sequence_split_matches_single_call():
    cfg = ModelConfig(kind="hcam", d_model=16, n_heads=2, n_layers=2,
                      chunk_size=8, top_k=2, local_window=16)
    model = Model(cfg, seed=1)
    xs = make_rng(2).normal(size=(32, 16))

    tape = GradTape()
    full, _ = forward_sequence(tape, model, Tensor(xs))

    tape2 = GradTape()
    h1, state = forward_sequence(tape2, model, Tensor(xs[:16]))
    h2, _ = forward_sequence(tape2, model, Tensor(xs[16:]), state=state)
    joined = np.concatenate([h1.data, h2.data], axis=0)
    assert np.max(np.abs(full.data - joined)) < 1e-9


def test_hcam_long_split_calls_match_steps():
    # every call is several local-attention blocks long and starts with
    # carried rows, a partial chunk buffer and evicted chunks
    cfg = ModelConfig(kind="hcam", d_model=12, n_heads=2, n_layers=2,
                      chunk_size=4, top_k=2, local_window=3, capacity=3,
                      overlap=1)
    model = Model(cfg, seed=4)
    xs = make_rng(8).normal(size=(2, 45, 12))
    tape = GradTape()
    state, parts = None, []
    for lo, hi in ((0, 13), (13, 30), (30, 45)):
        y, state = forward_sequence(tape, model, Tensor(xs[:, lo:hi]), state)
        parts.append(y.data)
    joined = np.concatenate(parts, axis=1)
    for b in range(2):
        steps = run_steps(model, xs[b])
        ref = ref_hcam_steps(model, xs[b])
        assert np.max(np.abs(joined[b] - steps)) < 1e-9
        assert np.max(np.abs(joined[b] - ref)) < 1e-9
        assert np.max(np.abs(steps - ref)) < 1e-9


def test_hcam_batched_matches_unbatched_rows():
    cfg = ModelConfig(kind="hcam", d_model=12, n_heads=2, n_layers=2,
                      chunk_size=4, top_k=2, local_window=5)
    model = Model(cfg, seed=9)
    xs = make_rng(3).normal(size=(3, 13, 12))
    batched = run_sequence(model, xs)
    for b in range(3):
        single = run_sequence(model, xs[b])
        assert np.max(np.abs(batched[b] - single)) < 1e-9


def test_sequence_writes_raw_inputs_to_first_layer_memory():
    for dtype in ("float64", "float32"):
        cfg = ModelConfig(kind="hcam", d_model=8, n_heads=2, n_layers=2,
                          chunk_size=8, top_k=1, local_window=4, dtype=dtype)
        model = Model(cfg, seed=0)
        xs = make_rng(4).normal(size=(40, 8)).astype(cfg.np_dtype)
        tape = GradTape()
        _, state = forward_sequence(tape, model, Tensor(xs))
        mem = state.memories[0]
        assert mem.n_chunks == 5
        _, chunks = mem.read()
        for j in range(5):
            assert np.array_equal(chunks[j], xs[8 * j:8 * j + 8])
        assert state.memories[1].n_chunks == 5
        for m in state.memories:  # no float64 creeps into a float32 stack
            summaries, chunks = m.read()
            assert summaries.dtype == chunks.dtype == cfg.np_dtype


def test_fresh_states_are_independent():
    cfg = ModelConfig(kind="hcam", d_model=8, n_heads=2, n_layers=1,
                      chunk_size=3, top_k=1, local_window=3)
    model = Model(cfg, seed=0)
    xs = make_rng(5).normal(size=(9, 8))
    first = run_sequence(model, xs)
    # a different episode in between must not leak into a fresh state
    run_sequence(model, make_rng(6).normal(size=(11, 8)))
    again = run_sequence(model, xs)
    assert np.array_equal(first, again)


def test_stack_step_rejects_wrong_width():
    cfg = ModelConfig(kind="hcam", d_model=8, n_heads=2, n_layers=1)
    model = Model(cfg, seed=0)
    tape = GradTape()
    state = init_state(model)
    with pytest.raises(ContractError):
        stack_step(tape, model, state, Tensor(np.zeros(7)))


@pytest.mark.parametrize("kind", KINDS)
def test_batch_shape_disagreeing_with_state_raises(kind):
    cfg = ModelConfig(kind=kind, d_model=8, n_heads=2, n_layers=2,
                      chunk_size=2, local_window=3, xl_extra_length=2)
    model = Model(cfg, seed=0)
    rows = make_rng(17).normal(size=(6, 8))
    tape = GradTape()
    state = init_state(model)
    for t in range(3):
        stack_step(tape, model, state, Tensor(rows[t].reshape(1, 1, 8)))
    for bad in (rows[3].reshape(1, 8), np.stack([rows[3:4], rows[4:5]])):
        with pytest.raises(ShapeError):
            stack_step(tape, model, state, Tensor(bad))
    with pytest.raises(ShapeError):
        forward_sequence(tape, model, Tensor(rows[3:]), state)
    # the state is untouched by a rejected input and the episode goes on
    y = stack_step(tape, model, state, Tensor(rows[3].reshape(1, 1, 8)))
    assert np.array_equal(y.data.reshape(8), run_steps(model, rows[:4])[3])

    batched = init_state(model, (2,))
    with pytest.raises(ShapeError):
        forward_sequence(tape, model, Tensor(rows), batched)
    # () and (1,) leave the batch shape to the first input
    for lead in ((), (1,)):
        y, _ = forward_sequence(tape, model, Tensor(rows),
                                init_state(model, lead))
        assert np.array_equal(y.data, run_sequence(model, rows))


# ------------------------------------------------------- XL baseline layers

def make_trxl_model(window, xl, topk=False, d=8, heads=2, layers=1, seed=5):
    cfg = ModelConfig(kind="trxl_topk" if topk else "trxl", d_model=d,
                      n_heads=heads, n_layers=layers, local_window=window,
                      xl_extra_length=xl, top_k=2)
    return Model(cfg, seed=seed)


def test_trxl_layer_matches_reference():
    model = make_trxl_model(window=3, xl=3)
    xs = make_rng(8).normal(size=(9, 8))
    got = run_steps(model, xs)
    want = ref_trxl_forward(xs, model.layers[0], 2, 3, 3, model.pos_local)
    assert np.max(np.abs(got - want)) < 1e-9


def test_trxl_step_equals_sequence():
    for window, xl, layers in [(4, 3, 2), (3, 0, 2), (1, 2, 1)]:
        cfg = ModelConfig(kind="trxl", d_model=12, n_heads=2, n_layers=layers,
                          local_window=window, xl_extra_length=xl)
        model = Model(cfg, seed=6)
        xs = make_rng(9).normal(size=(13, 12))
        assert np.max(np.abs(run_steps(model, xs) - run_sequence(model, xs))) \
            < 1e-9


def test_trxl_sequence_split_matches_single_call():
    cfg = ModelConfig(kind="trxl", d_model=8, n_heads=2, n_layers=2,
                      local_window=4, xl_extra_length=3)
    model = Model(cfg, seed=2)
    xs = make_rng(10).normal(size=(12, 8))
    tape = GradTape()
    full, _ = forward_sequence(tape, model, Tensor(xs))
    tape2 = GradTape()
    h1, state = forward_sequence(tape2, model, Tensor(xs[:6]))
    h2, _ = forward_sequence(tape2, model, Tensor(xs[6:]), state=state)
    joined = np.concatenate([h1.data, h2.data], axis=0)
    assert np.max(np.abs(full.data - joined)) < 1e-9


def test_trxl_stops_gradients_past_window():
    # with one layer, an input row older than the window can only reach the
    # final output through the detached cache, so its gradient is zero
    cfg = ModelConfig(kind="trxl", d_model=8, n_heads=2, n_layers=1,
                      local_window=2, xl_extra_length=4)
    model = Model(cfg, seed=3)
    xs = Tensor(make_rng(11).normal(size=(8, 8)))
    tape = GradTape()
    tape.watch(xs)
    y, _ = forward_sequence(tape, model, xs)
    last = tape.slice_ax(y, -2, 7, 8)
    grads = tape.backward(tape.reduce_sum(last))
    g = grads[xs].data
    assert np.all(g[6:] != 0)          # inside the window of query 7
    assert np.all(g[2:6] == 0)         # cache-only reach: exactly zero
    assert np.all(g[:2] == 0)          # outside the span entirely


def test_trxl_xl_zero_is_pure_windowed_attention():
    model = make_trxl_model(window=4, xl=0)
    xs = make_rng(12).normal(size=(10, 8))
    got = run_steps(model, xs)
    want = ref_trxl_forward(xs, model.layers[0], 2, 4, 0, model.pos_local)
    assert np.max(np.abs(got - want)) < 1e-9


def test_trxl_topk_matches_reference():
    model = make_trxl_model(window=3, xl=3, topk=True)
    model.config.top_k = 2
    xs = make_rng(13).normal(size=(9, 8))
    got = run_steps(model, xs)
    want = ref_trxl_forward(xs, model.layers[0], 2, 3, 3, model.pos_local,
                            keep_top=2)
    assert np.max(np.abs(got - want)) < 1e-9


def test_trxl_topk_with_large_k_is_plain_trxl():
    plain = make_trxl_model(window=3, xl=2, seed=7)
    topk = make_trxl_model(window=3, xl=2, topk=True, seed=7)
    topk.config.top_k = 5  # covers the whole span
    xs = make_rng(14).normal(size=(9, 8))
    assert np.array_equal(run_steps(plain, xs), run_steps(topk, xs))


def test_trxl_topk_step_equals_sequence():
    cfg = ModelConfig(kind="trxl_topk", d_model=12, n_heads=2, n_layers=2,
                      local_window=3, xl_extra_length=3, top_k=2)
    model = Model(cfg, seed=8)
    xs = make_rng(15).normal(size=(11, 12))
    assert np.max(np.abs(run_steps(model, xs) - run_sequence(model, xs))) < 1e-9


def test_trxl_topk_one_keeps_single_key_per_head():
    # with k=1 each head's softmax collapses onto its argmax key
    model = make_trxl_model(window=4, xl=2, topk=True, d=8, heads=2)
    model.config.top_k = 1
    xs = make_rng(16).normal(size=(7, 8))
    got = run_steps(model, xs)
    want = ref_trxl_forward(xs, model.layers[0], 2, 4, 2, model.pos_local,
                            keep_top=1)
    assert np.max(np.abs(got - want)) < 1e-9


# ------------------------------------------------------------------- LSTM

def test_lstm_cell_matches_equations():
    d = 6
    rng = make_rng(20)
    from chunkmem.stack import LstmLayer
    layer = LstmLayer(wx=Tensor(rng.normal(size=(d, 4 * d))),
                      wh=Tensor(rng.normal(size=(d, 4 * d))),
                      b=Tensor(rng.normal(size=4 * d)))
    x = rng.normal(size=(1, d))
    h = rng.normal(size=(1, d))
    c = rng.normal(size=(1, d))
    tape = GradTape()
    h2, c2 = lstm_cell(tape, Tensor(x), Tensor(h), Tensor(c), layer)

    gates = x @ layer.wx.data + h @ layer.wh.data + layer.b.data

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    i, f = sig(gates[:, :d]), sig(gates[:, d:2 * d])
    g, o = np.tanh(gates[:, 2 * d:3 * d]), sig(gates[:, 3 * d:])
    c_ref = f * c + i * g
    h_ref = o * np.tanh(c_ref)
    assert np.max(np.abs(c2.data - c_ref)) < 1e-10
    assert np.max(np.abs(h2.data - h_ref)) < 1e-10


def test_lstm_zero_weights_zero_state_gives_zero_output():
    d = 4
    from chunkmem.stack import LstmLayer
    layer = LstmLayer(wx=Tensor(np.zeros((d, 4 * d))),
                      wh=Tensor(np.zeros((d, 4 * d))),
                      b=Tensor(np.zeros(4 * d)))
    tape = GradTape()
    h2, c2 = lstm_cell(tape, Tensor(np.ones((1, d))),
                       Tensor(np.zeros((1, d))), Tensor(np.zeros((1, d))),
                       layer)
    assert np.all(h2.data == 0.0)
    assert np.all(c2.data == 0.0)


def test_lstm_step_equals_sequence():
    cfg = ModelConfig(kind="lstm", d_model=10, n_heads=2, n_layers=2)
    model = Model(cfg, seed=4)
    xs = make_rng(21).normal(size=(9, 10))
    assert np.array_equal(run_steps(model, xs), run_sequence(model, xs))


def test_lstm_batched_matches_unbatched_rows():
    cfg = ModelConfig(kind="lstm", d_model=10, n_heads=2, n_layers=2)
    model = Model(cfg, seed=4)
    xs = make_rng(22).normal(size=(3, 9, 10))
    batched = run_sequence(model, xs)
    for b in range(3):
        assert np.max(np.abs(batched[b] - run_sequence(model, xs[b]))) < 1e-12
