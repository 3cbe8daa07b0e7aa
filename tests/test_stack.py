"""Stack-level behavior: step/sequence equivalence, baselines, parameters."""

import copy

import numpy as np
import pytest

from chunkmem import attention, stack
from chunkmem.attention import (MIN_WINDOWS_FOR_BLOCKS, ScoreCounter,
                                hcam_block, local_attention)
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
    stack_step,
)
from chunkmem.memory import ChunkMemory
from chunkmem.optim import Adam
from chunkmem.tasks import ballet_batch, encode_ballet_tokens
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
    with pytest.raises(ContractError, match="chunk_size"):
        ModelConfig(task="pai", chunk_size=1)
    with pytest.raises(ContractError, match="chunk_size must be >= 1, got 0"):
        ModelConfig(chunk_size=0)
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
        assert Model(cfg).n_params() == emb + 2 * per


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


def test_hcam_step_equals_sequence_with_thousands_of_chunks():
    # 1550 two-row chunks a layer through a capacity of 1500, so the last
    # 50 freezes evict; every step reads k of up to 1500 chunks
    cfg = ModelConfig(kind="hcam", d_model=8, n_heads=2, n_layers=2,
                      chunk_size=2, top_k=2, local_window=2, capacity=1500)
    model = Model(cfg, seed=11)
    xs = make_rng(12).normal(size=(3100, 8))
    a = run_steps(model, xs)
    b = run_sequence(model, xs)
    ref = ref_hcam_steps(model, xs)
    assert np.max(np.abs(a - b)) < 1e-9
    assert np.max(np.abs(a - ref)) < 1e-9


def record_reads(monkeypatch):
    """Per hcam_block call, in call order: the top-k selections of its runs,
    then the stored chunks, indices and rows it gathers, the gathers of a
    call that reads in blocks of query rows joined along the query axis."""
    reads, sels = [], []
    select, take = attention.top_k_select, GradTape.take_rows

    def selecting(scores, k):
        sels.append(select(scores, k))
        return sels[-1]

    def taking(tape, a, idx):
        out = take(tape, a, idx)
        if sels:  # a call's first gather follows its selections
            reads.append((list(sels), a.data, idx, out.data))
            sels.clear()
        else:  # the same call's next block
            done, chunks, idx0, rows = reads[-1]
            axis = idx.ndim - 1
            reads[-1] = (done, chunks, np.concatenate([idx0, idx], axis),
                         np.concatenate([rows, out.data], axis))
        return out

    monkeypatch.setattr(attention, "top_k_select", selecting)
    monkeypatch.setattr(GradTape, "take_rows", taking)
    return reads


def test_full_memory_step_gathers_only_selected_chunks(monkeypatch):
    cfg = ModelConfig(kind="hcam", d_model=16, n_heads=2, n_layers=2,
                      chunk_size=4, top_k=2, local_window=4, capacity=64)
    model = Model(cfg, seed=3)
    rows = make_rng(13).normal(size=(64 * 4 + 20, 16))
    tape = GradTape(recording=False)
    _, state = forward_sequence(tape, model, Tensor(rows[None, :-20]))
    reads = record_reads(monkeypatch)
    for t in range(64 * 4, len(rows)):  # 5 of these 20 steps freeze a chunk
        stack_step(tape, model, state, Tensor(rows[None, None, t]))
        assert all(m.n_chunks == 64 for m in state.memories)
    assert len(reads) == 20 * cfg.n_layers
    for _sels, chunks, idx, gathered in reads:  # k of the 64 stored chunks
        assert chunks.shape[-3] >= 64 and idx.shape == (1, cfg.top_k)
        assert np.array_equal(gathered, chunks[0, idx[0]][None])


def test_ballet_batch_gathers_each_rows_top_k_chunks(monkeypatch):
    # at batch 8 every row that sees a chunk gathers the rows of its own
    # top-k chunks, straight from the store; the rows before the first
    # chunk gather nothing. In one block, then in blocks of 5 query rows.
    model = Model(ModelConfig(kind="hcam"), seed=1)
    k, c = model.config.top_k, model.config.chunk_size
    dancers, directions, queries, _ = ballet_batch(2, 16, 1, 0, 8)
    row_bytes = 8 * k * c * 64 * 8  # one query row's rows, float64
    for budget, blocks in ((attention.RECALL_BLOCK_BYTES, 1),
                           (5 * row_bytes, 9)):
        monkeypatch.setattr(attention, "RECALL_BLOCK_BYTES", budget)
        gathers = []
        tape = GradTape()
        xs = encode_ballet_tokens(tape, model, dancers, directions, queries)
        reads = record_reads(monkeypatch)
        take = GradTape.take_rows

        def counted(tape, a, idx):
            gathers.append(idx.shape)
            return take(tape, a, idx)

        monkeypatch.setattr(GradTape, "take_rows", counted)
        _, state = forward_sequence(tape, model, xs)
        assert len(reads) == len(state.memories) == 2
        assert len(gathers) == 2 * blocks
        for (sels, chunks, idx, gathered), mem in zip(reads, state.memories):
            assert mem.n_chunks == 6 and np.array_equal(chunks, mem.chunks)
            # a run that sees one chunk fills its second slot with chunk 0
            want = np.concatenate([np.pad(s, ((0, 0), (0, 0),
                                              (0, k - s.shape[-1])))
                                   for s in sels], axis=1)
            assert want.shape == (8, xs.shape[1] - (c - 1), k)
            assert np.array_equal(idx, want.reshape(8, -1))
            assert np.array_equal(gathered.reshape(want.shape + (c, 64)),
                                  mem.chunks[np.arange(8)[:, None, None], want])
        monkeypatch.undo()


# ------------------------------------------------ last_only: one query row

LAST_ONLY_CASES = [
    dict(t_len=3, pre=0, xl=0),   # below one window
    dict(t_len=20, pre=0, xl=0),  # 5 windows: the full call scores in blocks
    dict(t_len=20, pre=9, xl=0),  # a carried-in state
    dict(t_len=20, pre=9, xl=5),  # an XL span past the window
]


def last_only_model(kind, xl):
    # small capacity with overlap, so chunks are evicted inside a call
    cfg = ModelConfig(kind=kind, d_model=12, n_heads=2, n_layers=2,
                      chunk_size=3, top_k=2, local_window=4, capacity=4,
                      overlap=1, xl_extra_length=xl)
    return Model(cfg, seed=1)


def twin_states(tape, model, pre):
    """Two equal states after the same pre rows (fresh ones when pre=0)."""
    if not pre.shape[-2]:
        return init_state(model), init_state(model)
    return tuple(forward_sequence(tape, model, Tensor(pre))[1] for _ in "ab")


def assert_states_equal(a: StackState, b: StackState):
    for ma, mb in zip(a.memories, b.memories, strict=True):
        assert ma.n_chunks == mb.n_chunks
        for name in ("summaries", "chunks", "buffer"):
            assert np.array_equal(getattr(ma, name), getattr(mb, name))

    def carried(state):  # an LSTM layer carries (h, c)
        return [t for e in state.carry
                for t in (e if isinstance(e, tuple) else (e,))]

    carried_a, carried_b = carried(a), carried(b)
    assert len(carried_a) == len(carried_b) > 0
    for ta, tb in zip(carried_a, carried_b):
        assert (ta is None) == (tb is None)
        assert ta is None or np.array_equal(ta.data, tb.data)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("case", LAST_ONLY_CASES)
def test_last_only_is_the_last_row_of_a_full_call(kind, case):
    model = last_only_model(kind, case["xl"])
    rng = make_rng(2)
    pre = rng.normal(size=(2, case["pre"], 12))
    xs = rng.normal(size=(2, case["t_len"], 12))
    after = rng.normal(size=(2, 6, 12))
    tape = GradTape(recording=False)
    full_state, last_state = twin_states(tape, model, pre)
    full, _ = forward_sequence(tape, model, Tensor(xs), full_state)
    last, _ = forward_sequence(tape, model, Tensor(xs), last_state,
                               last_only=True)
    assert last.shape == (2, 1, 12)
    assert np.max(np.abs(last.data - full.data[:, -1:])) < 1e-9
    assert_states_equal(last_state, full_state)
    # and the episode goes on exactly as it would have
    a, _ = forward_sequence(tape, model, Tensor(after), full_state)
    b, _ = forward_sequence(tape, model, Tensor(after), last_state)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("kind", KINDS)
def test_last_only_one_step_is_stack_step(kind):
    model = last_only_model(kind, xl=5)
    rng = make_rng(3)
    pre, x = rng.normal(size=(2, 9, 12)), rng.normal(size=(2, 1, 12))
    tape = GradTape(recording=False)
    seq_state, step_state = twin_states(tape, model, pre)
    y, _ = forward_sequence(tape, model, Tensor(x), seq_state, last_only=True)
    assert np.array_equal(y.data, stack_step(tape, model, step_state,
                                             Tensor(x)).data)
    assert_states_equal(seq_state, step_state)


def test_last_only_needs_a_step():
    model = last_only_model("hcam", xl=0)
    with pytest.raises(ContractError):
        forward_sequence(GradTape(), model, Tensor(np.zeros((2, 0, 12))),
                         last_only=True)


@pytest.mark.parametrize("kind", ["hcam", "trxl", "trxl_topk"])
def test_each_layer_carries_one_tensor_of_its_last_raw_inputs(kind,
                                                               monkeypatch):
    # spans 3 (hcam) and 5 (XL): calls add fewer and more rows than a
    # carry holds, then single steps
    cfg = ModelConfig(kind=kind, d_model=8, n_heads=2, n_layers=2,
                      chunk_size=2, top_k=1, local_window=3, capacity=3,
                      xl_extra_length=2)
    model = Model(cfg, seed=0)
    inputs = [[] for _ in model.layers]  # each layer's raw inputs, per call
    mlp = stack._mlp

    def recording(tape, layer, h):
        y = mlp(tape, layer, h)
        li = next(i for i, lay in enumerate(model.layers) if lay is layer)
        if li + 1 < len(model.layers):
            inputs[li + 1].append(y.data)
        return y

    monkeypatch.setattr(stack, "_mlp", recording)

    def check(state, steps):
        keep = min(steps, cfg.span - 1)
        for li, carry in enumerate(state.carry):
            if keep == 0:
                assert carry is None
                continue
            assert isinstance(carry, Tensor)
            seen = np.concatenate(inputs[li], axis=-2)
            assert np.array_equal(carry.data, seen[:, steps - keep:])

    rng = make_rng(6)
    tape = GradTape()
    state, steps = init_state(model), 0
    check(state, steps)
    for t_len in (1, 2, 7):
        xs = rng.normal(size=(2, t_len, 8))
        inputs[0].append(xs)
        forward_sequence(tape, model, Tensor(xs), state)
        steps += t_len
        check(state, steps)
    for _ in range(3):
        x = rng.normal(size=(2, 8))
        inputs[0].append(x[:, None])
        stack_step(tape, model, state, Tensor(x))
        steps += 1
        check(state, steps)


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


# ---- parameter folds kept across calls

def fold_stream(seed=11):
    """A float32 hcam model, a long-lived non-recording tape and a full
    memory state; the steps taken leave every layer's folds kept."""
    cfg = ModelConfig(kind="hcam", d_model=16, n_heads=2, n_layers=2,
                      chunk_size=4, top_k=2, local_window=4, capacity=8,
                      dtype="float32")
    model = Model(cfg, seed=seed)
    rows = make_rng(seed).normal(size=(41, 16)).astype(np.float32)
    tape = GradTape(recording=False)
    _, state = forward_sequence(tape, model, Tensor(rows[None, :36]))
    for t in range(36, 40):
        stack_step(tape, model, state, Tensor(rows[None, None, t]))
    assert all(layer.attn.folds and layer.hcam.mha.folds
               for layer in model.layers)
    return model, tape, state, rows[None, None, 40]


def fresh_copy(model):
    """The same weight values in a new Model, which keeps no fold yet."""
    return Model.from_params(model.config, {n: t.data.copy()
                                            for n, t in model.params.items()})


def step_kept_and_fresh(model, tape, state, x):
    """One step from state on the long-lived tape, and one by a fresh copy
    of the model on a fresh tape."""
    kept = stack_step(tape, model, copy.deepcopy(state), Tensor(x)).data
    fresh = stack_step(GradTape(recording=False), fresh_copy(model),
                       copy.deepcopy(state), Tensor(x)).data
    return kept, fresh


def step_loss(tape, model, state, x):
    y = stack_step(tape, model, copy.deepcopy(state), Tensor(x))
    w = make_rng(5).normal(size=y.shape).astype(y.dtype)
    return tape.reduce_sum(tape.multiply(y, Tensor(w)))


def test_kept_folds_follow_an_adam_step():
    model, tape, state, x = fold_stream()
    before, fresh = step_kept_and_fresh(model, tape, state, x)
    assert np.array_equal(before, fresh)
    rec = GradTape()
    model.watch_all(rec)
    Adam(model.params, lr=1e-2).step(rec.backward(step_loss(rec, model, state, x)))
    after, fresh = step_kept_and_fresh(model, tape, state, x)
    assert np.array_equal(after, fresh)
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("name", [
    "layer0.hcam.mha.wq", "layer0.hcam.mha.wk", "layer1.hcam.mha.wv",
    "layer1.hcam.mha.wo", "layer0.attn.wk"])
def test_kept_folds_see_an_in_place_write(name):
    model, tape, state, x = fold_stream()
    before, _ = step_kept_and_fresh(model, tape, state, x)
    model.params[name].data[...] += 1e-3
    after, fresh = step_kept_and_fresh(model, tape, state, x)
    assert np.array_equal(after, fresh)
    assert not np.array_equal(after, before)


@pytest.mark.parametrize("name, owner, fold", [
    ("layer0.hcam.mha.wv", lambda m: m.layers[0].hcam.mha, "recall"),
    ("layer1.attn.wk", lambda m: m.layers[1].attn, "position")])
def test_kept_folds_compare_bits_not_values(name, owner, fold):
    model, tape, state, x = fold_stream()
    w, folds = model.params[name].data, owner(model).folds

    def write_and_step(value):
        w[0, 0] = value
        stack_step(tape, model, copy.deepcopy(state), Tensor(x))
        return folds[fold]

    kept = write_and_step(0.0)
    assert write_and_step(0.0) is kept
    assert write_and_step(-0.0) is not kept  # equal values, other bits
    kept = write_and_step(np.nan)
    assert write_and_step(np.nan) is kept  # the same bits, though nan != nan
    other_nan = np.array([0x7FC00001], dtype=np.uint32).view(np.float32)[0]
    assert write_and_step(other_nan) is not kept


def test_recording_tape_gradients_ignore_kept_folds():
    model, tape, state, x = fold_stream()
    names = [f"layer{li}.hcam.mha.{w}" for li in range(2)
             for w in ("wq", "wk", "wv", "wo")]

    def grads(m):
        rec = GradTape()
        m.watch_all(rec)
        g = rec.backward(step_loss(rec, m, state, x))
        return [g[m.params[n]].data for n in names]

    for kept, fresh in zip(grads(model), grads(fresh_copy(model))):
        assert np.any(kept != 0)
        assert np.array_equal(kept, fresh)


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

    # a batched first input binds a fresh state to its batch shape
    batched = init_state(model)
    forward_sequence(tape, model, Tensor(np.stack([rows[:2], rows[2:4]])),
                     batched)
    with pytest.raises(ShapeError):
        forward_sequence(tape, model, Tensor(rows), batched)
    y, _ = forward_sequence(tape, model, Tensor(rows), init_state(model))
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


# Long enough that the XL kinds score in blocks: T >= MIN_WINDOWS_FOR_BLOCKS
# reaches of window + xl_extra.
XL_BLOCKED = dict(window=3, xl=2, t_len=MIN_WINDOWS_FOR_BLOCKS * 5 + 3)


@pytest.mark.parametrize("topk", [False, True])
def test_trxl_blocked_sequence_matches_reference(topk):
    model = make_trxl_model(window=XL_BLOCKED["window"], xl=XL_BLOCKED["xl"],
                            topk=topk)
    xs = make_rng(17).normal(size=(XL_BLOCKED["t_len"], 8))
    want = ref_trxl_forward(xs, model.layers[0], 2, XL_BLOCKED["window"],
                            XL_BLOCKED["xl"], model.pos_local,
                            keep_top=2 if topk else None)
    assert np.max(np.abs(run_sequence(model, xs) - want)) < 1e-9


@pytest.mark.parametrize("kind", ["trxl", "trxl_topk"])
def test_trxl_blocked_step_equals_sequence_and_split(kind):
    cfg = ModelConfig(kind=kind, d_model=12, n_heads=2, n_layers=2,
                      local_window=XL_BLOCKED["window"],
                      xl_extra_length=XL_BLOCKED["xl"], top_k=2)
    model = Model(cfg, seed=9)
    t_len = XL_BLOCKED["t_len"]
    xs = make_rng(18).normal(size=(2 * t_len, 12))
    full = run_sequence(model, xs)
    assert np.max(np.abs(run_steps(model, xs) - full)) < 1e-9
    tape = GradTape()
    h1, state = forward_sequence(tape, model, Tensor(xs[:t_len]))
    h2, _ = forward_sequence(tape, model, Tensor(xs[t_len:]), state=state)
    joined = np.concatenate([h1.data, h2.data], axis=0)
    assert np.max(np.abs(full - joined)) < 1e-9


def test_trxl_blocked_stops_gradients_past_window():
    # as test_trxl_stops_gradients_past_window, for a call scored in blocks:
    # rows only the far band reaches get exactly zero gradient
    window, xl = 2, 4
    cfg = ModelConfig(kind="trxl", d_model=8, n_heads=2, n_layers=1,
                      local_window=window, xl_extra_length=xl)
    model = Model(cfg, seed=3)
    t_len = MIN_WINDOWS_FOR_BLOCKS * (window + xl) + 5
    xs = Tensor(make_rng(19).normal(size=(t_len, 8)))
    for t in (13, t_len - 1):
        tape = GradTape()
        tape.watch(xs)
        y, _ = forward_sequence(tape, model, xs)
        grads = tape.backward(tape.reduce_sum(tape.slice_ax(y, -2, t, t + 1)))
        g = grads[xs].data
        assert np.all(g[t - window + 1:t + 1] != 0)  # the window of query t
        assert np.all(g[:t - window + 1] == 0)       # far band and beyond
        assert np.all(g[t + 1:] == 0)                # causal


def test_trxl_score_count_closed_form():
    # per batch row and layer, T queries over S = T + carry keys with reach
    # R = window + xl: dense 2 T S pairs, blocked ceil(T / R) R queries of
    # 4 R keys each
    window, xl = XL_BLOCKED["window"], XL_BLOCKED["xl"]
    reach = window + xl
    cfg = ModelConfig(kind="trxl", d_model=8, n_heads=2, n_layers=2,
                      local_window=window, xl_extra_length=xl)
    model = Model(cfg, seed=4)
    for t_len, blocked in ((MIN_WINDOWS_FOR_BLOCKS * reach - 1, False),
                           (XL_BLOCKED["t_len"], True)):
        counter = ScoreCounter()
        xs = make_rng(20).normal(size=(3, t_len, 8))
        forward_sequence(GradTape(), model, Tensor(xs), counter=counter)
        per_layer = (-(-t_len // reach) * reach * 4 * reach if blocked
                     else 2 * t_len * t_len)
        assert counter.scores == 3 * 2 * per_layer


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
