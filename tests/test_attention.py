"""Attention kernels against naive loop oracles, plus contract cases."""

import gc
import weakref

import numpy as np
import pytest

from chunkmem import attention
from chunkmem.attention import (
    MIN_WINDOWS_FOR_BLOCKS,
    AttentionParams,
    HcamParams,
    ScoreCounter,
    chunk_relevance,
    hcam_block,
    local_attention,
    multi_head_attention,
    sinusoidal_table,
    top_k_select,
)
from chunkmem.benchmark import dense_score_count, hcam_score_count
from chunkmem.errors import ContractError, EmptyMemoryError, ShapeError
from chunkmem.gradcheck import fd_check
from chunkmem.rng import make_rng
from chunkmem.stack import Model, ModelConfig
from chunkmem.tensor import GradTape, Tensor


def layer_params(seed, d=8, dtype=np.float64):
    """The weights of a one-layer hcam Model: .attn for the attention
    kernels, .hcam for the recall block."""
    cfg = ModelConfig(kind="hcam", d_model=d, n_heads=1, n_layers=1,
                      dtype=np.dtype(dtype).name)
    return Model(cfg, seed).layers[0]


def naive_mha(xq, xkv, p: AttentionParams, h, mask=None):
    """Per-head python-loop oracle for multi_head_attention."""
    d = xq.shape[-1]
    dh = d // h
    wq, wk, wv, wo = p.wq.data, p.wk.data, p.wv.data, p.wo.data
    heads = []
    for i in range(h):
        cols = slice(i * dh, (i + 1) * dh)
        q = xq @ wq[:, cols]
        k = xkv @ wk[:, cols]
        v = xkv @ wv[:, cols]
        s = q @ k.T / np.sqrt(dh)
        if mask is not None:
            s = s + mask
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        a = e / e.sum(axis=-1, keepdims=True)
        heads.append(a @ v)
    return np.concatenate(heads, axis=-1) @ wo


def test_mha_matches_naive_oracle():
    rng = make_rng(0)
    p = layer_params(0, d=12).attn
    xq = rng.normal(size=(5, 12))
    xkv = rng.normal(size=(7, 12))
    got = multi_head_attention(
        GradTape(), Tensor(xq), Tensor(xkv), p, n_heads=3).data
    want = naive_mha(xq, xkv, p, 3)
    assert np.max(np.abs(got - want)) < 1e-10


def test_mha_single_element_is_value_projection():
    rng = make_rng(1)
    p = layer_params(1).attn
    xq = rng.normal(size=(4, 8))
    xkv = rng.normal(size=(1, 8))
    got = multi_head_attention(
        GradTape(), Tensor(xq), Tensor(xkv), p, n_heads=2).data
    want = np.broadcast_to((xkv @ p.wv.data) @ p.wo.data, (4, 8))
    assert np.max(np.abs(got - want)) < 1e-12


def test_mha_empty_keys_raises():
    p = layer_params(2).attn
    with pytest.raises(ContractError):
        multi_head_attention(
            GradTape(), Tensor(np.zeros((2, 8))), Tensor(np.zeros((0, 8))),
            p, n_heads=2)


def test_mha_batched_rows_match_unbatched():
    rng = make_rng(3)
    p = layer_params(3).attn
    xq = rng.normal(size=(3, 4, 8))
    xkv = rng.normal(size=(3, 6, 8))
    got = multi_head_attention(
        GradTape(), Tensor(xq), Tensor(xkv), p, n_heads=2).data
    for b in range(3):
        one = multi_head_attention(
            GradTape(), Tensor(xq[b]), Tensor(xkv[b]), p, n_heads=2).data
        assert np.max(np.abs(got[b] - one)) < 1e-12


def test_mha_counter_counts_query_key_pairs():
    rng = make_rng(4)
    p = layer_params(4).attn
    c = ScoreCounter()
    multi_head_attention(
        GradTape(), Tensor(rng.normal(size=(2, 5, 8))),
        Tensor(rng.normal(size=(2, 7, 8))), p, n_heads=4, counter=c)
    assert c.scores == 2 * 5 * 7  # heads share one count per pair


# ---- local attention ----

def test_local_window_covers_all_equals_full_causal():
    rng = make_rng(5)
    p = layer_params(5).attn
    x = rng.normal(size=(6, 8))
    t = np.arange(6)
    causal = np.where(t[None, :] <= t[:, None], 0.0, -1e30)
    want = naive_mha(x, x, p, 2, mask=causal)
    for w in (6, 11):
        got = local_attention(GradTape(), Tensor(x), w, p, n_heads=2).data
        assert np.max(np.abs(got - want)) < 1e-10


def test_local_window_one_attends_to_self():
    rng = make_rng(6)
    p = layer_params(6).attn
    x = rng.normal(size=(5, 8))
    got = local_attention(GradTape(), Tensor(x), 1, p, n_heads=2).data
    want = (x @ p.wv.data) @ p.wo.data
    assert np.max(np.abs(got - want)) < 1e-12


def test_local_attention_windowed_oracle():
    rng = make_rng(7)
    p = layer_params(7).attn
    x = rng.normal(size=(9, 8))
    w = 3
    got = local_attention(GradTape(), Tensor(x), w, p, n_heads=2).data
    for t in range(9):
        lo = max(0, t - w + 1)
        row = naive_mha(x[t:t + 1], x[lo:t + 1], p, 2)
        assert np.max(np.abs(got[t] - row[0])) < 1e-10


def test_local_attention_is_causal():
    rng = make_rng(8)
    p = layer_params(8).attn
    x = rng.normal(size=(7, 8))
    base = local_attention(GradTape(), Tensor(x), 4, p, n_heads=2).data
    x2 = x.copy()
    x2[5:] += 10.0
    pert = local_attention(GradTape(), Tensor(x2), 4, p, n_heads=2).data
    assert np.array_equal(base[:5], pert[:5])


def test_local_attention_carry_matches_concat():
    rng = make_rng(9)
    p = layer_params(9).attn
    full = rng.normal(size=(10, 8))
    whole = local_attention(GradTape(), Tensor(full), 4, p, n_heads=2).data
    tail = local_attention(
        GradTape(), Tensor(full), 4, p, n_heads=2, n_carry=6).data
    assert np.max(np.abs(whole[6:] - tail)) < 1e-12


def test_local_attention_window_zero_raises():
    p = layer_params(10).attn
    with pytest.raises(ContractError):
        local_attention(GradTape(), Tensor(np.zeros((3, 8))), 0, p, n_heads=2)


def test_local_attention_with_every_row_carried_raises():
    p = layer_params(10).attn
    with pytest.raises(ContractError, match="needs a query row"):
        local_attention(GradTape(), Tensor(np.zeros((2, 3, 8))), 4, p,
                        n_heads=2, pos_table=sinusoidal_table(4, 8), n_carry=3)


@pytest.mark.parametrize("n_carry, xl_extra", [(-1, 0), (0, -1)])
def test_local_attention_rejects_negative_carry_and_xl(n_carry, xl_extra):
    # n_carry -1 on 3 rows once returned 4 rows; xl_extra -1 failed in an
    # unrelated add broadcast
    p = layer_params(10).attn
    with pytest.raises(ContractError, match="n_carry and xl_extra >= 0"):
        local_attention(GradTape(), Tensor(np.zeros((3, 8))), 2, p,
                        n_heads=2, n_carry=n_carry, xl_extra=xl_extra)


def test_local_attention_position_codes_change_scores():
    rng = make_rng(11)
    p = layer_params(11).attn
    x = rng.normal(size=(6, 8))
    pos = sinusoidal_table(4, 8)
    plain = local_attention(GradTape(), Tensor(x), 4, p, n_heads=2).data
    coded = local_attention(
        GradTape(), Tensor(x), 4, p, n_heads=2, pos_table=pos).data
    assert np.max(np.abs(plain - coded)) > 1e-6


def windowed_reference(seq, n_carry, w, p, h, pos):
    """Per-query dense oracle: each query attends to its own window, with
    the position code of each key added to the key input only."""
    rows = []
    for gq in range(n_carry, seq.shape[0]):
        lo = max(0, gq - w + 1)
        keys = seq[lo:gq + 1] + pos[:gq + 1 - lo]
        dh = seq.shape[1] // h
        q = seq[gq:gq + 1] @ p.wq.data
        k = keys @ p.wk.data
        v = seq[lo:gq + 1] @ p.wv.data
        heads = []
        for i in range(h):
            sl = slice(i * dh, (i + 1) * dh)
            s = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            e = np.exp(s - s.max())
            heads.append((e / e.sum()) @ v[:, sl])
        rows.append(np.concatenate(heads, axis=-1) @ p.wo.data)
    return np.concatenate(rows, axis=0)


@pytest.mark.parametrize("n_carry", [0, 2, 7])
def test_local_attention_blocked_matches_windowed_reference(n_carry):
    rng = make_rng(12)
    p = layer_params(12).attn
    w = 3
    t_len = MIN_WINDOWS_FOR_BLOCKS * w + 2  # blocked, last block partial
    pos = sinusoidal_table(w, 8)
    seq = rng.normal(size=(2, n_carry + t_len, 8))
    got = local_attention(GradTape(), Tensor(seq), w, p, n_heads=2,
                          pos_table=pos, n_carry=n_carry).data
    assert got.shape == (2, t_len, 8)
    for b in range(2):
        want = windowed_reference(seq[b], n_carry, w, p, 2, pos)
        assert np.max(np.abs(got[b] - want)) < 1e-10


def clipped_codes(t_len, n_carry, window, reach):
    """Every score's position code in local_attention's layout, clipped to
    [0, reach) where the query cannot see the key: (rows, keys) dense,
    (n_blocks, 1, reach, keys) blocked, both bands' keys with XL."""
    blocked = t_len >= MIN_WINDOWS_FOR_BLOCKS * reach
    if blocked:
        b = np.arange(-(-t_len // reach))[:, None, None] * reach
        gq = n_carry + b + np.arange(reach)[:, None]
        g = n_carry - reach + b + np.arange(2 * reach)
    else:
        gq = (np.arange(t_len) + n_carry)[:, None]
        g = np.arange(t_len + n_carry)
    codes = np.clip(g - np.maximum(0, gq - reach + 1), 0, reach - 1)
    if reach > window:
        codes = np.concatenate([codes, codes], axis=-1)
    return codes[:, None] if blocked else codes


class GatheredBiasTape(GradTape):
    """Adds local attention's position bias by gathering each score's
    position score through a code per (query, key) pair."""

    def __init__(self, codes):
        super().__init__()
        self.codes = codes

    def add_placed(self, a, b, n, runs):
        idx = np.broadcast_to(self.codes,
                              b.shape[:-1] + self.codes.shape[-1:])
        return self.add(a, self.gather_last(b, idx))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("window, xl, topk, t_len, n_carry", [
    (4, 0, None, 9, 2),  # dense
    (6, 0, None, 2, 1),  # dense, fewer keys than the window
    (3, 0, None, MIN_WINDOWS_FOR_BLOCKS * 3 + 2, 0),  # blocked
    (3, 0, None, MIN_WINDOWS_FOR_BLOCKS * 3 + 2, 5),  # blocked, carry
    (4, 0, None, 1, 3),  # last_only's final-layer call
    (3, 2, None, 1, 4),  # and with XL
    (3, 2, None, 11, 3),  # XL dense
    (3, 2, None, MIN_WINDOWS_FOR_BLOCKS * 5 + 3, 4),  # XL blocked
    (3, 2, 2, 11, 3),  # XL with top-k
    (3, 2, 2, MIN_WINDOWS_FOR_BLOCKS * 5 + 3, 4),
])
def test_placed_position_bias_equals_gathered_codes_bitwise(
        window, xl, topk, t_len, n_carry, dtype):
    rng = make_rng(15)
    p = layer_params(15, dtype=dtype).attn
    pos = sinusoidal_table(window + xl, 8, dtype=dtype)
    seq = rng.normal(size=(2, n_carry + t_len, 8)).astype(dtype)
    g_out = rng.normal(size=(2, t_len, 8)).astype(dtype)
    weights = (p.wq, p.wk, p.wv, p.wo)

    def run(tape):
        x = Tensor(seq)
        for t in (x,) + weights:
            tape.watch(t)
        y = local_attention(tape, x, window, p, n_heads=2, pos_table=pos,
                            n_carry=n_carry, xl_extra=xl, topk=topk)
        g = tape.backward(tape.reduce_sum(tape.multiply(y, Tensor(g_out))))
        return [y.data] + [g[t].data for t in (x,) + weights]

    codes = clipped_codes(t_len, n_carry, window, window + xl)
    got, want = run(GradTape()), run(GatheredBiasTape(codes))
    for name, a, b in zip(("out", "x", "wq", "wk", "wv", "wo"), got, want,
                          strict=True):
        assert a.dtype == b.dtype == dtype, name
        assert np.array_equal(a, b), name
    assert np.any(got[3] != 0)  # wk: the bias has a gradient to check


def test_local_attention_blocked_counts_block_pairs():
    rng = make_rng(13)
    p = layer_params(13).attn
    w, t_len = 4, MIN_WINDOWS_FOR_BLOCKS * 4 + 1
    c = ScoreCounter()
    local_attention(GradTape(), Tensor(rng.normal(size=(3, t_len, 8))), w, p,
                    n_heads=2, counter=c)
    n_blocks = -(-t_len // w)
    assert c.scores == 3 * n_blocks * w * 2 * w


@pytest.mark.parametrize("topk", [None, 2])
def test_local_attention_xl_blocks_match_dense_pieces(topk):
    # one blocked call against dense calls of a few queries each, carrying
    # the rows before them: the same outputs, and the same gradients to the
    # input and to every weight, the far band's detached copy included
    rng = make_rng(14)
    w, xl, carry = 3, 2, 4
    reach = w + xl
    t_len = MIN_WINDOWS_FOR_BLOCKS * reach + 3
    pos = sinusoidal_table(reach, 8)
    seq = rng.normal(size=(2, carry + t_len, 8))
    g_out = rng.normal(size=(2, t_len, 8))
    p = layer_params(14).attn
    weights = (p.wq, p.wk, p.wv, p.wo)

    def grads(pieces):
        tape = GradTape()
        x = Tensor(seq)
        tape.watch(x)
        for t in weights:
            tape.watch(t)
        outs = []
        for a, b in pieces:  # queries a..b-1, counted after the carry
            lo = max(0, carry + a - reach + 1)
            outs.append(local_attention(
                tape, tape.slice_ax(x, -2, lo, carry + b), w, p, n_heads=2,
                pos_table=pos, n_carry=carry + a - lo, xl_extra=xl,
                topk=topk))
        y = tape.concat(outs, axis=-2) if len(outs) > 1 else outs[0]
        g = tape.backward(tape.reduce_sum(tape.multiply(y, Tensor(g_out))))
        return [y.data] + [g[t].data for t in (x,) + weights]

    step = MIN_WINDOWS_FOR_BLOCKS * reach - 1  # each piece below blocking
    dense = grads([(a, min(a + step, t_len)) for a in range(0, t_len, step)])
    for got, want in zip(grads([(0, t_len)]), dense, strict=True):
        assert np.max(np.abs(got - want)) < 1e-12
    assert not np.all(dense[1] == 0)


# ---- relevance and selection ----

def test_chunk_relevance_matches_naive():
    rng = make_rng(12)
    d = 8
    w = Tensor(rng.normal(size=(d, d)))
    x = rng.normal(size=(4, d))
    s = rng.normal(size=(5, d))
    got = chunk_relevance(GradTape(), Tensor(x), s, w).data
    scores = (x @ w.data) @ s.T
    e = np.exp(scores - scores.max(-1, keepdims=True))
    want = e / e.sum(-1, keepdims=True)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.max(np.abs(got.sum(-1) - 1.0)) < 1e-12


def test_chunk_relevance_single_chunk_is_one():
    rng = make_rng(13)
    got = chunk_relevance(
        GradTape(), Tensor(rng.normal(size=(3, 4))),
        rng.normal(size=(1, 4)), Tensor(np.eye(4))).data
    assert np.array_equal(got, np.ones((3, 1)))


def test_chunk_relevance_identical_summaries_uniform():
    rng = make_rng(14)
    s = np.tile(rng.normal(size=(1, 4)), (5, 1))
    got = chunk_relevance(
        GradTape(), Tensor(rng.normal(size=(2, 4))), s,
        Tensor(np.eye(4))).data
    assert np.max(np.abs(got - 0.2)) < 1e-12


def test_chunk_relevance_passes_no_gradient_to_summaries():
    # summaries are memory contents, passed as an array: the queries and
    # w_rel learn from the relevance, what was stored is left as it was
    rng = make_rng(15)
    x, w = (Tensor(rng.normal(size=shape)) for shape in ((3, 4), (4, 4)))
    s = rng.normal(size=(5, 4))
    kept = s.copy()
    tp = GradTape()
    for t in (x, w):
        tp.watch(t)
    rel = chunk_relevance(tp, x, s, w)
    loss = tp.reduce_sum(tp.multiply(rel, Tensor(rng.normal(size=(3, 5)))))
    g = tp.backward(loss)
    assert np.array_equal(s, kept)
    assert np.all(g[x].data != 0) and np.all(g[w].data != 0)


def test_chunk_relevance_scores_each_rows_own_window():
    # rows whose windows share one width are scored against their union in
    # one pass, and each row's softmax covers its own window alone
    rng = make_rng(16)
    w = Tensor(rng.normal(size=(4, 4)))
    x = rng.normal(size=(2, 5, 4))
    s = rng.normal(size=(2, 8, 4))
    lo, hi = np.array([0, 0, 1, 3, 3]), np.array([4, 4, 5, 7, 7])
    ctr = ScoreCounter()
    got = chunk_relevance(GradTape(), Tensor(x), s, w, ctr,
                          visible=(lo, hi)).data
    assert got.shape == (2, 5, 4) and ctr.scores == 2 * 5 * 4
    for t, (a, b) in enumerate(zip(lo, hi)):
        scores = (x[:, t] @ w.data)[:, None] @ s[:, a:b].swapaxes(-1, -2)
        e = np.exp(scores - scores.max(-1, keepdims=True))
        want = (e / e.sum(-1, keepdims=True))[:, 0]
        assert np.max(np.abs(got[:, t] - want)) < 1e-12
    with pytest.raises(ContractError, match="one width"):
        chunk_relevance(GradTape(), Tensor(x), s, w,
                        visible=(lo, hi + np.array([0, 0, 0, 0, 1])))
    with pytest.raises(ContractError, match="0 <= lo <= hi <= 8"):
        chunk_relevance(GradTape(), Tensor(x), s, w, visible=(lo + 2, hi + 2))


def test_chunk_relevance_empty_memory_raises():
    with pytest.raises(EmptyMemoryError):
        chunk_relevance(
            GradTape(), Tensor(np.zeros((2, 4))), np.zeros((0, 4)),
            Tensor(np.eye(4)))


def test_top_k_select_spec_case():
    assert np.array_equal(top_k_select(np.array([0.2, 0.5, 0.2, 0.1]), 2), [0, 1])


def test_top_k_select_ties_take_earliest():
    assert np.array_equal(top_k_select(np.array([0.3, 0.3, 0.3]), 2), [0, 1])


def test_top_k_clamps_to_length():
    assert np.array_equal(top_k_select(np.array([0.1, 0.9]), 5), [0, 1])


def test_top_k_against_sorting_oracle():
    rng = make_rng(15)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        row = np.round(rng.uniform(0, 1, size=n), 1)  # force ties
        got = top_k_select(row, k)
        order = sorted(range(n), key=lambda i: (-row[i], i))[:min(k, n)]
        assert np.array_equal(got, sorted(order))


def test_top_k_batched_rows_independent():
    rows = np.array([[0.2, 0.5, 0.2, 0.1], [0.9, 0.0, 0.05, 0.05]])
    got = top_k_select(rows, 2)
    assert np.array_equal(got, [[0, 1], [0, 2]])


def stable_sort_top_k(scores, k):
    """The reference selection: the first k of a stable descending sort,
    returned ascending."""
    scores = np.asarray(scores)
    order = (-scores).argsort(axis=-1, kind="stable")
    return np.sort(order[..., :min(k, scores.shape[-1])], axis=-1)


def top_k_oracle_rows(rng, shape, dtype):
    """Named score arrays of one shape: ties, infinities, NaN, signed zeros.
    An integer dtype gets only the tie rows."""
    special = np.array([-np.inf, np.inf, np.nan, -np.nan, -0.0, 0.0, 1.0, -1.0])
    few_finite = np.full(shape, np.nan)
    few_finite[..., 1::5] = -np.inf
    few_finite[..., 0] = 0.5
    rows = {
        "random": rng.normal(size=shape),
        "all equal": np.full(shape, 0.25),
        "integer ties": rng.integers(0, 4, size=shape).astype(float),
        "infinities": rng.choice([-np.inf, np.inf, 0.0, 2.0], size=shape),
        "specials": rng.choice(special, size=shape),
        "signed zeros": rng.choice([-0.0, 0.0], size=shape),
        "all nan": np.full(shape, np.nan),
        "all -inf": np.full(shape, -np.inf),
        "fewer finite than k": few_finite,
    }
    if np.dtype(dtype).kind == "i":
        rows = {name: rows[name] for name in ("all equal", "integer ties")}
    return {name: a.astype(dtype) for name, a in rows.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
def test_top_k_select_matches_the_stable_sort_bitwise(dtype):
    rng = make_rng(41)
    for n in (1, 2, 3, 7, 64, 513, 2048):
        for shape in ((n,), (3, n), (2, 3, n)):
            for name, scores in top_k_oracle_rows(rng, shape, dtype).items():
                for k in sorted({1, 2, 5, n - 1, n, n + 3} - {0}):
                    got = top_k_select(scores, k)
                    want = stable_sort_top_k(scores, k)
                    assert got.dtype == want.dtype, (name, shape, k)
                    assert np.array_equal(got, want), (name, shape, k)


# ---- the recall block ----

def small_block(seed):
    return layer_params(seed).hcam, make_rng(seed)


def test_hcam_empty_memory_is_identity():
    p, rng = small_block(16)
    x = Tensor(rng.normal(size=(3, 8)))
    out = hcam_block(
        GradTape(), x, np.zeros((0, 8)), np.zeros((0, 4, 8)), p,
        n_heads=2, top_k=2)
    assert out is x


def test_hcam_zero_out_projection_is_identity():
    p, rng = small_block(17)
    p.mha.wo.data[:] = 0.0
    x = rng.normal(size=(3, 8))
    out = hcam_block(
        GradTape(), Tensor(x), rng.normal(size=(4, 8)),
        rng.normal(size=(4, 5, 8)), p, n_heads=2, top_k=2)
    assert np.array_equal(out.data, x)


def dense_oracle(x, summaries, chunks, p: HcamParams, heads, pos=None):
    """Relevance-weighted sum over every chunk, one naive MHA per chunk."""
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    normed = (x - mu) / np.sqrt(var + 1e-5) * p.ln_gain.data + p.ln_bias.data
    scores = (normed @ p.w_rel.data) @ summaries.T
    e = np.exp(scores - scores.max(-1, keepdims=True))
    rel = e / e.sum(-1, keepdims=True)
    out = x.copy()
    for i in range(chunks.shape[0]):
        ch = chunks[i] + (pos[:chunks.shape[1]] if pos is not None else 0.0)
        out += rel[:, i:i + 1] * naive_mha(normed, ch, p.mha, heads)
    return out


def test_hcam_k_equals_n_matches_dense_oracle():
    for seed in range(5):
        p, rng = small_block(100 + seed)
        n, c = 4, 3
        x = rng.normal(size=(5, 8))
        chunks = rng.normal(size=(n, c, 8))
        summaries = chunks.mean(axis=1)
        pos = sinusoidal_table(c, 8)
        got = hcam_block(
            GradTape(), Tensor(x), summaries, chunks, p, n_heads=2,
            top_k=n, pos_table=pos).data
        want = dense_oracle(x, summaries, chunks, p, 2, pos)
        assert np.max(np.abs(got - want)) < 1e-8


def test_hcam_counter_matches_op_count():
    p, rng = small_block(18)
    n, c, k, q = 6, 4, 2, 5
    x = rng.normal(size=(q, 8))
    chunks = rng.normal(size=(n, c, 8))
    ctr = ScoreCounter()
    hcam_block(GradTape(), Tensor(x), chunks.mean(1), chunks, p,
               n_heads=2, top_k=k, counter=ctr)
    per_query, dense = hcam_score_count(n, c, k), dense_score_count(n, c)
    assert ctr.scores == q * per_query
    assert (hcam_score_count(32, 8, 2), dense_score_count(32, 8)) == (48, 256)
    assert dense == n * c


def test_hcam_sparsity_locality_bitwise():
    p, rng = small_block(19)
    n, c, k = 5, 3, 2
    x = rng.normal(size=(4, 8))
    chunks = rng.normal(size=(n, c, 8))
    summaries = chunks.mean(axis=1)
    base = hcam_block(
        GradTape(), Tensor(x), summaries, chunks, p, n_heads=2, top_k=k)
    sel = np.unique(top_k_select(chunk_relevance(
        GradTape(), GradTape().layer_norm(Tensor(x), p.ln_gain, p.ln_bias),
        summaries, p.w_rel).data, k))
    unselected = [i for i in range(n) if i not in sel]
    assert unselected, "fixture must leave some chunk unselected"
    chunks2 = chunks.copy()
    chunks2[unselected[0]] += 100.0  # summary stays fixed: selection is held
    pert = hcam_block(
        GradTape(), Tensor(x), summaries, chunks2, p, n_heads=2, top_k=k)
    assert np.array_equal(base.data, pert.data)


@pytest.mark.parametrize("windows", [None, "distinct"])
def test_hcam_locality_at_2048_chunks(windows):
    # one query that sees every chunk, or rows that each see their own
    # window: perturbing every chunk no row picked changes neither the
    # output nor, on a recording tape, any gradient
    p, rng = small_block(40)
    n, c, k = 2048, 4, 2
    chunks = rng.normal(size=(n, c, 8))
    summaries = chunks.mean(axis=1)
    pos = sinusoidal_table(c, 8)
    if windows is None:
        x, visible, bounds = rng.normal(size=(1, 8)), None, [(0, n)]
    else:
        lo, hi = np.array([0, 0, 7, 500, 1024, 2040]), np.array(
            [2048, 1500, 900, 2048, 1100, 2048])
        x, visible, bounds = rng.normal(size=(6, 8)), (lo, hi), zip(lo, hi)
    tape = GradTape(recording=False)
    normed = tape.layer_norm(Tensor(x), p.ln_gain, p.ln_bias).data
    picked = np.unique(np.concatenate([
        top_k_select(chunk_relevance(tape, Tensor(normed[t:t + 1]),
                                     summaries[a:b], p.w_rel).data,
                     k).reshape(-1) + a
        for t, (a, b) in enumerate(bounds)]))
    unpicked = np.setdiff1d(np.arange(n), picked)
    assert unpicked.size >= n - k * x.shape[0]

    def run(chunks):
        tape, xt = GradTape(), Tensor(x)
        watched = [xt, p.ln_gain, p.ln_bias, p.w_rel, p.mha.wq, p.mha.wk,
                   p.mha.wv, p.mha.wo]
        for t in watched:
            tape.watch(t)
        out = hcam_block(tape, xt, summaries, chunks, p, n_heads=2, top_k=k,
                         pos_table=pos, visible=visible)
        g = tape.backward(tape.reduce_sum(tape.tanh(out)))
        return [out.data] + [g[t].data for t in watched]

    base = run(chunks)
    perturbed = chunks.copy()
    perturbed[unpicked] += rng.normal(size=(unpicked.size, c, 8)) * 10.0
    for a, b in zip(base, run(perturbed), strict=True):
        assert np.array_equal(a, b)
    # and the check can fail: moving a picked chunk moves the output
    perturbed[picked[0]] += 1.0
    assert not np.array_equal(base[0], run(perturbed)[0])


def test_hcam_gradients_flow_to_params_not_memory():
    # memory comes in as arrays, which no tape can watch; backward reads
    # them again but leaves them as they were
    p, rng = small_block(20)
    x = Tensor(rng.normal(size=(3, 8)))
    summaries = rng.normal(size=(4, 8))
    chunks = rng.normal(size=(4, 3, 8))
    kept = summaries.copy(), chunks.copy()
    tape = GradTape()
    for t in (x, p.w_rel, p.mha.wq, p.mha.wo):
        tape.watch(t)
    out = hcam_block(tape, x, summaries, chunks, p, n_heads=2, top_k=2)
    g = tape.backward(tape.reduce_sum(tape.tanh(out)))
    assert np.array_equal(summaries, kept[0])
    assert np.array_equal(chunks, kept[1])
    assert np.max(np.abs(g[p.w_rel].data)) > 0
    assert np.max(np.abs(g[p.mha.wq].data)) > 0
    assert np.max(np.abs(g[p.mha.wo].data)) > 0
    assert np.max(np.abs(g[x].data)) > 0


def test_hcam_finite_differences():
    p, rng = small_block(21)
    n, c = 4, 3
    chunks = rng.normal(size=(n, c, 8))
    summaries = chunks.mean(axis=1)
    mix = Tensor(rng.normal(size=(3, 8)))  # fixed readout weights

    inputs = {
        "x": rng.normal(size=(3, 8)),
        "w_rel": p.w_rel.data,
        "wq": p.mha.wq.data,
        "wk": p.mha.wk.data,
        "wv": p.mha.wv.data,
        "wo": p.mha.wo.data,
        "g": p.ln_gain.data,
        "b": p.ln_bias.data,
    }

    def f(tp, v):
        pp = HcamParams(
            ln_gain=v["g"], ln_bias=v["b"], w_rel=v["w_rel"],
            mha=AttentionParams(v["wq"], v["wk"], v["wv"], v["wo"]))
        out = hcam_block(tp, v["x"], summaries, chunks, pp, n_heads=2, top_k=2)
        return tp.reduce_sum(tp.multiply(out, mix))

    report = fd_check(f, inputs, max_entries=12, rng=make_rng(99))
    assert max(report.values()) < 1e-4, report


def test_batched_hcam_matches_per_row():
    p, rng = small_block(22)
    b, q, n, c = 3, 4, 5, 3
    x = rng.normal(size=(b, q, 8))
    chunks = rng.normal(size=(b, n, c, 8))
    summaries = chunks.mean(axis=2)
    got = hcam_block(
        GradTape(), Tensor(x), summaries, chunks, p, n_heads=2, top_k=2).data
    for i in range(b):
        one = hcam_block(
            GradTape(), Tensor(x[i]), summaries[i], chunks[i], p,
            n_heads=2, top_k=2).data
        assert np.max(np.abs(got[i] - one)) < 1e-12


@pytest.mark.parametrize("batch", [(), (2,)])
def test_hcam_visible_rows_match_one_call_per_row(batch):
    # rows see nothing, overlapping windows and the whole memory; top_k 1
    # of 6 leaves chunks unpicked, so recall projects a gathered subset
    p, rng = small_block(23)
    n, c = 6, 3
    lo = np.array([0, 0, 0, 1, 1, 3, 0])
    hi = np.array([0, 2, 2, 4, 4, 6, 6])
    x = rng.normal(size=batch + (len(lo), 8))
    chunks = rng.normal(size=batch + (n, c, 8))
    summaries = chunks.mean(axis=-2)
    pos = sinusoidal_table(c, 8)
    ctr = ScoreCounter()
    got = hcam_block(GradTape(), Tensor(x), summaries, chunks, p, n_heads=2,
                     top_k=1, pos_table=pos, counter=ctr,
                     visible=(lo, hi)).data
    want = x.copy()
    want_ctr = ScoreCounter()
    for t in range(len(lo)):
        a, b = lo[t], hi[t]
        want[..., t:t + 1, :] = hcam_block(
            GradTape(), Tensor(x[..., t:t + 1, :]), summaries[..., a:b, :],
            chunks[..., a:b, :, :], p, n_heads=2, top_k=1, pos_table=pos,
            counter=want_ctr).data
    assert np.max(np.abs(got - want)) < 1e-12
    assert ctr.scores == want_ctr.scores


def test_hcam_visible_bounds_are_checked():
    p, rng = small_block(24)
    x = Tensor(rng.normal(size=(3, 8)))
    chunks = rng.normal(size=(4, 2, 8))
    for lo, hi, err in (([0, 0], [1, 1], ShapeError),
                        ([0, 0, 0], [1, 5, 1], ContractError),
                        ([0, 2, 0], [1, 1, 1], ContractError),
                        ([-1, 0, 0], [1, 1, 1], ContractError)):
        with pytest.raises(err):
            hcam_block(GradTape(), x, chunks.mean(1), chunks, p, n_heads=2,
                       top_k=1, visible=(np.array(lo), np.array(hi)))


def test_hcam_rejects_malformed_memory_and_heads():
    p, rng = small_block(26)
    x = Tensor(rng.normal(size=(2, 8)))
    chunks = rng.normal(size=(4, 2, 8))
    for summaries, chunks_ in (
            (chunks[:3].mean(1), chunks),  # 3 summaries of 4 chunks
            (chunks.mean(1)[None], chunks[None]),  # a batch dim x lacks
            (np.zeros((2, 4, 8)), np.zeros((3, 4, 2, 8))),  # memory disagrees
            (chunks.mean(1)[:, :6], chunks),  # summary width is not d
            (chunks.mean(1), chunks[0])):  # chunks without a chunk axis
        with pytest.raises(ShapeError, match="recall of x"):
            hcam_block(GradTape(), x, summaries, chunks_, p, n_heads=2,
                       top_k=1)
    with pytest.raises(ShapeError, match="not divisible"):
        hcam_block(GradTape(), x, chunks.mean(1), chunks, p, n_heads=3,
                   top_k=1)


@pytest.mark.parametrize("n_heads, err", [(0, ContractError),
                                           (-2, ContractError),
                                           (3, ShapeError)])
def test_every_attention_checks_its_head_count(n_heads, err):
    layer = layer_params(30)
    x = Tensor(make_rng(30).normal(size=(2, 8)))
    chunks = make_rng(31).normal(size=(4, 2, 8))
    calls = (
        lambda: multi_head_attention(GradTape(), x, x, layer.attn, n_heads),
        lambda: local_attention(GradTape(), x, 2, layer.attn, n_heads),
        lambda: hcam_block(GradTape(), x, chunks.mean(1), chunks, layer.hcam,
                           n_heads, top_k=1))
    for call in calls:
        with pytest.raises(err, match="n_heads"):
            call()


def test_hcam_rejects_top_k_below_one_whatever_the_rows_see():
    p, rng = small_block(32)
    x = Tensor(rng.normal(size=(2, 8)))
    chunks = rng.normal(size=(4, 2, 8))
    for lo, hi in (([0, 0], [0, 0]), ([0, 0], [0, 4])):
        with pytest.raises(ContractError, match="top_k"):
            hcam_block(GradTape(), x, chunks.mean(1), chunks, p, n_heads=2,
                       top_k=0, visible=(np.array(lo), np.array(hi)))


def test_hcam_rejects_float_visible_bounds():
    p, rng = small_block(27)
    x = Tensor(rng.normal(size=(2, 8)))
    chunks = rng.normal(size=(4, 2, 8))
    with pytest.raises(ContractError, match="integer"):
        hcam_block(GradTape(), x, chunks.mean(1), chunks, p, n_heads=2,
                   top_k=1, visible=(np.zeros(2), np.full(2, 4.0)))


def test_hcam_rejects_a_short_position_table():
    p, rng = small_block(25)
    x = Tensor(rng.normal(size=(2, 8)))
    chunks = rng.normal(size=(3, 2, 8))
    hcam_block(GradTape(), x, chunks.mean(1), chunks, p, n_heads=2, top_k=1,
               pos_table=sinusoidal_table(2, 8))
    with pytest.raises(ShapeError, match="position table"):
        hcam_block(GradTape(), x, chunks.mean(1), chunks, p, n_heads=2,
                   top_k=1, pos_table=sinusoidal_table(1, 8))


# ---- small utilities ----

def test_sinusoidal_table_shape_and_range():
    t = sinusoidal_table(16, 8)
    assert t.shape == (16, 8)
    assert np.max(np.abs(t)) <= 1.0
    assert np.min([np.max(np.abs(t[i] - t[j]))
                   for i in range(16) for j in range(i + 1, 16)]) > 1e-6


def test_float32_hcam_forward_and_backward_stay_float32(monkeypatch):
    # rows see 0, 1 and 3 chunks, so empty top-k slots, their zero weights,
    # a pass-through row and both position terms (from a float64 table)
    # are all on the tape
    p = layer_params(26, dtype=np.float32).hcam
    rng = make_rng(27)
    x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
    chunks = rng.normal(size=(2, 4, 3, 8)).astype(np.float32)
    seen = set()
    emit = GradTape._emit

    def recording(tape, data, inputs, bwd):
        def checked_bwd(g):
            grads = bwd(g)
            seen.update(gi.dtype for gi in grads if gi is not None)
            return grads

        out = emit(tape, data, inputs, checked_bwd)
        seen.add(out.dtype)
        return out

    monkeypatch.setattr(GradTape, "_emit", recording)
    tape = GradTape()
    params = [x, p.ln_gain, p.ln_bias, p.w_rel, p.mha.wq, p.mha.wk, p.mha.wv,
              p.mha.wo]
    for t in params:
        tape.watch(t)
    out = hcam_block(tape, x, chunks.mean(-2), chunks, p, n_heads=2, top_k=2,
                     pos_table=sinusoidal_table(3, 8),
                     visible=(np.array([0, 0, 1, 1, 0]),
                              np.array([0, 1, 4, 4, 4])))
    grads = tape.backward(tape.reduce_sum(tape.tanh(out)))
    assert seen == {np.dtype(np.float32)}
    assert all(grads[t].dtype == np.float32 for t in params)
    assert all(np.max(np.abs(grads[t].data)) > 0 for t in params)


def test_hcam_keeps_no_gathered_rows_and_gathers_them_again_once(monkeypatch):
    # rows see 0, 1 and 3 chunks: empty top-k slots and pass-through rows.
    # Rows 1-4 are read: in one block, in blocks of 2 and of 1 query rows.
    p = layer_params(28).hcam
    rng = make_rng(29)
    x = rng.normal(size=(2, 5, 8))
    chunks = rng.normal(size=(2, 4, 3, 8))
    visible = np.array([0, 0, 1, 1, 0]), np.array([0, 1, 4, 4, 4])
    gather = attention._chunk_rows
    made = []  # (ids, weakref to the rows) per gather

    def tracked(tape, chunks, ids):
        rows = gather(tape, chunks, ids)
        made.append((ids.copy(), weakref.ref(rows)))
        return rows

    kept = {}

    def reused(tape, chunks, ids):  # the old way: backward reads the
        key = ids.tobytes()         # forward's rows of the same block
        if key not in kept:
            kept[key] = gather(tape, chunks, ids)
        return kept[key]

    def grads_of(gather_rows):
        monkeypatch.setattr(attention, "_chunk_rows", gather_rows)
        tape = GradTape()
        params = [Tensor(x), p.ln_gain, p.ln_bias, p.w_rel, p.mha.wq,
                  p.mha.wk, p.mha.wv, p.mha.wo]
        for t in params:
            tape.watch(t)
        out = hcam_block(tape, params[0], chunks.mean(-2), chunks, p,
                         n_heads=2, top_k=2, pos_table=sinusoidal_table(3, 8),
                         visible=visible)
        gc.collect()
        assert [r() for _ids, r in made] == [None] * len(made)
        grads = tape.backward(tape.reduce_sum(tape.tanh(out)))
        return [grads[t].data for t in params]

    row_bytes = 2 * 2 * 3 * 8 * 8  # batch, slots, chunk rows, d, float64
    for budget, blocks in ((attention.RECALL_BLOCK_BYTES, 1),
                           (2 * row_bytes, 2), (row_bytes, 4)):
        monkeypatch.setattr(attention, "RECALL_BLOCK_BYTES", budget)
        made.clear()
        kept.clear()
        got = grads_of(tracked)
        gc.collect()
        # each block gathered again once in backward, the last block first
        assert len(made) == 2 * blocks
        assert [r() for _ids, r in made] == [None] * len(made)
        ids = [i for i, _r in made]
        assert all(np.array_equal(a, b) and a.shape == (2, 4 // blocks, 2)
                   for a, b in zip(ids[:blocks], ids[:blocks - 1:-1]))
        for a, b in zip(got, grads_of(reused), strict=True):
            assert np.array_equal(a, b) and np.max(np.abs(a)) > 0


@pytest.mark.parametrize("with_pos", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_hcam_blocks_of_query_rows_match_one_block_bitwise(monkeypatch, dtype,
                                                          with_pos):
    # rows 0 and 8 pass through, rows 5-6 see no chunk between rows that
    # do, and rows 1-2 see one chunk (an empty top-k slot): rows 1-7 are
    # read, in one block and then in blocks of 1, 2 and 3 rows
    p = layer_params(30, dtype=dtype).hcam
    rng = make_rng(31)
    x = rng.normal(size=(2, 9, 8)).astype(dtype)
    chunks = rng.normal(size=(2, 5, 3, 8)).astype(dtype)
    g = rng.normal(size=(2, 9, 8)).astype(dtype)
    visible = (np.array([0, 0, 0, 1, 1, 3, 3, 2, 0]),
               np.array([0, 1, 1, 4, 4, 3, 3, 5, 0]))
    gather, gathers = attention._chunk_rows, []

    def counted(*args):
        gathers.append(args)
        return gather(*args)

    monkeypatch.setattr(attention, "_chunk_rows", counted)

    def run():
        gathers.clear()
        tape = GradTape()
        params = [Tensor(x), p.ln_gain, p.ln_bias, p.w_rel, p.mha.wq,
                  p.mha.wk, p.mha.wv, p.mha.wo]
        for t in params:
            tape.watch(t)
        out = hcam_block(tape, params[0], chunks.mean(-2), chunks, p,
                         n_heads=2, top_k=2, visible=visible,
                         pos_table=sinusoidal_table(3, 8) if with_pos else None)
        blocks = len(gathers)
        grads = tape.backward(tape.reduce_sum(tape.multiply(out, Tensor(g))))
        return blocks, [out.data] + [grads[t].data for t in params]

    blocks, want = run()
    assert blocks == 1
    row_bytes = 2 * 2 * 3 * 8 * np.dtype(dtype).itemsize
    for rows, n_blocks in ((1, 7), (2, 4), (3, 3)):
        monkeypatch.setattr(attention, "RECALL_BLOCK_BYTES", rows * row_bytes)
        blocks, got = run()
        assert blocks == n_blocks
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
