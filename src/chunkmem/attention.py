"""Attention kernels: plain multi-head, windowed causal, and chunked recall.

The chunked-recall block (hcam_block) scores each stored chunk by matching a
projected query against the chunk's mean summary, then runs detailed
attention inside only the top-k chunks and adds the relevance-weighted
results back to the input. Scoring is N summary dots plus k*C detail dots
per query, against N*C for attending over every stored timestep.

Memory contents (summaries and chunk rows) are always constants here,
built from their arrays as Tensor(x.data), so training shapes how memories
are queried and used, never what was written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContractError, EmptyMemoryError, ShapeError
from .tensor import GradTape, Tensor

NEG_INF = -1e30  # additive mask value; survives float32 without overflow


@dataclass
class AttentionParams:
    """Projections for one multi-head attention: d_model in, d_model out.

    folds keeps, per fold name, the last product built from these weights
    alone while none of them was live on the tape (see _fold). It holds one
    entry per fold and is rebuilt on any change to a weight's bits, so an
    in-place write to p.data can never be served a stale fold.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    folds: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass
class HcamParams:
    """Chunked-recall block: its own input norm, relevance projection, MHA."""

    ln_gain: Tensor
    ln_bias: Tensor
    w_rel: Tensor  # query projection matched against chunk summaries
    mha: AttentionParams


class ScoreCounter:
    """Counts attention score computations as (query, key) pairs.

    Heads share one count per pair: the cost model tracks which timesteps
    are scored at all, not the width of the projection doing it.
    """

    def __init__(self):
        self.scores = 0

    def add(self, n: int):
        self.scores += int(n)


def sinusoidal_table(n_positions: int, d_model: int, dtype=np.float64) -> np.ndarray:
    """Fixed sin/cos position codes, one row per position."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(d_model, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table.astype(dtype)


def scaled_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape=None, dtype=np.float64) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape or (fan_in, fan_out)).astype(dtype)


def _split_heads(tape: GradTape, x: Tensor, n_heads: int) -> Tensor:
    """(..., q, d) -> (..., h, q, d/h)"""
    *lead, q, d = x.shape
    dh = d // n_heads
    y = tape.reshape(x, (*lead, q, n_heads, dh))
    nlead = len(lead)
    perm = tuple(range(nlead)) + (nlead + 1, nlead, nlead + 2)
    return tape.transpose(y, perm)


def _merge_heads(tape: GradTape, x: Tensor) -> Tensor:
    """(..., h, q, dh) -> (..., q, h*dh)"""
    *lead, h, q, dh = x.shape
    nlead = len(lead)
    perm = tuple(range(nlead)) + (nlead + 1, nlead, nlead + 2)
    y = tape.transpose(x, perm)
    return tape.reshape(y, (*lead, q, h * dh))


def _attend(
    tape: GradTape,
    qh: Tensor,
    kh: Tensor,
    vh: Tensor,
    mask: np.ndarray | None = None,
    key_pos: tuple[Tensor, tuple] | None = None,
    topk: int | None = None,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Softmax attention on split heads.

    qh (..., h, q, dh) against kh/vh (..., h, s, dh); leading dims
    broadcast. key_pos = (ph, (n, runs)) adds the score bias qh . ph[p],
    for p < n, to the key the runs place position p at in each query's row
    (see GradTape.add_placed), where ph (h, n_pos, dh) is the position
    table projected through the key weights; other keys get no bias. The
    counter gets one count per (query, key) pair scored, over all dims
    left of the head axis.
    """
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = tape.scale(tape.matmul(qh, tape.swap_last2(kh)), scale)
    if counter is not None:
        sh = scores.shape  # (..., h, q, s); heads share one count per pair
        counter.add(math.prod(sh[:-3]) * sh[-2] * sh[-1])

    if key_pos is not None:
        ph, (n, runs) = key_pos
        qp = tape.scale(tape.matmul(qh, tape.swap_last2(ph)), scale)
        scores = tape.add_placed(scores, qp, n, runs)

    if mask is not None:
        scores = tape.add(scores, Tensor(mask.astype(qh.dtype)))

    if topk is not None:
        sel = top_k_select(scores.data, topk)
        cut = np.full(scores.shape, NEG_INF, dtype=scores.dtype)
        np.put_along_axis(cut, sel, 0.0, axis=-1)
        scores = tape.add(scores, Tensor(cut))

    return tape.matmul(tape.softmax(scores, axis=-1), vh)


def _fold(tape: GradTape, params: AttentionParams, name: str,
          weights: tuple, inputs: tuple, build, tables: tuple = ()):
    """build(*weights): a product of weights, tables and inputs alone.

    If any weight is live on the tape, it is built on the tape, so backward
    reaches the weights. Otherwise the result is a constant, kept in
    params.folds[name] with the inputs and a copy of the bits of every
    weight and table, and reused while the inputs are equal and every
    weight and table has its kept bits; a miss replaces the entry. A bit
    compare sees every in-place write to a weight, by Adam.step, a
    finite-difference check or any caller, and the reused value is bitwise
    the value a rebuild would give.
    """
    if any(tape._live(w) for w in weights):
        return build(*weights)
    arrays = [w.data for w in weights] + list(tables)
    hit = params.folds.get(name)
    # bytearray == array is one memcmp over the array's own memory: nothing
    # is copied, -0.0 differs from 0.0, and a NaN matches only its own bits
    if (hit is not None and hit[0] == inputs and len(hit[1]) == len(arrays)
            and all(a.shape == shape and a.dtype == dtype
                    and a.flags.c_contiguous and raw == a
                    for (shape, dtype, raw), a in zip(hit[1], arrays))):
        return hit[2]
    value = build(*weights)
    for t in value if isinstance(value, tuple) else (value,):
        if t is not None:
            t.data.flags.writeable = False  # shared by later calls
    kept = [(a.shape, a.dtype, bytearray(a)) for a in arrays]
    params.folds[name] = (inputs, kept, value)
    return value


def _position_heads(tape: GradTape, table: np.ndarray, params: AttentionParams,
                    n_heads: int) -> Tensor:
    """Position table rows through the key projection: (h, n_pos, dh)."""
    table = np.asarray(table)
    return _fold(tape, params, "position", (params.wk,), (n_heads,),
                 lambda wk: _split_heads(tape, tape.matmul(Tensor(table), wk),
                                         n_heads), tables=(table,))


def multi_head_attention(
    tape: GradTape,
    queries: Tensor,
    keys_values: Tensor,
    params: AttentionParams,
    n_heads: int,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Plain scaled dot-product attention with n_heads heads: every query
    row attends to every key row, with no mask and no position codes.

    queries (..., q, d); keys_values (..., s, d); leading dims broadcast.
    The counter gets one count per (query, key) pair.
    """
    d = queries.shape[-1]
    if d % n_heads != 0:
        raise ShapeError(f"d_model {d} not divisible by n_heads {n_heads}")
    if keys_values.shape[-2] == 0:
        raise ContractError("attention over an empty key/value sequence")

    qh = _split_heads(tape, tape.matmul(queries, params.wq), n_heads)
    kh = _split_heads(tape, tape.matmul(keys_values, params.wk), n_heads)
    vh = _split_heads(tape, tape.matmul(keys_values, params.wv), n_heads)
    out = _attend(tape, qh, kh, vh, counter=counter)
    return tape.matmul(_merge_heads(tape, out), params.wo)


# Blocked scoring pays for its extra tape ops only once the dense T x S
# score matrix is several reaches wide. At reach 16, batch 32, d_model 64
# (float32, one BLAS thread, 2-CPU VM) a blocked forward + backward took
# 1.25x the dense time at T = 49 and 0.75x at T = 64, so inputs shorter
# than this many reaches of queries are scored as one dense block.
MIN_WINDOWS_FOR_BLOCKS = 4


@lru_cache(maxsize=64)
def _local_bands(t_len: int, n_carry: int, window: int, reach: int):
    """local_attention's geometry for one input size: (n_blocks, k0, left,
    mask, placement), with n_blocks 0 for a dense call. With reach > window
    the keys come twice, in two bands: lags window .. reach - 1 first,
    then lags 0 .. window - 1.

    A query row sees keys max(0, t - reach + 1) .. t, so position code p
    sits at the key column of code 0 plus p, in each band. That column is
    r + c for row r of a block (dense: of the input), except in the first
    block's early rows, whose span is cut at key 0: there it is one fixed
    column. placement = (n, runs) places codes 0 .. n - 1 by those runs
    of rows (see GradTape.add_placed), per band; n is the most codes every
    row has room for, and every code a row can see is below it. Cached,
    because a stream rebuilds the same T=1 bands every step; the arrays
    are read-only.
    """
    s_total = t_len + n_carry
    n_blocks = k0 = left = 0
    if t_len >= MIN_WINDOWS_FOR_BLOCKS * reach:
        # Drop carried rows no query can reach, then pad so that query q
        # sits at row reach + q and the rows total (n_blocks + 1) * reach:
        # query block b then reaches only rows [b * reach, (b + 2) * reach).
        n_blocks = -(-t_len // reach)
        k0 = max(0, n_carry - reach + 1)
        left = reach - (n_carry - k0)
        b = np.arange(n_blocks)[:, None, None] * reach
        gq = n_carry + b + np.arange(reach)[:, None]  # global query index
        g = k0 - left + b + np.arange(2 * reach)  # global key; < k0 is padding
    else:
        gq = (np.arange(t_len) + n_carry)[:, None]
        g = np.arange(s_total)
    start = np.maximum(0, gq - reach + 1)
    seen = (g >= start) & (g <= gq)
    near = seen & (g > gq - window)
    mask = np.where(near, 0.0, NEG_INF)
    if reach > window:
        mask = np.concatenate([np.where(seen & ~near, 0.0, NEG_INF), mask],
                              axis=-1)
    mask.flags.writeable = False

    band, rows = g.shape[-1], gq.shape[-2]
    off = (start - g[..., :1]).reshape(-1, rows)  # column of code 0
    n = min(reach, band - int(off.max()))
    c = int(off[-1, -1]) - (rows - 1)
    early = int(np.count_nonzero(off[0] != np.arange(rows) + c))

    def ix(blocks, r0, r1):  # blocked scores are (..., block, h, row, key)
        return (blocks, slice(None), slice(r0, r1)) if n_blocks else (
            slice(r0, r1),)

    runs = []
    for shift in range(0, 2 * band if reach > window else band, band):
        if early:
            runs.append((ix(slice(0, 1), 0, early), int(off[0, 0]) + shift, 0))
            if n_blocks > 1:
                runs.append((ix(slice(1, None), 0, early), c + shift, 1))
        if early < rows:
            runs.append((ix(slice(None), early, rows), early + c + shift, 1))
    return n_blocks, k0, left, mask, (n, tuple(runs))


def local_attention(
    tape: GradTape,
    seq: Tensor,
    window: int,
    params: AttentionParams,
    n_heads: int,
    pos_table: np.ndarray | None = None,
    n_carry: int = 0,
    counter: ScoreCounter | None = None,
    xl_extra: int = 0,
    topk: int | None = None,
) -> Tensor:
    """Causal attention over the last reach = window + xl_extra positions.

    seq is (..., S, d) where the first n_carry rows are carried-in context
    (attendable, but not queried); outputs cover the last T = S - n_carry
    rows. Position t may attend to positions max(0, t - reach + 1) .. t,
    and key codes count from the start of that span. Keys more than
    window - 1 steps back come from a detached copy of seq: they pass
    gradient to the weights, none to seq. topk keeps each head's k highest
    scores per query; None keeps all.

    Inputs shorter than MIN_WINDOWS_FOR_BLOCKS reaches are scored as one
    dense block against all S keys, 2S with xl_extra. Longer ones are
    scored in blocks of `reach` queries, each against the 2 * reach keys
    (4 * reach with xl_extra) any of its queries can reach. One tail
    serves both: it projects, attends, merges the heads and applies wo.
    The counter counts the pairs scored either way.
    """
    if window < 1:
        raise ContractError(f"window must be >= 1, got {window}")
    s_total = seq.shape[-2]
    t_len = s_total - n_carry
    if t_len < 1:
        raise ContractError(f"local_attention needs a query row: {s_total} "
                            f"rows, {n_carry} of them carried")
    d = seq.shape[-1]
    if d % n_heads != 0:
        raise ShapeError(f"d_model {d} not divisible by n_heads {n_heads}")
    reach = window + xl_extra
    n_blocks, k0, left, mask, placement = _local_bands(t_len, n_carry,
                                                       window, reach)
    lead = seq.shape[:-2]

    if n_blocks:
        right = n_blocks * reach - t_len
        lpad, rpad = (Tensor(np.zeros(lead + (n, d), seq.dtype))
                      for n in (left, right))
        body = tape.slice_ax(seq, -2, k0, s_total) if k0 else seq
        keys = tape.concat([lpad, body, rpad], axis=-2)
        queries = tape.slice_ax(keys, -2, reach, (n_blocks + 1) * reach)
        mask = mask[:, None]

        def pairs(src, w):  # each block's 2 * reach key rows, through w
            rows = tape.reshape(tape.matmul(src, w),
                                lead + (n_blocks + 1, reach, d))
            return [tape.slice_ax(rows, -3, 0, n_blocks),
                    tape.slice_ax(rows, -3, 1, n_blocks + 1)]

        def project(w):  # (..., n_blocks, 2 * reach, d), 4 * reach with XL
            parts = pairs(keys, w)
            if xl_extra:
                parts = pairs(Tensor(keys.data), w) + parts
            return tape.concat(parts, axis=-2)
    else:
        queries = tape.slice_ax(seq, -2, n_carry, s_total) if n_carry else seq
        keys = seq  # with XL, the detached copy first, as mask expects
        if xl_extra:
            keys = tape.concat([Tensor(seq.data), seq], axis=-2)

        def project(w):
            return tape.matmul(keys, w)

    q = tape.matmul(queries, params.wq)
    if n_blocks:
        q = tape.reshape(q, lead + (n_blocks, reach, d))
    qh = _split_heads(tape, q, n_heads)
    # the position fold goes on the tape before the keys: the tape's order
    # sets the order of wk's gradient terms, three of them with XL blocks
    key_pos = None
    if pos_table is not None:
        key_pos = (_position_heads(tape, pos_table, params, n_heads),
                   placement)
    out = _attend(tape, qh, _split_heads(tape, project(params.wk), n_heads),
                  _split_heads(tape, project(params.wv), n_heads), mask=mask,
                  key_pos=key_pos, topk=topk, counter=counter)
    out = _merge_heads(tape, out)
    if n_blocks:
        out = tape.reshape(out, lead + (n_blocks * reach, d))
        if right:
            out = tape.slice_ax(out, -2, 0, t_len)
    return tape.matmul(out, params.wo)


def chunk_relevance(
    tape: GradTape,
    queries: Tensor,
    summaries: Tensor,
    w_rel: Tensor,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Softmax over chunks of (projected query . chunk summary) scores.

    queries (..., q, d); summaries (..., N, d), treated as constants.
    Rows of the result sum to 1 over the N chunks.
    """
    n = summaries.shape[-2]
    if n == 0:
        raise EmptyMemoryError("no complete chunks to score")
    qs = tape.matmul(queries, w_rel)
    s = Tensor(summaries.data)
    scores = tape.matmul(qs, tape.swap_last2(s))
    if counter is not None:
        sh = scores.shape
        counter.add(math.prod(sh[:-2]) * sh[-2] * sh[-1])
    return tape.softmax(scores, axis=-1)


# float dtype -> (signed integer of its width, that integer's minimum)
_RANK_INT = {np.dtype(f): (np.dtype(i), int(np.iinfo(i).min))
             for f, i in (("f4", "i4"), ("f8", "i8"))}


def top_k_select(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries along the last axis, ascending.

    k is clamped to the axis length. Ties break toward the smallest index,
    -0.0 ties with 0.0, and NaN ranks below -inf, NaNs again by index:
    exactly the first k of a stable descending sort.

    Each row takes k rounds of a first-maximum scan over integer keys in
    the floats' order, each of which marks its pick with a key below every
    entry: O(k * N) for N entries, and no sort. NaN keys sit just above the
    mark. Input that is not float32 or float64 is ranked as float64.
    """
    if k < 1:
        raise ContractError(f"top_k must be >= 1, got {k}")
    scores = np.asarray(scores)
    if scores.dtype not in _RANK_INT:
        scores = scores.astype(np.float64)
    n = scores.shape[-1]
    kk = min(k, n)
    if kk == n:
        return np.broadcast_to(np.arange(n), scores.shape).copy()
    flat = scores.reshape(-1, n)
    int_type, mark = _RANK_INT[flat.dtype]
    bits = flat.view(int_type)  # sign and magnitude -> two's complement
    key = np.where(bits < 0, mark - bits, bits)  # -0.0 and 0.0 map to 0
    key[flat != flat] = mark + 1
    row_start = np.arange(0, key.size, n)
    flat_key = key.reshape(-1)
    for _ in range(kk):  # argmax returns the first maximum
        flat_key[key.argmax(axis=-1) + row_start] = mark
    picked = np.flatnonzero(flat_key == mark) % n
    return picked.reshape(scores.shape[:-1] + (kk,))


def _recall_folds(tape: GradTape, m: AttentionParams, dtype, n_heads: int,
                  kk: int, pos: np.ndarray | None):
    """hcam_block's folds of its MHA weights, reused per _fold's rule:
    (wq_h wk_h^T / sqrt(dh) for all heads, (d, h*d); wv_h wo_h stacked,
    (h*d, d); kk copies of the position rows through every head's wv_h wo_h,
    (h*kk*C, d), or None without position rows).

    They are made in x's precision, the one they met the rows in when rows
    were projected: pai feeds a float32 model float64 rows, and folds
    rounded to float32 kept criterion 6's direct recall below 0.95.
    """
    def build(wq, wk, wv, wo):
        d = wq.shape[0]
        h, dh = n_heads, d // n_heads
        zero = Tensor(np.zeros((), dtype=dtype))
        wq, wk, wv, wo = (w if w.dtype == dtype else tape.add(zero, w)
                          for w in (wq, wk, wv, wo))
        wq = tape.transpose(tape.reshape(wq, (d, h, dh)), (1, 0, 2))
        wk = tape.transpose(tape.reshape(wk, (d, h, dh)), (1, 2, 0))
        wqk = tape.reshape(tape.transpose(tape.matmul(wq, wk), (1, 0, 2)),
                           (d, h * d))
        wv = tape.transpose(tape.reshape(wv, (d, h, dh)), (1, 0, 2))
        wvo = tape.matmul(wv, tape.reshape(wo, (h, dh, d)))  # (h, d, d)
        pvo = None if pos is None else tape.reshape(tape.matmul(
            Tensor(np.concatenate([pos] * kk)), wvo), (h * kk * len(pos), d))
        return (tape.scale(wqk, 1.0 / math.sqrt(dh)),
                tape.reshape(wvo, (h * d, d)), pvo)

    return _fold(tape, m, "recall", (m.wq, m.wk, m.wv, m.wo),
                 (dtype, n_heads, kk), build,
                 tables=() if pos is None else (pos,))


# hcam_block reads its queries' chunk rows one block of query rows at a
# time, each block's gathered rows at most this many bytes (one query row
# at least). At ballet-long's config (float32, one BLAS thread, a 2-CPU VM
# with 2 MiB of L2 a core), budgets of 1, 2, 4 and 8 MiB took a 64-episode
# evaluate's tracemalloc peak from 78.6 MiB in one block to 39.0, 39.7,
# 41.2 and 44.6 MiB, and its time to 0.94, 0.93, 0.91 and 0.92x; 4 MiB was
# the fastest at both its evaluate and its training step in three runs.
RECALL_BLOCK_BYTES = 4 << 20


def _chunk_rows(tape: GradTape, chunks: np.ndarray,
                ids: np.ndarray) -> np.ndarray:
    """The rows of the chunks ids (..., q, k) names in chunks (..., N, C, d),
    each query row's k chunks end to end: (..., q, k * C, d). chunks is a
    constant, so the take_rows records nothing."""
    *lead, q, k = ids.shape
    rows = tape.take_rows(Tensor(chunks), ids.reshape(*lead, q * k))
    return rows.data.reshape(*lead, q, k * chunks.shape[-2], chunks.shape[-1])


def _read_rows(tape: GradTape, qt: Tensor, weights: Tensor,
               chunks: np.ndarray, ids: np.ndarray, pos: np.ndarray | None):
    """hcam_block's detail read of one block of m query rows: the rows of
    the chunks ids (..., m, kk) names, scored against the key-folded query
    qt (..., m, h, d), with the position term when pos is given, softmaxed
    per chunk, weighted by the relevance weights (..., m, kk) and summed.
    Returns (read (..., m, h * d), the weighted softmax (..., m, h, kk * C)).

    The gathered rows go when it returns: backward gathers them again from
    chunks and ids on the first of the two matmuls that read them, and that
    copy goes with the second."""
    *lead, m, h, d = qt.shape
    kk, c = ids.shape[-1], chunks.shape[-2]
    rows = _chunk_rows(tape, chunks, ids)
    again = []  # backward's rows: gathered by the first read, gone after both

    def rows_again():
        if not again:
            again.append(_chunk_rows(GradTape(recording=False), chunks, ids))
        return again[0]

    scores = tape.matmul(qt, Tensor(rows.swapaxes(-1, -2)),
                         b_again=lambda: rows_again().swapaxes(-1, -2))
    scores = tape.reshape(scores, (*lead, m, h, kk, c))
    if pos is not None:
        scores = tape.add(scores, tape.reshape(
            tape.matmul(qt, Tensor(pos.T)), (*lead, m, h, 1, c)))
    att = tape.multiply(tape.softmax(scores, axis=-1),
                        tape.reshape(weights, (*lead, m, 1, kk, 1)))
    att = tape.reshape(att, (*lead, m, h, kk * c))
    read = tape.matmul(att, Tensor(rows), b_again=rows_again)
    return tape.reshape(read, (*lead, m, h * d)), att


def hcam_block(
    tape: GradTape,
    x: Tensor,
    summaries,
    chunks,
    params: HcamParams,
    n_heads: int,
    top_k: int,
    pos_table: np.ndarray | None = None,
    counter: ScoreCounter | None = None,
    visible: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Hierarchical recall: score summaries, attend inside top-k chunks.

    x (..., q, d) is the block input; summaries (..., N, d) and chunks
    (..., N, C, d) come from memory and are gradient-isolated. Each query
    row picks its own top-k chunks from the relevance softmax; the selected
    chunks' detail-attention outputs, weighted by their unrenormalized
    relevance, are summed and added to x. A row that sees no chunk passes
    through unchanged. pos_table rows 0..C-1 are added to each chunk's
    rows on the key and value side.

    visible = (lo, hi), two length-q integer arrays, lets query row t see
    only chunks [lo[t], hi[t]); None lets every row see all N. Each run of
    rows with equal bounds is scored and selects on its own. Then the
    detail read runs in input space, one block of query rows at a time,
    each block's gathered rows at most RECALL_BLOCK_BYTES: it gathers each
    row's selected chunk rows as constants, scores them against the query
    folded through wq_h wk_h^T, softmaxes per chunk, weights by relevance
    and sums the rows; only that sum, joined over the blocks, passes
    through wv_h and wo. Position codes enter as C-row terms, so no stored
    row is ever projected. A block's rows are dropped after its read and
    gathered again in backward from chunks and the selected ids, once:
    chunks must not change before backward. Blocks change no bits, since
    every (batch, query) item is read alone, and a call that fits in one
    block records no slice or concat for it.

    The products of the MHA weights alone (wq_h wk_h^T, wv_h wo and the
    position rows through it) are built once per weight value: on a tape
    where any of those weights is live they are recorded every call;
    otherwise the last ones built are reused while every weight's bits and
    x's dtype, n_heads, the slot count and the position rows match.
    """
    if isinstance(summaries, Tensor):
        summaries = summaries.data
    if isinstance(chunks, Tensor):
        chunks = chunks.data
    chunks = np.asarray(chunks)
    *lead, q, d = x.shape
    n, c = summaries.shape[-2], chunks.shape[-2]
    if pos_table is not None and pos_table.shape[0] < c:
        raise ShapeError(f"position table has {pos_table.shape[0]} rows, "
                         f"chunks have {c}")
    if visible is None:
        bounds = [(0, n)] * q
    else:
        lo, hi = (np.asarray(v) for v in visible)
        if lo.shape != (q,) or hi.shape != (q,):
            raise ShapeError(f"visible bounds need shape ({q},), got "
                             f"{lo.shape} and {hi.shape}")
        bounds = list(zip(lo.tolist(), hi.tolist()))
        if any(not 0 <= a <= b <= n for a, b in bounds):
            raise ContractError(f"visible bounds must satisfy "
                                f"0 <= lo <= hi <= {n}")

    # runs of rows with equal bounds: (first row, end row, lo, hi)
    starts = [t for t in range(q) if t == 0 or bounds[t] != bounds[t - 1]]
    runs = [(ts, te, *bounds[ts]) for ts, te in zip(starts, starts[1:] + [q])]
    live = [(ts, te) for ts, te, a, b in runs if a < b]
    if not live:
        return x
    # rows before the first and after the last run that sees a chunk pass
    # through unchanged; the runs in between are renumbered from r0
    r0, r1 = live[0][0], live[-1][1]
    runs = [(ts - r0, te - r0, a, b) for ts, te, a, b in runs if r0 <= ts < r1]
    nq, q = q, r1 - r0
    body = x if q == nq else tape.slice_ax(x, -2, r0, r1)
    kk = max(1, min(top_k, max(b - a for *_t, a, b in runs)))

    # phase 1: relevance and top-k for every run; ids are global chunk ids
    normed = tape.layer_norm(body, params.ln_gain, params.ln_bias)
    ids = np.zeros((*lead, q, kk), dtype=np.int64)  # empty slots: chunk 0
    weights = []
    for ts, te, a, b in runs:
        pad = np.zeros((*lead, te - ts, kk), dtype=x.dtype)
        if a == b:
            weights.append(Tensor(pad))
            continue
        seg = normed if te - ts == q else tape.slice_ax(normed, -2, ts, te)
        rel = chunk_relevance(tape, seg, Tensor(summaries[..., a:b, :]),
                              params.w_rel, counter)
        sel = top_k_select(rel.data, top_k)
        k = sel.shape[-1]
        ids[..., ts:te, :k] = sel + a
        w = tape.gather_last(rel, sel)  # relevance of the selected chunks
        if k < kk:  # and weight 0 for the empty slots
            w = tape.concat([w, Tensor(pad[..., k:])], axis=-1)
        weights.append(w)
        if counter is not None:
            counter.add(math.prod(lead) * (te - ts) * k * c)
    weights = weights[0] if len(weights) == 1 else tape.concat(weights, axis=-2)

    # phase 2: the detail read in input space, one block of query rows at
    # a time; a call that fits in one block records no slice or concat
    h = n_heads
    pos = None
    if pos_table is not None:
        pos = pos_table[:c].astype(x.dtype, copy=False)
    wqk, wvo, pvo = _recall_folds(tape, params.mha, x.dtype, h, kk, pos)
    qt = tape.matmul(normed, wqk)
    qt = tape.reshape(qt, (*lead, q, h, d))  # key-folded query per head
    row_bytes = math.prod(lead) * kk * c * d * x.dtype.itemsize
    step = max(1, RECALL_BLOCK_BYTES // row_bytes)  # query rows a block
    parts = []
    for s in range(0, q, step):
        e = min(q, s + step)
        whole = e - s == q
        parts.append(_read_rows(
            tape, qt if whole else tape.slice_ax(qt, -3, s, e),
            weights if whole else tape.slice_ax(weights, -2, s, e),
            chunks, ids[..., s:e, :], pos))
    del qt  # the tape keeps no folded query: let it go before concat
    read, att = parts[0] if len(parts) == 1 else (
        tape.concat([r for r, _a in parts], axis=-2),
        None if pos is None else tape.concat([a for _r, a in parts], axis=-3))
    del parts  # the blocks' reads, now copied into read
    out = tape.matmul(read, wvo)
    if pos is not None:  # sum_j att_j . (pos wv_h wo_h), for all heads
        out = tape.add(out, tape.matmul(
            tape.reshape(att, (*lead, q, h * kk * c)), pvo))
    out = tape.add(body, out)
    if body is x:
        return out
    parts = [tape.slice_ax(x, -2, 0, r0), out, tape.slice_ax(x, -2, r1, nq)]
    return tape.concat([p for p in parts if p.shape[-2]], axis=-2)
