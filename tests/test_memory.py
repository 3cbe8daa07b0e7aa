"""Chunk store semantics: freezing, overlap, eviction, snapshots."""

import numpy as np
import pytest

from chunkmem.errors import ContractError, ShapeError
from chunkmem.memory import ChunkMemory
from chunkmem.rng import make_rng
from chunkmem.tensor import Tensor


def test_full_chunks_and_empty_buffer():
    m = ChunkMemory(chunk_size=16)
    for i in range(64):
        m.write_step(np.full(3, float(i)))
    assert m.n_chunks == 4
    assert m.buffer.shape[-2] == 0
    s, c = m.read()
    assert s.shape == (4, 3) and c.shape == (4, 16, 3)


def test_partial_buffer_is_not_queryable():
    m = ChunkMemory(chunk_size=16)
    for i in range(20):
        m.write_step(np.full(2, float(i)))
    assert m.n_chunks == 1
    assert m.buffer.shape[-2] == 4
    s, c = m.read()
    assert c.shape == (1, 16, 2)
    assert np.array_equal(c[0, :, 0], np.arange(16.0))


def test_overlap_trace_from_contract():
    # C=4, overlap=1: writes 1..7 give chunk [1,2,3,4] then buffer [4,5,6,7]
    # which freezes as the second chunk on the 7th write.
    m = ChunkMemory(chunk_size=4, overlap=1)
    for v in range(1, 8):
        m.write_step(np.array([float(v)]))
    assert m.n_chunks == 2
    _, c = m.read()
    assert np.array_equal(c[0, :, 0], [1, 2, 3, 4])
    assert np.array_equal(c[1, :, 0], [4, 5, 6, 7])
    assert np.array_equal(m.buffer[:, 0], [7.0])


def test_summaries_are_chunk_means():
    rng = make_rng(0)
    m = ChunkMemory(chunk_size=5)
    rows = rng.normal(size=(23, 4))
    for r in rows:
        m.write_step(r)
    s, c = m.read()
    assert np.array_equal(s, c.mean(axis=1))
    # bitwise in both precisions too when batched, frozen by write and
    # write_step, with overlap and eviction, on rows spanning 6 decades
    scale = 10.0 ** rng.integers(-3, 4, size=(2, 45, 1))
    for dtype in (np.float32, np.float64):
        rows = (rng.normal(size=(2, 45, 16)) * scale).astype(dtype)
        m = ChunkMemory(chunk_size=7, overlap=2, capacity=4)
        m.write(rows[:, :30])
        for t in range(30, 45):
            m.write_step(rows[:, t])
        s, c = m.read()
        assert m.n_chunks == 4
        assert s.dtype == dtype and np.array_equal(s, c.mean(axis=-2))


def test_reset_clears_and_keeps_config_idempotently():
    m = ChunkMemory(chunk_size=3, overlap=1, capacity=7)
    for i in range(10):
        m.write_step(np.array([float(i)]))
    assert m.n_chunks > 0
    m.reset()
    m.reset()
    assert m.n_chunks == 0 and m.buffer.shape[-2] == 0
    assert m.chunk_size == 3 and m.overlap == 1 and m.capacity == 7
    m.write_step(np.array([1.0]))
    assert m.buffer.shape[-2] == 1


def test_capacity_evicts_oldest():
    m = ChunkMemory(chunk_size=2, capacity=2)
    for i in range(10):
        m.write_step(np.array([float(i)]))
    assert m.n_chunks == 2
    _, c = m.read()
    assert np.array_equal(c[:, :, 0], [[6, 7], [8, 9]])


def test_width_mismatch_names_shapes():
    m = ChunkMemory(chunk_size=4)
    m.write_step(np.zeros(3))
    with pytest.raises(ShapeError) as e:
        m.write_step(np.zeros(5))
    assert "(3,)" in str(e.value) and "(5,)" in str(e.value)


def test_read_returns_snapshots():
    m = ChunkMemory(chunk_size=2)
    for i in range(4):
        m.write_step(np.array([float(i)]))
    s1, c1 = m.read()
    c1 += 100.0
    s2, c2 = m.read()
    assert np.array_equal(c2[:, :, 0], [[0, 1], [2, 3]])
    for i in range(4, 8):
        m.write_step(np.array([float(i)]))
    assert c2.shape == (2, 2, 1)  # earlier snapshot unaffected by new writes


def test_freezes_reuse_the_store_and_leave_returned_arrays_alone():
    # a full memory evicting on every freeze: stored chunks move to fresh
    # arrays only when the free slots run out, about once per capacity
    # freezes, and what an earlier write returned never changes
    m = ChunkMemory(chunk_size=2, capacity=64)
    rng = make_rng(3)
    m.write(rng.normal(size=(2, 64 * 2, 3)))
    held = [(s, c, s.copy(), c.copy())
            for s, c, _lo, _hi in [m.write(rng.normal(size=(2, 1, 3)))]]
    moves, prev = 0, m.chunks
    for i in range(1000):
        s, c, _lo, _hi = m.write(rng.normal(size=(2, 2, 3)))
        moves += not np.shares_memory(prev, m.chunks)
        prev = m.chunks
        if i % 97 == 0:
            held.append((s, c, s.copy(), c.copy()))
        assert m.n_chunks == 64
    assert moves <= 1000 // 64 + 2
    for s, c, s0, c0 in held:
        assert np.array_equal(s, s0) and np.array_equal(c, c0)


def test_written_tensor_is_detached_copy():
    m = ChunkMemory(chunk_size=1)
    t = Tensor(np.array([1.0, 2.0]))
    m.write_step(t)
    t.data[:] = 99.0
    _, c = m.read()
    assert np.array_equal(c[0, 0], [1.0, 2.0])


def test_integer_rows_are_stored_as_float64():
    steps = ChunkMemory(chunk_size=2)
    for row in ([1, 2], [2, 3]):
        steps.write_step(np.array(row))
    whole = ChunkMemory(chunk_size=2)
    summaries, chunks, _lo, _hi = whole.write([[1, 2], [2, 3]])
    for m in (steps, whole):
        s, c = m.read()
        assert s.dtype == c.dtype == np.float64
        assert np.array_equal(s, [[1.5, 2.5]])
    assert summaries.dtype == chunks.dtype == np.float64
    # float rows keep their dtype and bits
    rows = make_rng(5).normal(size=(2, 3)).astype(np.float32)
    m = ChunkMemory(chunk_size=2)
    m.write(rows)
    assert m.read()[1].dtype == np.float32
    assert m.read()[1].tobytes() == rows.tobytes()


def test_empty_read_shapes():
    m = ChunkMemory(chunk_size=4)
    s, c = m.read()
    assert s.shape[0] == 0 and c.shape[0] == 0


def test_empty_read_keeps_written_dtype():
    m = ChunkMemory(chunk_size=2)
    m.write_step(np.zeros((2, 3), dtype=np.float32))  # buffered, not frozen
    s, c = m.read()
    assert s.shape == (2, 0, 3) and c.shape == (2, 0, 2, 3)
    assert s.dtype == np.float32 and c.dtype == np.float32


def test_invalid_configs_raise():
    with pytest.raises(ContractError):
        ChunkMemory(chunk_size=0)
    with pytest.raises(ContractError):
        ChunkMemory(chunk_size=4, overlap=4)
    with pytest.raises(ContractError):
        ChunkMemory(chunk_size=4, overlap=-1)
    with pytest.raises(ContractError):
        ChunkMemory(chunk_size=4, capacity=0)


# ---- randomized trace property ----

def expected_chunks(history, chunk_size, overlap, capacity):
    """Reference model: chunk j covers writes [j*(C-o), j*(C-o)+C)."""
    stride = chunk_size - overlap
    out = []
    j = 0
    while j * stride + chunk_size <= len(history):
        out.append(np.stack(history[j * stride: j * stride + chunk_size]))
        j += 1
    return out[-capacity:] if len(out) > capacity else out


def check_read(m, history) -> None:
    """m.read() against the reference for everything written so far."""
    s, ch = m.read()
    want = expected_chunks(history, m.chunk_size, m.overlap, m.capacity)
    assert len(ch) == len(want) == len(s) == m.n_chunks
    for got_ch, want_ch in zip(ch, want):
        assert np.array_equal(got_ch, want_ch)
    if len(s):
        assert np.max(np.abs(s - ch.mean(axis=1))) < 1e-6


def check_sequence_write(m, history, rows) -> bool:
    """m.write(rows) against the reference: at every step, the window
    [lo, hi) of the returned chunks that step may read after eviction.
    True when some step's window starts past the first returned chunk."""
    c, o, cap = m.chunk_size, m.overlap, m.capacity
    start = len(history)
    history.extend(rows)
    full = expected_chunks(history, c, o, capacity=len(history) + 1)
    ends = (c - o) * np.arange(len(full)) + c  # a chunk exists once written
    n_before = int(np.sum(ends <= start))
    n_ref = np.searchsorted(ends, start + 1 + np.arange(len(rows)), "right")
    first = max(0, n_before - cap)  # the first returned chunk, in full
    s, ch, lo, hi = m.write(rows)
    assert len(s) == len(ch)
    assert np.array_equal(hi, n_ref - first)
    assert np.array_equal(lo, np.maximum(0, n_ref - cap) - first)
    for a, b, n_want in set(zip(lo.tolist(), hi.tolist(), n_ref.tolist())):
        got, want = ch[a:b], full[max(0, n_want - cap):n_want]
        assert len(got) == len(want)
        for got_ch, want_ch in zip(got, want):
            assert np.array_equal(got_ch, want_ch)
    if len(s):
        assert np.max(np.abs(s - ch.mean(axis=1))) < 1e-6
    return bool(np.any(lo > 0))


def check_random_trace(seed: int) -> bool:
    """One random op sequence checked against the reference model; True
    when a sequence write with overlap evicted chunks some step read."""
    rng = make_rng(seed)
    c = int(rng.integers(1, 7))
    o = int(rng.integers(0, c))
    cap = int(rng.integers(1, 5))
    m = ChunkMemory(chunk_size=c, overlap=o, capacity=cap)
    history: list[np.ndarray] = []
    d = int(rng.integers(1, 4))
    evicted = False
    for _ in range(int(rng.integers(5, 40))):
        op = rng.random()
        if op < 0.6:
            row = rng.normal(size=d)
            m.write_step(row)
            history.append(row)
        elif op < 0.75:
            # often starts on a partial buffer and spans several chunks
            t_len = int(rng.integers(0, 3 * c + 2))
            evicted |= check_sequence_write(m, history,
                                            rng.normal(size=(t_len, d)))
        elif op < 0.95:
            check_read(m, history)
        else:
            m.reset()
            history = []
        assert m.buffer.shape[-2] < c
        assert m.n_chunks == len(m.summaries) <= cap
    return evicted and o > 0


def test_random_traces_small():
    overlapped_evictions = sum(check_random_trace(seed) for seed in range(500))
    assert overlapped_evictions >= 100


def test_long_trace_with_thousands_of_chunks():
    # overlap and eviction over ~3000 frozen chunks, mixing single steps
    # with sequence writes that each freeze up to ~100 chunks
    rng = make_rng(1)
    m = ChunkMemory(chunk_size=5, overlap=2, capacity=40)
    history: list[np.ndarray] = []
    while len(history) < 9000:
        if rng.random() < 0.5:
            for _ in range(int(rng.integers(1, 8))):
                row = rng.normal(size=3)
                m.write_step(row)
                history.append(row)
        else:
            t_len = int(rng.integers(1, 300))
            check_sequence_write(m, history, rng.normal(size=(t_len, 3)))
        check_read(m, history)
    assert len(expected_chunks(history, 5, 2, capacity=len(history))) > 2900
