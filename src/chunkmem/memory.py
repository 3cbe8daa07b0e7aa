"""Append-only chunked episodic store.

Rows arrive in time order and accumulate in a write buffer; every time the
buffer fills a chunk of C rows, the chunk is frozen together with its
mean-pooled summary row. Only frozen chunks are readable: the partial
buffer is invisible to queries. An optional overlap re-seeds the next
buffer with the tail of the chunk just frozen, and a capacity cap evicts
the oldest chunk first.

Contents are kept as arrays in the layout recall reads, with any leading
batch axes of the written rows first: summaries (..., N, d), chunks
(..., N, C, d) and the partial buffer (..., b, d). write takes a whole
(..., T, d) sequence, freezes every chunk it completes with one gather and
returns the window of chunks each step may read, so eviction is decided
here alone.

The stored chunks sit in a window [start, end) of arrays with free slots
after it. A freeze writes into the free slots and an eviction moves start,
so neither copies the chunks already stored; only when the slots run out
are the live chunks moved into fresh arrays with as many free slots as
live chunks. A freeze then costs O(C*d) amortised, however many chunks
are stored.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor


class ChunkMemory:
    """Fixed-length chunks of written rows plus their mean summaries."""

    def __init__(self, chunk_size: int, overlap: int = 0, capacity: int = 1024):
        if chunk_size < 1:
            raise ContractError(f"chunk_size must be >= 1, got {chunk_size}")
        if not 0 <= overlap < chunk_size:
            raise ContractError(
                f"overlap must be in [0, chunk_size), got {overlap} for C={chunk_size}"
            )
        if capacity < 1:
            raise ContractError(f"capacity must be >= 1, got {capacity}")
        self.chunk_size = chunk_size
        self.overlap = overlap
        self.capacity = capacity
        self.reset()

    @property
    def n_chunks(self) -> int:
        return self._end - self._start

    @property
    def summaries(self) -> np.ndarray:
        """Stored summaries (..., N, d), oldest first; a view of the store."""
        return self._summaries[..., self._start:self._end, :]

    @property
    def chunks(self) -> np.ndarray:
        """Stored chunks (..., N, C, d), oldest first; a view of the store."""
        return self._chunks[..., self._start:self._end, :, :]

    def reset(self) -> None:
        """Forget all contents; configuration survives. Idempotent."""
        self._row_shape: tuple | None = None
        self._empty((), 0, np.float64)

    def _empty(self, lead: tuple, d: int, dtype) -> None:
        self._summaries = np.zeros(lead + (0, d), dtype)
        self._chunks = np.zeros(lead + (0, self.chunk_size, d), dtype)
        self._start = self._end = 0
        self.buffer = np.zeros(lead + (0, d), dtype)

    def write_step(self, row) -> None:
        """Append one step's row (..., d): write with T = 1."""
        row = row.data if isinstance(row, Tensor) else np.asarray(row)
        self.write(row[..., None, :])

    def write(self, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
        """Append rows (..., T, d) in time order; freeze the chunks they fill.

        Returns (summaries, chunks, lo, hi): the stored chunks followed by
        the ones this call froze, before eviction, and for each of the T
        steps the window [lo[t], hi[t]) of them that step may read once its
        row is written. A step whose write completes a chunk already sees
        it, and a chunk that a later step of the same call evicts stays
        visible to the steps before that one; hi[t] - lo[t] never exceeds
        capacity. The returned arrays share memory with the store, and
        later writes never change them; read() gives copies.
        """
        rows = rows.data if isinstance(rows, Tensor) else np.asarray(rows)
        # every array stored below is a fresh copy: memory never joins a tape
        if rows.ndim < 2:
            raise ShapeError(f"write needs (..., T, d) rows, got {rows.shape}")
        row_shape = rows.shape[:-2] + rows.shape[-1:]
        if self._row_shape is None:
            self._row_shape = row_shape
            self._empty(rows.shape[:-2], rows.shape[-1], rows.dtype)
        elif row_shape != self._row_shape:
            raise ShapeError(
                f"memory rows have shape {self._row_shape}, got {row_shape}"
            )
        c = self.chunk_size
        stride = c - self.overlap
        b0 = self.buffer.shape[-2]
        combined = np.concatenate([self.buffer, rows], axis=-2)
        # chunk j of this call covers combined[j*stride : j*stride + c]
        filled = np.arange(b0 + 1, combined.shape[-2] + 1)
        frozen = np.maximum(0, (filled - c) // stride + 1)
        hi = self.n_chunks + frozen
        n_new = int(frozen[-1]) if len(frozen) else 0
        start, end = self._start, self._end
        if n_new:
            idx = (np.arange(n_new) * stride)[:, None] + np.arange(c)
            new_chunks = combined[..., idx, :]
            if end + n_new > self._chunks.shape[-3]:
                # out of free slots: fresh arrays, never an in-place move,
                # so arrays an earlier write returned stay as they were
                live = end - start
                lead, d = rows.shape[:-2], rows.shape[-1]
                summaries = np.empty(lead + (2 * live + n_new, d),
                                     self._summaries.dtype)
                summaries[..., :live, :] = self.summaries
                chunks = np.empty(lead + (2 * live + n_new, c, d),
                                  self._chunks.dtype)
                chunks[..., :live, :, :] = self.chunks
                self._summaries, self._chunks = summaries, chunks
                start, end = 0, live
            # np.mean's sum and divide, bitwise, without its call overhead
            self._summaries[..., end:end + n_new, :] = (
                np.add.reduce(new_chunks, axis=-2) / c)
            self._chunks[..., end:end + n_new, :, :] = new_chunks
            end += n_new
        summaries = self._summaries[..., start:end, :]
        chunks = self._chunks[..., start:end, :, :]
        self._start, self._end = max(start, end - self.capacity), end
        self.buffer = combined[..., n_new * stride:, :].copy()
        return summaries, chunks, np.maximum(0, hi - self.capacity), hi

    def read(self) -> tuple[np.ndarray, np.ndarray]:
        """(summaries (..., N, d), chunks (..., N, C, d)), oldest chunk first.

        Returned arrays are snapshots: later writes never mutate them and
        callers may scribble on them freely.
        """
        return self.summaries.copy(), self.chunks.copy()
