"""Append-only chunked episodic store.

Rows arrive one per step and accumulate in a write buffer; every time the
buffer fills a chunk of C rows, the chunk is frozen together with its
mean-pooled summary row. Only frozen chunks are readable: the partial
buffer is invisible to queries. An optional overlap re-seeds the next
buffer with the tail of the chunk just frozen, and a capacity cap evicts
the oldest chunk first (a guard; conforming configs never hit it).
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
        self.chunks: list[np.ndarray] = []      # each (C, ...row)
        self.summaries: list[np.ndarray] = []   # each (...row)
        self.buffer: list[np.ndarray] = []
        self.total_writes = 0
        self._row_shape: tuple | None = None

    @property
    def n_chunks(self) -> int:
        return len(self.chunks)

    def reset(self) -> None:
        """Forget all contents; configuration survives. Idempotent."""
        self.chunks = []
        self.summaries = []
        self.buffer = []
        self.total_writes = 0
        self._row_shape = None

    def write_step(self, row) -> None:
        """Append one step's row; freezes a chunk when the buffer fills."""
        if isinstance(row, Tensor):
            row = row.data
        row = np.array(row, copy=True)  # detach: memory never joins a tape
        if self._row_shape is None:
            self._row_shape = row.shape
        elif row.shape != self._row_shape:
            raise ShapeError(
                f"memory rows have shape {self._row_shape}, got {row.shape}"
            )
        self.buffer.append(row)
        self.total_writes += 1
        if len(self.buffer) == self.chunk_size:
            chunk = np.stack(self.buffer)
            self.chunks.append(chunk)
            self.summaries.append(chunk.mean(axis=0))
            if len(self.chunks) > self.capacity:
                del self.chunks[0]
                del self.summaries[0]
            if self.overlap:
                self.buffer = [r.copy() for r in self.buffer[-self.overlap:]]
            else:
                self.buffer = []

    def read(self) -> tuple[np.ndarray, np.ndarray]:
        """(summaries (N, ...), chunks (N, C, ...)), oldest chunk first.

        Returned arrays are snapshots: later writes never mutate them and
        callers may scribble on them freely.
        """
        if not self.chunks:  # every row written so far is in the buffer
            shape = self._row_shape or (0,)
            dtype = self.buffer[0].dtype if self.buffer else np.float64
            return (np.zeros((0,) + shape, dtype),
                    np.zeros((0, self.chunk_size) + shape, dtype))
        return (np.stack(self.summaries), np.stack(self.chunks))
