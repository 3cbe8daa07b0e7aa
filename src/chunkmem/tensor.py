"""Reverse-mode autodiff on flat numpy arrays.

A GradTape records every differentiable op as it executes, so the node list
is already topologically ordered; backward() walks it once in reverse.
Tensors are plain values (an ndarray plus an optional link to the tape node
that produced them) and are cheap to copy between threads, but a single tape
must only ever be used from one thread.

64-bit floats are the default so finite-difference checks have headroom;
a float32 array is kept as it is, so training code may run in 32 bits.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, ShapeError


_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


class Tensor:
    """An ndarray with an optional link to the tape node that made it."""

    __slots__ = ("data", "_tape", "_node")

    def __init__(self, data):
        if (type(data) is np.ndarray
                and (data.dtype is _F32 or data.dtype is _F64)):
            a = data  # what np.asarray would return, without its cost
        else:
            a = np.asarray(data)
            if a.dtype not in (np.float32, np.float64):
                a = a.astype(np.float64)
        self.data = a
        self._tape = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape of the operand it belongs to."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _mean_last(x: np.ndarray) -> np.ndarray:
    """x.mean(axis=-1, keepdims=True) for a float x, bitwise, without the
    per-call cost of np.mean: NumPy's mean is add.reduce, then a divide by
    the count."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


_FREED = object()  # marks a non-leaf gradient backward() already consumed


class _SpentNodes(list):
    """A spent tape's node list: it holds nothing and takes no new node."""

    def append(self, node):
        raise ContractError("this tape already ran backward; record on a new "
                            "GradTape")


_SPENT = _SpentNodes()


class _SliceGrad:
    """A slice's gradient g, which belongs at [start, stop) along axis of
    its source's gradient, of the given shape. backward() adds it there,
    in place where it can, with no zero-filled array of the source's size."""

    __slots__ = ("g", "axis", "start", "stop", "shape")

    def __init__(self, g, axis, start, stop, shape):
        self.g, self.axis, self.start, self.stop = g, axis, start, stop
        self.shape = shape

    @property
    def dtype(self):
        return self.g.dtype

    def add_to(self, acc, box):
        """(acc plus this gradient, the box that may hold -0.0 after it).

        acc is None, or backward's own array with box the (lo, hi) per
        axis outside of which it holds no -0.0, or, with box None, an array
        it may not write to. A zero-filled addend would have added 0.0
        outside the slice, which turns -0.0 into 0.0 and nothing else, so
        that is done there, in the box alone.
        """
        g, axis, s, e = self.g, self.axis, self.start, self.stop
        whole = tuple((0, n) for n in self.shape)
        at = _span(whole, axis, s, e)
        if acc is None:
            acc = np.zeros(self.shape, dtype=g.dtype)
            acc[_cut(at)] = g
            return acc, at
        dtype = np.result_type(acc.dtype, g.dtype)
        if box is None or acc.dtype != dtype:
            acc, box = acc.astype(dtype), box or whole
        lo, hi = box[axis]
        for part in (_span(box, axis, lo, min(hi, s)),
                     _span(box, axis, max(lo, e), hi)):
            outside = acc[_cut(part)]
            outside += 0.0
        acc[_cut(at)] += g
        return acc, _span(box, axis, max(lo, s), min(hi, e))


def _span(box, axis, lo, hi) -> tuple:
    """box, a (lo, hi) per axis, with [lo, hi) on axis."""
    return box[:axis] + ((lo, hi),) + box[axis + 1:]


def _cut(box) -> tuple:
    """The basic index of a box."""
    return tuple(slice(lo, hi) for lo, hi in box)


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Gradients:
    """Result of backward(): maps watched tensors to their gradients.

    A watched leaf the loss never reached gets an exact zero of its own
    shape. backward() frees the gradient of every intermediate tensor once
    it has passed it on, so reading one raises ContractError; watch a
    tensor to keep its gradient.
    """

    def __init__(self, tape, grads):
        self._tape = tape
        self._grads = grads

    def __getitem__(self, t: Tensor) -> Tensor:
        if t._tape is not self._tape or t._node is None:
            raise ContractError("tensor was not watched on or produced by this tape")
        g = self._grads[t._node]
        if g is _FREED:
            raise ContractError(
                "gradient of an intermediate tensor was freed during backward; "
                "watch a leaf to read its gradient")
        if g is None:
            g = np.zeros_like(t.data)
        return Tensor(g)


class GradTape:
    """Append-only op recorder; ops are methods so recording is explicit.

    One tape per forward pass. Constants (tensors never watched and not
    produced by this tape) flow through ops without creating nodes, and
    the binary ops and concat never compute a gradient for a constant
    operand, so detached memory contents and additive masks cost nothing
    at backward time.

    A node keeps only what its backward reads: multiply and matmul keep an
    operand only when the other one is live, since each side's gradient
    reads the other side alone, and slice_ax keeps no array at all.
    """

    def __init__(self, recording: bool = True):
        self._nodes = []  # (input node ids, backward fn); fn None for leaves
        self.recording = recording

    def __len__(self):
        return len(self._nodes)

    def watch(self, t: Tensor) -> Tensor:
        """Register a leaf (parameter) so its gradient can be read later."""
        if not self.recording:
            return t
        if t._tape is self and t._node is not None:
            return t
        self._nodes.append(((), None))
        t._tape = self
        t._node = len(self._nodes) - 1
        return t

    def _idx(self, t: Tensor):
        if t._tape is None:
            return None
        if t._tape is not self:
            raise ContractError(
                "tensor belongs to a different tape; detach it or watch it here"
            )
        return t._node

    def _live(self, t: Tensor) -> bool:
        """Whether backward will want a gradient for operand t."""
        return self.recording and self._idx(t) is not None

    def _emit(self, data, inputs, bwd) -> Tensor:
        out = Tensor(data)
        if not self.recording:
            return out
        ids = tuple(map(self._idx, inputs))
        if ids.count(None) == len(ids):
            return out  # pure-constant subgraph, nothing to differentiate
        out._tape = self
        out._node = len(self._nodes)
        self._nodes.append((ids, bwd))
        return out

    # ---- arithmetic ----

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        try:
            out = a.data + b.data
        except ValueError:
            raise ShapeError(f"add: cannot broadcast {a.shape} with {b.shape}")
        ash, bsh = a.shape, b.shape
        need_a, need_b = self._live(a), self._live(b)

        def bwd(g):
            return (_unbroadcast(g, ash) if need_a else None,
                    _unbroadcast(g, bsh) if need_b else None)

        return self._emit(out, (a, b), bwd)

    def multiply(self, a: Tensor, b: Tensor) -> Tensor:
        try:
            out = a.data * b.data
        except ValueError:
            raise ShapeError(f"multiply: cannot broadcast {a.shape} with {b.shape}")
        ash, bsh = a.shape, b.shape
        # each side's gradient reads the other operand: keep only those
        ad = a.data if self._live(b) else None
        bd = b.data if self._live(a) else None

        def bwd(g):
            return (None if bd is None else _unbroadcast(g * bd, ash),
                    None if ad is None else _unbroadcast(g * ad, bsh))

        return self._emit(out, (a, b), bwd)

    def scale(self, a: Tensor, s: float) -> Tensor:
        s = float(s)

        def bwd(g):
            return (g * s,)

        return self._emit(a.data * s, (a,), bwd)

    def matmul(self, a: Tensor, b: Tensor, b_again=None) -> Tensor:
        """a @ b. b_again, a callable returning b's data, lets backward
        fetch b again when a's gradient needs it instead of keeping it."""
        ad, bd = a.data, b.data
        ash, bsh = ad.shape, bd.shape
        if len(ash) < 2 or len(bsh) < 2:
            raise ShapeError(f"matmul needs 2-D operands, got {ash} @ {bsh}")
        if ash[-1] != bsh[-2]:
            raise ShapeError(f"matmul: inner dims differ, {ash} @ {bsh}")
        out = np.matmul(ad, bd)
        need_a, need_b = self._live(a), self._live(b)
        # each side's gradient reads the other operand: keep only those
        ad = ad if need_b else None
        bd = bd if need_a and b_again is None else None

        def bwd(g):
            da = db = None
            if need_a:
                b_data = bd if b_again is None else b_again()
                da = _unbroadcast(np.matmul(g, b_data.swapaxes(-1, -2)), ash)
            if need_b and len(bsh) == 2 and len(ash) > 2:
                # batched x 2-D weight: collapse the batch instead of
                # materializing a per-batch (d, d) gradient stack
                db = np.matmul(ad.reshape(-1, ash[-1]).T,
                               g.reshape(-1, g.shape[-1]))
            elif need_b:
                db = _unbroadcast(np.matmul(ad.swapaxes(-1, -2), g), bsh)
            return (da, db)

        return self._emit(out, (a, b), bwd)

    # ---- shape moves ----

    def reshape(self, a: Tensor, shape) -> Tensor:
        ash = a.data.shape

        def bwd(g):
            return (g.reshape(ash),)

        return self._emit(a.data.reshape(shape), (a,), bwd)

    def transpose(self, a: Tensor, perm) -> Tensor:
        perm = tuple(perm)
        inv = tuple(sorted(range(len(perm)), key=perm.__getitem__))

        def bwd(g):
            return (g.transpose(inv),)

        return self._emit(a.data.transpose(perm), (a,), bwd)

    def swap_last2(self, a: Tensor) -> Tensor:
        def bwd(g):
            return (g.swapaxes(-1, -2),)

        return self._emit(a.data.swapaxes(-1, -2), (a,), bwd)

    def concat(self, parts, axis: int = 0) -> Tensor:
        parts = list(parts)
        if not parts:
            raise ContractError("concat of an empty list")
        sizes = [p.shape[axis] for p in parts]
        splits = list(accumulate(sizes))[:-1]
        need = [self._live(p) for p in parts]

        def bwd(g):
            return tuple(piece if live else None
                         for piece, live in zip(np.split(g, splits, axis=axis),
                                                need))

        return self._emit(
            np.concatenate([p.data for p in parts], axis=axis), tuple(parts), bwd
        )

    def slice_ax(self, a: Tensor, axis: int, start: int, stop: int) -> Tensor:
        axis = axis % a.ndim
        sl = tuple(
            slice(start, stop) if i == axis else slice(None) for i in range(a.ndim)
        )
        ash = a.shape

        def bwd(g):
            s, e, _ = sl[axis].indices(ash[axis])
            return (_SliceGrad(g, axis, s, e, ash),)

        return self._emit(a.data[sl], (a,), bwd)

    def gather_last(self, a: Tensor, idx: np.ndarray) -> Tensor:
        """out[..., j] = a[..., idx[..., j]]; idx leading dims must match a."""
        idx = np.asarray(idx)
        if idx.ndim != a.ndim or idx.shape[:-1] != a.shape[:-1]:
            raise ShapeError(f"gather_last: index {idx.shape} against {a.shape}")
        ad = a.data
        w = ad.shape[-1]
        if idx.size and (idx.min() < 0 or idx.max() >= w):
            raise ShapeError(f"gather_last: index out of range for {w} columns")
        nrows = math.prod(ad.shape[:-1])
        # flat index per (row, selected column): forward gathers with it and
        # bincount scatter-adds with it
        lin = (idx.reshape(nrows, idx.shape[-1])
               + np.arange(0, nrows * w, w, dtype=np.int64)[:, None]).ravel()

        def bwd(g):
            out = np.bincount(lin, weights=g.ravel(), minlength=ad.size)
            return (out.reshape(ad.shape).astype(ad.dtype, copy=False),)

        return self._emit(ad.reshape(-1).take(lin).reshape(idx.shape), (a,), bwd)

    def add_placed(self, a: Tensor, b: Tensor, n: int, runs) -> Tensor:
        """a plus b's first n columns, placed along a's last axis by row.

        a is (..., rows, w) and b (..., rows, nb) with the same leading
        dims, n <= nb. Each run is (index, col, slope), slope 0 or 1: index,
        a tuple of basic slices over a's last dims up to the rows axis,
        picks the run's rows, and its i-th row gets b's row added at
        columns col + slope * i onward. Every other entry is a's. Each run
        is one strided view, so no index is built, and nothing is kept for
        backward, which reads the gradient back at the same places, run by
        run. b's columns from n on get a zero gradient.
        """
        ad, bd = a.data, b.data
        if (ad.ndim < 2 or bd.shape[:-1] != ad.shape[:-1]
                or not 0 <= n <= bd.shape[-1]):
            raise ShapeError(f"add_placed: {n} columns of {b.shape} "
                             f"into {a.shape}")
        rows, w = ad.shape[-2:]
        for index, col, slope in runs:
            m = len(range(rows)[index[-1]])  # the run's rows
            if slope not in (0, 1) or col < 0 or (
                    m and col + slope * (m - 1) + n > w):
                raise ShapeError(f"add_placed: {m} rows from column {col} "
                                 f"at slope {slope} leave {w} columns")

        def view(x, index, col, slope):  # row i: columns col + slope * i ..
            sub = x[(Ellipsis,) + index + (slice(col, None),)]
            st = sub.strides
            return as_strided(sub, sub.shape[:-1] + (n,),
                              st[:-2] + (st[-2] + slope * st[-1], st[-1]))

        out = ad.copy()
        for index, col, slope in runs:
            placed = view(out, index, col, slope)
            placed += bd[(Ellipsis,) + index + (slice(0, n),)]
        need_a, need_b = self._live(a), self._live(b)

        def bwd(g):
            gb = None
            if need_b:  # zeros first: a -0.0 read back sums to 0.0
                gb = np.zeros(bd.shape, dtype=bd.dtype)
                for index, col, slope in runs:
                    gb[(Ellipsis,) + index + (slice(0, n),)] += \
                        view(g, index, col, slope)
            return (g if need_a else None, gb)

        return self._emit(out, (a, b), bwd)

    def take_rows(self, a: Tensor, idx: np.ndarray) -> Tensor:
        """Batched row selection along one middle axis.

        a is (lead..., N, tail...) and idx is (lead..., I) with matching lead
        dims; out[..., i, :] = a[..., idx[..., i], :]. Duplicate selections
        accumulate gradient into the shared row.
        """
        idx = np.asarray(idx)
        nl = idx.ndim - 1
        lead = a.shape[:nl]
        if lead != idx.shape[:nl]:
            raise ShapeError(
                f"take_rows: lead dims {idx.shape[:nl]} do not match {lead}")
        if a.ndim <= nl:
            raise ShapeError(f"take_rows: no row axis in {a.shape}")
        n = a.shape[nl]
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ShapeError(f"take_rows: index out of range for {n} rows")
        tail = a.shape[nl + 1:]
        nb = math.prod(lead)
        af = a.data.reshape((nb, n) + tail)
        idf = idx.reshape(nb, idx.shape[-1])
        ni = idf.shape[1]
        rows = np.arange(nb)
        ash = a.shape
        out = af[rows[:, None], idf]

        def bwd(g):
            # scatter-add one selection slot at a time: within a slot every
            # batch row writes one row of its own, so no two writes collide
            g2 = g.reshape(nb, ni, -1)
            da = np.zeros((nb, n, g2.shape[-1]), dtype=g2.dtype)
            for i in range(ni):
                da[rows, idf[:, i]] += g2[:, i]
            return (da.reshape(ash),)

        return self._emit(out.reshape(lead + (ni,) + tail), (a,), bwd)

    def embed_lookup(self, table: Tensor, idx: np.ndarray) -> Tensor:
        """Rows of an embedding table; duplicate indices accumulate grads."""
        idx = np.asarray(idx)
        if table.ndim != 2:
            raise ShapeError(f"embed_lookup table must be 2-D, got {table.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
            raise ContractError(
                f"embed_lookup index out of range for table of {table.shape[0]} rows"
            )
        td = table.data
        d = td.shape[1]

        def bwd(g):
            # np.add.at's sums without its per-element cost: a stable sort
            # keeps each table row's gradient rows in index order, and a
            # reduce along axis 0 adds them in that order, as add.at does;
            # a single column it would sum pairwise, so that one accumulates
            flat = idx.ravel()
            order = np.argsort(flat, kind="stable")
            rows, starts = np.unique(flat[order], return_index=True)
            gs = g.reshape(-1, d)[order]
            out = np.zeros_like(td)
            for r, a, b in zip(rows, starts, [*starts[1:], flat.size]):
                out[r] = (np.add.reduce(gs[a:b], axis=0) if d > 1
                          else np.add.accumulate(gs[a:b], axis=0)[-1])
            return (out,)

        return self._emit(td[idx], (table,), bwd)

    # ---- nonlinearities ----

    def relu(self, a: Tensor) -> Tensor:
        mask = a.data > 0

        def bwd(g):
            return (g * mask,)

        return self._emit(np.maximum(a.data, 0), (a,), bwd)

    def tanh(self, a: Tensor) -> Tensor:
        out = np.tanh(a.data)

        def bwd(g):
            return (g * (1.0 - out * out),)

        return self._emit(out, (a,), bwd)

    def sigmoid(self, a: Tensor) -> Tensor:
        out = _stable_sigmoid(a.data)

        def bwd(g):
            return (g * out * (1.0 - out),)

        return self._emit(out, (a,), bwd)

    # ---- reductions and normalizers ----

    def reduce_sum(self, a: Tensor, axis=None) -> Tensor:
        ash = a.shape

        def bwd(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, ash).copy(),)

        return self._emit(a.data.sum(axis=axis), (a,), bwd)

    def softmax(self, a: Tensor) -> Tensor:
        """Softmax over the last axis."""
        x = a.data
        # NumPy's max pays a fixed cost per row: on short rows a maximum
        # across columns is bitwise the same and up to 10x faster (50k rows
        # of 8 float32: 0.46 vs 4.6 ms), while from 32 columns it is slower
        if x.shape[-1] <= 16 and x.size >= 4096:
            m = reduce(np.maximum, np.moveaxis(x, -1, 0))[..., None]
        else:
            m = np.maximum.reduce(x, axis=-1, keepdims=True)
        out = x - m  # exp and normalise in place: the same ufuncs, no copies
        np.exp(out, out=out)
        out /= np.add.reduce(out, axis=-1, keepdims=True)

        def bwd(g):
            dot = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - dot),)

        return self._emit(out, (a,), bwd)

    def layer_norm(self, a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
        """Normalize over the last axis, then scale and shift."""
        d = a.shape[-1]
        if gain.shape != (d,) or bias.shape != (d,):
            raise ShapeError(
                f"layer_norm: gain {gain.shape} / bias {bias.shape} against last dim {d}"
            )
        x = a.data
        mu = _mean_last(x)
        xc = x - mu
        var = _mean_last(xc * xc)
        inv = 1.0 / np.sqrt(var + 1e-5)
        xhat = xc * inv
        gd = gain.data

        def bwd(g):
            gh = g * gd
            mean_gh = _mean_last(gh)
            mean_ghx = _mean_last(gh * xhat)
            dx = inv * (gh - mean_gh - xhat * mean_ghx)
            red = tuple(range(g.ndim - 1))
            dgain = (g * xhat).sum(axis=red)
            dbias = g.sum(axis=red)
            return (dx, dgain, dbias)

        return self._emit(xhat * gd + bias.data, (a, gain, bias), bwd)

    def cross_entropy_logits(
        self, logits: Tensor, target, reduction: str = "mean"
    ) -> Tensor:
        """Mean (or sum) of -log softmax(logits)[target] over leading dims.

        `target` is an int or an int array matching the leading shape.
        """
        if reduction not in ("mean", "sum"):
            raise ContractError(f"unknown reduction {reduction!r}")
        x = logits.data
        n = x.shape[-1]
        t = np.asarray(target)
        if t.shape != x.shape[:-1]:
            raise ShapeError(
                f"cross_entropy_logits: targets {t.shape} against logits {x.shape}"
            )
        if t.size and (t.min() < 0 or t.max() >= n):
            raise ContractError(f"target class out of range for {n} classes")
        m = x.max(axis=-1, keepdims=True)
        lse = m[..., 0] + np.log(np.exp(x - m).sum(axis=-1))
        picked = np.take_along_axis(x, t[..., None], axis=-1)[..., 0]
        losses = lse - picked
        rows = max(1, losses.size)
        val = losses.sum() if reduction == "sum" else losses.sum() / rows

        def bwd(g):
            p = np.exp(x - m)
            p /= p.sum(axis=-1, keepdims=True)
            np.subtract.at(p, tuple(np.indices(t.shape)) + (t,), 1.0)
            if reduction == "mean":
                p /= rows
            return (p * g,)

        return self._emit(val, (logits,), bwd)

    # ---- reverse pass ----

    def backward(self, loss: Tensor) -> Gradients:
        """Walk the tape once in reverse from a scalar loss; a tape is
        single-use, and a second call raises ContractError.

        Each intermediate gradient is dropped as soon as its node has passed
        it on to the node's inputs, so at most the gradients still waiting
        to be consumed are alive at once; only watched leaves keep theirs.
        The walk consumes the tape: each node's backward closure, and with
        it every array the op saved, is dropped once the walk has passed
        the node, run or not, so a spent tape holds nothing.

        A slice's gradient is added into its source's gradient in place
        when the walk allocated that array itself, and into a copy
        otherwise, with no zero-filled array of the source's size; the sums
        are bitwise those of adding full-size arrays, -0.0 against 0.0
        included.
        """
        if self._nodes is _SPENT:
            raise ContractError("backward already ran on this tape")
        if not self.recording:
            raise ContractError("tape was created with recording=False")
        if loss.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
        if loss._tape is not self or loss._node is None:
            raise ContractError("loss was not produced by this tape")
        nodes, self._nodes = self._nodes, _SPENT
        grads = [None] * len(nodes)
        # node -> box that may hold -0.0, for each gradient that a slice
        # made, in an array the walk allocated, so later slices add in place
        own = {}
        del nodes[loss._node + 1:]  # recorded after the loss: never reached
        grads[loss._node] = np.ones_like(loss.data)
        for i in range(loss._node, -1, -1):
            ids, bwd = nodes.pop()
            g = grads[i]
            if g is None or bwd is None:
                continue  # unreached, or a leaf, which keeps its gradient
            grads[i] = _FREED
            for j, c in zip(ids, bwd(g)):
                if j is None:
                    continue
                if type(c) is _SliceGrad:
                    grads[j], own[j] = c.add_to(grads[j], own.get(j))
                else:
                    grads[j] = c if grads[j] is None else grads[j] + c
        return Gradients(self, grads)
