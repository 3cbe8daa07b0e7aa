"""Spans and counts taken from outside the library, by wrapping its functions.

Nothing under src/ knows it is traced: install() replaces public functions
and methods with timing wrappers in the modules where callers look them up,
and uninstall() puts the originals back.

Two kinds of span are kept, both as [name, start, end, parent, step]:
- layer spans, one per call of a wrapped public function (forward passes,
  attention blocks, memory reads, backward, Adam, evaluation);
- op spans, one per call of a wrapped GradTape op ("tensor.op.<op>.fwd")
  and one per run of the backward closure that op recorded
  ("tensor.op.<op>.bwd").

A layer's self time is its duration minus the durations of its direct
layer children. Op spans are leaves that overlap the layer spans around
them; they are reported on their own as tensor.op.* and never subtracted
from a layer's self time.
"""

from __future__ import annotations

import csv
import inspect
from collections import defaultdict
from time import perf_counter

import numpy as np

# GradTape ops whose forward and backward time are reported one by one.
TRACED_OPS = ("matmul", "take_rows", "softmax", "layer_norm", "gather_last",
              "concat", "transpose")


class Tracer:
    """In-memory span recorder plus shape-derived counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.step = None  # (kind, index) of the operation being run
        self.counts: dict = defaultdict(float)  # (step kind, key) -> total
        self._open: list[int] = []
        self._patched: list[tuple] = []

    # ---- recording ----

    def _wrap(self, owner, attr: str, name: str, on_return=None) -> None:
        orig = getattr(owner, attr)
        sig = inspect.signature(orig) if on_return else None
        spans, open_ = self.spans, self._open
        tracer = self

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          open_[-1] if open_ else -1, tracer.step])
            open_.append(i)
            try:
                out = orig(*args, **kwargs)
            finally:
                open_.pop()
                spans[i][2] = perf_counter()
            if on_return is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_return(bound.arguments, out)
            return out

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def _wrap_op(self, tape_cls, op: str) -> None:
        orig = getattr(tape_cls, op)
        spans, open_ = self.spans, self._open
        tracer = self
        fwd_name, bwd_name = f"tensor.op.{op}.fwd", f"tensor.op.{op}.bwd"

        def timed_bwd(bwd):
            def run(g):
                i = len(spans)
                spans.append([bwd_name, perf_counter(), 0.0,
                              open_[-1] if open_ else -1, tracer.step])
                try:
                    return bwd(g)
                finally:
                    spans[i][2] = perf_counter()
            return run

        def traced(tape, *args, **kwargs):
            n0 = len(tape)
            i = len(spans)
            spans.append([fwd_name, perf_counter(), 0.0,
                          open_[-1] if open_ else -1, tracer.step])
            try:
                out = orig(tape, *args, **kwargs)
            finally:
                spans[i][2] = perf_counter()
            if len(tape) > n0:  # the op recorded a node: time its backward
                ids, bwd = tape._nodes[-1]
                tape._nodes[-1] = (ids, timed_bwd(bwd))
            return out

        traced.__wrapped__ = orig
        setattr(tape_cls, op, traced)
        self._patched.append((tape_cls, op, orig))

    def _wrap_count(self, owner, attr: str, key: str, amount) -> None:
        """Add amount(*args) to a count on every call; no span."""
        orig = getattr(owner, attr)

        def counted(*args, **kwargs):
            self._count(key, amount(*args, **kwargs))
            return orig(*args, **kwargs)

        counted.__wrapped__ = orig
        setattr(owner, attr, counted)
        self._patched.append((owner, attr, orig))

    def _count(self, key: str, value) -> None:
        kind = self.step[0] if self.step else None
        self.counts[(kind, key)] += value

    # ---- shape-derived counts ----

    def _on_local(self, a, out) -> None:
        """Useful (query, key) pairs: keys inside the window, out of the
        dense (T, S) score matrix local_attention builds."""
        seq = a["seq"]
        s_total = seq.shape[-2]
        t_len = s_total - a["n_carry"]
        lead = int(np.prod(seq.shape[:-2], dtype=np.int64))
        gq = np.arange(t_len) + a["n_carry"]
        useful = int(np.minimum(a["window"], gq + 1).sum())
        self._count("local_pairs_useful", lead * useful)
        self._count("local_pairs_scored", lead * t_len * s_total)

    def _on_hcam(self, a, out) -> None:
        """Stored rows projected through wk/wv, and the most of them the
        top-k selection can use (min(q * k, N) whole chunks per batch row)."""
        n = a["summaries"].shape[-2]
        if n == 0:
            return
        c = a["chunks"].shape[-2]
        *lead, q, _ = a["x"].shape
        nb = int(np.prod(lead, dtype=np.int64))
        self._count("recall_rows_projected", nb * n * c)
        self._count("recall_rows_usable", nb * min(q * min(a["top_k"], n), n) * c)

    def _on_read(self, a, out) -> None:
        self._count("memory_read_bytes", out[0].nbytes + out[1].nbytes)

    # ---- install / remove ----

    def install(self, chunkmem) -> None:
        """Wrap the library's public entry points where callers find them."""
        attention, memory, optim = chunkmem.attention, chunkmem.memory, chunkmem.optim
        stack, tasks, tensor = chunkmem.stack, chunkmem.tasks, chunkmem.tensor
        training = chunkmem.training
        for mod in (tasks, training):
            self._wrap(mod, "ballet_batch", "tasks.batch")
            self._wrap(mod, "pai_batch", "tasks.batch")
        for mod in (stack, training):
            self._wrap(mod, "forward_sequence", "stack.forward")
        for mod in (tasks, training):
            self._wrap(mod, "pai_forward", "stack.forward")
        self._wrap(stack, "stack_step", "stack.forward")
        for mod in (stack, tasks):
            self._wrap(mod, "local_attention", "attention.local", self._on_local)
            self._wrap(mod, "hcam_block", "attention.recall", self._on_hcam)
        self._wrap(attention, "chunk_relevance", "attention.relevance")
        self._wrap(attention, "top_k_select", "attention.topk")
        self._wrap(memory.ChunkMemory, "write_step", "memory.write")
        self._wrap(memory.ChunkMemory, "read", "memory.read", self._on_read)
        self._wrap(tensor.GradTape, "backward", "tensor.backward")
        self._wrap(optim.Adam, "step", "optim.step")
        self._wrap(training, "evaluate", "training.eval")
        self._wrap_count(attention.ScoreCounter, "add", "recall_scores",
                         lambda _counter, n: int(n))
        for op in TRACED_OPS:
            self._wrap_op(tensor.GradTape, op)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # ---- summaries ----

    def totals(self, step_kind: str) -> tuple[dict, dict, dict]:
        """Per span name, over spans of one step kind: (inclusive seconds,
        self seconds, calls). Self time subtracts direct layer children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _step in spans:
            if parent >= 0 and not name.startswith("tensor.op."):
                child[parent] += t1 - t0
        incl, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, t0, t1, _parent, step) in enumerate(spans):
            if step is None or step[0] != step_kind:
                continue
            incl[name] += t1 - t0
            self_t[name] += t1 - t0 - child[i]
            calls[name] += 1
        return incl, self_t, calls

    def write_csv(self, path) -> None:
        """All spans, one per line; times are seconds on perf_counter."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("id", "name", "start", "end", "parent", "step_kind", "step"))
            for i, (name, t0, t1, parent, step) in enumerate(self.spans):
                kind, idx = step if step else ("", "")
                w.writerow((i, name, repr(t0), repr(t1), parent, kind, idx))
