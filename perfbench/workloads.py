"""The four benchmark workloads, built only from generated inputs and configs.

Each workload object has:
- setup(): build the model and whatever state the timed phase starts from,
  then run untimed warm-up work;
- main_op(i) / eval_op(j): one operation each, returning samples
  (kind, seconds, failure-or-None); the seconds cover only library calls,
  never the benchmark's own checks or bookkeeping;
- digest_material(): values that pin the numerics of a fixed prefix of the
  run, for comparing two versions that claim identical behaviour.

Training workloads run a closed loop: step i+1 starts after step i's
backward and Adam.step have returned.
"""

from __future__ import annotations

import copy
import sys
from time import perf_counter

import numpy as np

import chunkmem.attention as attention
import chunkmem.optim as optim
import chunkmem.stack as stack
import chunkmem.tasks as tasks
import chunkmem.training as training
from chunkmem.tensor import GradTape, Tensor

WARMUP_STEPS = 2  # untimed train steps (then one untimed eval batch) in setup
DIGEST_STEPS = 3  # timed train steps in the digest; at most run.py's MIN_STEPS


def scores_per_sequence(t_len: int, chunk: int, top_k: int, capacity: int) -> int:
    """ScoreCounter total for one batch row of one layer over a T-step
    forward_sequence from empty memory: each step that sees n >= 1 frozen
    chunks scores n summaries plus min(k, n) * C stored rows."""
    total = 0
    for t in range(t_len):
        n = min((t + 1) // chunk, capacity)
        if n:
            total += n + min(top_k, n) * chunk
    return total


class TrainWorkload:
    """Training steps on ballet or paired association, then evaluation."""

    def __init__(self, spec: dict, seed: int, tracer=None):
        self.rc = training.RunConfig(seed=seed, **spec["run"])
        self.episodes_per_eval = spec["eval_batch"]
        self.tracer = tracer
        rc = self.rc
        if rc.task == "ballet":
            t_len = tasks.ballet_episode_length(rc.n_dances, rc.delay)
            per_row = scores_per_sequence(t_len, rc.chunk_size, rc.top_k,
                                          training.model_config(rc).capacity)
        else:  # one probe query against n_pairs two-row chunks
            per_row = rc.n_pairs + min(rc.top_k, rc.n_pairs) * 2
        self.expected_scores = rc.batch * rc.n_layers * per_row
        self.losses: list[float] = []
        self.eval_accs: list[float] = []
        self.nodes_per_step = 0

    def setup(self) -> None:
        rc = self.rc
        self.model = training.build_model(rc)
        self.opt = optim.Adam(self.model.params, lr=rc.lr, beta1=rc.beta1,
                              beta2=rc.beta2)
        self.step_index = 0
        self.eval_index = 0
        self.losses, self.eval_accs = [], []
        for _ in range(WARMUP_STEPS):
            self.main_op(-1)
        self.eval_op(-1)
        self.eval_index = 0

    def _loss(self, tape, counter):
        """The same minibatch loss training.train optimizes."""
        rc, model = self.rc, self.model
        start = self.step_index * rc.batch
        if rc.task == "ballet":
            dancers, directions, queries, labels = tasks.ballet_batch(
                rc.n_dances, rc.delay, rc.seed, start, rc.batch)
            xs = tasks.encode_ballet_tokens(tape, model, dancers, directions, queries)
            ys, _ = stack.forward_sequence(tape, model, xs, counter=counter)
            loss = tape.cross_entropy_logits(
                tasks.ballet_logits(tape, model, ys), labels)
            if rc.aux_weight > 0:
                aux = tasks.reconstruction_aux_loss(tape, model, ys, dancers,
                                                    directions)
                loss = tape.add(loss, tape.scale(aux, rc.aux_weight))
            return loss
        pairs, probe, choices, labels = tasks.pai_batch(
            rc.chain_length, rc.n_pairs, rc.item_dim, rc.seed, start, rc.batch)
        logits = tasks.pai_forward(tape, self.model, pairs, probe, choices,
                                   counter=counter)
        return tape.cross_entropy_logits(logits, labels)

    def main_op(self, i: int) -> list:
        if self.tracer is not None:
            self.tracer.step = ("step", i)
        counter = attention.ScoreCounter()
        t0 = perf_counter()
        tape = GradTape()
        self.model.watch_all(tape)
        loss = self._loss(tape, counter)
        nodes = len(tape)
        grads = tape.backward(loss)
        self.opt.step(grads)
        dt = perf_counter() - t0
        self.step_index += 1
        value = float(loss.data)
        self.losses.append(value)
        self.nodes_per_step = nodes
        fail = None
        if not np.isfinite(value):
            fail = f"train step {i}: loss {value!r}"
        elif counter.scores != self.expected_scores:
            fail = (f"train step {i}: {counter.scores} scores, closed form "
                    f"gives {self.expected_scores}")
        return [("step", dt, fail)]

    def exhausted(self) -> bool:
        return False

    def eval_op(self, j: int) -> list:
        """One evaluate() call over one eval batch of fresh episodes."""
        if self.tracer is not None:
            self.tracer.step = ("eval", j)
        n = self.episodes_per_eval
        offset = training.EVAL_STREAM_OFFSET + self.eval_index * n
        t0 = perf_counter()
        acc = training.evaluate(self.model, self.rc, n_episodes=n,
                                stream_offset=offset, max_batch=n)
        dt = perf_counter() - t0
        self.eval_index += 1
        self.eval_accs.append(acc)
        fail = None
        if not (0.0 <= acc <= 1.0 and float(acc * n).is_integer()):
            fail = f"eval batch {j}: accuracy {acc!r} is not k/{n}"
        return [("eval", dt, fail)]

    def digest_material(self) -> list:
        """Warm-up and first timed losses, and the warm-up eval accuracy:
        the part of every run that does not depend on the time budget."""
        return self.losses[:WARMUP_STEPS + DIGEST_STEPS] + self.eval_accs[:1]


class StreamWorkload:
    """stack_step at batch 1 on a non-recording tape against full memory.

    One main operation is a window of stream steps. After the window's
    last step, the window's inputs are run again through forward_sequence
    from a copy of the state taken before its first step; that replay is
    timed as this workload's evaluation and must reproduce the window's
    step outputs to float32 rounding.

    Top-k chunk selection is discontinuous: when two chunks' relevance
    differs by less than the rounding between the two paths, the paths may
    pick different chunks and then legitimately differ by far more than
    rounding. A mismatching window therefore fails only if no query in it
    had such a near-tie; a near-tie is found by running the window again
    from the same state while recording each query's gap between its k-th
    and (k+1)-th relevance.
    """

    def __init__(self, spec: dict, seed: int, tracer=None):
        self.cfg = stack.ModelConfig(**spec["model"])
        self.window = spec["window"]
        self.max_steps = spec["max_steps"]
        self.rtol, self.atol = spec["rtol"], spec["atol"]
        self.tie_gap = spec["tie_gap"]
        self.seed = seed
        self.tracer = tracer
        cfg = self.cfg
        self.prefill = cfg.capacity * cfg.chunk_size
        self.warmup = spec["warmup_steps"]
        # every step sees a full memory: capacity summaries + k chunks of C
        self.expected_scores = cfg.n_layers * (
            cfg.capacity + min(cfg.top_k, cfg.capacity) * cfg.chunk_size)
        self.first_window = None  # step outputs, for the digest
        self.nodes_per_step = 0  # the tape does not record
        self.episodes_per_eval = 1  # one replayed window

    def setup(self) -> None:
        cfg = self.cfg
        rng = np.random.default_rng(self.seed)
        n_rows = self.prefill + self.warmup + self.max_steps
        self.rows = rng.standard_normal((n_rows, cfg.d_model)).astype(cfg.np_dtype)
        self.model = stack.Model(cfg, seed=self.seed)
        self.tape = GradTape(recording=False)
        state = None
        seg = 64
        for s in range(0, self.prefill, seg):
            xs = Tensor(self.rows[None, s:s + seg])
            _, state = stack.forward_sequence(self.tape, self.model, xs, state)
        self.state = state
        self.pos = self.prefill
        for _ in range(self.warmup):
            self._step(None)
        self.first_window = None

    def _step(self, counter):
        x = Tensor(self.rows[self.pos][None, None, :])
        y = stack.stack_step(self.tape, self.model, self.state, x, counter=counter)
        self.pos += 1
        return y.data

    def exhausted(self) -> bool:
        return self.pos + self.window > len(self.rows)

    def main_op(self, i: int) -> list:
        w = self.window
        start = self.pos
        before = copy.deepcopy(self.state)
        samples, outs = [], []
        for s in range(w):
            if self.tracer is not None:
                self.tracer.step = ("step", i * w + s)
            counter = attention.ScoreCounter()
            t0 = perf_counter()
            y = self._step(counter)
            dt = perf_counter() - t0
            outs.append(y.reshape(-1))
            fail = None
            if not np.all(np.isfinite(y)):
                fail = f"stream step {i * w + s}: non-finite output"
            elif counter.scores != self.expected_scores:
                fail = (f"stream step {i * w + s}: {counter.scores} scores, "
                        f"closed form gives {self.expected_scores}")
            elif any(m.n_chunks != self.cfg.capacity for m in self.state.memories):
                fail = f"stream step {i * w + s}: memory is not full"
            samples.append(("step", dt, fail))
        outs = np.stack(outs)
        if self.first_window is None:
            self.first_window = outs

        if self.tracer is not None:
            self.tracer.step = ("eval", i)
        xs = Tensor(self.rows[None, start:start + w])
        replay_state = copy.deepcopy(before)  # keep before for a diagnosis
        t0 = perf_counter()
        ys, _ = stack.forward_sequence(self.tape, self.model, xs, replay_state)
        dt = perf_counter() - t0
        fail = None
        if not np.allclose(ys.data[0], outs, rtol=self.rtol, atol=self.atol):
            gap = self._smallest_topk_gap(before, xs)
            if gap >= self.tie_gap:
                err = float(np.max(np.abs(ys.data[0] - outs)))
                fail = (f"window {i}: forward_sequence differs from stack_step "
                        f"by {err:.3g} with no top-k near-tie (gap {gap:.3g})")
            else:
                print(f"window {i}: paths differ, explained by a top-k near-tie "
                      f"(gap {gap:.3g})", file=sys.stderr)
        samples.append(("eval", dt, fail))
        return samples

    def _smallest_topk_gap(self, state, xs) -> float:
        """Smallest relative gap between a query's k-th and (k+1)-th chunk
        relevance while forward_sequence runs xs from state."""
        gaps = [np.inf]
        select = attention.top_k_select

        def recording(scores, k):
            s = np.sort(scores, axis=-1)
            if s.shape[-1] > k:
                kth, nxt = s[..., -k], s[..., -k - 1]
                gaps.append(float(np.min((kth - nxt) / kth)))
            return select(scores, k)

        attention.top_k_select = recording
        try:
            stack.forward_sequence(self.tape, self.model, xs, state)
        finally:
            attention.top_k_select = select
        return min(gaps)

    def digest_material(self) -> list:
        return self.first_window.ravel().tolist()


def make(spec: dict, seed: int, tracer=None):
    kind = spec["kind"]
    if kind == "train":
        return TrainWorkload(spec, seed, tracer)
    if kind == "stream":
        return StreamWorkload(spec, seed, tracer)
    raise ValueError(f"unknown workload kind {kind!r}")
