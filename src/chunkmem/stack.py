"""Layered sequence models over the attention kernels.

Every layer of the chunked-recall stack does, in order: write the raw layer
input to that layer's chunk memory, add windowed causal self-attention, add
relevance-gated recall over the memory's frozen chunks, add an MLP. One
per-layer routine runs every model kind. forward_sequence hands it a whole
sequence, and recall selects chunks for each stretch of positions whose
windows of frozen chunks have one width, in one pass however the window
moves along it, then reads the picked chunks' rows one cache-sized block of
positions at a time; stack_step hands it a one-step sequence,
whose recall then reads k chunks however many are stored. The tests check
both against a step-at-a-time reference that writes to and reads from a
ChunkMemory on every step.

Baselines: a TransformerXL-flavored stack (windowed attention extended by a
gradient-stopped cache of older inputs), the same with per-head top-k score
truncation, and a stacked LSTM. One windowed routine, local_attention,
serves hcam and both XL baselines: the XL kinds pass it their extra span
and top-k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionParams,
    HcamParams,
    ScoreCounter,
    hcam_block,
    local_attention,
    scaled_uniform,
    sinusoidal_table,
)
from .errors import ContractError, ShapeError
from .memory import ChunkMemory
from .rng import make_rng
from .tensor import GradTape, Tensor

KINDS = ("hcam", "trxl", "trxl_topk", "lstm")
TASKS = ("ballet", "pai")


@dataclass
class ModelConfig:
    kind: str = "hcam"
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    chunk_size: int = 8
    top_k: int = 2
    local_window: int = 16
    xl_extra_length: int = 64
    mlp_hidden: int = 0  # 0 means 4 * d_model
    overlap: int = 0
    capacity: int = 1024
    dancer_vocab: int = 9     # 8 ids and one null row
    direction_vocab: int = 9  # 8 direction codes and one null row
    query_vocab: int = 14     # 13 dance names and one null row
    n_classes: int = 8
    item_dim: int = 32
    task: str = "ballet"
    dtype: str = "float64"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.task not in TASKS:
            raise ContractError(f"task must be one of {TASKS}, got {self.task!r}")
        for name in ("d_model", "n_heads", "n_layers", "chunk_size",
                     "dancer_vocab", "direction_vocab", "query_vocab",
                     "n_classes", "item_dim"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.mlp_hidden < 0:
            raise ContractError(f"mlp_hidden must be >= 0, got {self.mlp_hidden}")
        if self.d_model % self.n_heads:
            raise ContractError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.top_k < 1:
            raise ContractError(f"top_k must be >= 1, got {self.top_k}")
        if self.local_window < 1:
            raise ContractError(f"local_window must be >= 1, got {self.local_window}")
        if not 0 <= self.overlap < self.chunk_size:
            raise ContractError(
                f"overlap {self.overlap} must be in [0, chunk_size {self.chunk_size})")
        if self.task == "pai" and self.chunk_size < 2:
            # pai_forward stores each pair as a two-row chunk, and the
            # chunk position table has chunk_size rows
            raise ContractError(
                f"task pai needs chunk_size >= 2, got {self.chunk_size}")
        if self.xl_extra_length < 0:
            raise ContractError("xl_extra_length must be >= 0")
        if self.capacity < 1:
            raise ContractError("capacity must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ContractError(f"dtype must be float32 or float64, got {self.dtype}")
        if self.mlp_hidden == 0:
            self.mlp_hidden = 4 * self.d_model

    @property
    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64

    @property
    def span(self) -> int:
        """Longest stretch of past inputs any one attention call can see."""
        if self.kind in ("trxl", "trxl_topk"):
            return self.local_window + self.xl_extra_length
        return self.local_window


@dataclass
class AttnLayer:
    """One chunked-recall or XL layer: norm, attention, optional recall, MLP."""

    attn_ln_g: Tensor
    attn_ln_b: Tensor
    attn: AttentionParams
    hcam: HcamParams | None
    mlp_ln_g: Tensor
    mlp_ln_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class LstmLayer:
    wx: Tensor
    wh: Tensor
    b: Tensor


_ATTN_WEIGHTS = ("wq", "wk", "wv", "wo")


def param_specs(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every parameter's shape and initial fill by name, in storage order.

    A fill is "uniform" (scaled_uniform with (fan_in, fan_out) = shape),
    "ones" or "zeros". Model(config, seed) draws the uniform ones in this
    order, and checkpoints store parameters in it.
    """
    d, hid = config.d_model, config.mlp_hidden

    def u(*shape):
        return shape, "uniform"

    def ones(n):
        return (n,), "ones"

    def zeros(n):
        return (n,), "zeros"

    if config.task == "ballet":
        specs = {
            "emb.dancer": u(config.dancer_vocab, d),
            "emb.direction": u(config.direction_vocab, d),
            "emb.query": u(config.query_vocab, d),
            "head.w": u(d, config.n_classes),
            "head.b": zeros(config.n_classes),
            "recon.dancer.w": u(d, config.dancer_vocab),
            "recon.dancer.b": zeros(config.dancer_vocab),
            "recon.direction.w": u(d, config.direction_vocab),
            "recon.direction.b": zeros(config.direction_vocab),
        }
    else:
        specs = {"emb.item": u(config.item_dim, d), "proj.w": u(d, d),
                 "proj.b": zeros(d)}
    for li in range(config.n_layers):
        p = f"layer{li}."
        if config.kind == "lstm":
            specs.update({p + "wx": u(d, 4 * d), p + "wh": u(d, 4 * d),
                          p + "b": zeros(4 * d)})
            continue
        specs.update({p + "attn." + w: u(d, d) for w in _ATTN_WEIGHTS})
        if config.kind == "hcam":
            specs.update({p + "hcam.ln.g": ones(d), p + "hcam.ln.b": zeros(d),
                          p + "hcam.w_rel": u(d, d)})
            specs.update({p + "hcam.mha." + w: u(d, d) for w in _ATTN_WEIGHTS})
        specs.update({
            p + "attn_ln.g": ones(d), p + "attn_ln.b": zeros(d),
            p + "mlp_ln.g": ones(d), p + "mlp_ln.b": zeros(d),
            p + "mlp.w1": u(d, hid), p + "mlp.b1": zeros(hid),
            p + "mlp.w2": u(hid, d), p + "mlp.b2": zeros(d),
        })
    return specs


class Model:
    """Parameter store plus fixed position tables for one configuration."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        """Fresh parameters: uniforms drawn from the seed's stream in
        param_specs order, ones and zeros as listed."""
        rng = make_rng(seed)
        dt = config.np_dtype
        self._adopt(config, {
            name: scaled_uniform(rng, *shape, dtype=dt) if fill == "uniform"
            else np.ones(shape, dt) if fill == "ones" else np.zeros(shape, dt)
            for name, (shape, fill) in param_specs(config).items()})

    @classmethod
    def from_params(cls, config: ModelConfig, params: dict) -> Model:
        """The model whose parameters are the given values, by name.

        Tensors are used as given, not copied, so gradients taken with
        respect to them reach the model; arrays are wrapped. Every name of
        param_specs(config) must appear with its shape and the config's
        dtype, and no other name may.
        """
        model = cls.__new__(cls)
        model._adopt(config, params)
        return model

    def _adopt(self, config: ModelConfig, params: dict) -> None:
        specs = param_specs(config)
        missing = [n for n in specs if n not in params]
        extra = [n for n in params if n not in specs]
        if missing or extra:
            raise ContractError(
                f"parameters missing {missing}, unexpected {extra}")
        dt = config.np_dtype
        self.config = config
        self.params: dict[str, Tensor] = {}
        for name, (shape, _fill) in specs.items():
            t = params[name]
            t = t if isinstance(t, Tensor) else Tensor(t)
            if t.shape != shape:
                raise ShapeError(f"parameter {name!r} has shape {t.shape}, "
                                 f"the config needs {shape}")
            if t.dtype != dt:
                raise ContractError(f"parameter {name!r} is {t.dtype}, "
                                    f"the config needs {config.dtype}")
            self.params[name] = t

        def get(prefix, *names):
            return [self.params[prefix + n] for n in names]

        def attention(prefix):
            return AttentionParams(*get(prefix, *_ATTN_WEIGHTS))

        self.layers: list = []
        for li in range(config.n_layers):
            p = f"layer{li}."
            if config.kind == "lstm":
                self.layers.append(LstmLayer(*get(p, "wx", "wh", "b")))
                continue
            hcam = None
            if config.kind == "hcam":
                hcam = HcamParams(*get(p + "hcam.", "ln.g", "ln.b", "w_rel"),
                                  attention(p + "hcam.mha."))
            self.layers.append(AttnLayer(
                *get(p, "attn_ln.g", "attn_ln.b"), attention(p + "attn."), hcam,
                *get(p, "mlp_ln.g", "mlp_ln.b", "mlp.w1", "mlp.b1", "mlp.w2",
                     "mlp.b2")))
        self.pos_local = sinusoidal_table(config.span, config.d_model, dtype=dt)
        self.pos_chunk = sinusoidal_table(config.chunk_size, config.d_model,
                                          dtype=dt)

    def watch_all(self, tape: GradTape) -> None:
        for t in self.params.values():
            tape.watch(t)

    def n_params(self) -> int:
        return sum(int(p.size) for p in self.params.values())


@dataclass
class StackState:
    """Per-episode recurrent state, bound to the tape that built it and
    to the batch shape of its first input. carry holds one entry per
    layer, None until its first step: an attention layer's last span - 1
    raw inputs (..., rows, d), None while span is 1; an LSTM layer's (h, c).
    """

    batch_shape: tuple | None = None
    memories: list[ChunkMemory] = field(default_factory=list)
    carry: list = field(default_factory=list)


def init_state(model: Model) -> StackState:
    """A fresh state, its batch shape left to the first input, so one
    episode may be fed as (d,) steps or as a (T, d) sequence."""
    cfg = model.config
    memories = []
    if cfg.kind == "hcam":
        memories = [ChunkMemory(cfg.chunk_size, cfg.overlap, cfg.capacity)
                    for _ in range(cfg.n_layers)]
    return StackState(memories=memories, carry=[None] * cfg.n_layers)


def lstm_cell(tape: GradTape, x: Tensor, h: Tensor, c: Tensor,
              layer: LstmLayer) -> tuple[Tensor, Tensor]:
    """One standard LSTM update; gate order is input, forget, cell, output."""
    d = layer.wx.shape[0]
    gates = tape.add(
        tape.add(tape.matmul(x, layer.wx), tape.matmul(h, layer.wh)), layer.b)
    i = tape.sigmoid(tape.slice_ax(gates, -1, 0, d))
    f = tape.sigmoid(tape.slice_ax(gates, -1, d, 2 * d))
    g = tape.tanh(tape.slice_ax(gates, -1, 2 * d, 3 * d))
    o = tape.sigmoid(tape.slice_ax(gates, -1, 3 * d, 4 * d))
    c2 = tape.add(tape.multiply(f, c), tape.multiply(i, g))
    h2 = tape.multiply(o, tape.tanh(c2))
    return h2, c2


def _mlp(tape: GradTape, layer: AttnLayer, h: Tensor) -> Tensor:
    z = tape.layer_norm(h, layer.mlp_ln_g, layer.mlp_ln_b)
    a = tape.relu(tape.add(tape.matmul(z, layer.w1), layer.b1))
    return tape.add(h, tape.add(tape.matmul(a, layer.w2), layer.b2))


def _as_rows(tape: GradTape, x: Tensor, d: int):
    """Normalize a step input to (batch..., 1, d); returns (rows, restore)."""
    if x.shape[-1] != d:
        raise ContractError(f"input width {x.shape[-1]} != d_model {d}")
    if x.ndim == 1:
        return tape.reshape(x, (1, 1, d)), lambda t: tape.reshape(t, (d,))
    if x.ndim >= 2 and x.shape[-2] == 1:
        return x, lambda t: t
    shape = x.shape[:-1] + (1, d)
    return tape.reshape(x, shape), lambda t: tape.reshape(t, x.shape)


def _forward(tape: GradTape, model: Model, xs: Tensor, state: StackState,
             counter: ScoreCounter | None, last_only: bool = False) -> Tensor:
    """The one per-layer routine behind forward_sequence and stack_step.

    last_only queries the final layer at the last position only; its
    earlier positions are keys-only context, as a carry is. Memory writes
    and carries are built from each layer's input, so the state comes out
    the same either way.
    """
    cfg = model.config
    t_len = xs.shape[-2]
    batch_shape = xs.shape[:-2]
    if state.batch_shape is None:
        state.batch_shape = batch_shape
    elif batch_shape != state.batch_shape:
        raise ShapeError(f"input batch shape {batch_shape} != the state's "
                         f"{state.batch_shape}")

    if cfg.kind == "lstm":
        lead = batch_shape if batch_shape else (1,)
        zeros = Tensor(np.zeros(lead + (cfg.d_model,), dtype=cfg.np_dtype))
        outs = []
        for t in range(t_len):
            x = tape.reshape(tape.slice_ax(xs, -2, t, t + 1),
                             lead + (cfg.d_model,))
            for li, layer in enumerate(model.layers):
                h, c = state.carry[li] or (zeros, zeros)
                x, c = lstm_cell(tape, x, h, c, layer)
                state.carry[li] = (x, c)
            outs.append(tape.reshape(x, batch_shape + (1, cfg.d_model)))
        return outs[-1] if last_only else tape.concat(outs, axis=-2)

    topk = cfg.top_k if cfg.kind == "trxl_topk" else None
    x = xs
    for li, layer in enumerate(model.layers):
        carry = state.carry[li]
        seq = x if carry is None else tape.concat([carry, x], axis=-2)
        # the next call's carry: this layer's last span - 1 raw inputs
        s_total = seq.shape[-2]
        keep = min(s_total, cfg.span - 1)
        state.carry[li] = (tape.slice_ax(seq, -2, s_total - keep, s_total)
                           if keep else None)
        n_carry = s_total - t_len
        queries = x
        if last_only and li == len(model.layers) - 1:
            # the last position sees only the last span rows
            n_keys = min(s_total, cfg.span)
            if n_keys < s_total:
                seq = tape.slice_ax(seq, -2, s_total - n_keys, s_total)
            n_carry = n_keys - 1
            queries = tape.slice_ax(x, -2, t_len - 1, t_len)
        normed = tape.layer_norm(seq, layer.attn_ln_g, layer.attn_ln_b)

        # hcam's counter counts recall alone; the XL kinds count attention
        att = local_attention(
            tape, normed, cfg.local_window, layer.attn, cfg.n_heads,
            pos_table=model.pos_local, n_carry=n_carry,
            counter=None if cfg.kind == "hcam" else counter,
            xl_extra=cfg.span - cfg.local_window, topk=topk)
        h = tape.add(queries, att)
        if cfg.kind == "hcam":
            # chunks hold the raw layer inputs; one call selects for each
            # stretch of query rows whose windows of chunks have one width
            summaries, chunks, lo, hi = state.memories[li].write(x.data)
            q = h.shape[-2]
            h = hcam_block(tape, h, summaries, chunks, layer.hcam, cfg.n_heads,
                           cfg.top_k, pos_table=model.pos_chunk,
                           counter=counter, visible=(lo[-q:], hi[-q:]))
        x = _mlp(tape, layer, h)
    return x


def forward_sequence(
    tape: GradTape,
    model: Model,
    xs: Tensor,
    state: StackState | None = None,
    counter: ScoreCounter | None = None,
    last_only: bool = False,
) -> tuple[Tensor, StackState]:
    """Run T timesteps at once; equals T stack_step calls to float rounding.

    xs is (batch..., T, d_model). state=None starts a fresh episode;
    passing the returned state continues one on the same tape.

    last_only returns only the last timestep's output, (batch..., 1,
    d_model), for a readout that reads nothing else: the final layer then
    runs attention, recall and MLP for that one row. The returned state is
    the same as a full call's.
    """
    cfg = model.config
    if xs.ndim < 2:
        raise ContractError("forward_sequence needs (..., T, d_model) input")
    if xs.shape[-1] != cfg.d_model:
        raise ContractError(f"input width {xs.shape[-1]} != d_model {cfg.d_model}")
    if xs.shape[-2] == 0:
        raise ContractError("forward_sequence needs at least one timestep")
    if state is None:
        state = init_state(model)
    return _forward(tape, model, xs, state, counter, last_only), state


def stack_step(tape: GradTape, model: Model, state: StackState, x: Tensor,
               counter: ScoreCounter | None = None) -> Tensor:
    """Advance the whole stack one timestep: the T=1 case of forward_sequence.

    x is one d_model row, optionally with leading batch axes. Accepted
    shapes: (d,), (batch..., d), or (batch..., 1, d); the output has the
    shape of x. state is updated in place.
    """
    rows, restore = _as_rows(tape, x, model.config.d_model)
    return restore(_forward(tape, model, rows, state, counter))
