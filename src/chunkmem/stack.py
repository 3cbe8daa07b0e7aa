"""Layered sequence models over the attention kernels.

Every layer of the chunked-recall stack does, in order: write the raw layer
input to that layer's chunk memory, add windowed causal self-attention, add
relevance-gated recall over the memory's frozen chunks, add an MLP. One
per-layer routine runs every model kind. forward_sequence hands it a whole
sequence, which recall handles by grouping positions that see the same
number of frozen chunks; stack_step hands it a one-step sequence. The
tests check both against a step-at-a-time reference that writes to and
reads from a ChunkMemory on every step.

Baselines: a TransformerXL-flavored stack (windowed attention extended by a
gradient-stopped cache of older inputs), the same with per-head top-k score
truncation, and a stacked LSTM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionParams,
    HcamParams,
    NEG_INF,
    ScoreCounter,
    hcam_block,
    local_attention,
    multi_head_attention,
    project_chunks,
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
        for name in ("d_model", "n_heads", "n_layers", "dancer_vocab",
                     "direction_vocab", "query_vocab", "n_classes", "item_dim"):
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


def parameter_count(config: ModelConfig, seed: int = 0) -> int:
    return Model(config, seed).n_params()


def parity_report(d_model: int = 64, n_layers: int = 2, n_heads: int = 4) -> str:
    """Parameter counts for the recall stack vs the XL baseline, same width."""
    lines = []
    for kind in ("hcam", "trxl"):
        cfg = ModelConfig(kind=kind, d_model=d_model, n_layers=n_layers,
                          n_heads=n_heads)
        lines.append(f"{kind}: {parameter_count(cfg)} parameters "
                     f"(d_model={d_model}, layers={n_layers})")
    return "\n".join(lines)


@dataclass
class StackState:
    """Per-episode recurrent state. Bound to the tape that built it and to
    one batch shape, which the first input sets when it is None."""

    batch_shape: tuple | None = None
    memories: list[ChunkMemory] = field(default_factory=list)
    recent: list[list[Tensor]] = field(default_factory=list)  # raw layer inputs
    lstm_h: list[Tensor] = field(default_factory=list)
    lstm_c: list[Tensor] = field(default_factory=list)


def init_state(model: Model, batch_shape: tuple = ()) -> StackState:
    """A fresh state for inputs with leading axes batch_shape. () and (1,)
    leave the batch shape to the first input, so one episode may be fed as
    (d,) steps or as a (T, d) sequence."""
    cfg = model.config
    batch_shape = tuple(batch_shape)
    state = StackState(
        batch_shape=None if batch_shape in ((), (1,)) else batch_shape)
    if cfg.kind == "hcam":
        state.memories = [
            ChunkMemory(cfg.chunk_size, cfg.overlap, cfg.capacity)
            for _ in range(cfg.n_layers)
        ]
    if cfg.kind == "lstm":
        lead = batch_shape if batch_shape else (1,)
        z = np.zeros(lead + (cfg.d_model,), dtype=cfg.np_dtype)
        state.lstm_h = [Tensor(z.copy()) for _ in range(cfg.n_layers)]
        state.lstm_c = [Tensor(z.copy()) for _ in range(cfg.n_layers)]
    else:
        state.recent = [[] for _ in range(cfg.n_layers)]
    return state


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


def _trxl_attention(
    tape: GradTape,
    normed: Tensor,
    window: int,
    xl_extra: int,
    layer: AttnLayer,
    n_heads: int,
    pos_table: np.ndarray,
    n_carry: int = 0,
    topk: int | None = None,
    counter: ScoreCounter | None = None,
) -> Tensor:
    """Causal attention over a window + XL span with gradients stopped past
    the window. Keys appear twice (detached copy first, live copy second)
    with complementary band masks, so one softmax normalizes the whole span.
    """
    span = window + xl_extra
    s_total = normed.shape[-2]
    t_len = s_total - n_carry
    gq = np.arange(t_len) + n_carry
    g = np.arange(s_total)
    lag = gq[:, None] - g[None, :]
    start = np.maximum(0, gq - span + 1)
    codes = np.clip(g[None, :] - start[:, None], 0, span - 1)
    near = np.where((lag >= 0) & (lag < window), 0.0, NEG_INF)

    queries = tape.slice_ax(normed, -2, n_carry, s_total) if n_carry else normed
    if xl_extra == 0:
        return multi_head_attention(
            tape, queries, normed, layer.attn, n_heads, mask=near,
            key_pos=(pos_table, codes), topk=topk, counter=counter)
    far = np.where((lag >= window) & (lag < span), 0.0, NEG_INF)
    detached = Tensor(normed.data)
    keys = tape.concat([detached, normed], axis=-2)
    mask = np.concatenate([far, near], axis=-1)
    codes2 = np.concatenate([codes, codes], axis=-1)
    return multi_head_attention(
        tape, queries, keys, layer.attn, n_heads, mask=mask,
        key_pos=(pos_table, codes2), topk=topk, counter=counter)


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


def _hcam_over_sequence(tape, model: Model, mem: ChunkMemory, layer: AttnLayer,
                        x: Tensor, h: Tensor,
                        counter: ScoreCounter | None) -> Tensor:
    """Write x to the layer's memory, then recall for every position of h.

    Chunk contents are the raw layer inputs x. mem.write reports how many
    chunks each position sees: a position whose write completes a chunk
    already attends to it, and a chunk that a later position evicts stays
    visible to the positions before it. Consecutive positions seeing the
    same chunk count share one hcam_block call. Every chunk visible to any
    of them is projected to detail keys and values once, and each call
    selects its top-k from that projection by chunk offset.
    """
    cfg = model.config
    t_len = x.shape[-2]
    all_summ, all_chunks, n_vis = mem.write(x.data)

    # chunks [lo_first, n_last) cover every call's [lo, n) window
    lo_first = max(0, int(n_vis[0]) - mem.capacity)
    if n_vis[-1]:
        keys, values = project_chunks(
            tape, all_chunks[..., lo_first:n_vis[-1], :, :], layer.hcam,
            cfg.n_heads, model.pos_chunk)

    segs = []
    ts = 0
    while ts < t_len:
        te = ts + 1
        while te < t_len and n_vis[te] == n_vis[ts]:
            te += 1
        seg = tape.slice_ax(h, -2, ts, te)
        n = int(n_vis[ts])
        if n == 0:
            segs.append(seg)
        else:
            lo = max(0, n - mem.capacity)
            segs.append(hcam_block(
                tape, seg, all_summ[..., lo:n, :], all_chunks[..., lo:n, :, :],
                layer.hcam, cfg.n_heads, cfg.top_k,
                pos_table=model.pos_chunk, counter=counter,
                projected=(keys, values, lo - lo_first)))
        ts = te
    return segs[0] if len(segs) == 1 else tape.concat(segs, axis=-2)


def _forward(tape: GradTape, model: Model, xs: Tensor, state: StackState,
             counter: ScoreCounter | None) -> Tensor:
    """The one per-layer routine behind forward_sequence and stack_step."""
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
        outs = []
        for t in range(t_len):
            x = tape.reshape(tape.slice_ax(xs, -2, t, t + 1),
                             lead + (cfg.d_model,))
            for li, layer in enumerate(model.layers):
                h2, c2 = lstm_cell(
                    tape, x, state.lstm_h[li], state.lstm_c[li], layer)
                state.lstm_h[li] = h2
                state.lstm_c[li] = c2
                x = h2
            outs.append(tape.reshape(x, batch_shape + (1, cfg.d_model)))
        return tape.concat(outs, axis=-2)

    topk = cfg.top_k if cfg.kind == "trxl_topk" else None
    x = xs
    for li, layer in enumerate(model.layers):
        carry = state.recent[li]
        n_carry = len(carry)
        seq = tape.concat(list(carry) + [x], axis=-2) if carry else x
        normed = tape.layer_norm(seq, layer.attn_ln_g, layer.attn_ln_b)

        if cfg.kind == "hcam":
            att = local_attention(
                tape, normed, cfg.local_window, layer.attn, cfg.n_heads,
                pos_table=model.pos_local, n_carry=n_carry)
            h = tape.add(x, att)
            h = _hcam_over_sequence(tape, model, state.memories[li], layer,
                                    x, h, counter)
        else:
            att = _trxl_attention(
                tape, normed, cfg.local_window, cfg.xl_extra_length, layer,
                cfg.n_heads, model.pos_local, n_carry=n_carry, topk=topk,
                counter=counter)
            h = tape.add(x, att)
        y = _mlp(tape, layer, h)

        # roll the per-layer carry forward by t_len steps
        keep = cfg.span - 1
        if keep > 0:
            rows = list(carry)
            for t in range(max(0, t_len - keep), t_len):
                rows.append(tape.slice_ax(x, -2, t, t + 1))
            state.recent[li] = rows[-keep:]
        x = y
    return x


def forward_sequence(
    tape: GradTape,
    model: Model,
    xs: Tensor,
    state: StackState | None = None,
    counter: ScoreCounter | None = None,
) -> tuple[Tensor, StackState]:
    """Run T timesteps at once; equals T stack_step calls to float rounding.

    xs is (batch..., T, d_model). state=None starts a fresh episode;
    passing the returned state continues one on the same tape.
    """
    cfg = model.config
    if xs.ndim < 2:
        raise ContractError("forward_sequence needs (..., T, d_model) input")
    if xs.shape[-1] != cfg.d_model:
        raise ContractError(f"input width {xs.shape[-1]} != d_model {cfg.d_model}")
    if state is None:
        state = init_state(model, xs.shape[:-2])
    return _forward(tape, model, xs, state, counter), state


def stack_step(tape: GradTape, model: Model, state: StackState, x: Tensor,
               counter: ScoreCounter | None = None) -> Tensor:
    """Advance the whole stack one timestep: the T=1 case of forward_sequence.

    x is one d_model row, optionally with leading batch axes. Accepted
    shapes: (d,), (batch..., d), or (batch..., 1, d); the output has the
    shape of x. state is updated in place.
    """
    rows, restore = _as_rows(tape, x, model.config.d_model)
    return restore(_forward(tape, model, rows, state, counter))
