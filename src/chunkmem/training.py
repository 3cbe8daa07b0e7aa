"""Training loop, evaluation, metrics rows, and checkpoint files.

A run is described by a RunConfig (task + model + optimizer settings).
Episodes come from per-index seed streams, so a run with the same seed
reproduces its metrics bitwise except for the wall-clock column. Training
aborts with NonFiniteLossError the moment the loss stops being finite, and
evaluation the moment its logits do.

Checkpoints are a single file: a text manifest (schema version, model
configuration, parameter names/shapes/byte offsets) followed by one blank
line and the little-endian float32 parameter blob. Loading checks the
manifest against stack.param_specs for its configuration and hands the
stored values to Model.from_params; no random model is built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .attention import ScoreCounter
from .errors import (
    CheckpointError,
    ContractError,
    NonFiniteLossError,
    ShapeMismatchError,
    TruncatedBlobError,
    VersionMismatchError,
)
from .optim import Adam
from .stack import KINDS, Model, ModelConfig, forward_sequence, param_specs
from .tasks import (
    ballet_batch,
    ballet_logits,
    encode_ballet_tokens,
    pai_batch,
    pai_forward,
    reconstruction_aux_loss,
)
from .tensor import GradTape

MODEL_NAMES = tuple(k.replace("_", "-") for k in KINDS)

# Evaluation episodes come from indices at this offset so they can never
# collide with training episodes (a 30k-step run at batch 32 uses indices
# below one million).
EVAL_STREAM_OFFSET = 1_000_000_000

CHECKPOINT_VERSION = 1

METRICS_COLUMNS = ("step", "train_loss", "train_acc", "eval_acc",
                   "wall_ms", "attention_score_count")


@dataclass
class RunConfig:
    """Everything one training run needs, in CLI-flag vocabulary."""

    task: str = "ballet"
    n_dances: int = 2
    delay: int = 16
    chain_length: int = 1
    n_pairs: int = 8
    item_dim: int = 32
    model: str = "hcam"
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    chunk_size: int = 8
    top_k: int = 2
    local_window: int = 16
    xl_extra_length: int = 64
    aux_weight: float = 1.0
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    batch: int = 32
    steps: int = 1000
    seed: int = 0
    eval_every: int = 200
    eval_episodes: int = 200
    target_accuracy: float = 0.0  # stop once eval reaches this; 0 disables
    dtype: str = "float32"

    def __post_init__(self):
        if self.model not in MODEL_NAMES:
            raise ContractError(
                f"model must be one of {MODEL_NAMES}, got {self.model!r}")
        if self.batch < 1:
            raise ContractError(f"batch must be >= 1, got {self.batch}")
        if self.steps < 0:
            raise ContractError(f"steps must be >= 0, got {self.steps}")
        for name in ("lr", "aux_weight", "target_accuracy"):
            if not math.isfinite(getattr(self, name)):
                raise ContractError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ContractError(f"lr must be > 0, got {self.lr}")
        if self.aux_weight < 0:
            raise ContractError(f"aux_weight must be >= 0, got {self.aux_weight}")
        if not 0 <= self.target_accuracy <= 1:
            raise ContractError(f"target_accuracy must be in [0, 1], got "
                                f"{self.target_accuracy}")
        if self.eval_every < 1:
            raise ContractError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.eval_episodes < 1:
            raise ContractError(
                f"eval_episodes must be >= 1, got {self.eval_episodes}")
        if self.task == "pai" and self.model != "hcam":
            raise ContractError("the pai task runs on the hcam model only")
        model_config(self)  # the model settings, checked by ModelConfig


def model_config(rc: RunConfig) -> ModelConfig:
    """Translate run settings into a model configuration."""
    return ModelConfig(
        kind=rc.model.replace("-", "_"),
        d_model=rc.d_model,
        n_layers=rc.n_layers,
        n_heads=rc.n_heads,
        chunk_size=rc.chunk_size,
        top_k=rc.top_k,
        local_window=rc.local_window,
        xl_extra_length=rc.xl_extra_length,
        dancer_vocab=max(9, rc.n_dances + 1),
        n_classes=rc.n_dances if rc.task == "ballet" else 2,
        item_dim=rc.item_dim,
        task=rc.task,
        dtype=rc.dtype,
    )


def build_model(rc: RunConfig) -> Model:
    return Model(model_config(rc), seed=rc.seed)


@dataclass
class MetricsRow:
    step: int
    train_loss: float
    train_acc: float
    eval_acc: float
    wall_ms: float
    attention_score_count: int


def write_metrics_csv(path: str, rows: list[MetricsRow]) -> None:
    """Full-precision CSV; floats use repr so reruns compare bitwise."""
    with open(path, "w") as f:
        f.write(",".join(METRICS_COLUMNS) + "\n")
        for r in rows:
            f.write(f"{r.step},{r.train_loss!r},{r.train_acc!r},"
                    f"{r.eval_acc!r},{r.wall_ms!r},{r.attention_score_count}\n")


def read_metrics_csv(path: str) -> list[MetricsRow]:
    with open(path) as f:
        header = f.readline().strip()
        if header != ",".join(METRICS_COLUMNS):
            raise ContractError(f"unexpected metrics header {header!r}")
        rows = []
        for line in f:
            s, tl, ta, ea, wm, sc = line.strip().split(",")
            rows.append(MetricsRow(int(s), float(tl), float(ta), float(ea),
                                   float(wm), int(sc)))
    return rows


def _batch(tape, model, rc, start, count, counter=None, last_only=False):
    """Episodes start..start+count through the model: (logits, labels, aux).

    aux is the reconstruction loss times aux_weight: None for pai, at
    aux_weight 0 and under last_only. last_only runs ballet episodes with
    forward_sequence's last_only, since the readout reads only the final
    step; pai's probe is a one-step sequence already.
    """
    if rc.task == "pai":
        pairs, probe, choices, labels = pai_batch(
            rc.chain_length, rc.n_pairs, rc.item_dim, rc.seed, start, count)
        return (pai_forward(tape, model, pairs, probe, choices, counter=counter),
                labels, None)
    dancers, directions, queries, labels = ballet_batch(
        rc.n_dances, rc.delay, rc.seed, start, count)
    xs = encode_ballet_tokens(tape, model, dancers, directions, queries)
    ys, _ = forward_sequence(tape, model, xs, counter=counter,
                             last_only=last_only)
    logits = ballet_logits(tape, model, ys)
    aux = None
    if rc.aux_weight > 0 and not last_only:
        aux = tape.scale(
            reconstruction_aux_loss(tape, model, ys, dancers, directions),
            rc.aux_weight)
    return logits, labels, aux


def _correct(logits, labels) -> int:
    return int(np.sum(np.argmax(logits.data, axis=-1) == labels))


def _minibatch(tape, model, rc, start, counter=None):
    """The training loss on episodes start..start+rc.batch, and how many
    of them the model answers right."""
    logits, labels, aux = _batch(tape, model, rc, start, rc.batch, counter)
    loss = tape.cross_entropy_logits(logits, labels)
    if aux is not None:
        loss = tape.add(loss, aux)
    return loss, _correct(logits, labels)


@np.errstate(over="ignore", invalid="ignore")  # the finite check reports it
def evaluate(model: Model, rc: RunConfig, n_episodes: int | None = None,
             stream_offset: int = EVAL_STREAM_OFFSET,
             max_batch: int = 256) -> float:
    """Accuracy on held-out episodes (a fixed stream disjoint from training),
    run max_batch episodes at a time. Logits that are not finite raise
    NonFiniteLossError, since they would score every episode as class 0."""
    n = rc.eval_episodes if n_episodes is None else n_episodes
    if n < 1:
        raise ContractError(f"n_episodes must be >= 1, got {n}")
    if max_batch < 1:
        raise ContractError(f"max_batch must be >= 1, got {max_batch}")
    tape = GradTape(recording=False)
    correct = 0
    for done in range(0, n, max_batch):
        logits, labels, _ = _batch(tape, model, rc, stream_offset + done,
                                   min(max_batch, n - done), last_only=True)
        if not np.isfinite(logits.data).all():
            raise NonFiniteLossError(
                f"evaluation logits became non-finite at episode {done}")
        correct += _correct(logits, labels)
    return correct / n


@np.errstate(over="ignore", invalid="ignore")  # the finite checks report it
def train(rc: RunConfig, metrics_path: str | None = None,
          checkpoint_path: str | None = None, progress=None,
          init_model: Model | None = None) -> tuple[Model, list[MetricsRow]]:
    """Run the configured training; returns the model and the metrics rows.

    A row is recorded every eval_every steps and at the last step:
    train_loss/train_acc average the interval since the previous row,
    eval_acc is measured on the held-out stream, wall_ms is milliseconds
    since the run started, and attention_score_count accumulates over all
    training forwards (evaluation is not counted). Training stops early
    once eval_acc reaches target_accuracy, when that is set.

    init_model warm-starts from existing weights, such as a loaded
    checkpoint's, and is updated in place; the optimizer state is fresh.
    Its model configuration must match the run's.
    """
    if init_model is not None:
        expected = model_config(rc)
        if init_model.config != expected:
            raise ContractError(
                f"warm-start model config {init_model.config} does not match "
                f"the run's {expected}")
        model = init_model
    else:
        model = build_model(rc)
    opt = Adam(model.params, lr=rc.lr, beta1=rc.beta1, beta2=rc.beta2)
    counter = ScoreCounter()

    rows: list[MetricsRow] = []
    run_loss = 0.0
    run_correct = 0
    run_n = 0
    t0 = perf_counter()

    for step in range(1, rc.steps + 1):
        tape = GradTape()
        model.watch_all(tape)
        loss, correct = _minibatch(tape, model, rc, (step - 1) * rc.batch,
                                   counter)
        value = float(loss.data)
        if not np.isfinite(value):
            norms = ", ".join(  # in float64: float32 weights near 1e31 are finite
                f"{k}={np.linalg.norm(p.data.astype(np.float64)):.3e}"
                for k, p in model.params.items())
            raise NonFiniteLossError(
                f"loss became {value!r} at step {step}; parameter norms: {norms}")
        grads = tape.backward(loss)
        opt.step(grads)
        run_loss += value
        run_correct += correct
        run_n += rc.batch

        if step % rc.eval_every == 0 or step == rc.steps:
            eval_acc = evaluate(model, rc)
            row = MetricsRow(
                step=step,
                train_loss=run_loss * rc.batch / run_n,
                train_acc=run_correct / run_n,
                eval_acc=eval_acc,
                wall_ms=(perf_counter() - t0) * 1000.0,
                attention_score_count=counter.scores,
            )
            rows.append(row)
            run_loss, run_correct, run_n = 0.0, 0, 0
            if progress is not None:
                progress(row)
            if metrics_path is not None:
                write_metrics_csv(metrics_path, rows)
            if rc.target_accuracy > 0 and eval_acc >= rc.target_accuracy:
                break

    if metrics_path is not None:
        write_metrics_csv(metrics_path, rows)
    if checkpoint_path is not None:
        save_checkpoint(checkpoint_path, model)
    return model, rows


# ------------------------------------------------------------- checkpoints

def save_checkpoint(path: str, model: Model) -> None:
    """Write the manifest + parameter blob; see the module docstring.

    Parameters are stored as little-endian float32 regardless of the
    model's compute dtype, so a save/load/save cycle is byte-identical.
    """
    cfg = model.config
    lines = [f"chunkmem checkpoint {CHECKPOINT_VERSION}"]
    for f in dataclasses.fields(ModelConfig):
        lines.append(f"config {f.name} {getattr(cfg, f.name)}")
    offset = 0  # byte offset into the blob
    blobs = []
    for name, p in model.params.items():
        shape = "x".join(str(s) for s in p.data.shape)
        lines.append(f"param {name} {shape} {offset}")
        offset += 4 * p.data.size
        blobs.append(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    lines.append(f"blob {offset}")
    with open(path, "wb") as f:
        f.write(("\n".join(lines) + "\n\n").encode())
        for b in blobs:
            f.write(b)


_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ModelConfig)}


def load_checkpoint(path: str) -> Model:
    """Rebuild a model from a checkpoint file.

    Raises VersionMismatchError, ShapeMismatchError, or TruncatedBlobError
    for the corresponding defect; CheckpointError for anything else wrong
    with the file.
    """
    with open(path, "rb") as f:
        raw = f.read()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError("no blank line separating manifest from blob")
    try:
        header = raw[:sep].decode()
    except UnicodeDecodeError as e:
        raise CheckpointError(f"manifest is not UTF-8: {e}") from None
    blob = raw[sep + 2:]

    lines = header.split("\n")
    expected_first = f"chunkmem checkpoint {CHECKPOINT_VERSION}"
    if lines[0] != expected_first:
        raise VersionMismatchError(
            f"expected {expected_first!r}, file starts with {lines[0]!r}")

    cfg_kv = {}
    manifest = []  # (name, shape tuple, offset)
    total = None
    for line in lines[1:]:
        kind, _, rest = line.partition(" ")
        try:
            if kind == "config":
                key, _, value = rest.partition(" ")
                if key not in _CONFIG_TYPES:
                    raise CheckpointError(f"unknown config key {key!r}")
                cfg_kv[key] = _CONFIG_TYPES[key](value)
            elif kind == "param":
                name, shape_s, off_s = rest.rsplit(" ", 2)
                shape = tuple(int(s) for s in shape_s.split("x"))
                manifest.append((name, shape, int(off_s)))
            elif kind == "blob":
                total = int(rest)
            else:
                raise CheckpointError(f"unrecognized manifest line {line!r}")
        except CheckpointError:
            raise
        except ValueError as e:  # int() or unpacking of a malformed field
            raise CheckpointError(
                f"malformed manifest line {line!r}: {e}") from None
    if total is None:
        raise CheckpointError("manifest has no blob size line")

    try:
        config = ModelConfig(**cfg_kv)
    except ContractError as e:
        raise CheckpointError(f"manifest config is invalid: {e}") from None
    specs = param_specs(config)
    if len(manifest) != len(specs):
        raise ShapeMismatchError(
            f"manifest lists {len(manifest)} parameters, "
            f"model has {len(specs)}")
    seen = set()
    offset = 0  # bytes
    for name, shape, off in manifest:
        if name not in specs:
            raise ShapeMismatchError(f"manifest names unknown parameter {name!r}")
        if name in seen:
            raise ShapeMismatchError(f"manifest lists parameter {name!r} twice")
        seen.add(name)
        expected = specs[name][0]
        if shape != expected:
            raise ShapeMismatchError(
                f"parameter {name!r} stored as {shape}, model wants {expected}")
        if off != offset:
            raise ShapeMismatchError(
                f"parameter {name!r} byte offset {off} disagrees with running "
                f"total {offset}")
        offset += 4 * int(np.prod(shape, dtype=np.int64))
    if offset != total:
        raise ShapeMismatchError(
            f"blob size line says {total} bytes, parameters sum to {offset}")
    if len(blob) < total:
        raise TruncatedBlobError(
            f"blob has {len(blob)} bytes, manifest needs {total}")
    if len(blob) > total:
        raise CheckpointError(
            f"{len(blob) - total} trailing bytes after the blob")

    values = np.frombuffer(blob, dtype="<f4", count=total // 4)
    params = {}
    for name, shape, off in manifest:
        n = int(np.prod(shape, dtype=np.int64))
        params[name] = values[off // 4:off // 4 + n].reshape(shape).astype(
            config.np_dtype)
    return Model.from_params(config, params)
