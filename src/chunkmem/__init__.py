"""Chunked episodic memory with two-stage attention, on plain NumPy.

The pieces compose bottom-up: a reverse-mode tape (`tensor`), detached
chunked storage (`memory`), the attention blocks (`attention`), full
models and baselines (`stack`), task generators (`tasks`), and a
deterministic training loop (`training`). Most scripts only need the
names re-exported here.
"""

from .attention import (
    AttentionParams,
    HcamParams,
    ScoreCounter,
    chunk_relevance,
    hcam_block,
    local_attention,
    multi_head_attention,
    relative_attention_weights,
    sinusoidal_table,
    top_k_select,
)
from .benchmark import BenchReport, format_report, run_bench
from .errors import (
    CheckpointError,
    ContractError,
    EmptyMemoryError,
    NonFiniteLossError,
    ShapeError,
    ShapeMismatchError,
    TruncatedBlobError,
    VersionMismatchError,
)
from .memory import ChunkMemory
from .optim import Adam
from .rng import episode_rng, make_rng
from .stack import (
    Model,
    ModelConfig,
    StackState,
    forward_sequence,
    init_state,
    parameter_count,
    parity_report,
    stack_step,
)
from .tasks import (
    DANCE_NAMES,
    DANCE_STEPS,
    ballet_batch,
    generate_ballet_episode,
    generate_pai_episode,
    pai_batch,
)
from .tensor import GradTape, Gradients, Tensor
from .training import (
    MetricsRow,
    RunConfig,
    build_model,
    evaluate,
    load_checkpoint,
    read_metrics_csv,
    save_checkpoint,
    train,
)

__all__ = [
    "Adam",
    "AttentionParams",
    "BenchReport",
    "CheckpointError",
    "ChunkMemory",
    "ContractError",
    "DANCE_NAMES",
    "DANCE_STEPS",
    "EmptyMemoryError",
    "GradTape",
    "Gradients",
    "HcamParams",
    "MetricsRow",
    "Model",
    "ModelConfig",
    "NonFiniteLossError",
    "RunConfig",
    "ScoreCounter",
    "ShapeError",
    "ShapeMismatchError",
    "StackState",
    "Tensor",
    "TruncatedBlobError",
    "VersionMismatchError",
    "ballet_batch",
    "build_model",
    "chunk_relevance",
    "evaluate",
    "episode_rng",
    "forward_sequence",
    "format_report",
    "generate_ballet_episode",
    "generate_pai_episode",
    "hcam_block",
    "init_state",
    "load_checkpoint",
    "local_attention",
    "make_rng",
    "multi_head_attention",
    "pai_batch",
    "parameter_count",
    "parity_report",
    "read_metrics_csv",
    "relative_attention_weights",
    "run_bench",
    "save_checkpoint",
    "sinusoidal_table",
    "stack_step",
    "top_k_select",
    "train",
]
