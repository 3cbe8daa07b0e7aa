"""Attention-cost accounting: sparse chunked recall vs dense attention.

The cost model counts score computations as (query, key) pairs. For one
query over N stored chunks of C timesteps each, chunked recall scores N
summaries plus the k selected chunks' timesteps (N + k*C); dense attention
scores every stored timestep (N*C). The instrumented counters must hit
those numbers exactly; wall times are medians over repeated forwards,
each timed after as many untimed ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .attention import ScoreCounter, hcam_block, multi_head_attention
from .errors import ContractError
from .rng import make_rng
from .stack import Model, ModelConfig
from .tensor import GradTape, Tensor


def hcam_score_count(n_chunks: int, chunk_size: int, top_k: int) -> int:
    """Scores one query pays with chunked recall: summaries + selected."""
    return n_chunks + top_k * chunk_size


def dense_score_count(n_chunks: int, chunk_size: int) -> int:
    """Scores one query pays attending over every stored timestep."""
    return n_chunks * chunk_size


@dataclass
class BenchReport:
    n_chunks: int
    chunk_size: int
    top_k: int
    d_model: int
    n_heads: int
    trials: int
    hcam_scores: int   # measured per-query counter values
    dense_scores: int
    hcam_ms: float     # median wall over trials
    dense_ms: float

    @property
    def score_ratio(self) -> float:
        return self.dense_scores / self.hcam_scores


def run_bench(n_chunks: int = 32, chunk_size: int = 8, top_k: int = 2,
              d_model: int = 64, n_heads: int = 4, trials: int = 21,
              seed: int = 0) -> BenchReport:
    """Measure one query against N stored chunks both ways.

    The sparse path is hcam_block (relevance over summaries, detail
    attention into the top-k chunks); the dense path is one attention call
    over all N*C stored timesteps. Counters must equal N + k*C and N*C.
    Both take their weights from one layer of a seeded hcam Model.
    """
    for name, value in (("n_chunks", n_chunks), ("chunk_size", chunk_size),
                        ("trials", trials)):
        if value < 1:
            raise ContractError(f"{name} must be >= 1, got {value}")
    if top_k > n_chunks:
        raise ContractError(f"top_k {top_k} > n_chunks {n_chunks}")
    d = d_model
    layer = Model(ModelConfig(kind="hcam", d_model=d, n_layers=1,
                              n_heads=n_heads), seed).layers[0]
    hparams, dense_params = layer.hcam, layer.attn
    rng = make_rng(seed)
    chunks = rng.standard_normal((n_chunks, chunk_size, d))
    summaries = chunks.mean(axis=1)
    flat = chunks.reshape(n_chunks * chunk_size, d)
    query = Tensor(rng.standard_normal((1, d)))

    tape = GradTape(recording=False)

    hc = ScoreCounter()
    hcam_block(tape, query, summaries, chunks, hparams, n_heads, top_k,
               counter=hc)
    dc = ScoreCounter()
    multi_head_attention(tape, query, Tensor(flat), dense_params, n_heads,
                         counter=dc)

    def median_ms(fn):
        for _ in range(trials):  # untimed: BLAS threads and caches start here
            fn()
        times = []
        for _ in range(trials):
            t0 = perf_counter()
            fn()
            times.append((perf_counter() - t0) * 1000.0)
        return float(np.median(times))

    hcam_ms = median_ms(lambda: hcam_block(
        tape, query, summaries, chunks, hparams, n_heads, top_k))
    dense_ms = median_ms(lambda: multi_head_attention(
        tape, query, Tensor(flat), dense_params, n_heads))

    return BenchReport(
        n_chunks=n_chunks, chunk_size=chunk_size, top_k=top_k,
        d_model=d_model, n_heads=n_heads, trials=trials,
        hcam_scores=hc.scores, dense_scores=dc.scores,
        hcam_ms=hcam_ms, dense_ms=dense_ms)


def format_report(report: BenchReport, n_layers: int = 2) -> str:
    """Plain-text lines: measured counts, closed forms, timing, parity."""
    r = report
    n_hcam, n_trxl = (Model(ModelConfig(
        kind=kind, d_model=r.d_model, n_layers=n_layers,
        n_heads=r.n_heads)).n_params() for kind in ("hcam", "trxl"))
    lines = [
        f"config n_chunks {r.n_chunks} chunk_size {r.chunk_size} "
        f"top_k {r.top_k} d_model {r.d_model} heads {r.n_heads}",
        f"scores_per_query hcam {r.hcam_scores} dense {r.dense_scores} "
        f"ratio {r.score_ratio:.2f}",
        f"closed_form hcam {hcam_score_count(r.n_chunks, r.chunk_size, r.top_k)} "
        f"dense {dense_score_count(r.n_chunks, r.chunk_size)}",
        f"median_ms hcam {r.hcam_ms:.3f} dense {r.dense_ms:.3f} "
        f"(trials {r.trials})",
        f"params hcam {n_hcam} trxl {n_trxl} extra {n_hcam - n_trxl} "
        f"({n_layers} layers)",
    ]
    return "\n".join(lines)
