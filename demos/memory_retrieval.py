"""
Show the two-stage memory read on synthetic vectors: a stream of events
goes into chunked storage, a query first scores chunk summaries, then
attends in detail only inside the few chunks it picked.

One event in the stream is distinctive; the query is a noisy copy of it.
The demo prints which chunk the relevance softmax picks and how sharp
that choice is compared to a uniform read.

Run with  python3 demos/memory_retrieval.py
"""
import numpy as np

from chunkmem.attention import (
    AttentionParams,
    HcamParams,
    chunk_relevance,
    hcam_block,
    sinusoidal_table,
    top_k_select,
)
from chunkmem.memory import ChunkMemory
from chunkmem.rng import make_rng
from chunkmem.tensor import GradTape, Tensor

d = 16
chunk_size = 4
n_steps = 32
rng = make_rng(3)

# Stream 32 events into memory. Step 13 is the odd one out: a fixed
# pattern with a big norm, everything else is small noise.
special = np.zeros(d)
special[::2] = 2.0
mem = ChunkMemory(chunk_size=chunk_size)
for t in range(n_steps):
    row = special if t == 13 else 0.3 * rng.normal(size=d)
    mem.write_step(row)

summaries, chunks = mem.read()
print(f"stored {n_steps} events as {mem.n_chunks} chunks of {chunk_size}")
print(f"the distinctive event sits in chunk {13 // chunk_size}")

# Identity relevance projection: the query scores summaries by plain
# dot product, which is all this demo needs.
params = HcamParams(
    ln_gain=Tensor(np.ones(d)),
    ln_bias=Tensor(np.zeros(d)),
    w_rel=Tensor(np.eye(d)),
    mha=AttentionParams(*(Tensor(np.eye(d)) for _ in range(4))),
)

tape = GradTape(recording=False)
query = Tensor((special + 0.1 * rng.normal(size=d)).reshape(1, d))
normed = tape.layer_norm(query, params.ln_gain, params.ln_bias)
rel = chunk_relevance(tape, normed, summaries, params.w_rel)

ratios = rel.data[0] * rel.shape[-1]  # 1.0 is a chunk's uniform share
print("\nrelevance vs uniform share (1.0 = no preference):")
for i, r in enumerate(ratios):
    bar = "#" * int(round(r * 10))
    print(f"  chunk {i}: {r:5.2f} {bar}")

picked = top_k_select(rel.data, 2)[0]
print(f"\ntop-2 selection: chunks {picked.tolist()}")

# Full block read: detail attention runs only inside the two picked
# chunks, so this query scored 8 summaries + 2*4 stored rows = 16
# pairs instead of the 32 a flat read would need.
pos = sinusoidal_table(chunk_size, d)
out = hcam_block(tape, query, summaries, chunks, params, n_heads=2,
                 top_k=2, pos_table=pos)
delta = out.data[0] - query.data[0]
print(f"read-out added a vector with cosine "
      f"{np.dot(delta, special) / (np.linalg.norm(delta) * np.linalg.norm(special)):.3f} "
      f"to the stored special event")
