"""Episode generators and task heads for the two recall benchmarks.

Ballet recall: a sequence of dancers each performs a fixed 16-step dance,
separated by idle delays; the final token asks which dancer performed a
named dance, answered by dancer id. Solving it requires retrieving one
specific performance from memory, not a gist of the episode.

Paired association: pairs of random unit vectors are stored as two-row
chunks; a probe item must be matched to the item it was paired with
(direct recall) or to the far end of a two-pair chain (transitive
inference), against a lure from a different chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import json

import numpy as np

# Nothing here calls these two; perfbench's tracer wraps them in this module
# as well as in stack, so they stay importable from here.
from .attention import hcam_block, local_attention  # noqa: F401
from .errors import ContractError
from .memory import ChunkMemory
from .rng import episode_rng, make_rng
from .stack import TASKS, Model, forward_sequence, init_state
from .tensor import GradTape, Tensor

DANCE_NAMES = [
    "circle_cw", "circle_ccw", "up_down", "left_right", "diagonal_uldr",
    "diagonal_urdl", "plus_cw", "plus_ccw", "times_cw", "times_ccw",
    "zee", "chevron_down", "chevron_up",
]

# Direction codes 0..7, clockwise from 0 = up. One row per dance, 16 steps.
DANCE_STEPS = np.array([
    [0, 2, 4, 4, 6, 6, 0, 0, 2, 2, 4, 4, 6, 6, 0, 2],   # circle_cw
    [0, 6, 4, 4, 2, 2, 0, 0, 6, 6, 4, 4, 2, 2, 0, 6],   # circle_ccw
    [0, 4, 4, 0, 0, 4, 4, 0, 0, 4, 4, 0, 0, 4, 4, 0],   # up_down
    [2, 6, 6, 2, 2, 6, 6, 2, 2, 6, 6, 2, 2, 6, 6, 2],   # left_right
    [7, 3, 3, 7, 7, 3, 3, 7, 7, 3, 3, 7, 7, 3, 3, 7],   # diagonal_uldr
    [1, 5, 5, 1, 1, 5, 5, 1, 1, 5, 5, 1, 1, 5, 5, 1],   # diagonal_urdl
    [0, 4, 2, 6, 4, 0, 6, 2, 0, 4, 2, 6, 4, 0, 6, 2],   # plus_cw
    [0, 4, 6, 2, 4, 0, 2, 6, 0, 4, 6, 2, 4, 0, 2, 6],   # plus_ccw
    [1, 5, 3, 7, 5, 1, 7, 3, 1, 5, 3, 7, 5, 1, 7, 3],   # times_cw
    [7, 3, 5, 1, 3, 7, 1, 5, 7, 3, 5, 1, 3, 7, 1, 5],   # times_ccw
    [1, 6, 6, 2, 2, 5, 1, 5, 5, 2, 2, 6, 6, 1, 5, 1],   # zee
    [7, 4, 3, 1, 0, 5, 1, 5, 1, 4, 5, 7, 0, 3, 7, 3],   # chevron_down
    [3, 0, 7, 5, 4, 1, 5, 1, 5, 0, 1, 3, 4, 7, 3, 7],   # chevron_up
], dtype=np.int64)

DANCE_LENGTH = 16


def ballet_episode_length(n_dances: int, delay: int) -> int:
    return n_dances * DANCE_LENGTH + (n_dances - 1) * delay + 1


@dataclass
class BalletEpisode:
    """Index sequences; -1 marks steps where a field does not apply."""

    dancers: np.ndarray     # (T,) dancer id while dancing, else -1
    directions: np.ndarray  # (T,) direction code while dancing, else -1
    queries: np.ndarray     # (T,) dance index on the final step, else -1
    label: int              # dancer id that answers the query
    n_dances: int
    delay: int


def generate_ballet_episode(n_dances: int, delay: int, seed: int = 0,
                            rng=None) -> BalletEpisode:
    """One episode: n distinct dances back to back with idle delays, then a
    query for one performed dance, answered by the performer's id.

    Dancer ids are a random permutation of range(n_dances), so the answer
    must be read out of the episode, never inferred from the query.
    """
    if not 1 <= n_dances <= len(DANCE_NAMES):
        raise ContractError(
            f"n_dances must be in [1, {len(DANCE_NAMES)}], got {n_dances}")
    if delay < 0:
        raise ContractError(f"delay must be >= 0, got {delay}")
    if rng is None:
        rng = make_rng(seed)

    dance_idx = rng.choice(len(DANCE_NAMES), size=n_dances, replace=False)
    dancer_ids = rng.permutation(n_dances)
    queried = int(rng.integers(n_dances))

    t_len = ballet_episode_length(n_dances, delay)
    dancers = np.full(t_len, -1, dtype=np.int64)
    directions = np.full(t_len, -1, dtype=np.int64)
    queries = np.full(t_len, -1, dtype=np.int64)
    pos = 0
    for i in range(n_dances):
        dancers[pos:pos + DANCE_LENGTH] = dancer_ids[i]
        directions[pos:pos + DANCE_LENGTH] = DANCE_STEPS[dance_idx[i]]
        pos += DANCE_LENGTH
        if i < n_dances - 1:
            pos += delay
    queries[t_len - 1] = dance_idx[queried]
    return BalletEpisode(dancers, directions, queries,
                         int(dancer_ids[queried]), n_dances, delay)


def ballet_batch(n_dances: int, delay: int, seed: int, start: int,
                 count: int):
    """Episodes start..start+count stacked to (B, T) arrays plus labels.

    Episode i always comes from the stream (seed, i), so batching and
    order of generation never change an episode's content.
    """
    eps = [
        generate_ballet_episode(n_dances, delay, rng=episode_rng(seed, i))
        for i in range(start, start + count)
    ]
    return (np.stack([e.dancers for e in eps]),
            np.stack([e.directions for e in eps]),
            np.stack([e.queries for e in eps]),
            np.array([e.label for e in eps], dtype=np.int64))


def _null_rows(idx, vocab: int) -> np.ndarray:
    """idx with each -1 entry mapped to vocab - 1, its table's null row."""
    return np.where(np.asarray(idx) < 0, vocab - 1, idx)


def encode_ballet_tokens(tape: GradTape, model: Model, dancers, directions,
                         queries) -> Tensor:
    """Token embedding: dancer + direction + query tables summed.

    -1 entries use each table's dedicated trailing null row, so idle steps
    still produce a learned (not zero) token.
    """
    cfg = model.config
    di = _null_rows(dancers, cfg.dancer_vocab)
    ri = _null_rows(directions, cfg.direction_vocab)
    qi = _null_rows(queries, cfg.query_vocab)
    e = tape.embed_lookup(model.params["emb.dancer"], di)
    e = tape.add(e, tape.embed_lookup(model.params["emb.direction"], ri))
    return tape.add(e, tape.embed_lookup(model.params["emb.query"], qi))


def ballet_logits(tape: GradTape, model: Model, ys: Tensor) -> Tensor:
    """Dancer-id logits from the final step of the stack output."""
    t_len = ys.shape[-2]
    last = tape.slice_ax(ys, -2, t_len - 1, t_len)
    logits = tape.add(tape.matmul(last, model.params["head.w"]),
                      model.params["head.b"])
    return tape.reshape(logits, ys.shape[:-2] + (model.config.n_classes,))


def reconstruction_aux_loss(tape: GradTape, model: Model, ys: Tensor,
                            dancers, directions) -> Tensor:
    """Per-step input reconstruction pressure on the stack output.

    Cross-entropy of predicted dancer id and direction code (null classes
    for idle steps), summed over the episode's steps and averaged over any
    batch dims. Uniform logits score T * (ln(dancer_vocab) +
    ln(direction_vocab)).
    """
    cfg = model.config
    di = _null_rows(dancers, cfg.dancer_vocab)
    ri = _null_rows(directions, cfg.direction_vocab)
    ld = tape.add(tape.matmul(ys, model.params["recon.dancer.w"]),
                  model.params["recon.dancer.b"])
    lr = tape.add(tape.matmul(ys, model.params["recon.direction.w"]),
                  model.params["recon.direction.b"])
    total = tape.add(tape.cross_entropy_logits(ld, di, reduction="sum"),
                     tape.cross_entropy_logits(lr, ri, reduction="sum"))
    n_episodes = max(1, di.size // ys.shape[-2])
    return tape.scale(total, 1.0 / n_episodes)


# --------------------------------------------------------------- paired task

@dataclass
class PaiEpisode:
    pairs: np.ndarray    # (P, 2, item_dim): stored pair chunks
    probe: np.ndarray    # (item_dim,)
    choices: np.ndarray  # (2, item_dim)
    label: int           # index of the correct choice
    chain_length: int


def _unit_rows(rng, shape):
    v = rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def generate_pai_episode(chain_length: int, n_pairs: int = 8, seed: int = 0,
                        item_dim: int = 32, rng=None) -> PaiEpisode:
    """Store pair chunks (A_i, B_i), (B_i, C_i) for several chains, probe
    with one A, and offer the matching item against a lure from another
    chain. chain_length 1 asks for B (co-stored with the probe in exactly
    one chunk); 3 asks for C, reachable only through the shared B.

    The correct item and the lure play the same role in their own chains,
    so both appear in memory equally often; the label is a fair coin.
    """
    if chain_length not in (1, 3):
        raise ContractError(f"chain_length must be 1 or 3, got {chain_length}")
    if n_pairs < 4 or n_pairs % 2:
        raise ContractError(f"n_pairs must be even and >= 4, got {n_pairs}")
    if rng is None:
        rng = make_rng(seed)

    n_chains = n_pairs // 2
    items = _unit_rows(rng, (n_chains, 3, item_dim))  # A, B, C per chain
    pairs = np.concatenate([items[:, 0:2], items[:, 1:3]], axis=0)
    pairs = pairs[rng.permutation(n_pairs)]

    probed = int(rng.integers(n_chains))
    other = int((probed + 1 + rng.integers(n_chains - 1)) % n_chains)
    role = 1 if chain_length == 1 else 2
    correct = items[probed, role]
    lure = items[other, role]
    label = int(rng.integers(2))
    choices = np.stack([correct, lure] if label == 0 else [lure, correct])
    return PaiEpisode(pairs, items[probed, 0], choices, label, chain_length)


def pai_batch(chain_length: int, n_pairs: int, item_dim: int, seed: int,
              start: int, count: int):
    eps = [
        generate_pai_episode(chain_length, n_pairs, item_dim=item_dim,
                             rng=episode_rng(seed, i))
        for i in range(start, start + count)
    ]
    return (np.stack([e.pairs for e in eps]),
            np.stack([e.probe for e in eps]),
            np.stack([e.choices for e in eps]),
            np.array([e.label for e in eps], dtype=np.int64))


def pai_forward(tape: GradTape, model: Model, pairs, probe,
                choices, counter=None) -> Tensor:
    """Choice logits for stored pairs, a probe item, and two choices.

    Every layer's memory starts out holding the embedded pairs, one
    two-row chunk per pair. The probe then runs through the stack as a
    one-step sequence, whose row waits in each memory's buffer without
    freezing a chunk, so recall reads exactly the pairs. The probe's
    output row is projected and dotted with each embedded choice.

    Accepts one episode's arrays or batches with leading dims.
    """
    cfg = model.config
    if cfg.kind != "hcam":
        raise ContractError("pair-recall forward requires the hcam model")
    emb = model.params["emb.item"]
    if np.asarray(probe).shape[-1] != emb.shape[0]:
        raise ContractError(
            f"item width {np.asarray(probe).shape[-1]} != "
            f"embedding rows {emb.shape[0]}")

    rows = np.asarray(pairs) @ emb.data  # memory contents: constants
    *lead, n_pairs, _, d = rows.shape
    x = tape.matmul(Tensor(np.asarray(probe)[..., None, :]), emb)
    state = init_state(model)
    state.memories = [ChunkMemory(2, capacity=n_pairs) for _ in model.layers]
    for mem in state.memories:
        mem.write(rows.reshape(*lead, 2 * n_pairs, d))
    x, _ = forward_sequence(tape, model, x, state, counter)

    proj = tape.add(tape.matmul(x, model.params["proj.w"]),
                    model.params["proj.b"])
    ch = tape.matmul(Tensor(np.asarray(choices)), emb)
    logits = tape.matmul(ch, tape.swap_last2(proj))  # (..., 2, 1)
    return tape.reshape(logits, logits.shape[:-2] + (2,))


# ------------------------------------------------------------- episode dump

def dump_episodes_jsonl(path: str, task: str, n_episodes: int, seed: int,
                        n_dances: int = 2, delay: int = 16,
                        chain_length: int = 1, n_pairs: int = 8,
                        item_dim: int = 32) -> int:
    """Write one JSON object per line; returns the number written."""
    if n_episodes < 1:
        raise ContractError(f"n_episodes must be >= 1, got {n_episodes}")
    if task not in TASKS:
        raise ContractError(f"unknown task {task!r}")

    def row(i):
        rng = episode_rng(seed, i)
        if task == "ballet":
            e = generate_ballet_episode(n_dances, delay, rng=rng)
        else:
            e = generate_pai_episode(chain_length, n_pairs, item_dim=item_dim,
                                     rng=rng)
        return {"task": task, "episode": i, **{
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in vars(e).items()}}

    first = row(0)  # bad arguments fail here, leaving an existing file as is
    with open(path, "w") as f:
        for i in range(n_episodes):
            f.write(json.dumps(row(i) if i else first, sort_keys=True) + "\n")
    return n_episodes
