"""Acceptance gate: ten end-to-end checks, one pass/fail line each.

Each test prints `criterion N: PASS/FAIL - detail` before asserting, so a
plain pytest run shows the whole scorecard. The training criteria (4-6)
run real seeded training and take a few minutes; everything is CPU-only
and deterministic, so the measured accuracies reproduce exactly.
"""

from time import perf_counter

import numpy as np
import pytest

from chunkmem.attention import (
    AttentionParams,
    HcamParams,
    chunk_relevance,
    hcam_block,
    sinusoidal_table,
    top_k_select,
)
from chunkmem.benchmark import run_bench
from chunkmem.gradcheck import corrupted_backward_is_caught, run_full_gradcheck
from chunkmem.memory import ChunkMemory
from chunkmem.rng import make_rng
from chunkmem.stack import forward_sequence
from chunkmem.tasks import (
    DANCE_NAMES,
    DANCE_STEPS,
    ballet_batch,
    ballet_logits,
    encode_ballet_tokens,
)
from chunkmem.tensor import GradTape, Tensor
from chunkmem.training import (
    RunConfig,
    build_model,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)

from test_memory import check_random_trace
from test_tasks import EXPECTED_TABLE


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}",
          flush=True)


# ---------------------------------------------------------------- 1

def test_criterion_01_gradient_integrity():
    t0 = perf_counter()
    rows = run_full_gradcheck(seed=0, tol=1e-4)
    caught = corrupted_backward_is_caught()
    wall = perf_counter() - t0
    worst = max(err for _name, err, _ok in rows)
    ok = all(passed for _n, _e, passed in rows) and caught and wall < 120
    _report(1, ok, f"{len(rows)} finite-difference cases, worst rel err "
                   f"{worst:.2e} (tol 1e-4), corruption self-test "
                   f"{'caught' if caught else 'MISSED'}, {wall:.1f}s")
    assert ok


# ---------------------------------------------------------------- 2

def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_ln(x, g, b, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return xc / np.sqrt(var + eps) * g + b


def _np_mha(q_in, kv_in, p, n_heads):
    """Plain per-head attention loop; merge is head-major like the library."""
    d = q_in.shape[-1]
    dh = d // n_heads
    q = q_in @ p.mha.wq.data
    k = kv_in @ p.mha.wk.data
    v = kv_in @ p.mha.wv.data
    outs = []
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
        outs.append(_np_softmax(scores) @ v[:, sl])
    return np.concatenate(outs, axis=-1) @ p.mha.wo.data


def test_criterion_02_dense_oracle_equivalence():
    rng = make_rng(99)
    worst = 0.0
    for _case in range(100):
        heads = int(rng.choice([1, 2, 4]))
        d = heads * int(rng.integers(1, 32 // heads + 1))
        n = int(rng.integers(1, 17))
        c = int(rng.integers(1, 9))
        q = int(rng.integers(1, 6))

        def proj():
            return Tensor(rng.normal(size=(d, d)) / np.sqrt(d))

        params = HcamParams(
            ln_gain=Tensor(1.0 + 0.1 * rng.normal(size=d)),
            ln_bias=Tensor(0.1 * rng.normal(size=d)),
            w_rel=proj(),
            mha=AttentionParams(proj(), proj(), proj(), proj()))
        x = rng.normal(size=(q, d))
        chunks = rng.normal(size=(n, c, d))
        summaries = chunks.mean(axis=1)
        pos = sinusoidal_table(c, d)

        tape = GradTape(recording=False)
        got = hcam_block(tape, Tensor(x.copy()), summaries, chunks, params,
                         heads, top_k=n, pos_table=pos).data

        # brute force: relevance-weighted sum over every chunk
        normed = _np_ln(x, params.ln_gain.data, params.ln_bias.data)
        rel = _np_softmax((normed @ params.w_rel.data) @ summaries.T)
        want = x.copy()
        for i in range(n):
            detail = chunks[i] + pos[:c]
            want += rel[:, i:i + 1] * _np_mha(normed, detail, params, heads)
        worst = max(worst, float(np.max(np.abs(got - want))))
    ok = worst < 1e-8
    _report(2, ok, f"k=N recall vs dense weighted sum: 100 random "
                   f"configurations (N<=16, C<=8, d<=32), worst abs diff "
                   f"{worst:.2e} (tol 1e-8)")
    assert ok


# ---------------------------------------------------------------- 3

def test_criterion_03_complexity_counters():
    shapes = [(1, 1, 1), (4, 3, 2), (8, 8, 1), (12, 5, 12), (16, 4, 4),
              (32, 8, 2), (64, 8, 2)]
    exact = True
    measured = {}
    for n, c, k in shapes:
        r = run_bench(n_chunks=n, chunk_size=c, top_k=k, d_model=32,
                      n_heads=4, trials=1)
        measured[(n, c, k)] = (r.hcam_scores, r.dense_scores)
        exact &= r.hcam_scores == n + k * c
        exact &= r.dense_scores == n * c
    h32, d32 = measured[(32, 8, 2)]
    h64, d64 = measured[(64, 8, 2)]
    ratio = d32 / h32
    ok = (exact and (h32, d32) == (48, 256)
          and h64 - h32 == 32 and d64 - d32 == 256  # doubling N deltas
          and abs(ratio - 256 / 48) < 1e-12)
    _report(3, ok, f"counters exact on {len(shapes)} shapes; N=32 C=8 k=2 "
                   f"-> {h32} vs {d32} scores/query ({ratio:.1f}x fewer)")
    assert ok


# ---------------------------------------------------------------- 4

BALLET_DESK = dict(task="ballet", n_dances=2, delay=16, model="hcam",
                   d_model=64, n_layers=2, n_heads=4, chunk_size=8,
                   local_window=16, aux_weight=0.02, lr=2e-4, batch=32,
                   eval_every=200, eval_episodes=200, dtype="float32")


@pytest.mark.slow
def test_criterion_04_ballet_desk_scale():
    rc = RunConfig(top_k=2, steps=30000, seed=0, target_accuracy=0.95,
                   **BALLET_DESK)
    untrained = evaluate(build_model(rc), rc, n_episodes=1000)
    sigma3 = 3 * np.sqrt(0.5 * 0.5 / 1000)
    t0 = perf_counter()
    _model, rows = train(rc)
    wall = perf_counter() - t0
    hit = next((r for r in rows if r.eval_acc >= 0.95), None)
    ok = (hit is not None and hit.step <= 30000 and wall < 1200
          and abs(untrained - 0.5) < sigma3)
    at = f"eval_acc {hit.eval_acc:.3f} at step {hit.step}" if hit else \
        f"best {max(r.eval_acc for r in rows):.3f}"
    _report(4, ok, f"ballet(2 dances, delay 16), d64/2 layers/chunk 8/k=2: "
                   f"{at}, wall {wall:.0f}s (cap 1200), untrained "
                   f"{untrained:.3f} (chance 0.5 +/- {sigma3:.3f})")
    assert ok


@pytest.mark.slow
def test_criterion_05_ballet_k1():
    rc = RunConfig(top_k=1, steps=30000, seed=0, target_accuracy=0.90,
                   **BALLET_DESK)
    t0 = perf_counter()
    _model, rows = train(rc)
    wall = perf_counter() - t0
    hit = next((r for r in rows if r.eval_acc >= 0.90), None)
    ok = hit is not None and wall < 1200
    at = f"eval_acc {hit.eval_acc:.3f} at step {hit.step}" if hit else \
        f"best {max(r.eval_acc for r in rows):.3f}"
    _report(5, ok, f"same task with k=1: {at}, wall {wall:.0f}s (cap 1200)")
    assert ok


# ---------------------------------------------------------------- 6

@pytest.mark.slow
def test_criterion_06_paired_association():
    base = dict(task="pai", n_pairs=8, item_dim=32, model="hcam", d_model=64,
                n_layers=2, n_heads=4, chunk_size=8, top_k=2, local_window=16,
                batch=32, eval_every=500, eval_episodes=200, dtype="float32")
    t0 = perf_counter()

    rc1 = RunConfig(chain_length=1, lr=1e-3, steps=20000, seed=0,
                    target_accuracy=0.97, **base)
    model, rows1 = train(rc1)
    hit = next((r for r in rows1 if r.eval_acc >= 0.95), None)
    direct_ok = hit is not None and hit.step <= 20000

    # transitive version: continue from the direct-recall weights
    rc3 = RunConfig(chain_length=3, lr=2e-4, steps=24000, seed=1,
                    **{**base, "eval_every": 2000})
    model, _rows3 = train(rc3, init_model=model)
    chain3 = evaluate(model, rc3, n_episodes=1000)
    wall = perf_counter() - t0

    ok = direct_ok and chain3 > 0.60 and wall < 1800
    at1 = f"{hit.eval_acc:.3f} at step {hit.step}" if hit else "not reached"
    _report(6, ok, f"pair recall: direct {at1} (need >=0.95 in 20k); "
                   f"transitive {chain3:.3f} over 1000 episodes (need >0.60); "
                   f"wall {wall:.0f}s (cap 1800)")
    assert ok


# ---------------------------------------------------------------- 7

def _stored_content_gets_zero_gradient(seed: int) -> bool:
    """Gradient through memory reads must be exactly the direct-use term."""
    rng = make_rng(seed)
    c = int(rng.integers(1, 4))
    d = int(rng.integers(1, 5))
    mem = ChunkMemory(chunk_size=c)
    tape = GradTape()
    xs = []
    for _ in range(c):
        x = Tensor(rng.normal(size=d))
        tape.watch(x)
        mem.write_step(x)
        xs.append(x)
    summaries, _chunks = mem.read()
    # loss = sum(x * s): d/dx is exactly s if stored content is inert
    loss = None
    for x in xs:
        term = tape.reduce_sum(tape.multiply(x, Tensor(summaries[0])))
        loss = term if loss is None else tape.add(loss, term)
    grads = tape.backward(loss)
    return all(np.array_equal(grads[x].data, summaries[0]) for x in xs)


def test_criterion_07_memory_property_suite():
    t0 = perf_counter()
    for seed in range(10_000):
        check_random_trace(seed)
    grad_ok = all(_stored_content_gets_zero_gradient(s) for s in range(20))
    wall = perf_counter() - t0
    ok = grad_ok and wall < 60
    _report(7, ok, f"10000 randomized write/read/reset traces plus "
                   f"stored-content zero-gradient checks, {wall:.1f}s "
                   f"(cap 60)")
    assert ok


# ---------------------------------------------------------------- 8

def test_criterion_08_sparsity_locality():
    rng = make_rng(1234)
    checked = 0
    for _case in range(1000):
        heads = int(rng.choice([1, 2]))
        d = heads * int(rng.integers(1, 9))
        q = int(rng.integers(1, 3))
        n = int(rng.integers(q + 1, 9))
        c = int(rng.integers(1, 5))
        # q*k < n so at least one chunk always goes unselected
        k = int(rng.integers(1, (n - 1) // q + 1))

        def proj():
            return Tensor(rng.normal(size=(d, d)))

        params = HcamParams(
            ln_gain=Tensor(np.ones(d)), ln_bias=Tensor(np.zeros(d)),
            w_rel=proj(),
            mha=AttentionParams(proj(), proj(), proj(), proj()))
        x = Tensor(rng.normal(size=(q, d)))
        chunks = rng.normal(size=(n, c, d))
        summaries = chunks.mean(axis=1)
        pos = sinusoidal_table(c, d)

        tape = GradTape(recording=False)
        normed = tape.layer_norm(x, params.ln_gain, params.ln_bias)
        rel = chunk_relevance(tape, normed, summaries, params.w_rel)
        sel = top_k_select(rel.data, k)
        unused = np.setdiff1d(np.arange(n), sel.reshape(-1))
        assert unused.size > 0

        before = hcam_block(tape, x, summaries, chunks, params, heads, k,
                            pos_table=pos).data
        perturbed = chunks.copy()
        perturbed[unused] += rng.normal(size=(unused.size, c, d)) * 10.0
        after = hcam_block(tape, x, summaries, perturbed, params, heads, k,
                           pos_table=pos).data
        assert np.array_equal(before, after), \
            f"case {_case}: non-selected chunk perturbation changed output"
        checked += 1
    ok = checked == 1000
    _report(8, ok, f"perturbing non-selected chunks: output bitwise "
                   f"identical in all {checked} of 1000 random cases")
    assert ok


# ---------------------------------------------------------------- 9

def test_criterion_09_determinism_and_persistence(tmp_path):
    rc = RunConfig(task="ballet", n_dances=2, delay=4, model="hcam",
                   d_model=32, n_heads=4, batch=8, steps=20, seed=13,
                   eval_every=5, eval_episodes=16, dtype="float32")
    _m1, rows1 = train(rc)
    model, rows2 = train(rc)
    fields_equal = len(rows1) == len(rows2) and all(
        a.step == b.step and a.train_loss == b.train_loss
        and a.train_acc == b.train_acc and a.eval_acc == b.eval_acc
        and a.attention_score_count == b.attention_score_count
        for a, b in zip(rows1, rows2))

    path = tmp_path / "model.ckpt"
    save_checkpoint(str(path), model)
    loaded = load_checkpoint(str(path))
    dancers, directions, queries, _labels = ballet_batch(
        rc.n_dances, rc.delay, rc.seed, 0, 4)

    def forward(m):
        tape = GradTape(recording=False)
        xs = encode_ballet_tokens(tape, m, dancers, directions, queries)
        ys, _ = forward_sequence(tape, m, xs)
        return ballet_logits(tape, m, ys).data

    bitwise = np.array_equal(forward(model), forward(loaded))
    ok = fields_equal and bitwise
    _report(9, ok, "same-seed runs: metrics bitwise-equal (wall_ms excluded "
                   "by design); checkpoint round-trip forward bitwise-equal")
    assert ok


# ---------------------------------------------------------------- 10

def test_criterion_10_dance_table_fidelity():
    names_ok = DANCE_NAMES == list(EXPECTED_TABLE)
    shape_ok = DANCE_STEPS.shape == (13, 16)
    values_ok = all(
        DANCE_STEPS[i].tolist() == EXPECTED_TABLE[name]
        for i, name in enumerate(DANCE_NAMES))
    range_ok = DANCE_STEPS.min() >= 0 and DANCE_STEPS.max() <= 7
    ok = names_ok and shape_ok and values_ok and range_ok
    _report(10, ok, "embedded dance table matches the 13x16 reference "
                    "verbatim (names, order, every direction code)")
    assert ok
