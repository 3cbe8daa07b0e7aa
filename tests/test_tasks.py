"""Task generators: the frozen dance table, episode invariants, heads."""

import json

import numpy as np
import pytest

from chunkmem.errors import ContractError
from chunkmem.rng import episode_rng, make_rng
from chunkmem.stack import Model, ModelConfig
from chunkmem.tasks import (
    DANCE_LENGTH,
    DANCE_NAMES,
    DANCE_STEPS,
    ballet_batch,
    ballet_episode_length,
    ballet_logits,
    dump_episodes_jsonl,
    encode_ballet_tokens,
    generate_ballet_episode,
    generate_pai_episode,
    pai_batch,
    pai_forward,
    reconstruction_aux_loss,
)
from chunkmem.tensor import GradTape, Tensor

# The dance table is part of the task definition and must never drift.
EXPECTED_TABLE = {
    "circle_cw":     [0, 2, 4, 4, 6, 6, 0, 0, 2, 2, 4, 4, 6, 6, 0, 2],
    "circle_ccw":    [0, 6, 4, 4, 2, 2, 0, 0, 6, 6, 4, 4, 2, 2, 0, 6],
    "up_down":       [0, 4, 4, 0, 0, 4, 4, 0, 0, 4, 4, 0, 0, 4, 4, 0],
    "left_right":    [2, 6, 6, 2, 2, 6, 6, 2, 2, 6, 6, 2, 2, 6, 6, 2],
    "diagonal_uldr": [7, 3, 3, 7, 7, 3, 3, 7, 7, 3, 3, 7, 7, 3, 3, 7],
    "diagonal_urdl": [1, 5, 5, 1, 1, 5, 5, 1, 1, 5, 5, 1, 1, 5, 5, 1],
    "plus_cw":       [0, 4, 2, 6, 4, 0, 6, 2, 0, 4, 2, 6, 4, 0, 6, 2],
    "plus_ccw":      [0, 4, 6, 2, 4, 0, 2, 6, 0, 4, 6, 2, 4, 0, 2, 6],
    "times_cw":      [1, 5, 3, 7, 5, 1, 7, 3, 1, 5, 3, 7, 5, 1, 7, 3],
    "times_ccw":     [7, 3, 5, 1, 3, 7, 1, 5, 7, 3, 5, 1, 3, 7, 1, 5],
    "zee":           [1, 6, 6, 2, 2, 5, 1, 5, 5, 2, 2, 6, 6, 1, 5, 1],
    "chevron_down":  [7, 4, 3, 1, 0, 5, 1, 5, 1, 4, 5, 7, 0, 3, 7, 3],
    "chevron_up":    [3, 0, 7, 5, 4, 1, 5, 1, 5, 0, 1, 3, 4, 7, 3, 7],
}


def test_dance_table_verbatim():
    assert DANCE_NAMES == list(EXPECTED_TABLE)
    assert len(DANCE_NAMES) == 13
    assert DANCE_STEPS.shape == (13, 16)
    for i, name in enumerate(DANCE_NAMES):
        assert DANCE_STEPS[i].tolist() == EXPECTED_TABLE[name], name
    assert DANCE_STEPS.min() >= 0 and DANCE_STEPS.max() <= 7


def test_episode_length_formula():
    assert ballet_episode_length(2, 16) == 49
    assert ballet_episode_length(4, 48) == 209
    assert ballet_episode_length(8, 16) == 241
    e = generate_ballet_episode(2, 16, seed=0)
    assert len(e.dancers) == 49


def find_performances(e):
    """(start, dancer, dance_index) per performed dance, by direction match."""
    out = []
    t = 0
    while t < len(e.dancers):
        if e.dancers[t] >= 0:
            seg = e.directions[t:t + DANCE_LENGTH]
            matches = [i for i in range(13)
                       if np.array_equal(DANCE_STEPS[i], seg)]
            assert len(matches) == 1
            assert np.all(e.dancers[t:t + DANCE_LENGTH] == e.dancers[t])
            out.append((t, int(e.dancers[t]), matches[0]))
            t += DANCE_LENGTH
        else:
            t += 1
    return out


@pytest.mark.parametrize("n_dances,delay", [(2, 16), (4, 16), (8, 48), (2, 0)])
def test_episode_structure(n_dances, delay):
    for seed in range(20):
        e = generate_ballet_episode(n_dances, delay, seed=seed)
        t_len = ballet_episode_length(n_dances, delay)
        assert len(e.dancers) == len(e.directions) == len(e.queries) == t_len
        perfs = find_performances(e)
        assert len(perfs) == n_dances
        # dancer ids are a permutation; dances are distinct
        assert sorted(p[1] for p in perfs) == list(range(n_dances))
        assert len({p[2] for p in perfs}) == n_dances
        # performances sit at the scheduled offsets with idle gaps between
        for i, (start, _, _) in enumerate(perfs):
            assert start == i * (DANCE_LENGTH + delay)
        idle = e.dancers < 0
        assert np.array_equal(idle, e.directions < 0)
        # the query appears only on the final step and names a performed
        # dance whose performer is the label
        assert np.all(e.queries[:-1] == -1)
        q = int(e.queries[-1])
        assert e.dancers[-1] == -1
        performer = [p[1] for p in perfs if p[2] == q]
        assert performer == [e.label]


def test_episode_determinism_and_batch():
    a = generate_ballet_episode(4, 16, seed=9)
    b = generate_ballet_episode(4, 16, seed=9)
    assert np.array_equal(a.dancers, b.dancers)
    assert np.array_equal(a.directions, b.directions)
    assert a.label == b.label
    c = generate_ballet_episode(4, 16, seed=10)
    assert not (np.array_equal(a.dancers, c.dancers)
                and np.array_equal(a.directions, c.directions)
                and a.label == c.label)

    dancers, directions, queries, labels = ballet_batch(2, 16, seed=3,
                                                        start=5, count=4)
    assert dancers.shape == (4, 49)
    for i in range(4):
        e = generate_ballet_episode(2, 16, rng=episode_rng(3, 5 + i))
        assert np.array_equal(dancers[i], e.dancers)
        assert np.array_equal(directions[i], e.directions)
        assert np.array_equal(queries[i], e.queries)
        assert labels[i] == e.label


def test_query_choice_roughly_uniform():
    counts = np.zeros(4)
    n = 4000
    for seed in range(n):
        e = generate_ballet_episode(4, 0, seed=seed)
        perfs = find_performances(e)
        q = int(e.queries[-1])
        slot = [i for i, p in enumerate(perfs) if p[2] == q]
        counts[slot[0]] += 1
    assert np.all(np.abs(counts / n - 0.25) < 0.05)


def test_episode_validation():
    with pytest.raises(ContractError):
        generate_ballet_episode(0, 16)
    with pytest.raises(ContractError):
        generate_ballet_episode(14, 16)
    with pytest.raises(ContractError):
        generate_ballet_episode(2, -1)


def ballet_model(**kw):
    args = dict(kind="hcam", d_model=16, n_heads=2, n_layers=1,
                chunk_size=4, top_k=1, local_window=4, n_classes=2,
                task="ballet")
    args.update(kw)
    return Model(ModelConfig(**args), seed=0)


def test_encode_uses_null_rows_for_idle_steps():
    model = ballet_model()
    tape = GradTape()
    d_tab = model.params["emb.dancer"].data
    r_tab = model.params["emb.direction"].data
    q_tab = model.params["emb.query"].data

    idle = encode_ballet_tokens(tape, model, -1, -1, -1)
    assert np.allclose(idle.data, d_tab[8] + r_tab[8] + q_tab[13], atol=1e-12)
    assert np.any(idle.data != 0.0)

    tok = encode_ballet_tokens(tape, model, 1, 5, -1)
    assert np.allclose(tok.data, d_tab[1] + r_tab[5] + q_tab[13], atol=1e-12)

    e = generate_ballet_episode(2, 16, seed=1)
    batch = encode_ballet_tokens(
        tape, model, np.stack([e.dancers] * 3), np.stack([e.directions] * 3),
        np.stack([e.queries] * 3))
    assert batch.shape == (3, 49, 16)
    one = encode_ballet_tokens(tape, model, e.dancers, e.directions, e.queries)
    assert np.array_equal(batch.data[0], one.data)


def test_ballet_logits_and_loss():
    model = ballet_model(n_classes=4)
    rng = make_rng(2)
    ys = Tensor(rng.normal(size=(3, 7, 16)))
    tape = GradTape()
    logits = ballet_logits(tape, model, ys)
    want = ys.data[:, -1, :] @ model.params["head.w"].data \
        + model.params["head.b"].data
    assert logits.shape == (3, 4)
    assert np.max(np.abs(logits.data - want)) < 1e-12

    # uniform readout scores ln(n_classes)
    model.params["head.w"].data[:] = 0.0
    loss = tape.cross_entropy_logits(ballet_logits(tape, model, ys),
                                     np.array([0, 3, 1]))
    assert abs(loss.data - np.log(4)) < 1e-12


def test_reconstruction_loss_uniform_value():
    model = ballet_model()
    model.params["recon.dancer.w"].data[:] = 0.0
    model.params["recon.direction.w"].data[:] = 0.0
    t_len = 11
    ys = Tensor(make_rng(3).normal(size=(5, t_len, 16)))
    dancers = np.full((5, t_len), -1)
    directions = np.full((5, t_len), -1)
    tape = GradTape()
    loss = reconstruction_aux_loss(tape, model, ys, dancers, directions)
    want = t_len * (np.log(9) + np.log(9))
    assert abs(loss.data - want) < 1e-9


# --------------------------------------------------------------- paired task

def test_pai_construction_direct():
    for seed in range(30):
        e = generate_pai_episode(1, n_pairs=8, item_dim=16, seed=seed)
        assert e.pairs.shape == (8, 2, 16)
        assert np.allclose(np.linalg.norm(e.pairs, axis=-1), 1.0, atol=1e-12)
        correct = e.choices[e.label]
        lure = e.choices[1 - e.label]

        def rows_with(v):
            return {(i, j) for i in range(8) for j in range(2)
                    if np.array_equal(e.pairs[i, j], v)}

        probe_rows = rows_with(e.probe)
        correct_rows = rows_with(correct)
        lure_rows = rows_with(lure)
        # probe and correct item share exactly one stored chunk
        shared = {i for i, _ in probe_rows} & {i for i, _ in correct_rows}
        assert len(shared) == 1
        # the lure never shares a chunk with the probe
        assert not ({i for i, _ in probe_rows} & {i for i, _ in lure_rows})
        # correct and lure play the same role: equal appearance counts
        assert len(correct_rows) == len(lure_rows)


def test_pai_construction_transitive():
    for seed in range(30):
        e = generate_pai_episode(3, n_pairs=8, item_dim=16, seed=seed)
        correct = e.choices[e.label]
        lure = e.choices[1 - e.label]
        pairs = e.pairs
        probe_chunks = [i for i in range(len(pairs))
                        if any(np.array_equal(pairs[i, j], e.probe)
                               for j in range(2))]
        correct_chunks = [i for i in range(len(pairs))
                          if any(np.array_equal(pairs[i, j], correct)
                                 for j in range(2))]
        # no direct co-occurrence; instead one bridge item links them
        assert not (set(probe_chunks) & set(correct_chunks))
        assert len(probe_chunks) == 1 and len(correct_chunks) == 1
        pc, cc = probe_chunks[0], correct_chunks[0]
        bridge = [v for j in range(2) for v in [pairs[pc, j]]
                  if any(np.array_equal(pairs[cc, jj], v) for jj in range(2))]
        assert len(bridge) == 1
        # the lure is not linked to the probe even through a bridge
        lure_chunks = [i for i in range(len(pairs))
                       if any(np.array_equal(pairs[i, j], lure)
                              for j in range(2))]
        for lc in lure_chunks:
            for j in range(2):
                assert not any(
                    np.array_equal(pairs[lc, j], pairs[pc, jj])
                    for jj in range(2))


def test_pai_label_balance():
    for chain in (1, 3):
        labels = [generate_pai_episode(chain, 8, item_dim=4, seed=s).label
                  for s in range(10_000)]
        assert abs(np.mean(labels) - 0.5) < 0.02


def test_pai_determinism_and_batch():
    a = generate_pai_episode(1, 8, item_dim=8, seed=4)
    b = generate_pai_episode(1, 8, item_dim=8, seed=4)
    assert np.array_equal(a.pairs, b.pairs) and a.label == b.label
    pairs, probe, choices, labels = pai_batch(1, 8, 8, seed=2, start=3,
                                              count=3)
    assert pairs.shape == (3, 8, 2, 8)
    for i in range(3):
        e = generate_pai_episode(1, 8, item_dim=8, rng=episode_rng(2, 3 + i))
        assert np.array_equal(pairs[i], e.pairs)
        assert np.array_equal(probe[i], e.probe)
        assert np.array_equal(choices[i], e.choices)
        assert labels[i] == e.label


def test_pai_validation():
    with pytest.raises(ContractError):
        generate_pai_episode(2, 8)
    with pytest.raises(ContractError):
        generate_pai_episode(1, 7)
    with pytest.raises(ContractError):
        generate_pai_episode(1, 2)


@pytest.mark.parametrize("count", [0, -1])
def test_batches_need_an_episode(count):
    with pytest.raises(ContractError, match="count"):
        ballet_batch(2, 4, seed=0, start=0, count=count)
    with pytest.raises(ContractError, match="count"):
        pai_batch(1, 4, 8, seed=0, start=0, count=count)


def pai_model(**kw):
    args = dict(kind="hcam", d_model=16, n_heads=2, n_layers=2,
                chunk_size=2, top_k=2, local_window=4, item_dim=8,
                task="pai")
    args.update(kw)
    return Model(ModelConfig(**args), seed=1)


def np_softmax(x):
    s = x - x.max(axis=-1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=-1, keepdims=True)


def np_ln(v, g, b, eps=1e-5):
    mu = v.mean(axis=-1, keepdims=True)
    var = ((v - mu) ** 2).mean(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + eps) * g + b


def np_mha(q_in, kv_in, p, n_heads):
    d = q_in.shape[-1]
    dh = d // n_heads
    qa, ka, va = q_in @ p.wq.data, kv_in @ p.wk.data, kv_in @ p.wv.data
    outs = []
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        s = qa[:, sl] @ ka[:, sl].T / np.sqrt(dh)
        outs.append(np_softmax(s) @ va[:, sl])
    return np.concatenate(outs, axis=-1) @ p.wo.data


def pai_oracle(model, pairs, probe, choices):
    cfg = model.config
    emb = model.params["emb.item"].data
    chunks = pairs @ emb
    summ = chunks.mean(axis=1)
    x = (probe @ emb)[None, :]
    for layer in model.layers:
        normed = np_ln(x, layer.attn_ln_g.data, layer.attn_ln_b.data)
        x = x + normed @ layer.attn.wv.data @ layer.attn.wo.data  # 1-row self
        hp = layer.hcam
        q = np_ln(x, hp.ln_gain.data, hp.ln_bias.data)
        rel = np_softmax((q @ hp.w_rel.data) @ summ.T)
        order = np.sort(np.argsort(-rel[0], kind="stable")[:cfg.top_k])
        r = np.zeros_like(x)
        for j in order:
            detail = chunks[j] + model.pos_chunk[:chunks.shape[1]]
            r += rel[0, j] * np_mha(q, detail, hp.mha, cfg.n_heads)
        x = x + r
        z = np_ln(x, layer.mlp_ln_g.data, layer.mlp_ln_b.data)
        x = x + np.maximum(0.0, z @ layer.w1.data + layer.b1.data) \
            @ layer.w2.data + layer.b2.data
    proj = x[0] @ model.params["proj.w"].data + model.params["proj.b"].data
    return (choices @ emb) @ proj


def test_pai_forward_matches_dense_oracle():
    model = pai_model()
    for seed in range(5):
        e = generate_pai_episode(1, 8, item_dim=8, seed=seed)
        tape = GradTape()
        logits = pai_forward(tape, model, e.pairs, e.probe, e.choices)
        want = pai_oracle(model, e.pairs, e.probe, e.choices)
        assert logits.shape == (2,)
        assert np.max(np.abs(logits.data - want)) < 1e-8


def test_pai_forward_batched_matches_single():
    model = pai_model()
    pairs, probe, choices, _ = pai_batch(3, 8, 8, seed=7, start=0, count=4)
    tape = GradTape()
    batched = pai_forward(tape, model, pairs, probe, choices)
    assert batched.shape == (4, 2)
    for i in range(4):
        tape2 = GradTape()
        one = pai_forward(tape2, model, pairs[i], probe[i], choices[i])
        assert np.max(np.abs(batched.data[i] - one.data)) < 1e-10


def test_pai_identical_choices_give_equal_logits():
    model = pai_model()
    e = generate_pai_episode(1, 8, item_dim=8, seed=11)
    choices = np.stack([e.choices[0], e.choices[0]])
    tape = GradTape()
    logits = pai_forward(tape, model, e.pairs, e.probe, choices)
    assert logits.data[0] == logits.data[1]


def test_pai_zero_projection_gives_equal_logits():
    model = pai_model()
    model.params["proj.w"].data[:] = 0.0
    e = generate_pai_episode(1, 8, item_dim=8, seed=12)
    tape = GradTape()
    logits = pai_forward(tape, model, e.pairs, e.probe, e.choices)
    assert np.all(logits.data == 0.0)


def test_pai_forward_rejects_wrong_width_and_model():
    model = pai_model()
    e = generate_pai_episode(1, 8, item_dim=4, seed=0)
    tape = GradTape()
    with pytest.raises(ContractError):
        pai_forward(tape, model, e.pairs, e.probe, e.choices)
    trxl = Model(ModelConfig(kind="trxl", d_model=16, n_heads=2, task="pai",
                             item_dim=8), seed=0)
    e8 = generate_pai_episode(1, 8, item_dim=8, seed=0)
    with pytest.raises(ContractError):
        pai_forward(tape, trxl, e8.pairs, e8.probe, e8.choices)


# ------------------------------------------------------------- episode dump

def test_jsonl_round_trip_ballet(tmp_path):
    path = str(tmp_path / "eps.jsonl")
    n = dump_episodes_jsonl(path, "ballet", 5, seed=6, n_dances=2, delay=16)
    assert n == 5
    with open(path) as f:
        rows = [json.loads(line) for line in f]
    assert len(rows) == 5
    for i, row in enumerate(rows):
        e = generate_ballet_episode(2, 16, rng=episode_rng(6, i))
        assert row["task"] == "ballet"
        assert row["episode"] == i
        assert row["dancers"] == e.dancers.tolist()
        assert row["directions"] == e.directions.tolist()
        assert row["queries"] == e.queries.tolist()
        assert row["label"] == e.label


def test_jsonl_round_trip_pai(tmp_path):
    path = str(tmp_path / "eps.jsonl")
    dump_episodes_jsonl(path, "pai", 3, seed=2, chain_length=3, n_pairs=8,
                        item_dim=8)
    with open(path) as f:
        rows = [json.loads(line) for line in f]
    assert len(rows) == 3
    for i, row in enumerate(rows):
        e = generate_pai_episode(3, 8, item_dim=8, rng=episode_rng(2, i))
        assert np.array_equal(np.array(row["pairs"]), e.pairs)
        assert np.array_equal(np.array(row["probe"]), e.probe)
        assert np.array_equal(np.array(row["choices"]), e.choices)
        assert row["label"] == e.label


def test_jsonl_unknown_task(tmp_path):
    with pytest.raises(ContractError):
        dump_episodes_jsonl(str(tmp_path / "x.jsonl"), "sorting", 1, seed=0)
