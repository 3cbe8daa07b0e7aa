"""Training loop, metrics, evaluation, and checkpoint contracts."""

import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from chunkmem import stack
from chunkmem.errors import (
    CheckpointError,
    ContractError,
    NonFiniteLossError,
    ShapeMismatchError,
    TruncatedBlobError,
    VersionMismatchError,
)
from chunkmem.optim import Adam
from chunkmem.stack import KINDS, TASKS, Model, ModelConfig, forward_sequence
from chunkmem.tasks import ballet_batch, ballet_logits, encode_ballet_tokens
from chunkmem.tensor import GradTape
from chunkmem.training import (
    EVAL_STREAM_OFFSET,
    METRICS_COLUMNS,
    MetricsRow,
    RunConfig,
    _minibatch,
    build_model,
    evaluate,
    load_checkpoint,
    model_config,
    read_metrics_csv,
    save_checkpoint,
    train,
    write_metrics_csv,
)


def small_rc(**kw):
    base = dict(task="ballet", n_dances=2, delay=4, d_model=32, n_heads=4,
                batch=8, steps=6, eval_every=3, eval_episodes=16, seed=3)
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------- run config

def test_run_config_validation():
    with pytest.raises(ContractError):
        RunConfig(task="chess")
    with pytest.raises(ContractError):
        RunConfig(model="transformer")
    with pytest.raises(ContractError):
        RunConfig(batch=0)
    with pytest.raises(ContractError):
        RunConfig(steps=-1)
    with pytest.raises(ContractError):
        RunConfig(lr=0.0)
    with pytest.raises(ContractError):
        RunConfig(aux_weight=-0.5)
    with pytest.raises(ContractError):
        RunConfig(eval_every=0)
    with pytest.raises(ContractError):
        RunConfig(task="pai", model="trxl")
    # model settings are checked when the run config is built
    with pytest.raises(ContractError, match="not divisible"):
        RunConfig(d_model=30, n_heads=4)
    with pytest.raises(ContractError, match="chunk_size >= 2"):
        RunConfig(task="pai", chunk_size=1)
    with pytest.raises(ContractError, match="top_k"):
        RunConfig(top_k=0)
    with pytest.raises(ContractError, match="float16"):
        RunConfig(dtype="float16")


def test_model_config_mapping():
    cfg = model_config(RunConfig(model="trxl-topk", n_dances=5))
    assert cfg.kind == "trxl_topk"
    assert cfg.n_classes == 5
    assert cfg.dancer_vocab == 9  # default null row still fits

    cfg13 = model_config(RunConfig(n_dances=13))
    assert cfg13.dancer_vocab == 14  # ids up to 12 plus the null row

    cfg_pai = model_config(RunConfig(task="pai"))
    assert cfg_pai.task == "pai"
    assert cfg_pai.n_classes == 2


# ------------------------------------------------------------- metrics

def test_metrics_csv_round_trip(tmp_path):
    rows = [
        MetricsRow(10, 0.123456789012345, 0.5, 0.25, 12.75, 1000),
        MetricsRow(20, 0.1, 1.0 / 3.0, 0.875, 901.5, 2000),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(str(path), rows)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(METRICS_COLUMNS)
    assert read_metrics_csv(str(path)) == rows


def test_metrics_rows_shape_and_monotonicity(tmp_path):
    path = tmp_path / "m.csv"
    _model, rows = train(small_rc(), metrics_path=str(path))
    assert [r.step for r in rows] == [3, 6]
    assert all(rows[i].step < rows[i + 1].step for i in range(len(rows) - 1))
    assert all(
        rows[i].attention_score_count <= rows[i + 1].attention_score_count
        for i in range(len(rows) - 1))
    assert rows[0].attention_score_count > 0
    assert read_metrics_csv(str(path)) == rows


def test_lstm_counts_no_attention_scores():
    _model, rows = train(small_rc(model="lstm", steps=2, eval_every=2))
    assert rows[-1].attention_score_count == 0


def test_same_seed_runs_match_bitwise_except_wall(tmp_path):
    rc = small_rc(steps=8, eval_every=2)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    _m1, rows1 = train(rc, checkpoint_path=str(p1))
    _m2, rows2 = train(rc, checkpoint_path=str(p2))
    assert len(rows1) == len(rows2)
    for a, b in zip(rows1, rows2):
        assert a.step == b.step
        assert a.train_loss == b.train_loss
        assert a.train_acc == b.train_acc
        assert a.eval_acc == b.eval_acc
        assert a.attention_score_count == b.attention_score_count
    assert p1.read_bytes() == p2.read_bytes()


def test_progress_callback_sees_every_row():
    seen = []
    _model, rows = train(small_rc(), progress=seen.append)
    assert seen == rows


def test_early_stop_on_target_accuracy():
    # an untrained 2-way readout sits near 50%, far above a 1% target
    _model, rows = train(small_rc(steps=500, eval_every=2,
                                  target_accuracy=0.01))
    assert rows[-1].step == 2
    assert len(rows) == 1


# ------------------------------------------------------------- descent

def test_fixed_batch_loss_strictly_decreases_50_steps():
    rc = RunConfig(task="ballet", n_dances=2, delay=16, batch=8,
                   lr=2e-4, seed=0)
    model = build_model(rc)
    opt = Adam(model.params, lr=rc.lr, beta1=rc.beta1, beta2=rc.beta2)
    losses = []
    for _ in range(50):  # each loss is measured before the update it feeds
        tape = GradTape()
        model.watch_all(tape)
        loss, _ = _minibatch(tape, model, rc, 0)
        losses.append(float(loss.data))
        opt.step(tape.backward(loss))
    assert all(np.isfinite(losses))
    for i in range(len(losses) - 1):
        assert losses[i + 1] < losses[i], (
            f"loss rose at update {i}: {losses[i]} -> {losses[i + 1]}")


def test_divergent_lr_aborts_with_named_step():
    rc = small_rc(lr=1e5, steps=200, eval_every=1000)
    with pytest.raises(NonFiniteLossError) as exc:
        train(rc)
    msg = str(exc.value)
    assert "step" in msg
    assert "parameter norms" in msg


@pytest.mark.parametrize("steps, where", [
    (3, "loss became nan at step 2"),  # the second step's loss
    (1, "evaluation logits"),  # the one step's update, seen by evaluate
])
def test_overflowing_lr_raises_without_numpy_warnings(steps, where):
    rc = small_rc(lr=1e30, steps=steps, batch=2, eval_every=1000,
                  eval_episodes=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLossError, match=where) as exc:
            train(rc)
    # the float32 parameters are finite, near 1e31, and so are their norms
    assert "=inf" not in str(exc.value)


# ------------------------------------------------------------- chance level

def test_untrained_ballet_accuracy_is_chance():
    rc = RunConfig(task="ballet", n_dances=8, delay=16, seed=11)
    model = build_model(rc)
    acc = evaluate(model, rc, n_episodes=1000)
    p = 1.0 / 8.0
    sigma = np.sqrt(p * (1 - p) / 1000)
    assert abs(acc - p) < 3 * sigma, f"accuracy {acc} not within 3 sigma of {p}"


def test_untrained_pai_accuracy_is_chance():
    rc = RunConfig(task="pai", chain_length=1, seed=7)
    model = build_model(rc)
    acc = evaluate(model, rc, n_episodes=1000)
    sigma = np.sqrt(0.25 / 1000)
    assert abs(acc - 0.5) < 3 * sigma, f"accuracy {acc} not within 3 sigma of 0.5"


def test_evaluate_is_deterministic():
    rc = small_rc()
    model = build_model(rc)
    a = evaluate(model, rc, n_episodes=64)
    b = evaluate(model, rc, n_episodes=64)
    assert a == b


def test_evaluate_rejects_an_empty_batch():
    # a batch of 0 episodes would never finish; the CLI tests cover
    # episode counts below one
    rc = small_rc()
    with pytest.raises(ContractError, match="max_batch must be >= 1, got 0"):
        evaluate(build_model(rc), rc, n_episodes=4, max_batch=0)


def test_evaluate_queries_one_row_per_episode_in_the_final_layer(monkeypatch):
    # every layer but the last queries all T rows; the last queries only
    # the row the readout reads, against the last window of keys
    rc = small_rc(delay=16, dtype="float64")
    model = build_model(rc)
    calls = []
    for name in ("local_attention", "hcam_block"):
        def wrapped(tape, x, *args, _name=name,
                    _orig=getattr(stack, name), **kw):
            out = _orig(tape, x, *args, **kw)
            calls.append((_name, x.shape[-2], out.shape[:-1]))
            return out
        monkeypatch.setattr(stack, name, wrapped)
    acc = evaluate(model, rc, n_episodes=16, max_batch=16)
    monkeypatch.undo()

    dancers, directions, queries, labels = ballet_batch(
        rc.n_dances, rc.delay, rc.seed, EVAL_STREAM_OFFSET, 16)
    t_len = dancers.shape[1]
    assert t_len > rc.local_window
    assert calls == [
        ("local_attention", t_len, (16, t_len)),
        ("hcam_block", t_len, (16, t_len)),
        ("local_attention", rc.local_window, (16, 1)),
        ("hcam_block", 1, (16, 1)),
    ]
    # and it scores as a full forward does
    tape = GradTape(recording=False)
    xs = encode_ballet_tokens(tape, model, dancers, directions, queries)
    ys, _ = forward_sequence(tape, model, xs)
    logits = ballet_logits(tape, model, ys).data
    assert acc == np.mean(np.argmax(logits, axis=-1) == labels)


# tracemalloc peaks at ballet-long's config (4 dances, delay 32, batch 32,
# float32), measured at 83.0 MiB for a training step and 41.3 MiB for a
# 64-episode evaluate, after a step or on a fresh model alike; a tape kept
# alive after its backward added about 130 MiB to that evaluate.
STEP_PEAK_MIB = 92  # the measured step plus 10%
EVAL_PEAK_MIB = 46  # the measured evaluate plus 10%
EVAL_MARGIN = 1.1  # evaluate after a step against one on a fresh model


def test_training_step_and_following_evaluate_stay_within_memory_bounds():
    rc = RunConfig(task="ballet", n_dances=4, delay=32, batch=32,
                   dtype="float32", aux_weight=0.02, seed=0)

    def peak_mib(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        finally:
            tracemalloc.stop()

    def run_eval(model):
        return lambda: evaluate(model, rc, n_episodes=64, max_batch=64)

    fresh = peak_mib(run_eval(build_model(rc)))
    model = build_model(rc)
    opt = Adam(model.params, lr=rc.lr)

    def step():
        tape = GradTape()
        model.watch_all(tape)
        loss, _ = _minibatch(tape, model, rc, 0)
        opt.step(tape.backward(loss))

    tracemalloc.start()
    try:  # the step's leftovers stay traced through the evaluate
        step()
        step_peak = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
        tracemalloc.reset_peak()
        run_eval(model)()
        after = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
    finally:
        tracemalloc.stop()
    assert step_peak <= STEP_PEAK_MIB, step_peak
    assert max(fresh, after) <= EVAL_PEAK_MIB, (fresh, after)
    assert after <= EVAL_MARGIN * fresh, (after, fresh)


# ------------------------------------------------------------- checkpoints

def test_checkpoint_save_load_save_byte_identical(tmp_path):
    for dtype in ("float32", "float64"):
        rc = small_rc(steps=2, eval_every=2, dtype=dtype)
        model, _rows = train(rc)
        p1 = tmp_path / f"{dtype}.ckpt"
        p2 = tmp_path / f"{dtype}2.ckpt"
        save_checkpoint(str(p1), model)
        save_checkpoint(str(p2), load_checkpoint(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_round_trip_preserves_forward_bitwise(tmp_path):
    rc = small_rc(steps=3, eval_every=3, dtype="float32")
    model, _rows = train(rc)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), model)
    loaded = load_checkpoint(str(path))
    assert loaded.config == model.config

    dancers, directions, queries, _labels = ballet_batch(
        rc.n_dances, rc.delay, rc.seed, 0, 4)

    def logits_of(m):
        tape = GradTape(recording=False)
        xs = encode_ballet_tokens(tape, m, dancers, directions, queries)
        ys, _ = forward_sequence(tape, m, xs)
        return ballet_logits(tape, m, ys).data

    assert np.array_equal(logits_of(model), logits_of(loaded))


def test_zero_step_train_writes_loadable_checkpoint(tmp_path):
    path = tmp_path / "init.ckpt"
    rc = small_rc(steps=0)
    model, rows = train(rc, checkpoint_path=str(path))
    assert rows == []
    loaded = load_checkpoint(str(path))
    for k, p in model.params.items():
        assert np.array_equal(p.data.astype(np.float32),
                              loaded.params[k].data)


# sha256 prefixes of save_checkpoint(Model(config, seed=0)) at d_model 16,
# 2 heads, 2 layers: pins parameter names, order, shapes and RNG draw order
SEED0_CHECKPOINTS = {
    ("hcam", "ballet", "float32"): "9d43e83bf4c80f4b",
    ("hcam", "ballet", "float64"): "d712fb2c12b1b732",
    ("hcam", "pai", "float32"): "8d61dd6ac9ea10fe",
    ("hcam", "pai", "float64"): "fdbf87d267e493e3",
    ("trxl", "ballet", "float32"): "9d7200f6575fc028",
    ("trxl", "ballet", "float64"): "13c3dddc78540901",
    ("trxl", "pai", "float32"): "fbe591b9f44ea3a2",
    ("trxl", "pai", "float64"): "0b559c90b5ccedd4",
    ("trxl_topk", "ballet", "float32"): "437929f1adc50083",
    ("trxl_topk", "ballet", "float64"): "04437dd2d79a6299",
    ("trxl_topk", "pai", "float32"): "3c704d27be3105b5",
    ("trxl_topk", "pai", "float64"): "4f2b7796b751f5db",
    ("lstm", "ballet", "float32"): "420411c4514d66de",
    ("lstm", "ballet", "float64"): "721e329cf557d80f",
    ("lstm", "pai", "float32"): "a6c345c817e99007",
    ("lstm", "pai", "float64"): "b64df9e02bb43110",
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("dtype", ("float32", "float64"))
def test_seed0_checkpoint_bytes_are_pinned(tmp_path, kind, task, dtype):
    cfg = ModelConfig(kind=kind, task=task, dtype=dtype, d_model=16,
                      n_heads=2, n_layers=2)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), Model(cfg, seed=0))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert digest == SEED0_CHECKPOINTS[(kind, task, dtype)]
    save_checkpoint(str(tmp_path / "again.ckpt"), load_checkpoint(str(path)))
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_bit_flips_and_truncations_end_in_checkpoint_error(tmp_path):
    cfg = ModelConfig(kind="hcam", d_model=4, n_heads=1, n_layers=1)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), Model(cfg, seed=0))
    raw = path.read_bytes()
    bad = tmp_path / "bad.ckpt"

    def outcome(data):
        bad.write_bytes(data)
        try:
            load_checkpoint(str(bad))
        except CheckpointError:
            return "rejected"
        return "loaded"

    lines = raw.split(b"\n")
    for i in range(raw.index(b"\n\n") + 2):
        line = lines[raw.count(b"\n", 0, i)]
        for bit in (0, 3, 6):
            data = bytearray(raw)
            data[i] ^= 1 << bit
            # a flip may turn a config value into another valid one
            # (top_k 2 -> 3); anywhere else in the manifest it must fail
            if outcome(bytes(data)) == "loaded":
                assert line.startswith(b"config "), (i, bit, line)
    assert all(outcome(raw[:n]) == "rejected" for n in range(len(raw)))


def _saved(tmp_path):
    rc = small_rc(steps=0)
    model, _ = train(rc)
    path = tmp_path / "base.ckpt"
    save_checkpoint(str(path), model)
    return path


def test_checkpoint_version_mismatch(tmp_path):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    bad = raw.replace(b"chunkmem checkpoint 1", b"chunkmem checkpoint 2", 1)
    path.write_bytes(bad)
    with pytest.raises(VersionMismatchError):
        load_checkpoint(str(path))


def test_checkpoint_shape_mismatch(tmp_path):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    assert b"param head.w 32x2 " in raw
    path.write_bytes(raw.replace(b"param head.w 32x2 ", b"param head.w 2x32 ", 1))
    with pytest.raises(ShapeMismatchError):
        load_checkpoint(str(path))


@pytest.mark.parametrize("old,new", [
    (b"config d_model 32\n", b"config d_model 32x\n"),  # not an int
    (b"param head.w 32x2 ", b"param head.w 32xq "),      # not a shape
    (b"param head.w ", b"param head.\xffw "),             # not UTF-8
    (b"config d_model 32\n", b"config d_model -64\n"),
    (b"config n_heads 4\n", b"config n_heads 0\n"),
    (b"config mlp_hidden 128\n", b"config mlp_hidden -5\n"),
    (b"config kind hcam\n", b"config kind bogus\n"),
], ids=["config_value", "param_shape", "non_utf8", "negative_d_model",
        "zero_heads", "negative_mlp_hidden", "unknown_kind"])
def test_checkpoint_malformed_manifest(tmp_path, old, new):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    assert old in raw
    path.write_bytes(raw.replace(old, new, 1))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_missing_param_line(tmp_path):
    path = _saved(tmp_path)
    lines = path.read_bytes().split(b"\n")
    dropped = [ln for ln in lines if not ln.startswith(b"param head.b ")]
    path.write_bytes(b"\n".join(dropped))
    with pytest.raises(ShapeMismatchError):
        load_checkpoint(str(path))


def test_checkpoint_truncated_blob(tmp_path):
    path = _saved(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-17])
    with pytest.raises(TruncatedBlobError):
        load_checkpoint(str(path))


def test_checkpoint_trailing_garbage(tmp_path):
    path = _saved(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_checkpoint_rejects_headerless_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))
