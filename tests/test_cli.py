"""Command-line surface: flags, config file, outputs, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chunkmem.cli import main
from chunkmem.training import METRICS_COLUMNS, load_checkpoint, read_metrics_csv


TRAIN_SMALL = ["--task", "ballet", "--dances", "2", "--delay", "4",
               "--d-model", "32", "--batch", "4", "--steps", "2",
               "--eval-every", "2", "--eval-episodes", "8", "--seed", "5"]


def test_train_writes_metrics_and_checkpoint(tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", *TRAIN_SMALL, "--out", str(out),
                 "--checkpoint", str(ckpt)])
    assert code == 0
    assert out.read_text().splitlines()[0] == ",".join(METRICS_COLUMNS)
    rows = read_metrics_csv(str(out))
    assert [r.step for r in rows] == [2]
    model = load_checkpoint(str(ckpt))
    assert model.config.d_model == 32
    stdout = capsys.readouterr().out
    assert "step 2" in stdout and "done step 2" in stdout


def test_train_resume_continues_from_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "warm.ckpt"
    assert main(["train", *TRAIN_SMALL, "--checkpoint", str(ckpt)]) == 0
    ckpt2 = tmp_path / "warm2.ckpt"
    assert main(["train", *TRAIN_SMALL, "--resume", str(ckpt),
                 "--checkpoint", str(ckpt2)]) == 0
    a = load_checkpoint(str(ckpt))
    b = load_checkpoint(str(ckpt2))
    changed = any(
        not np.array_equal(a.params[k].data, b.params[k].data)
        for k in a.params)
    assert changed  # resumed run actually trained further


def test_eval_prints_accuracy(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    main(["train", *TRAIN_SMALL, "--checkpoint", str(ckpt)])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--task", "ballet",
                 "--dances", "2", "--delay", "4", "--episodes", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("eval_acc ")
    acc = float(out.split()[1])
    assert 0.0 <= acc <= 1.0


def error_lines(capsys):
    return [ln for ln in capsys.readouterr().err.splitlines() if ln]


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_eval_episode_count_below_one_is_one_line_error(tmp_path, capsys,
                                                        episodes):
    ckpt = tmp_path / "m.ckpt"
    main(["train", *TRAIN_SMALL, "--checkpoint", str(ckpt)])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--task", "ballet",
                 "--dances", "2", "--delay", "4", "--episodes", episodes])
    assert code == 2
    assert error_lines(capsys) == [
        f"error: ContractError: n_episodes must be >= 1, got {episodes}"]


def test_eval_task_mismatch_is_one_line_error(tmp_path, capsys):
    ckpt = tmp_path / "m.ckpt"
    main(["train", *TRAIN_SMALL, "--checkpoint", str(ckpt)])
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--task", "pai",
                 "--episodes", "4"])
    assert code != 0
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if ln]
    assert len(lines) == 1
    assert lines[0].startswith("error: ShapeMismatchError:")


def test_eval_model_flag_disagreeing_with_checkpoint_is_one_line_error(
        tmp_path, capsys):
    ckpt = tmp_path / "h16.ckpt"
    assert main(["train", "--d-model", "16", "--steps", "1", "--batch", "2",
                 "--delay", "4", "--eval-episodes", "2",
                 "--checkpoint", str(ckpt)]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(ckpt), "--delay", "4",
                 "--episodes", "8", "--model", "trxl", "--d-model", "32"])
    assert code == 2
    assert error_lines(capsys) == [
        "error: ShapeMismatchError: checkpoint has kind 'hcam', the run "
        "asks for 'trxl'"]
    code = main(["eval", "--checkpoint", str(ckpt), "--delay", "4",
                 "--episodes", "8", "--d-model", "32"])
    assert code == 2
    assert error_lines(capsys) == [
        "error: ShapeMismatchError: checkpoint has d_model 16, the run "
        "asks for 32"]
    # flags that agree with the checkpoint are fine
    assert main(["eval", "--checkpoint", str(ckpt), "--delay", "4",
                 "--episodes", "8", "--model", "hcam", "--d-model", "16"]) == 0


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dances 2\ndelay = 4\nd-model 32\nbatch 4\nsteps 4\n"
                   "eval-every 2\neval-episodes 8\n# trailing comment\n")
    code = main(["train", "--config", str(cfg), "--steps", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "done step 2" in out  # the flag beat the file's steps 4


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("warp-speed 9\n")
    code = main(["train", "--config", str(cfg)])
    assert code != 0
    assert "error: ContractError:" in capsys.readouterr().err


@pytest.mark.parametrize("body, line, words", [
    (b"dances 2\ntop-k abc\n", 2, "top-k needs int, got 'abc'"),
    (b"# a comment\n\nlr = fast\n", 3, "lr needs float, got 'fast'"),
    (b"steps 2\ndelay 4\nmodel hc\xe4m\n", 3, "not UTF-8 text"),
])
def test_bad_config_value_names_its_file_and_line(tmp_path, capsys, body,
                                                 line, words):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(body)
    code = main(["train", "--config", str(cfg)])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert lines == [f"error: ContractError: {cfg}:{line}: {words}"]


@pytest.mark.parametrize("body, line, words", [
    ("dances 2\nbatch 0\n", 2, "batch must be >= 1, got 0"),
    ("lr = -1\nsteps 2\n", 1, "lr must be > 0, got -1.0"),
    ("# picks\ntop-k 0\n", 2, "top_k must be >= 1, got 0"),
    ("d-model 64\nheads 3\n", 2, "d_model 64 not divisible by n_heads 3"),
])
def test_out_of_range_config_value_names_its_file_and_line(tmp_path, capsys,
                                                          body, line, words):
    cfg = tmp_path / "range.cfg"
    cfg.write_text(body)
    code = main(["train", "--config", str(cfg)])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert lines == [f"error: ContractError: {cfg}:{line}: {words}"]


def test_out_of_range_flag_keeps_its_message_next_to_a_config(tmp_path,
                                                              capsys):
    cfg = tmp_path / "ok.cfg"
    cfg.write_text("d-model 48\nsteps 2\n")
    code = main(["train", "--config", str(cfg), "--heads", "5"])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert lines == ["error: ContractError: d_model 48 not divisible by "
                     "n_heads 5"]


def test_pai_with_one_row_chunks_is_one_line_error(capsys):
    # pai stores two-row chunks; a one-row position table would broadcast
    code = main(["train", "--task", "pai", "--chunk-size", "1", "--steps", "1"])
    assert code == 2
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(lines) == 1
    assert lines[0].startswith("error: ContractError:")
    assert "chunk_size" in lines[0]


@pytest.mark.parametrize("argv", [
    ["train", "--aux-weight", "nan"],
    ["train", "--target-acc", "nan"],
    ["train", "--target-acc", "1.5"],
    ["train", "--lr", "inf"],
    ["train", "--lr", "nan"],
    ["train", "--seed", "-1"],
    ["dump-episodes", "--seed", "-1"],
    ["bench", "--seed", "-1", "--trials", "1"],
    ["gradcheck", "--seed", "-1"],
])
def test_bad_run_setting_is_one_line_contract_error(tmp_path, capsys, argv):
    if argv[0] == "train":
        argv = argv + ["--steps", "1", "--batch", "2", "--delay", "4"]
    if argv[0] == "dump-episodes":
        argv = argv + ["--out", str(tmp_path / "eps.jsonl")]
    assert main(argv) == 2
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error: ContractError:")


def test_unwritable_output_path_rejected(tmp_path, capsys):
    code = main(["train", *TRAIN_SMALL, "--out",
                 str(tmp_path / "no" / "such" / "dir" / "m.csv")])
    assert code != 0
    assert "not writable" in capsys.readouterr().err


def test_bench_reports_exact_counts(capsys):
    code = main(["bench", "--n-chunks", "32", "--chunk-size", "8",
                 "--top-k", "2", "--trials", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scores_per_query hcam 48 dense 256" in out
    assert "ratio 5.33" in out
    assert "median_ms" in out
    assert "params hcam" in out


def test_bench_rejects_k_above_n(capsys):
    code = main(["bench", "--n-chunks", "4", "--top-k", "9", "--trials", "1"])
    assert code != 0
    assert "error: ContractError:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, name", [
    ("--n-chunks", "n_chunks"),
    ("--chunk-size", "chunk_size"),
    ("--trials", "trials"),
])
def test_bench_count_below_one_is_one_line_error(capsys, flag, name):
    code = main(["bench", "--top-k", "1", "--trials", "1", flag, "0"])
    assert code == 2
    assert error_lines(capsys) == [
        f"error: ContractError: {name} must be >= 1, got 0"]


def test_dump_episodes_count_below_one_is_one_line_error(tmp_path, capsys):
    out = tmp_path / "eps.jsonl"
    code = main(["dump-episodes", "--episodes", "-1", "--out", str(out)])
    assert code == 2
    assert error_lines(capsys) == [
        "error: ContractError: n_episodes must be >= 1, got -1"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--task", "chess"], ["--dances", "0"]])
def test_failed_dump_leaves_an_existing_file_alone(tmp_path, capsys, flags):
    out = tmp_path / "eps.jsonl"
    out.write_text("keep")
    code = main(["dump-episodes", *flags, "--out", str(out)])
    assert code == 2
    lines = error_lines(capsys)
    assert len(lines) == 1
    assert lines[0].startswith("error: ContractError:")
    assert out.read_text() == "keep"


@pytest.mark.parametrize("flags, digest", [
    (["--task", "ballet", "--dances", "4", "--delay", "7"], "776fad49080e32f0"),
    (["--task", "pai", "--chain-length", "3", "--pairs", "6",
      "--item-dim", "5"], "158753f9ec59b682"),
])
def test_dump_episodes_bytes_are_pinned(tmp_path, capsys, flags, digest):
    out = tmp_path / "eps.jsonl"
    assert main(["dump-episodes", *flags, "--episodes", "5", "--seed", "3",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_dump_episodes_round_trip(tmp_path, capsys):
    out = tmp_path / "eps.jsonl"
    code = main(["dump-episodes", "--task", "pai", "--chain-length", "3",
                 "--episodes", "5", "--seed", "2", "--out", str(out)])
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 5
    assert all(r["chain_length"] == 3 for r in records)


def test_gradcheck_passes_and_fails_by_tolerance(capsys):
    code = main(["gradcheck"])
    out = capsys.readouterr().out
    assert code == 0
    assert "gradcheck ok" in out
    assert "FAIL" not in out
    assert "harness_catches_corruption" in out

    # an absurd tolerance must flip the exit code
    code = main(["gradcheck", "--tol", "1e-13"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("flags", [
    ["--steps", "3"],  # the second step's loss is nan
    ["--steps", "1", "--eval-episodes", "4"],  # evaluate sees inf logits
])
def test_overflowing_lr_is_one_stderr_line_and_saves_nothing(tmp_path, flags):
    # a subprocess, since pytest would capture NumPy's warnings
    ckpt = tmp_path / "X.ckpt"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "chunkmem.cli", "train", "--lr", "1e30",
         "--batch", "2", "--delay", "4", *flags, "--checkpoint", str(ckpt)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    lines = [ln for ln in done.stderr.splitlines() if ln]
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: NonFiniteLossError:")
    assert not ckpt.exists()
