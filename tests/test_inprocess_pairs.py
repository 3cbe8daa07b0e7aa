"""tools/inprocess_pairs.py: two copies of one checkout, side by side."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "inprocess_pairs.py"
TINY_MODEL = {"kind": "hcam", "d_model": 8, "n_layers": 2, "n_heads": 2,
              "chunk_size": 2, "top_k": 2, "local_window": 4,
              "dtype": "float32"}


def test_one_checkout_against_itself_times_every_operation(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"workloads": {
        "tiny": {"kind": "train", "eval_batch": 3, "run": {
            "task": "ballet", "n_dances": 2, "delay": 3, "model": "hcam",
            "batch": 4, **{k: v for k, v in TINY_MODEL.items()
                           if k != "kind"}}},
        "tiny-stream": {"kind": "stream", "rtol": 1e-4, "atol": 1e-4,
                        "model": {**TINY_MODEL, "capacity": 4}}}}))
    out = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change",
         str(ROOT), "--rounds", "2", "--spec",
         str(spec)],
        capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == [
        "tiny step", "tiny evaluate", "tiny-stream stack_step",
        "tiny-stream forward_sequence"]
    assert all(ln.endswith("over 2 rounds, outputs equal")
               for ln in lines[:3])
    assert lines[3].endswith("over 2 rounds, outputs near own steps")


def test_sides_that_differ_stop_the_run():
    spec = importlib.util.spec_from_file_location("inprocess_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    same = tool.alternate(3, {"op": lambda side, i: (0.001, [i, 1.0])})
    assert {s: len(t) for s, t in same["op"].items()} == {"parent": 3,
                                                          "change": 3}
    with pytest.raises(AssertionError, match="op round 1"):
        tool.alternate(3, {"op": lambda side, i: (
            0.001, [i, -0.0 if side == "change" and i == 1 else 0.0])})


def test_a_replay_far_from_its_steps_stops_the_run():
    # each side's forward_sequence is checked against its own stack_step
    # outputs; an output moved past the tolerance is reported
    spec = importlib.util.spec_from_file_location("inprocess_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lib = tool.load_library("chunkmem_replay_check", ROOT)
    cfg = {**TINY_MODEL, "capacity": 4}
    rows = np.random.default_rng(0).standard_normal((16, 8)).astype("float32")
    side = tool.StreamSide(lib, {"model": cfg}, rows[:8])
    side.steps(rows[8:])
    assert side.replay(rows[8:], 1e-4, 1e-4)[1] is None
    side.outs = side.outs + np.float32(1e-3)
    with pytest.raises(AssertionError, match="replay differs"):
        side.replay(rows[8:], 1e-4, 1e-4)
