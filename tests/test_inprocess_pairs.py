"""tools/inprocess_pairs.py: two copies of one checkout, side by side."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

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
        "tiny-stream": {"kind": "stream",
                        "model": {**TINY_MODEL, "capacity": 4}}}}))
    out = subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(ROOT), "--change",
         str(ROOT), "--rounds", "2", "--spec",
         str(spec)],
        capture_output=True, text=True, timeout=120, check=True).stdout
    ops = [ln.split(":")[0] for ln in out.splitlines()]
    assert ops == ["tiny step", "tiny evaluate", "tiny-stream stack_step"]
    assert all(ln.endswith("over 2 rounds, outputs equal")
               for ln in out.splitlines())


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
