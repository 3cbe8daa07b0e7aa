"""tools/memory_peaks.py: per-call tracemalloc peaks on a tiny workload."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TINY_RUN = {"task": "ballet", "n_dances": 2, "delay": 3, "model": "hcam",
            "d_model": 8, "n_layers": 2, "n_heads": 2, "chunk_size": 2,
            "top_k": 2, "local_window": 4, "batch": 4, "dtype": "float32"}
LINE = re.compile(r"(forward|evaluate) (local_attention|hcam_block|_mlp)"
                  r"\[(\d)\]: start (\S+) peak (\S+) end (\S+) MiB")


def test_a_tiny_workload_reports_every_block_call_and_each_part(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"workloads": {
        "tiny": {"kind": "train", "run": TINY_RUN, "eval_batch": 3}}}))
    out = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "memory_peaks.py"), "tiny",
         "--spec", str(spec)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, check=True).stdout
    lines = out.splitlines()
    calls = [LINE.fullmatch(ln) for ln in lines if "[" in ln]
    assert all(calls) and len(calls) == 12  # 3 blocks x 2 layers x 2 parts
    assert [(m[1], m[2], m[3]) for m in calls] == [
        (part, name, str(layer)) for part in ("forward", "evaluate")
        for layer in (0, 1) for name in ("local_attention", "hcam_block",
                                         "_mlp")]
    assert all(float(m[5]) >= max(float(m[4]), float(m[6])) for m in calls)
    parts = [ln.split(":")[0] for ln in lines if "[" not in ln]
    assert parts == ["forward", "backward", "evaluate"]

    bad = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "memory_peaks.py"), "nothing",
         "--spec", str(spec)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120)
    assert bad.returncode == 2 and "tiny" in bad.stderr
