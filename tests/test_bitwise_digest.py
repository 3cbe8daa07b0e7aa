"""tools/bitwise_digest.py: one stable digest line per case."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CASES = ["local/xl-blocked/topk-2/float32", "step/hcam/float64"]


def test_two_cases_digest_the_same_twice():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = [subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bitwise_digest.py"), *CASES],
        env=env, capture_output=True, text=True, timeout=120, check=True
    ).stdout for _ in range(2)]
    assert runs[0] == runs[1]
    lines = runs[0].splitlines()
    assert [ln.split()[0] for ln in lines] == CASES
    assert all(len(ln.split()[1]) == 16 for ln in lines)
