"""The demos run end to end as documented: python3 demos/<name>.py."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=60)


@pytest.mark.parametrize("name", ["autodiff_walkthrough.py",
                                  "memory_retrieval.py", "attention_cost.py"])
def test_demo_exits_cleanly(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr
    if name == "memory_retrieval.py":
        assert "top-2 selection: chunks [3, 6]" in done.stdout
