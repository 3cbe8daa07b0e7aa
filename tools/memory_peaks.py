"""tracemalloc peaks of one training step and one evaluate, call by call.

Usage, with the checkout to measure on PYTHONPATH:

    PYTHONPATH=src python3 tools/memory_peaks.py ballet-long

The argument names a train workload of perfbench/spec.json, which is only
read; --spec reads another file of the same layout. The model and run are
the workload's, with seed SEED. Under tracemalloc the script runs:

- one training forward, the minibatch loss training.train optimizes;
- that step's backward;
- one evaluate of the workload's eval_batch episodes, in one batch.

For every local_attention, hcam_block and _mlp call of the forward and of
the evaluate it prints the MiB traced when the call starts, the peak inside
it and the MiB traced when it returns, then each part's peak and what it
leaves traced. Calls are numbered in call order, layer by layer.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import chunkmem.stack as stack  # noqa: E402
from chunkmem import training  # noqa: E402
from chunkmem.tensor import GradTape  # noqa: E402

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
BLOCKS = ("local_attention", "hcam_block", "_mlp")
MIB = 2.0 ** 20
SEED = 0


class Meter:
    """The traced peak over windows that each block call opens anew."""

    def __init__(self):
        self.peak = 0

    def fold(self) -> int:
        """Fold the peak since the last fold into self.peak, start a new
        window, and return what is traced now."""
        now, peak = tracemalloc.get_traced_memory()
        self.peak = max(self.peak, peak)
        tracemalloc.reset_peak()
        return now


def wrap_blocks(meter: Meter, log: list):
    """Replace stack's block functions by ones that log (name, call, start,
    peak, end) bytes per call; returns a function that puts them back."""
    saved = {name: getattr(stack, name) for name in BLOCKS}
    calls = dict.fromkeys(BLOCKS, 0)

    def wrapped(name, fn):
        def call(*args, **kwargs):
            start = meter.fold()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                end = meter.fold()
                log.append((name, calls[name], start, peak, end))
                calls[name] += 1
        return call

    for name, fn in saved.items():
        setattr(stack, name, wrapped(name, fn))

    def restore():
        for name, fn in saved.items():
            setattr(stack, name, fn)
    return restore


def measure(run, eval_batch: int) -> list[str]:
    """The report's lines for one train workload's run settings."""
    rc = training.RunConfig(seed=SEED, **run)
    model = training.build_model(rc)
    lines = []

    def report(title, meter, log, start, end):
        for name, i, a, peak, b in log:
            lines.append(f"{title} {name}[{i}]: start {a / MIB:.1f} "
                         f"peak {peak / MIB:.1f} end {b / MIB:.1f} MiB")
        lines.append(f"{title}: start {start / MIB:.1f} peak "
                     f"{meter.peak / MIB:.1f} end {end / MIB:.1f} MiB")

    def blocks(title, fn):  # fn() with its block calls logged
        meter, log = Meter(), []
        start = meter.fold()
        restore = wrap_blocks(meter, log)
        try:
            result = fn()
        finally:
            restore()
        report(title, meter, log, start, meter.fold())
        return result

    tracemalloc.start()  # one trace for the step: backward sees the tape
    try:
        tape = GradTape()
        model.watch_all(tape)
        loss = blocks("forward",
                      lambda: training._minibatch(tape, model, rc, 0)[0])
        meter = Meter()
        start = meter.fold()
        tape.backward(loss)
        del tape, loss
        report("backward", meter, [], start, meter.fold())
    finally:
        tracemalloc.stop()
    tracemalloc.start()
    try:
        blocks("evaluate", lambda: training.evaluate(
            model, rc, n_episodes=eval_batch,
            stream_offset=training.EVAL_STREAM_OFFSET, max_batch=eval_batch))
    finally:
        tracemalloc.stop()
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", help="a train workload of the spec")
    parser.add_argument("--spec", type=Path, default=SPEC,
                        help="the workload file (default: perfbench's)")
    args = parser.parse_args(argv)
    workloads = json.loads(args.spec.read_text())["workloads"]
    spec = workloads.get(args.workload)
    if spec is None or spec["kind"] != "train":
        trains = sorted(n for n, w in workloads.items() if w["kind"] == "train")
        parser.error(f"{args.workload!r} is not a train workload; choose from "
                     f"{', '.join(trains)}")
    for line in measure(spec["run"], spec["eval_batch"]):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
