"""Time two checkouts of the library against each other in one process.

Usage, from the root of the change's checkout:

    python3 tools/inprocess_pairs.py --parent ../parent --change . --rounds 30

Separate benchmark processes of two builds can differ by about 5% in
evaluate time when the code costs the same, so small differences need both
builds timed in one process, alternating. This script loads
<parent>/src/chunkmem and <change>/src/chunkmem as the packages
chunkmem_parent and chunkmem_change, pins BLAS to one thread and malloc's
thresholds as perfbench/run.py does, and for each workload of
perfbench/spec.json (only read; name workloads to run only those) runs
--rounds rounds, the parent first in even rounds:

- a train workload: one training step a side, the same minibatch on each
  side's own model and Adam, then one evaluate a side of the workload's
  eval_batch fresh episodes in one batch;
- a stream workload: STREAM_STEPS stack_step calls a side on the same
  inputs, against a memory filled to capacity first.

Models, minibatches and stream inputs are those of seed SEED.

Every round asserts that the two sides' losses, evaluate accuracies and
step outputs are equal bit for bit, so it suits changes that keep the
numbers. Per workload and operation it prints each side's median ms over
the rounds and the change's median over the parent's.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "perfbench" / "spec.json"
SIDES = ("parent", "change")
SEED = 0
STREAM_STEPS = 100  # stack_step calls a side in a stream round


def load_library(name: str, checkout: Path):
    """<checkout>/src/chunkmem imported as the package name: the library
    imports its own modules relatively, so two copies live side by side."""
    pkg = checkout / "src" / "chunkmem"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("optim", "stack", "tensor", "training")}


def pin_allocator() -> None:
    """perfbench/run.py's pin_allocator, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    run.pin_allocator()


class TrainSide:
    """One side's model and optimizer for a train workload."""

    def __init__(self, lib, spec: dict):
        self.lib = lib
        tr = lib["training"]
        self.rc = rc = tr.RunConfig(seed=SEED, **spec["run"])
        self.episodes = spec["eval_batch"]
        self.model = tr.build_model(rc)
        self.opt = lib["optim"].Adam(self.model.params, lr=rc.lr,
                                     beta1=rc.beta1, beta2=rc.beta2)

    def step(self, i: int):
        """(seconds, loss) of training step i."""
        tr = self.lib["training"]
        t0 = perf_counter()
        tape = self.lib["tensor"].GradTape()
        self.model.watch_all(tape)
        loss, _ = tr._minibatch(tape, self.model, self.rc, i * self.rc.batch)
        self.opt.step(tape.backward(loss))
        return perf_counter() - t0, loss.data

    def evaluate(self, i: int):
        """(seconds, accuracy) of evaluate on the i-th batch of episodes."""
        tr, n = self.lib["training"], self.episodes
        t0 = perf_counter()
        acc = tr.evaluate(self.model, self.rc, n_episodes=n,
                          stream_offset=tr.EVAL_STREAM_OFFSET + i * n,
                          max_batch=n)
        return perf_counter() - t0, np.array(acc)


class StreamSide:
    """One side's model and full memory for a stream workload."""

    def __init__(self, lib, spec: dict, rows: np.ndarray):
        self.lib = lib
        st = lib["stack"]
        cfg = st.ModelConfig(**spec["model"])
        self.model = st.Model(cfg, seed=SEED)
        self.tape = lib["tensor"].GradTape(recording=False)
        self.state = None
        fill = cfg.capacity * cfg.chunk_size
        for s in range(0, fill, 64):
            xs = lib["tensor"].Tensor(rows[None, s:min(fill, s + 64)])
            _, self.state = st.forward_sequence(self.tape, self.model, xs,
                                                self.state)

    def steps(self, rows: np.ndarray):
        """(median seconds a step, the outputs) of stack_step over rows."""
        st, tensor = self.lib["stack"], self.lib["tensor"].Tensor
        times, outs = [], []
        for row in rows:
            x = tensor(row[None, None, :])
            t0 = perf_counter()
            y = st.stack_step(self.tape, self.model, self.state, x)
            times.append(perf_counter() - t0)
            outs.append(y.data)
        return statistics.median(times), np.stack(outs)


def alternate(rounds: int, ops: dict) -> dict:
    """ops maps an operation's name to a function (side, round) -> (seconds,
    value). Runs every op on both sides each round, the parent first in even
    rounds, asserts the sides' values equal bit for bit, and returns each
    op's seconds per side."""
    times = {name: {side: [] for side in SIDES} for name in ops}
    for i in range(rounds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name, op in ops.items():
            values = {}
            for side in order:
                dt, values[side] = op(side, i)
                times[name][side].append(dt)
            a, b = (np.asarray(values[s]) for s in SIDES)
            if a.dtype != b.dtype or a.shape != b.shape or \
                    a.tobytes() != b.tobytes():
                raise AssertionError(f"{name} round {i}: the sides differ")
    return times


def run_workload(libs: dict, spec: dict, rounds: int) -> dict:
    if spec["kind"] == "train":
        sides = {s: TrainSide(libs[s], spec) for s in SIDES}
        return alternate(rounds, {
            "step": lambda s, i: sides[s].step(i),
            "evaluate": lambda s, i: sides[s].evaluate(i)})
    if spec["kind"] != "stream":
        raise ValueError(f"unknown workload kind {spec['kind']!r}")
    d = spec["model"]["d_model"]
    fill = spec["model"]["capacity"] * spec["model"]["chunk_size"]
    rows = np.random.default_rng(SEED).standard_normal(
        (fill + rounds * STREAM_STEPS, d)).astype(spec["model"]["dtype"])
    sides = {s: StreamSide(libs[s], spec, rows) for s in SIDES}
    return alternate(rounds, {"stack_step": lambda s, i: sides[s].steps(
        rows[fill + i * STREAM_STEPS:fill + (i + 1) * STREAM_STEPS])})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*",
                        help="workloads to run (default: all in the spec)")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--spec", type=Path, default=SPEC,
                        help="the workload file (default: perfbench's)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    table = json.loads(args.spec.read_text())["workloads"]
    unknown = [w for w in args.workloads if w not in table]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    pin_allocator()
    libs = {s: load_library(f"chunkmem_{s}", getattr(args, s)) for s in SIDES}
    for name in args.workloads or table:
        times = run_workload(libs, table[name], args.rounds)
        for op, per_side in times.items():
            med = {s: statistics.median(per_side[s]) * 1e3 for s in SIDES}
            print(f"{name} {op}: parent {med['parent']:.4g} ms, change "
                  f"{med['change']:.4g} ms, change/parent "
                  f"{med['change'] / med['parent']:.3f} over {args.rounds} "
                  f"rounds, outputs equal", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
