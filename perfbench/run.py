"""chunkmem benchmark: one workload per run, correctness checked, metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ballet-desk --seed 0 --seconds 30 --trace 0

The workload configs live in perfbench/spec.json. --trace 0 times the
workload untraced and reports the end-to-end metrics; --trace 1 runs it
again with spans recorded around the library's public functions and
reports per-layer metrics (spans are written to perfbench/out/). The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The library is imported from src/ of the same checkout; nothing is
installed. BLAS is pinned to one thread before NumPy loads, and malloc's
thresholds are fixed (see pin_allocator).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3   # setups per untraced run; setup_s is their median
MIN_STEPS = 3       # main operations run even past the time budget
MIN_EVALS = 3


def pin_allocator() -> None:
    """Fix glibc malloc's mmap and trim thresholds.

    By default both move with the process's allocation history, so the
    same stack_step either reuses freed heap or faults in fresh pages for
    its megabyte-sized temporaries (about 1400 faults a step at 512 chunks),
    depending on what ran before it; step time then differs by half between
    identical runs. Fixed thresholds keep freed memory in the heap in every
    run. Elsewhere than glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 512 << 20)
    mallopt(m_trim_threshold, 1 << 30)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


class Phase:
    """Runs operations for a time budget and collects their samples."""

    def __init__(self):
        self.samples: list[tuple] = []  # (kind, seconds or None, failure)
        self._reported = False

    def run(self, op, budget: float, min_ops: int, stop=lambda: False) -> list:
        start = len(self.samples)
        t_end = perf_counter() + budget
        i = 0
        while (perf_counter() < t_end or i < min_ops) and not stop():
            try:
                self.samples.extend(op(i))
            except Exception as exc:  # an operation that raised is a failure
                if not self._reported:
                    traceback.print_exc()
                    self._reported = True
                self.samples.append(("raised", None, repr(exc)))
            i += 1
        return self.samples[start:]

    @staticmethod
    def times(samples, kind: str) -> list[float]:
        return [dt for k, dt, fail in samples if k == kind and dt is not None]

    def failures(self) -> list[str]:
        return [fail for _k, _dt, fail in self.samples if fail is not None]


def end_to_end(import_s, setup_times, steps, evals, episodes_per_eval, attempted,
               failed) -> dict:
    """Metrics from the untraced samples; 0 where every operation raised."""
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "steps_per_s": (len(steps) / sum(steps) if steps else 0.0, "1/s"),
        "step_ms_p50": (statistics.median(steps) * 1e3 if steps else 0.0, "ms"),
        "eval_episodes_per_s": (
            statistics.median(episodes_per_eval / d for d in evals) if evals else 0.0,
            "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "success_rate": (1.0 - failed / attempted, "frac"),
    }


def per_layer(tracer, wl, traced, untraced) -> dict:
    """Per-layer metrics from the traced samples' spans and counts."""
    from tracer import TRACED_OPS

    traced_steps = Phase.times(traced, "step")
    n = max(1, len(traced_steps))
    incl, self_t, calls = tracer.totals("step")
    eval_incl, _, _ = tracer.totals("eval")
    counts = {key: v for (kind, key), v in tracer.counts.items() if kind == "step"}

    def ms(table, name):
        return (table.get(name, 0.0) / n * 1e3, "ms")

    def ratio(num, den):
        return (counts[num] / counts[den] if counts.get(den) else 0.0, "frac")

    out = {
        "tasks.batch_ms": ms(self_t, "tasks.batch"),
        "stack.forward_ms": ms(self_t, "stack.forward"),
        "attention.local_ms": ms(incl, "attention.local"),
        "attention.local_pairs_useful_frac": ratio("local_pairs_useful",
                                                   "local_pairs_scored"),
        "attention.recall_ms": ms(incl, "attention.recall"),
        "attention.relevance_ms": ms(incl, "attention.relevance"),
        "attention.topk_ms": ms(incl, "attention.topk"),
        "attention.recall_detail_ms": ms(self_t, "attention.recall"),
        "attention.recall_scores": (counts.get("recall_scores", 0.0) / n, "count"),
        "attention.recall_rows_projected": (
            counts.get("recall_rows_projected", 0.0) / n, "count"),
        "attention.recall_rows_used_frac": ratio("recall_rows_usable",
                                                 "recall_rows_projected"),
        "memory.write_ms": ms(incl, "memory.write"),
        "memory.read_ms": ms(incl, "memory.read"),
        "memory.read_bytes": (counts.get("memory_read_bytes", 0.0) / n, "B"),
        "tensor.backward_ms": ms(incl, "tensor.backward"),
        "tensor.nodes_per_step": (float(wl.nodes_per_step), "count"),
    }
    for op in TRACED_OPS:
        out[f"tensor.op.{op}.calls"] = (calls.get(f"tensor.op.{op}.fwd", 0) / n,
                                        "count")
        out[f"tensor.op.{op}.fwd_ms"] = ms(incl, f"tensor.op.{op}.fwd")
        out[f"tensor.op.{op}.bwd_ms"] = ms(incl, f"tensor.op.{op}.bwd")
    out["optim.step_ms"] = ms(incl, "optim.step")
    episodes = len(Phase.times(traced, "eval")) * wl.episodes_per_eval
    out["training.eval_ms"] = (
        eval_incl.get("training.eval", 0.0) / episodes * 1e3 if episodes else 0.0,
        "ms")
    untraced_steps = Phase.times(untraced, "step")
    out["trace.overhead_frac"] = (
        statistics.median(traced_steps) / statistics.median(untraced_steps) - 1.0
        if traced_steps and untraced_steps else 0.0, "frac")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_all = json.loads((HERE / "spec.json").read_text())
    spec = spec_all["workloads"].get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(spec_all['workloads'])}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "chunkmem" / "__init__.py").is_file():
        print(f"error: library source not found under {src}", file=sys.stderr)
        return 2

    pin_allocator()
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import chunkmem  # loads NumPy too, so import_s includes it
    import workloads
    from tracer import Tracer
    import_s = perf_counter() - t0

    seconds = args.seconds
    tracer = Tracer() if args.trace else None
    setup_times = []
    wl = None
    for _ in range(1 if args.trace else SETUP_REPEATS):
        wl = None
        gc.collect()
        t = perf_counter()
        wl = workloads.make(spec, args.seed, tracer)
        wl.setup()
        setup_times.append(perf_counter() - t)

    phase = Phase()
    train = spec["kind"] == "train"
    main_share = 2 / 3 if train else 1.0
    if args.trace:
        # first an untraced stretch as the overhead baseline, then traced
        base = phase.run(wl.main_op, seconds / 3, MIN_STEPS, wl.exhausted)
        tracer.install(chunkmem)
        try:
            traced = phase.run(wl.main_op, seconds * (main_share - 1 / 3), 2,
                               wl.exhausted)
            if train:
                traced += phase.run(wl.eval_op, seconds / 3, 1)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, wl, traced, base)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_csv(out_dir / f"trace_{args.workload}.csv")
    else:
        phase.run(wl.main_op, seconds * main_share, MIN_STEPS, wl.exhausted)
        if train:
            phase.run(wl.eval_op, seconds / 3, MIN_EVALS)
        metrics = end_to_end(import_s, setup_times, Phase.times(phase.samples, "step"),
                             Phase.times(phase.samples, "eval"), wl.episodes_per_eval,
                             len(phase.samples), len(phase.failures()))

    failures = phase.failures()
    for fail in failures[:10]:
        print(f"check failed: {fail}", file=sys.stderr)
    digest = hashlib.sha256(
        json.dumps(wl.digest_material()).encode()).hexdigest()[:16]
    recorded = spec.get("digest", {}).get(str(args.seed))
    note = ("no recorded digest for this seed" if recorded is None else
            "matches the recorded digest" if recorded == digest else
            f"differs from the recorded digest {recorded}")
    print(f"digest {digest} ({note})")
    steps = Phase.times(phase.samples, "step")
    print(f"samples: {len(steps)} steps, "
          f"{len(Phase.times(phase.samples, 'eval'))} evals; "
          f"setups {', '.join(f'{s:.3f}' for s in setup_times)} s")
    if not args.trace and len(steps) >= 1000:
        # p99 has at least ten samples beyond it here, but host interference
        # moves it by more than any usable bound, so it is shown, not gated
        p99 = statistics.quantiles(steps, n=100)[98] * 1e3
        print(f"step_ms_p99 {p99:.6g} ms over {len(steps)} steps (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(phase.samples),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
