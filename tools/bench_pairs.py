"""Alternated parent/change benchmark pairs plus a stack_step capacity sweep.

Usage, from the root of the change's checkout:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seed 701 --out BENCH_7.json

For pair i (seed --seed + i) and every workload in the change's
BENCHMARK.json it runs, in both checkouts,

    python3 perfbench/run.py --workload W --seed S --seconds R --trace 0

with R the run_seconds of the change's BENCHMARK.json, the parent first
in even pairs and the change first in odd ones. Each side imports its own
src/. The BENCH file gets, per workload and end-to-end
metric, each side's runs, median and quartiles, and how many pairs the
change won (ties count for neither side). Seed 0 then runs once a side with
a short budget for its output digest, which covers only the part of a run
that does not depend on the budget.

Before each pair, a child process that imports only NumPy times a fixed
loop of small matmuls and row reductions (--host-child). Its runs go under
"host" -> "reference" in the BENCH file: a measure of the host's speed at
the time, taken apart from the code under test.

--out must be named BENCH_<n>.json, wherever it is written. When the
change's checkout holds a BENCH_<m>.json with m below n (the one with the
highest such m), a "previous" section gives, for each workload and
metric, that file's change-side median and quartiles, and whether this
run's parent median falls inside them: the parent here is
normally the change measured there, so this checks that a rerun lands
within the recorded spread. host_ratio is this run's reference median over
the earlier file's, and each row gets a verdict:
- within: the parent median lies within the earlier quartiles;
- host_drift: it does not, the metric is a time or a rate (unit s, ms or
  1/s), the reference moved by more than the band (the earlier quartile
  range relative to its median), and the metric moved the way that host
  move would push it (a time up or a rate down on a slower host), so the
  host, not the code, may explain the move;
- no_reference: it does not, the metric is a time or a rate, and one of
  the two files has no reference;
- outside: any other row outside the quartiles. Host speed cannot move a
  memory peak or a success rate.

The sweep times batch-1 stack_step against a full memory of 16, 128 and
1024 chunks (stream-recall's model at other capacities), with BLAS and
malloc pinned as perfbench pins them. Each run takes the median and mean
of steps that freeze a chunk and of steps that do not. It runs
SWEEP_RUNS times a side, in the pairs' alternated order. Run i times the
capacities in sweep_order(i), rotated by one a run, so the erratic first
capacity of a fresh process is a different one each run. The report
gives, per capacity and kind of step, the median and quartiles of those
runs, plus each capacity's ratio of medians to the smallest capacity's.

This script imports only the standard library; the sweep runs in a child
process (--sweep-child) that imports NumPy and the side's library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CAPACITIES = (16, 128, 1024)
SWEEP_STEPS = 4000   # stack_steps timed per capacity; 1 in 8 freezes
SWEEP_RUNS = 3       # sweep runs a side, alternated like the pairs
SWEEP_WARMUP = 64
DIGEST_SECONDS = 2.0
HOST_REPEATS = 15    # timed repeats of the host reference loop, per run
HOST_LOOPS = 100     # loop bodies per repeat
HOST_WHAT = (f"median ms of {HOST_REPEATS} repeats of {HOST_LOOPS} loop "
             "bodies: a (32, 49, 64) @ (64, 64) float32 matmul, a softmax "
             "over its last axis and an argmax and a cumulative sum over 8 "
             "rows of 512, NumPy only, one BLAS thread, in a child process")


def run_once(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its JSON result line plus the digest it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True,
                          timeout=3600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{side}: {' '.join(cmd)} exited {proc.returncode}:"
                           f" {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["digest"] = next((ln.split()[1] for ln in lines
                             if ln.startswith("digest ")), None)
    return result


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Pairs the change won and lost, and its median against the parent's."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    return {"parent": p, "change": c, "pairs": len(parent),
            "change_wins": wins, "change_losses": losses,
            "median_change_frac": (c["median"] - p["median"]) / p["median"]
            if p["median"] else None,
            "median_gap_exceeds_parent_iqr":
                sign * (c["median"] - p["median"]) > p["iqr"]}


def bench_number(path: Path) -> int | None:
    """n for a file named BENCH_<n>.json, else None."""
    n = path.name.removeprefix("BENCH_").removesuffix(".json")
    return int(n) if path.name == f"BENCH_{n}.json" and n.isdigit() else None


def previous_bench(change: Path, out: Path) -> Path | None:
    """The BENCH_<m>.json in change with the highest m below out's n,
    wherever out is written; ValueError if out is not BENCH_<n>.json."""
    n = bench_number(out)
    if n is None:
        raise ValueError(f"--out must be named BENCH_<n>.json, got {out.name}")
    found = [(m, p) for p in change.glob("BENCH_*.json")
             if (m := bench_number(p)) is not None and m < n]
    return max(found)[1] if found else None


def host_reference_median(report: dict) -> float | None:
    return report.get("host", {}).get("reference", {}).get("median")


# Per time or rate unit: the sign of its move when the host slows down.
HOST_BOUND_UNITS = {"s": 1, "ms": 1, "1/s": -1}


def verdict(c: dict, now: float, host_ratio: float | None,
            unit: str | None) -> str:
    """within, outside, host_drift or no_reference; see the module doc."""
    if c["q1"] <= now <= c["q3"]:
        return "within"
    slows = HOST_BOUND_UNITS.get(unit)
    if slows is None:
        return "outside"
    if host_ratio is None:
        return "no_reference"
    band = (c["q3"] - c["q1"]) / abs(c["median"]) if c["median"] else 0.0
    with_host = slows * (now - c["median"]) * (host_ratio - 1.0) > 0
    return ("host_drift" if with_host and abs(host_ratio - 1.0) > band
            else "outside")


def previous_section(path: Path, workloads: dict,
                     host_median: float | None = None) -> dict:
    """Per workload and metric of this run's report: the earlier file's
    change-side median and quartiles, whether this run's parent median lies
    within those quartiles, and the verdict given this run's host
    reference median."""
    prev = json.loads(path.read_text())
    before = host_reference_median(prev)
    host_ratio = (host_median / before
                  if host_median is not None and before else None)
    section = {"file": path.name,
               "commit": prev["sides"]["change"]["commit"],
               "host_ratio": host_ratio, "workloads": {}}
    for w, entry in workloads.items():
        old = prev["workloads"].get(w, {}).get("metrics", {})
        rows = {}
        for m, stats in entry["metrics"].items():
            if m not in old:
                continue
            c, now = old[m]["change"], stats["parent"]["median"]
            rows[m] = {"median": c["median"], "q1": c["q1"], "q3": c["q3"],
                       "parent_median_now": now,
                       "parent_median_within": c["q1"] <= now <= c["q3"],
                       "verdict": verdict(c, now, host_ratio,
                                          stats.get("unit"))}
        section["workloads"][w] = rows
    return section


def git_head(side: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=side,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def host_child() -> None:
    """Print the host reference time in ms, HOST_WHAT, as one JSON line."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    from time import perf_counter

    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 49, 64)).astype(np.float32)
    w = rng.standard_normal((64, 64)).astype(np.float32)
    rows = rng.standard_normal((HOST_LOOPS, 8, 512)).astype(np.float32)
    times = []
    for _ in range(HOST_REPEATS):
        t0 = perf_counter()
        for i in range(HOST_LOOPS):
            y = x @ w
            e = np.exp(y - y.max(axis=-1, keepdims=True))
            e /= e.sum(axis=-1, keepdims=True)
            rows[i].argmax(axis=-1)
            rows[i].cumsum(axis=-1)
        times.append((perf_counter() - t0) * 1e3)
    print(json.dumps(statistics.median(times)))


def run_host_reference() -> float:
    """One host reference run, in a child process that imports no library
    code."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--host-child"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"host reference exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def sweep_order(run: int) -> tuple[int, ...]:
    """The order in which sweep run `run` times the capacities: CAPACITIES
    rotated left by `run`, so each capacity comes first once in every
    len(CAPACITIES) runs."""
    r = run % len(CAPACITIES)
    return CAPACITIES[r:] + CAPACITIES[:r]


def sweep_child(run: int) -> None:
    """Print sweep run `run` of this checkout as one JSON line."""
    sys.path.insert(0, "perfbench")
    import run as perfbench_run  # pins BLAS threads before NumPy loads

    perfbench_run.pin_allocator()
    sys.path.insert(0, "src")
    from time import perf_counter

    import numpy as np

    from chunkmem.stack import Model, ModelConfig, forward_sequence, stack_step
    from chunkmem.tensor import GradTape, Tensor

    spec = json.loads(Path("perfbench/spec.json").read_text())
    model_spec = spec["workloads"]["stream-recall"]["model"]
    out = {}
    for cap in sweep_order(run):
        cfg = ModelConfig(**{**model_spec, "capacity": cap})
        model = Model(cfg, seed=0)
        prefill = cap * cfg.chunk_size
        rows = np.random.default_rng(0).standard_normal(
            (prefill + SWEEP_WARMUP + SWEEP_STEPS, cfg.d_model)).astype(cfg.np_dtype)
        tape = GradTape(recording=False)
        state = None
        for s in range(0, prefill, 64):
            _, state = forward_sequence(tape, model,
                                        Tensor(rows[None, s:s + 64]), state)
        mem = state.memories[0]
        times = {"freeze": [], "no_freeze": []}
        for t in range(prefill, len(rows)):
            x = Tensor(rows[t][None, None, :])
            t0 = perf_counter()
            stack_step(tape, model, state, x)
            dt = perf_counter() - t0
            if t >= prefill + SWEEP_WARMUP:
                froze = mem.buffer.shape[-2] == 0
                times["freeze" if froze else "no_freeze"].append(dt * 1e3)
        out[str(cap)] = {
            kind: {"p50_ms": statistics.median(v), "mean_ms": statistics.fmean(v),
                   "steps": len(v)}
            for kind, v in times.items()}
    print(json.dumps({str(cap): out[str(cap)] for cap in CAPACITIES}))


def run_sweep(side: Path, run: int) -> dict:
    """Sweep run `run` of a checkout: {capacity: {kind: {stat: value}}}."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--sweep-child",
         "--sweep-run", str(run)],
        cwd=side, capture_output=True, text=True, timeout=3600)
    if proc.returncode != 0:
        raise RuntimeError(f"{side}: sweep exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def sweep_summary(tables: list[dict]) -> dict:
    """Per capacity, kind and statistic: the median and quartiles over the
    runs' tables, and for every capacity after the smallest, the ratio of
    its medians to the smallest capacity's."""
    out = {}
    for cap, kinds in tables[0].items():
        out[cap] = {kind: {"steps": stats["steps"],
                           **{stat: summary([t[cap][kind][stat] for t in tables])
                              for stat in ("p50_ms", "mean_ms")}}
                    for kind, stats in kinds.items()}
    base = out[str(CAPACITIES[0])]
    for cap in CAPACITIES[1:]:
        row = out[str(cap)]
        row["ratio_to_smallest"] = {
            kind: {stat: row[kind][stat]["median"] / base[kind][stat]["median"]
                   for stat in ("p50_ms", "mean_ms")}
            for kind in ("freeze", "no_freeze")}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=701,
                   help="seed of the first pair; pair i uses seed + i")
    p.add_argument("--out", type=Path)
    p.add_argument("--sweep-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--sweep-run", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--host-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.sweep_child:
        sweep_child(args.sweep_run)
        return 0
    if args.host_child:
        host_child()
        return 0
    if args.parent is None or args.change is None or args.out is None:
        p.error("--parent, --change and --out are required")
    if args.pairs < 1:
        p.error("--pairs must be >= 1")

    given = {"parent": args.parent, "change": args.change}
    sides = {name: path.resolve() for name, path in given.items()}
    try:
        prev = previous_bench(sides["change"], args.out)
    except ValueError as e:
        p.error(str(e))
    bench = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = {w: {"parent": [], "change": []} for w in workloads}
    host_ms = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        host_ms.append(run_host_reference())
        print(f"pair {i} host reference {host_ms[-1]:.4g} ms", flush=True)
        for w in workloads:
            for name in order:
                r = run_once(sides[name], w, seed, seconds)
                runs[w][name].append(r)
                print(f"pair {i} seed {seed} {w} {name}: "
                      + " ".join(f"{m['name']}={r['metrics'][m['name']]['value']:.4g}"
                                 for m in metrics)
                      + f" correct={r['correct']}", flush=True)

    report = {
        "command": " ".join(["python3", "tools/bench_pairs.py", *(
            argv if argv is not None else sys.argv[1:])]),
        "run_command": "python3 perfbench/run.py --workload W --seed S "
                       f"--seconds {seconds:g} --trace 0",
        "sides": {name: {"path": str(given[name]), "commit": git_head(path)}
                  for name, path in sides.items()},
        "host": {"cpus": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version(),
                 "reference": {"what": HOST_WHAT, **summary(host_ms)}},
        "seeds": [args.seed + i for i in range(args.pairs)],
        "order": "parent first in even pairs, change first in odd pairs",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": {},
    }
    for w in workloads:
        entry = {"correct": {n: [r["correct"] for r in runs[w][n]] for n in sides},
                 "failed": {n: [r["failed"] for r in runs[w][n]] for n in sides},
                 "metrics": {}}
        for m in metrics:
            vals = {n: [r["metrics"][m["name"]]["value"] for r in runs[w][n]]
                    for n in sides}
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                **compare(vals["parent"], vals["change"], m["better"])}
        report["workloads"][w] = entry
    if prev is not None:
        report["previous"] = previous_section(
            prev, report["workloads"], host_reference_median(report))

    report["digests_seed0"] = {
        w: {n: run_once(sides[n], w, 0, DIGEST_SECONDS)["digest"] for n in sides}
        for w in workloads}
    tables = {n: [] for n in sides}
    for i in range(SWEEP_RUNS):
        for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            tables[name].append(run_sweep(sides[name], i))
    report["sweep"] = {
        "what": "batch-1 stack_step on a full memory that evicts on every "
                "freeze; stream-recall's model at each capacity, seed 0, "
                f"{SWEEP_STEPS} timed steps after {SWEEP_WARMUP} warm-up "
                "steps, split by whether the step froze a chunk; "
                f"{SWEEP_RUNS} runs a side in alternated order, run i timing "
                "the capacities rotated left by i, each statistic "
                "summarised over the runs",
        **{n: sweep_summary(tables[n]) for n in sides}}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
