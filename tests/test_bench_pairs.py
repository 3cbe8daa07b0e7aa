"""tools/bench_pairs.py: the statistics a BENCH file reports per metric."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_summary_quartiles_and_pair_wins_follow_the_metric_direction():
    tool = load_tool()
    s = tool.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (s["q1"], s["median"], s["q3"], s["iqr"]) == (2.0, 3.0, 4.0, 2.0)

    parent, change = [10.0, 12.0, 11.0, 9.0], [8.0, 12.0, 13.0, 7.0]
    lower = tool.compare(parent, change, "lower")
    assert (lower["change_wins"], lower["change_losses"]) == (2, 1)  # a tie
    higher = tool.compare(parent, change, "higher")
    assert (higher["change_wins"], higher["change_losses"]) == (1, 2)
    assert lower["median_change_frac"] == higher["median_change_frac"]
    # medians 10.5 and 10.0: a gap of 0.5 inside the parent's IQR of 1.5
    assert not lower["median_gap_exceeds_parent_iqr"]
    assert tool.compare([10.0] * 3, [5.0] * 3, "lower")[
        "median_gap_exceeds_parent_iqr"]


def test_previous_section_checks_the_parent_against_the_last_bench_file(tmp_path):
    tool = load_tool()

    def bench(commit, q1, med, q3):
        stats = {"median": med, "q1": q1, "q3": q3}
        return json.dumps({"sides": {"change": {"commit": commit}},
                           "workloads": {"w": {"metrics": {
                               "steps_per_s": {"change": stats}}}}})

    assert tool.previous_bench(tmp_path, tmp_path / "BENCH_8.json") is None
    (tmp_path / "BENCH_3.json").write_text(bench("aaa", 0.0, 0.5, 1.0))
    (tmp_path / "BENCH_7.json").write_text(bench("bbb", 1.0, 2.0, 3.0))
    (tmp_path / "BENCH_8.json").write_text(bench("ccc", 9.0, 9.5, 9.9))
    (tmp_path / "BENCH_x.json").write_text("not a bench file")
    prev = tool.previous_bench(tmp_path, tmp_path / "BENCH_8.json")
    assert prev == tmp_path / "BENCH_7.json"
    # out's number picks the file, wherever out is written: a scratch
    # BENCH_8 does not read the checkout's own BENCH_8
    scratch = tmp_path / "scratch"
    assert tool.previous_bench(tmp_path, scratch / "BENCH_8.json") == prev
    assert tool.previous_bench(tmp_path, scratch / "BENCH_9.json") == \
        tmp_path / "BENCH_8.json"
    assert tool.previous_bench(tmp_path, scratch / "BENCH_7.json") == \
        tmp_path / "BENCH_3.json"
    assert tool.previous_bench(tmp_path, scratch / "BENCH_3.json") is None
    for name in ("bench.json", "BENCH_8.json.tmp", "BENCH_x.json"):
        with pytest.raises(ValueError, match="BENCH_<n>.json"):
            tool.previous_bench(tmp_path, scratch / name)
    with pytest.raises(SystemExit):  # before any pair runs
        tool.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                   "--out", str(scratch / "bench.json")])

    def report(parent_median):
        return {"w": {"metrics": {
            "steps_per_s": {"parent": {"median": parent_median}},
            "setup_s": {"parent": {"median": 1.0}}}},
                "other": {"metrics": {}}}

    inside = tool.previous_section(prev, report(2.5))
    assert inside["file"] == "BENCH_7.json" and inside["commit"] == "bbb"
    row = inside["workloads"]["w"]["steps_per_s"]
    assert (row["q1"], row["median"], row["q3"]) == (1.0, 2.0, 3.0)
    assert row["parent_median_now"] == 2.5 and row["parent_median_within"]
    assert "setup_s" not in inside["workloads"]["w"]  # not in the old file
    assert inside["workloads"]["other"] == {}
    outside = tool.previous_section(prev, report(3.5))
    assert not outside["workloads"]["w"]["steps_per_s"]["parent_median_within"]


def test_previous_section_tells_host_drift_from_the_code(tmp_path):
    tool = load_tool()
    units = {"step_ms_p50": "ms", "steps_per_s": "1/s", "peak_rss_mb": "MB",
             "success_rate": "frac"}
    band_10 = {"median": 100.0, "q1": 95.0, "q3": 105.0}
    band_0 = {"median": 1.0, "q1": 1.0, "q3": 1.0}

    def bench(path, host_median):
        metrics = {m: {"change": band_0 if m == "success_rate" else band_10}
                   for m in units}
        data = {"sides": {"change": {"commit": "aaa"}},
                "workloads": {"w": {"metrics": metrics}}}
        if host_median is not None:
            data["host"] = {"reference": {"median": host_median}}
        path.write_text(json.dumps(data))
        return path

    def verdicts(path, host_median, **medians):
        now = {"step_ms_p50": 100.0, "steps_per_s": 100.0,
               "peak_rss_mb": 100.0, "success_rate": 1.0, **medians}
        report = {"w": {"metrics": {
            m: {"unit": units[m], "parent": {"median": v}}
            for m, v in now.items()}}}
        section = tool.previous_section(path, report, host_median)
        return section["host_ratio"], {
            m: row["verdict"] for m, row in section["workloads"]["w"].items()}

    old = bench(tmp_path / "BENCH_1.json", 20.0)
    # the host is 25% slower now, beyond the 10% band: a slower time and a
    # lower rate are drift
    ratio, got = verdicts(old, 25.0, step_ms_p50=125.0, steps_per_s=80.0)
    assert ratio == 1.25
    assert got == {"step_ms_p50": "host_drift", "steps_per_s": "host_drift",
                   "peak_rss_mb": "within", "success_rate": "within"}
    # a faster time or a higher rate on a slower host is the code's doing
    _, got = verdicts(old, 25.0, step_ms_p50=80.0, steps_per_s=125.0)
    assert got["step_ms_p50"] == got["steps_per_s"] == "outside"
    # so is the same move on a faster host
    _, got = verdicts(old, 16.0, step_ms_p50=125.0, steps_per_s=80.0)
    assert got["step_ms_p50"] == got["steps_per_s"] == "outside"
    # host speed moves neither a memory peak nor a success rate, even one
    # with no band at all
    _, got = verdicts(old, 25.0, peak_rss_mb=125.0, success_rate=0.9)
    assert got["peak_rss_mb"] == got["success_rate"] == "outside"
    # the host moved 5%, inside the band: the row is outside on its own
    ratio, got = verdicts(old, 21.0, step_ms_p50=125.0, peak_rss_mb=90.0)
    assert ratio == 1.05
    assert got["step_ms_p50"] == got["peak_rss_mb"] == "outside"
    # no reference in this run or in the earlier file
    _, got = verdicts(old, None, step_ms_p50=125.0, peak_rss_mb=125.0)
    assert (got["step_ms_p50"], got["peak_rss_mb"]) == ("no_reference",
                                                        "outside")
    bare = bench(tmp_path / "BENCH_2.json", None)
    ratio, got = verdicts(bare, 25.0, step_ms_p50=125.0, success_rate=0.9)
    assert ratio is None
    assert (got["step_ms_p50"], got["success_rate"]) == ("no_reference",
                                                         "outside")
    assert tool.host_reference_median(json.loads(old.read_text())) == 20.0


def test_sweep_summary_takes_quartiles_over_runs_and_ratios_of_medians():
    tool = load_tool()
    caps = [str(c) for c in tool.CAPACITIES]

    def table(p50s, means):
        """One sweep run: per capacity, the same figures for both kinds."""
        return {cap: {kind: {"p50_ms": p, "mean_ms": m, "steps": 7}
                      for kind in ("freeze", "no_freeze")}
                for cap, p, m in zip(caps, p50s, means)}

    runs = [table([2.0, 2.0, 4.0], [1.0, 1.0, 1.0]),
            table([1.0, 2.0, 8.0], [1.0, 1.0, 1.0]),
            table([3.0, 2.0, 6.0], [1.0, 1.0, 5.0])]
    out = tool.sweep_summary(runs)
    small = out[caps[0]]["no_freeze"]
    assert small["steps"] == 7 and small["p50_ms"]["runs"] == [2.0, 1.0, 3.0]
    p = small["p50_ms"]
    assert (p["q1"], p["median"], p["q3"]) == (1.5, 2.0, 2.5)
    assert "ratio_to_smallest" not in out[caps[0]]
    # from the medians (6 / 2), not the median of per-run ratios (2)
    ratio = out[caps[-1]]["ratio_to_smallest"]
    assert ratio["freeze"] == ratio["no_freeze"] == {"p50_ms": 3.0,
                                                     "mean_ms": 1.0}
    assert out[caps[1]]["ratio_to_smallest"]["no_freeze"]["p50_ms"] == 1.0
    # a single run has no spread
    one = tool.sweep_summary(runs[:1])[caps[-1]]["freeze"]["p50_ms"]
    assert one["q1"] == one["median"] == one["q3"] == 4.0


def test_sweep_runs_rotate_which_capacity_is_timed_first(monkeypatch):
    tool = load_tool()
    orders = [tool.sweep_order(i) for i in range(tool.SWEEP_RUNS)]
    assert orders[0] == tool.CAPACITIES
    assert all(sorted(o) == sorted(tool.CAPACITIES) for o in orders)
    # every capacity is timed first in one run a side, not always the
    # smallest, the denominator of ratio_to_smallest
    assert {o[0] for o in orders} == set(tool.CAPACITIES)
    assert tool.sweep_order(len(tool.CAPACITIES) + 1) == orders[1]

    class Done:
        returncode, stdout, stderr = 0, '{"16": {}}\n', ""

    calls = []
    monkeypatch.setattr(tool.subprocess, "run",
                        lambda cmd, **kw: calls.append(cmd) or Done())
    assert tool.run_sweep(Path("."), 2) == {"16": {}}
    assert calls[0][-3:] == ["--sweep-child", "--sweep-run", "2"]
