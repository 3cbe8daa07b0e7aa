"""tools/bench_pairs.py: the statistics a BENCH file reports per metric."""

import importlib.util
from pathlib import Path

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
