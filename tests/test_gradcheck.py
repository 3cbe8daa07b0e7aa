"""The finite-difference harness itself, plus the full per-op sweep."""

import numpy as np

from chunkmem.gradcheck import (
    corrupted_backward_is_caught,
    fd_check,
    max_rel_err,
    run_composed_checks,
    run_full_gradcheck,
    run_op_checks,
)
from chunkmem.rng import make_rng


def test_max_rel_err_behaviour():
    assert max_rel_err(np.array([1.0]), np.array([1.0])) == 0.0
    assert max_rel_err(np.array([1.0]), np.array([1.1])) > 0.05
    # both tiny: denominated by the floor, so noise does not explode
    assert max_rel_err(np.array([1e-12]), np.array([0.0])) < 1e-5


def test_every_op_passes_fd():
    rows = run_op_checks(seed=0)
    failures = [(n, e) for n, e, ok in rows if not ok]
    assert not failures, f"finite-difference failures: {failures}"


def test_composed_blocks_pass_fd():
    rows = run_composed_checks(seed=0)
    names = [n for n, _e, _ok in rows]
    assert "hcam_block" in names
    assert "stack_step_hcam" in names
    failures = [(n, e) for n, e, ok in rows if not ok]
    assert not failures, f"finite-difference failures: {failures}"


def test_full_suite_covers_ops_and_blocks():
    rows = run_full_gradcheck(seed=0)
    names = [n for n, _e, _ok in rows]
    assert "matmul" in names and "stack_step_lstm" in names
    assert all(ok for _n, _e, ok in rows)


def test_fd_check_on_composed_mlp():
    rng = make_rng(1)
    inputs = {
        "x": rng.normal(size=(3, 4)),
        "w1": rng.normal(size=(4, 6)) * 0.5,
        "b1": rng.normal(size=6) * 0.1,
        "w2": rng.normal(size=(6, 2)) * 0.5,
    }
    t = np.array([0, 1, 0])

    def f(tp, v):
        h = tp.relu(tp.add(tp.matmul(v["x"], v["w1"]), v["b1"]))
        return tp.cross_entropy_logits(tp.matmul(h, v["w2"]), t)

    report = fd_check(f, inputs, max_entries=None)
    assert max(report.values()) < 1e-4


def test_corrupted_backward_is_caught():
    assert corrupted_backward_is_caught()


def test_sampled_entries_are_deterministic():
    rng_in = make_rng(2)
    inputs = {"x": rng_in.normal(size=(20, 20))}

    def f(tp, v):
        return tp.reduce_sum(tp.tanh(v["x"]))

    a = fd_check(f, inputs, max_entries=10, rng=make_rng(7))
    b = fd_check(f, inputs, max_entries=10, rng=make_rng(7))
    assert a == b
