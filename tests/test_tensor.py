"""Forward-value and backward-value checks for the tape ops."""

import itertools
import re
import weakref

import numpy as np
import pytest

from chunkmem.errors import ContractError, ShapeError
from chunkmem.optim import Adam
from chunkmem.rng import make_rng
from chunkmem.stack import Model, ModelConfig, forward_sequence
from chunkmem.tensor import GradTape, Tensor


def tape():
    return GradTape()


# ---- matmul ----

def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = tape().matmul(Tensor(a), Tensor(np.eye(4)))
    assert np.array_equal(out.data, a)


def test_matmul_zero():
    a = make_rng(1).normal(size=(3, 4))
    out = tape().matmul(Tensor(a), Tensor(np.zeros((4, 2))))
    assert np.array_equal(out.data, np.zeros((3, 2)))


def test_matmul_against_triple_loop():
    rng = make_rng(2)
    a = rng.normal(size=(5, 7))
    b = rng.normal(size=(7, 4))
    want = np.zeros((5, 4))
    for i in range(5):
        for j in range(4):
            acc = 0.0
            for k in range(7):
                acc += a[i, k] * b[k, j]
            want[i, j] = acc
    got = tape().matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ShapeError) as e:
        tape().matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))
    assert "(3, 4)" in str(e.value) and "(5, 2)" in str(e.value)


def test_matmul_batched_matches_loop():
    rng = make_rng(3)
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(3, 5, 6))  # broadcasts over the leading 2
    got = tape().matmul(Tensor(a), Tensor(b)).data
    for i in range(2):
        for j in range(3):
            assert np.max(np.abs(got[i, j] - a[i, j] @ b[j])) < 1e-12


# ---- softmax ----

def test_softmax_frozen_high_precision():
    got = tape().softmax(Tensor([1.0, 2.0, 3.0])).data
    want = np.array([
        0.09003057317038045799802,
        0.244728471054797652473,
        0.665240955774821889529,
    ])
    assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_shift_invariance():
    rng = make_rng(4)
    x = rng.normal(size=(6, 9))
    tp = tape()
    a = tp.softmax(Tensor(x)).data
    b = tp.softmax(Tensor(x + 123.456)).data
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_rows_sum_to_one_and_uniform_case():
    rng = make_rng(5)
    x = rng.normal(size=(4, 7)) * 10
    s = tape().softmax(Tensor(x)).data
    assert np.max(np.abs(s.sum(axis=-1) - 1.0)) < 1e-12
    u = tape().softmax(Tensor(np.full(5, 3.3))).data
    assert np.max(np.abs(u - 0.2)) < 1e-12


# ---- layer norm ----

def test_layer_norm_formula_oracle():
    rng = make_rng(7)
    x = rng.normal(size=(4, 6)) * 3
    gain = rng.normal(size=6)
    bias = rng.normal(size=6)
    got = tape().layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
    mu = x.mean(-1, keepdims=True)
    var = x.var(-1, keepdims=True)
    want = (x - mu) / np.sqrt(var + 1e-5) * gain + bias
    assert np.max(np.abs(got - want)) < 1e-10


def test_layer_norm_constant_row_is_bias():
    x = np.full((2, 5), 7.0)
    got = tape().layer_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5))).data
    assert np.max(np.abs(got)) < 1e-12


def test_layer_norm_zero_gain_gives_bias():
    rng = make_rng(8)
    x = rng.normal(size=(3, 5))
    bias = rng.normal(size=5)
    got = tape().layer_norm(Tensor(x), Tensor(np.zeros(5)), Tensor(bias)).data
    assert np.max(np.abs(got - bias)) < 1e-12


# ---- elementwise family ----

def test_add_broadcast_and_grad_unbroadcast():
    a = Tensor(np.ones((3, 4)))
    b = Tensor(np.ones(4))
    tp = tape()
    tp.watch(a)
    tp.watch(b)
    loss = tp.reduce_sum(tp.add(a, b))
    g = tp.backward(loss)
    assert np.array_equal(g[a].data, np.ones((3, 4)))
    assert np.array_equal(g[b].data, np.full(4, 3.0))


def test_relu_values():
    got = tape().relu(Tensor([-2.0, 0.0, 3.5])).data
    assert np.array_equal(got, [0.0, 0.0, 3.5])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_is_bitwise_the_masked_select(dtype):
    x = make_rng(31).normal(size=(4, 7, 33)).astype(dtype)
    x[0, 0, :5] = 0.0
    got = tape().relu(Tensor(x)).data
    want = np.where(x > 0, x, 0.0).astype(dtype)
    assert got.dtype == dtype and np.array_equal(got, want)


def test_sigmoid_extremes_are_finite_and_correct():
    got = tape().sigmoid(Tensor([-800.0, 0.0, 800.0])).data
    assert np.all(np.isfinite(got))
    assert got[0] == 0.0 and got[1] == 0.5 and got[2] == 1.0


def test_tanh_matches_numpy():
    x = make_rng(9).normal(size=(3, 3))
    assert np.array_equal(tape().tanh(Tensor(x)).data, np.tanh(x))


def test_concat_slice_round_trip():
    rng = make_rng(10)
    a = rng.normal(size=(2, 5))
    b = rng.normal(size=(3, 5))
    tp = tape()
    cat = tp.concat([Tensor(a), Tensor(b)], axis=0)
    back = tp.slice_ax(cat, 0, 2, 5)
    assert np.array_equal(back.data, b)


def test_embed_lookup_rows_and_duplicate_grad():
    table = Tensor(np.arange(12.0).reshape(4, 3))
    idx = np.array([1, 1, 3])
    tp = tape()
    tp.watch(table)
    out = tp.embed_lookup(table, idx)
    assert np.array_equal(out.data, table.data[idx])
    g = tp.backward(tp.reduce_sum(out))[table].data
    want = np.zeros((4, 3))
    want[1] = 2.0  # looked up twice
    want[3] = 1.0
    assert np.array_equal(g, want)


def _check_embed_grad_is_bitwise_add_at(dtype, d):
    # many duplicates per row, rows 0 and 6 never looked up, and sums long
    # enough that another addition order would move float32 results
    rng = make_rng(32)
    table = Tensor(rng.normal(size=(8, d)).astype(dtype))
    idx = rng.choice([1, 2, 3, 4, 5, 7], size=(6, 50))
    idx[2, 7:40] = 4
    g = (rng.normal(size=(6, 50, d))
         * 10.0 ** rng.integers(-4, 4, size=(6, 50, 1))).astype(dtype)
    tp = tape()
    tp.watch(table)
    out = tp.embed_lookup(table, idx)
    got = tp.backward(tp.reduce_sum(tp.multiply(out, Tensor(g))))[table].data
    want = np.zeros_like(table.data)
    np.add.at(want, idx.ravel(), g.reshape(-1, d))
    assert got.dtype == dtype and np.array_equal(got, want)
    assert not got[[0, 6]].any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_lookup_grad_is_bitwise_add_at(dtype):
    _check_embed_grad_is_bitwise_add_at(dtype, 16)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_lookup_grad_of_one_column_table_is_bitwise_add_at(dtype):
    # a reduce over one column sums pairwise, not in row order
    _check_embed_grad_is_bitwise_add_at(dtype, 1)


def test_embed_lookup_out_of_range():
    with pytest.raises(ContractError):
        tape().embed_lookup(Tensor(np.zeros((4, 3))), np.array([4]))


def _layer_norm_by_mean(x, gain, bias, g, eps=1e-5):
    """layer_norm's forward, and its input gradient for upstream g, written
    with ndarray.mean."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    gh = g * gain
    dx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    return xhat * gain + bias, dx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 7, 64, 100])
def test_layer_norm_is_bitwise_the_mean_formula(dtype, d):
    # rows spanning 6 decades, so a different sum or divide would show
    rng = make_rng(40)
    x = (rng.normal(size=(3, 5, d))
         * 10.0 ** rng.integers(-3, 4, size=(3, 5, 1))).astype(dtype)
    gain, bias = (rng.normal(size=d).astype(dtype) for _ in range(2))
    g = rng.normal(size=(3, 5, d)).astype(dtype)
    tp = tape()
    xt, gt, bt = (tp.watch(Tensor(v)) for v in (x, gain, bias))
    out = tp.layer_norm(xt, gt, bt)
    grads = tp.backward(tp.reduce_sum(tp.multiply(out, Tensor(g))))
    want_out, want_dx = _layer_norm_by_mean(x, gain, bias, g)
    assert out.dtype == dtype and np.array_equal(out.data, want_out)
    assert grads[xt].dtype == dtype and np.array_equal(grads[xt].data, want_dx)


# ---- fast paths: bitwise equal to the plain NumPy formulas ----

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, axis", [((3, 5, 512), -1), ((600, 8), -1),
                                         ((4, 9, 6), -1), ((7,), 0)])
def test_softmax_is_bitwise_the_copying_formula(dtype, shape, axis):
    # in-place exp and divide against the formula with fresh arrays, over
    # the last axis, the one softmax normalises; the (600, 8) case takes
    # the short-row maximum
    rng = make_rng(44)
    x = (rng.normal(size=shape) * 10.0 ** rng.integers(-2, 3, size=shape)
         ).astype(dtype)
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    want = e / e.sum(axis=axis, keepdims=True)
    got = tape().softmax(Tensor(x)).data
    assert got.dtype == dtype and np.array_equal(got, want)


@pytest.mark.parametrize("ndim", [2, 3, 4, 5])
def test_transpose_backward_inverts_every_permutation(ndim):
    rng = make_rng(42)
    shape = (2, 3, 4, 5, 6)[:ndim]
    x = rng.normal(size=shape)
    for perm in itertools.permutations(range(ndim)):
        tp = tape()
        xt = tp.watch(Tensor(x))
        out = tp.transpose(xt, perm)
        assert np.array_equal(out.data, x.transpose(perm))
        g = rng.normal(size=out.shape)
        got = tp.backward(tp.reduce_sum(tp.multiply(out, Tensor(g))))[xt].data
        assert np.array_equal(got, g.transpose(np.argsort(perm))), perm


@pytest.mark.parametrize("value, want", [
    (3, np.float64),
    (True, np.float64),
    (2.5, np.float64),
    (np.int64(5), np.float64),
    (np.array(7), np.float64),  # 0-d int array
    (np.float32(1.5), np.float32),  # a float32 scalar keeps its precision
    (np.arange(3, dtype=np.int32), np.float64),
    (np.array([True, False]), np.float64),
    (np.ones(2, dtype=np.float16), np.float64),
    (np.ones(2, dtype=">f8"), np.float64),  # byte-swapped: made native
    ([1, 2.5], np.float64),
    ([[1, 2], [3, 4]], np.float64),
])
def test_tensor_converts_other_inputs_to_float64(value, want):
    t = Tensor(value)
    assert t.dtype == np.dtype(want) and t.dtype.isnative
    assert np.array_equal(t.data, np.asarray(value, dtype=want))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_adopts_a_float_ndarray_as_the_same_object(dtype):
    a = make_rng(43).normal(size=(4, 6)).astype(dtype)
    view = a[::2, 1:]  # not contiguous
    ro = a.copy()
    ro.flags.writeable = False
    zero_d = np.array(1.25, dtype=dtype)
    for arr in (a, view, ro, zero_d):
        assert Tensor(arr).data is arr


@pytest.mark.parametrize("recording", [True, False])
@pytest.mark.parametrize("op", ["add", "multiply"])
def test_binary_ops_name_both_shapes_when_they_do_not_broadcast(op, recording):
    tp = GradTape(recording=recording)
    a = tp.watch(Tensor(np.ones((2, 3))))
    b = tp.watch(Tensor(np.ones((4, 3))))
    n = len(tp)
    for x, y in ((a, b), (b, a), (a, Tensor(np.ones(4)))):
        msg = f"{op}: cannot broadcast {x.shape} with {y.shape}"
        with pytest.raises(ShapeError, match=re.escape(msg)):
            getattr(tp, op)(x, y)
    assert len(tp) == n
    out = getattr(tp, op)(a, Tensor(np.ones((5, 1, 3))))  # still broadcasts
    assert out.shape == (5, 2, 3) and len(tp) == n + recording


def test_gather_last_values():
    x = np.arange(12.0).reshape(3, 4)
    idx = np.array([[0, 3], [1, 1], [2, 0]])
    got = tape().gather_last(Tensor(x), idx).data
    assert np.array_equal(got, [[0.0, 3.0], [5.0, 5.0], [10.0, 8.0]])


def test_add_placed_values_and_gradients():
    # rows of width 6 in two bands of 3: row 0 gets b's first two columns
    # at column 0 of each band, and rows 1 and 2 at columns 1 and 2 more
    # than their row number: one run at slope 0, one at slope 1, per band
    rng = make_rng(19)
    a, b = Tensor(rng.normal(size=(2, 3, 6))), Tensor(rng.normal(size=(2, 3, 3)))
    runs = [((slice(0, 1),), 0, 0), ((slice(1, 3),), 0, 1),
            ((slice(0, 1),), 3, 0), ((slice(1, 3),), 3, 1)]
    tp = tape()
    tp.watch(a)
    tp.watch(b)
    out = tp.add_placed(a, b, 2, runs)
    cols = [[0, 1], [0, 1], [1, 2]]
    want = a.data.copy()
    for shift in (0, 3):
        for i in range(3):
            want[:, i, np.add(cols[i], shift)] += b.data[:, i, :2]
    assert np.array_equal(out.data, want)
    mix = rng.normal(size=(2, 3, 6))
    g = tp.backward(tp.reduce_sum(tp.multiply(out, Tensor(mix))))
    assert np.array_equal(g[a].data, mix)
    gb = np.zeros((2, 3, 3))
    for i in range(3):
        gb[:, i, :2] = mix[:, i, cols[i]] + mix[:, i, np.add(cols[i], 3)]
    assert np.array_equal(g[b].data, gb)


@pytest.mark.parametrize("n, runs", [
    (2, [((slice(0, 2),), 4, 1)]),  # the last row runs past the end
    (2, [((slice(0, 2),), -1, 0)]),  # before the first column
    (2, [((slice(0, 2),), 0, 2)]),  # a slope other than 0 or 1
    (4, [((slice(0, 2),), 0, 0)]),  # more columns than b has
])
def test_add_placed_rejects_runs_out_of_range(n, runs):
    a, b = Tensor(np.zeros((2, 6))), Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        tape().add_placed(a, b, n, runs)


def test_take_rows_duplicate_selections_accumulate():
    rng = make_rng(17)
    a = Tensor(rng.normal(size=(2, 4, 3)))
    idx = np.array([[1, 1, 3], [0, 2, 0]])
    mix = rng.normal(size=(2, 3, 3))
    tp = tape()
    tp.watch(a)
    out = tp.take_rows(a, idx)
    assert np.array_equal(out.data, a.data[np.arange(2)[:, None], idx])
    g = tp.backward(tp.reduce_sum(tp.multiply(out, Tensor(mix))))[a].data
    want = np.zeros((2, 4, 3))
    for b in range(2):
        for i in range(3):
            want[b, idx[b, i]] += mix[b, i]
    assert np.array_equal(g, want)


# ---- cross entropy ----

def test_cross_entropy_frozen_value():
    loss = tape().cross_entropy_logits(Tensor([0.5, -1.0, 2.0, 0.25]), 2)
    assert abs(float(loss.data) - 0.3692789984482534295607) < 1e-12


def test_cross_entropy_uniform_is_log_n():
    loss = tape().cross_entropy_logits(Tensor(np.zeros(7)), 3)
    assert abs(float(loss.data) - 1.945910149055313305105) < 1e-12


def test_cross_entropy_saturated_correct_class():
    logits = np.zeros(5)
    logits[1] = 40.0
    loss = tape().cross_entropy_logits(Tensor(logits), 1)
    assert 0.0 <= float(loss.data) < 1e-10


def test_cross_entropy_grad_is_softmax_minus_onehot():
    rng = make_rng(12)
    x = rng.normal(size=(3, 5)) * 2
    t = np.array([0, 2, 4])
    logits = Tensor(x)
    tp = tape()
    tp.watch(logits)
    loss = tp.cross_entropy_logits(logits, t, reduction="sum")
    g = tp.backward(loss)[logits].data
    e = np.exp(x - x.max(-1, keepdims=True))
    p = e / e.sum(-1, keepdims=True)
    for i, ti in enumerate(t):
        p[i, ti] -= 1.0
    assert np.max(np.abs(g - p)) < 1e-12


def test_cross_entropy_target_out_of_range():
    with pytest.raises(ContractError):
        tape().cross_entropy_logits(Tensor(np.zeros(4)), 4)


def test_cross_entropy_mean_over_rows():
    x = make_rng(13).normal(size=(6, 3))
    t = np.array([0, 1, 2, 0, 1, 2])
    tp = tape()
    total = float(tp.cross_entropy_logits(Tensor(x), t, reduction="sum").data)
    mean = float(tp.cross_entropy_logits(Tensor(x), t).data)
    assert abs(mean - total / 6) < 1e-12


# ---- stop gradient ----
# A constant built from a live tensor's data, Tensor(x.data), is how the
# library detaches: memory contents and XL attention's extended keys.

def test_stop_gradient_forward_bitwise():
    x = Tensor(make_rng(14).normal(size=(3, 3)))
    out = Tensor(x.data)
    assert out.data is x.data


def test_stop_gradient_blocks_exactly():
    x = Tensor(np.ones((2, 2)))
    tp = tape()
    tp.watch(x)
    y = Tensor(np.ones((2, 2)))
    tp.watch(y)
    loss = tp.reduce_sum(tp.add(y, Tensor(tp.tanh(x).data)))
    g = tp.backward(loss)
    assert np.array_equal(g[x].data, np.zeros((2, 2)))
    assert np.array_equal(g[y].data, np.ones((2, 2)))


def test_x_plus_stop_x_grad_is_one():
    x = Tensor(make_rng(15).normal(size=(4,)))
    tp = tape()
    tp.watch(x)
    loss = tp.reduce_sum(tp.add(x, Tensor(x.data)))
    g = tp.backward(loss)[x].data
    assert np.array_equal(g, np.ones(4))


# ---- backward mechanics ----

def test_backward_of_sum_is_ones():
    x = Tensor(make_rng(16).normal(size=(3, 5)))
    tp = tape()
    tp.watch(x)
    g = tp.backward(tp.reduce_sum(x))[x].data
    assert np.array_equal(g, np.ones((3, 5)))


def test_unreached_parameter_gets_zero():
    x = Tensor(np.ones(3))
    unused = Tensor(np.ones(4))
    tp = tape()
    tp.watch(x)
    tp.watch(unused)
    g = tp.backward(tp.reduce_sum(tp.tanh(x)))
    assert np.array_equal(g[unused].data, np.zeros(4))


def test_backward_non_scalar_loss_raises():
    x = Tensor(np.ones(3))
    tp = tape()
    tp.watch(x)
    y = tp.tanh(x)
    with pytest.raises(ContractError):
        tp.backward(y)


def test_cross_tape_tensor_raises():
    x = Tensor(np.ones(3))
    tp1 = tape()
    tp1.watch(x)
    y = tp1.tanh(x)
    tp2 = tape()
    with pytest.raises(ContractError):
        tp2.tanh(y)


def test_diamond_graph_accumulates():
    # loss = sum(x*x + x*x) so dloss/dx = 4x
    x = Tensor(np.array([1.0, 2.0, 3.0]))
    tp = tape()
    tp.watch(x)
    a = tp.multiply(x, x)
    loss = tp.reduce_sum(tp.add(a, a))
    g = tp.backward(loss)[x].data
    assert np.max(np.abs(g - 4 * x.data)) < 1e-14


def test_backward_releases_what_ops_saved_and_spends_the_tape():
    w, unused = Tensor(np.ones(3)), Tensor(np.ones(2))
    saved, skipped, late = np.arange(3.0), np.full(3, 2.0), np.full(3, 3.0)
    refs = [weakref.ref(a) for a in (saved, skipped, late)]
    tp = tape()
    tp.watch(w)
    tp.watch(unused)
    loss = tp.reduce_sum(tp.multiply(w, Tensor(saved)))
    tp.multiply(w, Tensor(skipped))  # recorded, but the loss never reads it
    tp.multiply(w, Tensor(late))  # recorded after the loss
    del saved, skipped, late
    assert all(r() is not None for r in refs)  # kept for backward
    g = tp.backward(loss)
    assert [r() for r in refs] == [None, None, None]
    assert np.array_equal(g[w].data, [0.0, 1.0, 2.0])
    assert np.array_equal(g[unused].data, np.zeros(2))
    assert len(tp) == 0
    with pytest.raises(ContractError, match="already ran"):
        tp.backward(loss)
    with pytest.raises(ContractError, match="already ran"):
        tp.tanh(w)  # a watched leaf cannot start a new graph here
    tp2 = tape()
    tp2.watch(w)  # a new tape takes the leaf over
    g2 = tp2.backward(tp2.reduce_sum(tp2.tanh(w)))
    assert np.array_equal(g2[w].data, 1.0 - np.tanh(w.data) ** 2)


@pytest.mark.parametrize("op", ["matmul", "multiply"])
@pytest.mark.parametrize("live_left", [True, False])
def test_op_by_a_constant_keeps_only_the_constant(op, live_left):
    rng = make_rng(40)
    w = Tensor(rng.normal(size=(4, 4)))
    c = rng.normal(size=(4, 4))
    g = rng.normal(size=(4, 4))
    tp = tape()
    tp.watch(w)
    x = tp.scale(w, 2.0)  # the live operand, held by nothing but x
    refs = weakref.ref(x.data), weakref.ref(c)
    pair = (x, Tensor(c)) if live_left else (Tensor(c), x)
    out = getattr(tp, op)(*pair)
    loss = tp.reduce_sum(tp.multiply(out, Tensor(g)))
    del x, pair
    assert refs[0]() is None and refs[1]() is not None
    got = tp.backward(loss)[w].data
    if op == "multiply":
        want = 2.0 * g * c
    else:
        want = 2.0 * (g @ c.T if live_left else c.T @ g)
    assert np.max(np.abs(got - want)) < 1e-12


def test_slice_gradients_add_bitwise_as_zero_filled_arrays():
    # overlapping slices along every axis, whole-array terms between them,
    # -0.0 in every gradient, and a float32 source met by float64 terms:
    # the source's gradient is, bit for bit, the sum in backward's order
    # of each slice's gradient placed in zeros, as it was before slices
    # were added in place
    rng = make_rng(41)
    shape = (4, 6, 5)
    for dtype, full_dtype in [(np.float64, np.float64), (np.float32, np.float32),
                              (np.float32, np.float64)]:
        w = Tensor(rng.normal(size=shape).astype(dtype))
        tp = tape()
        tp.watch(w)
        src = tp.reshape(w, shape)  # an intermediate, passed on to w
        terms, losses = [], []
        for k in range(12):
            if k % 4 == 3:
                part, term_dtype = src, full_dtype
            else:
                axis = int(rng.integers(3))
                a, b = sorted(rng.integers(0, shape[axis] + 1, size=2))
                part, term_dtype = tp.slice_ax(src, axis, a, b), dtype
            gk = rng.normal(size=part.shape).astype(term_dtype)
            gk[rng.random(part.shape) < 0.4] = -0.0
            gk[rng.random(part.shape) < 0.1] = 0.0
            if part is src:
                full = gk
            else:
                full = np.zeros(shape, dtype=gk.dtype)
                full[tuple(slice(a, b) if i == axis else slice(None)
                           for i in range(3))] = gk
            terms.append(full)
            losses.append(tp.reduce_sum(tp.multiply(part, Tensor(gk))))
        loss = losses[0]
        for extra in losses[1:]:
            loss = tp.add(loss, extra)
        got = tp.backward(loss)[w].data
        want = terms[-1]
        for term in terms[-2::-1]:  # backward meets the last term first
            want = want + term
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (dtype, full_dtype)


def test_slice_gradient_handed_to_backward_carries_a_dtype():
    tp = tape()
    a = tp.watch(Tensor(np.ones((3, 4), dtype=np.float32)))
    tp.slice_ax(a, 1, 1, 3)
    _ids, bwd = tp._nodes[-1]
    (handed,) = bwd(np.ones((3, 2), dtype=np.float32))
    assert handed.dtype == np.float32


def test_reading_a_freed_intermediate_gradient_raises():
    x = Tensor(np.array([0.5, -1.0, 2.0]))
    tp = tape()
    tp.watch(x)
    y = tp.tanh(x)
    loss = tp.reduce_sum(y)
    g = tp.backward(loss)
    with pytest.raises(ContractError):
        g[y]
    with pytest.raises(ContractError):
        g[loss]
    assert np.array_equal(g[x].data, 1.0 - np.tanh(x.data) ** 2)


class EveryGradientTape(GradTape):
    """Also differentiates constant operands, whose gradients go unread."""

    def _live(self, t):
        return True


@pytest.mark.parametrize("kind", ["hcam", "trxl"])
def test_skipping_constant_operand_gradients_is_bitwise_neutral(kind):
    # long enough for blocked local attention and several recall segments
    cfg = ModelConfig(kind=kind, d_model=8, n_heads=2, n_layers=2,
                      chunk_size=3, top_k=2, local_window=2, capacity=3,
                      xl_extra_length=3)
    model = Model(cfg, seed=2)
    xs = make_rng(18).normal(size=(2, 13, 8))
    grads = []
    for tp in (GradTape(), EveryGradientTape()):
        model.watch_all(tp)
        ys, _ = forward_sequence(tp, model, Tensor(xs))
        g = tp.backward(tp.reduce_sum(tp.tanh(ys)))
        grads.append({k: g[p].data for k, p in model.params.items()})
    for name in model.params:
        assert np.array_equal(grads[0][name], grads[1][name]), name


def test_non_recording_tape_skips_graph():
    tp = GradTape(recording=False)
    x = Tensor(np.ones(3))
    y = tp.tanh(x)
    assert y._tape is None
    assert len(tp) == 0


def test_forward_stays_finite_on_chained_ops():
    rng = make_rng(17)
    tp = tape()
    x = Tensor(rng.normal(size=(4, 8)) * 50)
    h = tp.softmax(x)
    h = tp.layer_norm(h, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    h = tp.sigmoid(tp.scale(h, 100.0))
    assert np.all(np.isfinite(h.data))


# ---- adam ----

def adam_step(opt, p, g):
    """One step on the pseudo-gradient g of p, through a tape: the gradient
    of sum(p * g) with respect to p is exactly g."""
    tp = tape()
    tp.watch(p)
    opt.step(tp.backward(tp.reduce_sum(tp.multiply(p, Tensor(g)))))


def test_adam_first_step_is_minus_lr():
    p = Tensor(np.array([0.0]))
    opt = Adam({"p": p}, lr=2e-4)
    adam_step(opt, p, np.array([1.0]))
    assert abs(float(p.data[0]) + 2e-4) < 1e-9


def test_adam_deterministic_over_100_steps():
    def run():
        rng = make_rng(18)
        p = Tensor(rng.normal(size=(4, 4)))
        opt = Adam({"p": p}, lr=1e-3)
        for i in range(100):  # deterministic pseudo-gradients
            adam_step(opt, p, np.sin(p.data + i))
        return p.data.copy()

    a = run()
    b = run()
    assert np.array_equal(a, b)


def test_adam_converges_on_quadratic():
    p = Tensor(np.array([5.0, -3.0]))
    opt = Adam({"p": p}, lr=0.05)
    for _ in range(2000):
        adam_step(opt, p, 2.0 * p.data)
    assert np.max(np.abs(p.data)) < 1e-3
