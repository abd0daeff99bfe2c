"""Forward semantics and handwritten backward oracles for the tape ops."""

import gc
import inspect
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermem import autodiff as ad
from hiermem import gradcheck
from hiermem.autodiff import Tensor


def leaf(x):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)


# ---------------------------------------------------------------------------
# the op set

# public functions of autodiff that the model does not call, or that are
# not ops with a gradient check, and why each stays
EXEMPT = {
    "as_tensor": "wraps an operand as a tensor; every op calls it",
    "backward": "runs a tape rather than recording an op",
    "reduce_mean": "the reference a training batch under the row cap must "
                   "equal to the bit",
    "relu": "the reference the fused relu= of matmul must equal",
}
NOT_OPS = ("as_tensor", "backward")


def _public_functions():
    return [name for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and fn.__module__ == ad.__name__
            and not name.startswith("_")]


def test_every_op_is_called_by_the_model_and_gradient_checked():
    package = Path(ad.__file__).parent
    callers = "".join(p.read_text() for p in sorted(package.glob("*.py"))
                      if p.name not in ("autodiff.py", "gradcheck.py"))
    uncalled = [name for name in _public_functions() if name not in EXEMPT
                and not re.search(rf"\bad\.{name}\b", callers)]
    assert uncalled == [], f"autodiff functions nothing calls: {uncalled}"
    unchecked = [name for name in _public_functions()
                 if name not in NOT_OPS and name not in gradcheck.PRIMITIVE_CASES]
    assert unchecked == [], f"ops without a gradcheck case: {unchecked}"
    assert set(EXEMPT) <= set(_public_functions())


# ---------------------------------------------------------------------------
# elementwise ops

def test_add_mul_forward_and_backward():
    a = leaf([[1.0, 2.0], [3.0, 4.0]])
    b = leaf([[10.0, 20.0], [30.0, 40.0]])
    out = ad.reduce_sum(ad.add(ad.mul(a, b), ad.add(a, b)))
    assert float(out.data) == pytest.approx(np.sum(a.data * b.data + a.data + b.data))
    ad.backward(out)
    np.testing.assert_allclose(a.grad, b.data + 1.0)
    np.testing.assert_allclose(b.grad, a.data + 1.0)


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_add_mul_take_one_shape_or_a_constant_scalar(op):
    a = leaf(np.ones((2, 3)))
    for other in (np.ones(3), np.ones((1, 3)), leaf(2.0)):
        with pytest.raises(ValueError, match="one shape"):
            op(a, other)
        with pytest.raises(ValueError, match="one shape"):
            op(other, a)
    assert op(a, np.array(2.0)).data.shape == (2, 3)
    assert op(2.0, a).data.shape == (2, 3)


def test_fanout_accumulates():
    x = leaf([1.0, 2.0])
    out = ad.reduce_sum(ad.add(ad.mul(x, x), x))  # x^2 + x, d/dx = 2x + 1
    ad.backward(out)
    np.testing.assert_allclose(x.grad, 2 * x.data + 1)


def test_add_hands_distinct_parents_gradients_that_do_not_alias():
    a, b = leaf(np.ones(3)), leaf(np.ones(3))
    g = np.array([1.0, 2.0, 3.0])
    ad.backward(ad.reduce_sum(ad.mul(ad.add(a, b), g)))
    np.testing.assert_array_equal(a.grad, g)
    np.testing.assert_array_equal(b.grad, g)
    assert not np.shares_memory(a.grad, b.grad)
    a.grad += 1.0                         # a later += must not reach b
    np.testing.assert_array_equal(b.grad, g)


def test_add_of_a_tensor_to_itself_doubles_its_gradient():
    a = leaf(np.ones(3))
    g = np.array([1.0, 2.0, 3.0])
    ad.backward(ad.reduce_sum(ad.mul(ad.add(a, a), g)))
    np.testing.assert_array_equal(a.grad, 2 * g)


def test_fanout_graph_float32_gradients_match_float64():
    # every op that hands a gradient on uncopied, with each input read by
    # several consumers; float32 must track the float64 gradients
    rng = np.random.default_rng(12)
    x0, w0 = rng.normal(size=(4, 3)), rng.normal(size=(3, 3))
    m0 = rng.normal(size=(2, 1, 3))

    def grads(dtype):
        x = Tensor(x0.astype(dtype), requires_grad=True)
        w = Tensor(w0.astype(dtype), requires_grad=True)
        h = ad.matmul(x, w)
        r = ad.relu(h)
        s = ad.sigmoid(h)
        t = ad.add(ad.add(r, s), h)
        u = ad.add(ad.mul(t, x), ad.mul(r, -1.0))
        p = ad.hard_shrink(ad.row_softmax(u), 0.05)
        loss = ad.add(ad.reduce_sum(ad.mul(p, t)), ad.reduce_sum(ad.entropy(p)))
        loss = ad.add(loss, ad.reduce_sum(
            ad.frobenius_sq(ad.add(x, x), t, segments=[4])))
        mem = Tensor(m0.astype(dtype), requires_grad=True)
        loss = ad.add(loss, ad.reduce_sum(ad.matrix_cosine(u, mem, ((4, 1),))))
        ad.backward(loss)
        return x.grad, w.grad, mem.grad

    for got, want in zip(grads(np.float32), grads(np.float64)):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-4)


def test_matmul_forward_backward():
    a = leaf(np.arange(6.0).reshape(2, 3))
    b = leaf(np.arange(12.0).reshape(3, 4))
    g = np.random.default_rng(0).normal(size=(2, 4))
    out = ad.reduce_sum(ad.mul(ad.matmul(a, b), g))
    np.testing.assert_allclose(ad.matmul(a, b).data, a.data @ b.data)
    ad.backward(out)
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


def test_reduce_mean_gradient_is_uniform():
    a = leaf(np.arange(8.0).reshape(2, 4))
    ad.backward(ad.reduce_mean(a))
    np.testing.assert_allclose(a.grad, np.full((2, 4), 1.0 / 8.0))


def test_backward_rejects_nonscalar():
    a = leaf(np.ones(3))
    with pytest.raises(ValueError):
        ad.backward(ad.add(a, a))


def test_intermediate_grads_are_freed_leaves_kept():
    a = leaf(np.ones(3))
    mid = ad.mul(a, 2.0)
    ad.backward(ad.reduce_sum(mid))
    assert mid.grad is None
    assert a.grad is not None


@pytest.mark.parametrize("op", [ad.add, ad.mul])
@pytest.mark.parametrize("scalar", [2, 0.5, -1.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_scalar_takes_the_tensor_dtype(op, scalar, dtype):
    t = Tensor(np.array([1.5, -2.0], dtype=dtype), requires_grad=True)
    for out in (op(t, scalar), op(scalar, t)):
        assert out.data.dtype == dtype
        ad.backward(ad.reduce_sum(out))
        assert t.grad.dtype == dtype
        t.grad = None


def test_reduce_mean_keeps_float32():
    a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    out = ad.reduce_mean(a)
    assert out.data.dtype == np.float32
    ad.backward(out)
    assert a.grad.dtype == np.float32


def _with_gc_disabled(fn):
    """Run fn with the cyclic collector off, so only reference counting frees."""
    gc.disable()
    try:
        return fn()
    finally:
        gc.enable()


def test_backward_frees_the_tape_by_reference_counting():
    def step():
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        h = ad.relu(ad.matmul(np.ones((4, 3)), w))
        probe = weakref.ref(h.data)
        loss = ad.reduce_sum(ad.mul(h, h))
        del h
        ad.backward(loss)
        del loss
        return probe, w

    probe, w = _with_gc_disabled(step)
    assert probe() is None
    np.testing.assert_allclose(w.grad, np.full((3, 2), 24.0))


def test_ops_on_constants_record_nothing():
    def run():
        a = Tensor(np.arange(6.0).reshape(2, 3))
        probe = weakref.ref(a.data)
        out = ad.mul(ad.relu(a), 2.0)
        del a
        return probe, out

    probe, out = _with_gc_disabled(run)
    assert probe() is None
    assert not out.requires_grad
    np.testing.assert_array_equal(out.data, [[0.0, 2.0, 4.0], [6.0, 8.0, 10.0]])


def test_second_backward_through_a_consumed_tape_raises():
    a = leaf(np.ones(3))
    loss = ad.reduce_sum(ad.mul(a, a))
    ad.backward(loss)
    with pytest.raises(RuntimeError, match="already ran"):
        ad.backward(loss)
    np.testing.assert_allclose(a.grad, np.full(3, 2.0))


# ---------------------------------------------------------------------------
# nonlinearities

def test_relu_forward_and_subgradient_zero_at_zero():
    a = leaf([-1.0, 0.0, 2.0])
    out = ad.relu(a)
    np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_allclose(a.grad, [0.0, 0.0, 1.0])



def test_relu_propagates_nan_and_routes_no_gradient_through_it():
    for dtype in (np.float32, np.float64):
        a = Tensor(np.array([np.nan, -1.0, 3.0], dtype=dtype), requires_grad=True)
        out = ad.relu(a)
        assert out.data.dtype == dtype
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [0.0, 3.0])
        ad.backward(ad.reduce_sum(ad.mul(out, np.array([1.0, 1.0, 2.0], dtype=dtype))))
        np.testing.assert_array_equal(a.grad, [0.0, 0.0, 2.0])


def test_relu_hands_its_gradient_on_without_aliasing_fanout():
    # relu masks its own output gradient in place and passes that array on;
    # the other consumers of x must still add into a gradient of their own
    x = leaf([-1.0, 2.0, 3.0])
    h1, h2 = ad.relu(x), ad.relu(x)
    loss = ad.add(ad.add(ad.reduce_sum(ad.mul(h1, 2.0)), ad.reduce_sum(ad.mul(h2, 5.0))),
                  ad.reduce_sum(ad.mul(x, x)))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, [-2.0, 11.0, 13.0])

def _fused_and_unfused(op_name, dtype, nan):
    """A product with relu=True and the same product followed by ad.relu,
    on inputs with a row whose output is exactly 0 (and, with `nan`, a NaN):
    (output, gradients, kink-log entries) of each, under the same loss.
    For "propagate" the op is a graph convolution, `matmul` with `adj`."""
    rng = np.random.default_rng(31)
    h = rng.normal(size=(9, 4)).astype(dtype)
    h[2] = 0.0                                    # an output row at the kink
    if nan:
        h[5, 1] = np.nan
    w = rng.normal(size=(4, 3)).astype(dtype)
    proj = rng.normal(size=(9, 3)).astype(dtype)
    # the one-node graph's matrix is 0, so propagate has a row at the kink
    adj = ([np.zeros((1, 1, 1), dtype), rng.normal(size=(2, 4, 4)).astype(dtype)]
           if op_name != "matmul" else None)

    def run(fused):
        hh, ww = Tensor(h.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        ad._kink_log = []
        try:
            out = (ad.matmul(hh, ww, relu=True, adj=adj) if fused
                   else ad.relu(ad.matmul(hh, ww, adj=adj)))
            kinks = ad._kink_log
        finally:
            ad._kink_log = None
        data = out.data.copy()
        ad.backward(ad.reduce_sum(ad.mul(out, proj)))
        return data, (hh.grad, ww.grad), kinks, out

    return run(True), run(False)


@pytest.mark.parametrize("op_name", ["matmul", "propagate"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nan", [False, True])
def test_fused_relu_is_bit_equal_to_relu_on_the_ops_output(op_name, dtype, nan):
    (f_out, f_grads, f_kinks, _), (u_out, u_grads, u_kinks, _) = \
        _fused_and_unfused(op_name, dtype, nan)
    assert f_out.dtype == dtype
    assert (f_out == 0).any() and np.isnan(f_out).any() == nan
    assert f_out.tobytes() == u_out.tobytes()
    for fg, ug in zip(f_grads, u_grads):
        assert fg.dtype == dtype
        assert fg.tobytes() == ug.tobytes()
    assert np.isnan(f_grads[1]).any() == nan      # NaN reaches the weight
    np.testing.assert_array_equal(f_kinks, u_kinks)
    assert len(f_kinks) == 1 and f_kinks[0][0] == "relu"
    assert nan or f_kinks[0][1] == 0.0


def _logged(fn):
    """The kink log's entries while `fn()` runs."""
    ad._kink_log = []
    try:
        fn()
        return ad._kink_log
    finally:
        ad._kink_log = None


def test_each_non_smooth_op_logs_its_distance_from_its_kink():
    x = np.array([[0.3, -0.02, 1.5], [-2.0, 0.7, 0.05]])
    assert _logged(lambda: ad.relu(leaf(x))) == [("relu", 0.02)]
    # the fused relu logs the product it clamps, not its inputs
    b = np.array([[1.0, 0.5], [0.25, -1.0], [2.0, 0.125]])
    assert _logged(lambda: ad.matmul(leaf(x), leaf(b), relu=True)) == [
        ("relu", float(np.abs(x @ b).min()))]
    w = np.array([[0.5, 0.3, 0.2], [0.16, 0.44, 0.4]])
    assert _logged(lambda: ad.hard_shrink(leaf(w), 0.15)) == [
        ("hard_shrink", float(np.abs(w - 0.15).min()))]
    # one entry per run: the smallest norm of its graphs, or of the blocks
    # cropped to its node count
    h = np.array([[3.0, 4.0], [0.1, 0.0], [0.0, 0.2], [6.0, 8.0], [0.0, 5.0]])
    m = np.array([[[0.6, 0.8], [0.0, 0.0]], [[2.0, 0.0], [0.0, 0.0]]])
    runs = ((1, 1), (2, 2))
    assert _logged(lambda: ad.matrix_cosine(leaf(h), leaf(m), runs)) == [
        ("matrix_cosine", 1.0),
        ("matrix_cosine", float(np.linalg.norm(h[1:3])))]


def test_fused_relu_records_one_tape_node():
    a, b = leaf(np.ones((2, 3))), leaf(np.ones((3, 2)))
    out = ad.matmul(a, b, relu=True)
    assert out._parents == (a, b)
    adj = [np.ones((1, 2, 2))]
    assert ad.matmul(a, b, relu=True, adj=adj)._parents == (a, b)


def _per_run_product(adj, x, transpose=False):
    """Each graph's matrix, or its transpose, times the graph's rows of x,
    one graph at a time."""
    mats = [m.T if transpose else m for stack in adj for m in stack]
    starts = np.cumsum([0] + [len(m) for m in mats])
    return np.concatenate([m @ x[lo:hi] for m, lo, hi
                           in zip(mats, starts[:-1], starts[1:])])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_graph_convolution_is_bit_equal_to_propagate_of_the_product(dtype):
    # runs of 1, 4 and 130 nodes: the 4-node run spans several in-place
    # slices of graphs, and a 130-node graph is a slice of its own; the
    # product is propagated whether it is narrower (3) or wider (8) than the
    # input's 5 columns
    rng = np.random.default_rng(32)
    runs = ((3, 1), (70, 4), (2, 130))
    adj = [rng.normal(size=(c, n, n)).astype(dtype) for c, n in runs]
    rows = sum(c * n for c, n in runs)
    h = rng.normal(size=(rows, 5)).astype(dtype)
    for width in (3, 8):
        w = rng.normal(size=(5, width)).astype(dtype)
        proj = rng.normal(size=(rows, width)).astype(dtype)
        hh, ww = Tensor(h.copy(), requires_grad=True), Tensor(w.copy(), requires_grad=True)
        out = ad.matmul(hh, ww, adj=adj)
        fused = (out.data.copy(),)
        ad.backward(ad.reduce_sum(ad.mul(out, proj)))
        fused += (hh.grad, ww.grad)

        g = _per_run_product(adj, proj, transpose=True)
        reference = (_per_run_product(adj, h @ w), g @ w.T, h.T @ g)
        assert fused[0].dtype == dtype
        for f, r in zip(fused, reference):
            assert f.tobytes() == r.tobytes()


def test_sigmoid_matches_closed_form_and_saturates_cleanly():
    x = np.array([-1000.0, -3.0, 0.0, 3.0, 1000.0])
    out = ad.sigmoid(leaf(x))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data[1:4], 1 / (1 + np.exp(-x[1:4])), rtol=1e-12)
    assert out.data[0] == pytest.approx(0.0, abs=1e-300)
    assert out.data[4] == pytest.approx(1.0)


def _sigmoid_by_gathers(x):
    """The boolean-gather sigmoid `ad.sigmoid` computed before."""
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)
    return out_data


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_is_bit_equal_to_the_gather_form(dtype):
    special = np.array([0.0, -0.0, 88.0, -88.0, -104.0, 710.0, -745.0, np.nan,
                        -np.nan, np.inf, -np.inf, 1e-30, -1e-30], dtype=dtype)
    rng = np.random.default_rng(0)
    x = np.concatenate([special, rng.normal(0, 20, 20000).astype(dtype),
                        rng.uniform(-120, 120, 20000).astype(dtype)])
    got = ad.sigmoid(Tensor(x)).data
    assert got.dtype == dtype
    uint = np.uint32 if dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(got.view(uint),
                                  _sigmoid_by_gathers(x).view(uint))


def test_sigmoid_gradient():
    a = leaf([0.3, -0.7])
    out = ad.sigmoid(a)
    s = out.data.copy()
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_allclose(a.grad, s * (1 - s), rtol=1e-12)


def test_row_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5)) * 10
    w1 = ad.row_softmax(Tensor(x)).data
    w2 = ad.row_softmax(Tensor(x + 123.0)).data
    np.testing.assert_allclose(w1.sum(axis=1), np.ones(4), rtol=1e-12)
    np.testing.assert_allclose(w1, w2, rtol=1e-10)


def test_row_softmax_gradient_matches_jacobian():
    a = leaf([[0.2, -0.5, 1.1]])
    r = np.array([[0.3, -1.2, 0.7]])
    out = ad.reduce_sum(ad.mul(ad.row_softmax(a), r))
    ad.backward(out)
    w = ad.row_softmax(Tensor(a.data)).data
    expected = w * (r - (r * w).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(a.grad, expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# cosine similarity family

def test_matrix_cosine_of_one_node_runs_matches_numpy_oracle():
    # the graph memory's form: each row a graph of one node, each block a row
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6))
    m = rng.normal(size=(5, 6))
    out = ad.matrix_cosine(Tensor(x), Tensor(m[:, None]), ((3, 1),)).data
    nx = np.linalg.norm(x, axis=1)
    nm = np.linalg.norm(m, axis=1)
    expected = (x @ m.T) / (nx[:, None] * nm[None, :])
    np.testing.assert_allclose(out, expected, rtol=1e-7)
    u, v = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]), np.array([[[1.0, 1.0]]])
    out = ad.matrix_cosine(Tensor(u), Tensor(v), ((3, 1),)).data
    assert out.shape == (3, 1)
    np.testing.assert_allclose(out[:2, 0], [1 / np.sqrt(2), 1.0], rtol=1e-7)
    assert out[2, 0] == 0.0                 # a zero row gives 0, not NaN


# ---------------------------------------------------------------------------
# ragged batches: runs of equal node count

RUNS = ((2, 3), (1, 1), (3, 2))             # graphs of 3, 3, 1, 2, 2, 2 nodes
SIZES = [3, 3, 1, 2, 2, 2]


def _per_graph(rows):
    starts = np.cumsum([0] + SIZES)
    return [rows[a:b] for a, b in zip(starts[:-1], starts[1:])]


def test_propagate_multiplies_each_graph_by_its_own_matrix():
    # a graph convolution with a result narrower and one wider than its input
    rng = np.random.default_rng(20)
    adj = [rng.normal(size=(c, n, n)) for c, n in RUNS]
    h = rng.normal(size=(sum(SIZES), 4))
    mats = [m for stack in adj for m in stack]
    for width in (2, 6):
        w = rng.normal(size=(4, width))
        out = ad.matmul(Tensor(h), Tensor(w), adj=adj).data
        expected = np.concatenate([m @ hg @ w
                                   for m, hg in zip(mats, _per_graph(h))])
        np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_gram_holds_each_graph_block_flattened():
    rng = np.random.default_rng(21)
    h = rng.normal(size=(sum(SIZES), 3))
    out = ad.gram(Tensor(h), RUNS).data
    expected = np.concatenate([(hg @ hg.T).ravel() for hg in _per_graph(h)])
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_matrix_cosine_equals_the_per_graph_cosine():
    rng = np.random.default_rng(22)
    h = rng.normal(size=(sum(SIZES), 2))
    m = rng.normal(size=(4, 5, 2))
    out = ad.matrix_cosine(Tensor(h), Tensor(m), RUNS).data
    # each graph against the first n rows of each block, +eps as in the op
    expected = [[hg.ravel() @ mp[:len(hg)].ravel()
                 / (np.linalg.norm(hg) * np.linalg.norm(mp[:len(hg)]) + ad.COSINE_EPS)
                 for mp in m] for hg in _per_graph(h)]
    np.testing.assert_allclose(out, expected, rtol=1e-10)
    zero = ad.matrix_cosine(Tensor(np.zeros_like(h)), Tensor(m), RUNS).data
    np.testing.assert_array_equal(zero, np.zeros((len(SIZES), 4)))


def test_block_readout_crops_every_block_to_the_graph():
    rng = np.random.default_rng(23)
    w = rng.random((len(SIZES), 4))
    m = rng.normal(size=(4, 5, 2))
    out = ad.block_readout(Tensor(w), Tensor(m), RUNS).data
    expected = np.concatenate([np.tensordot(w[i], m[:, :n], axes=1)
                               for i, n in enumerate(SIZES)])
    np.testing.assert_allclose(out, expected, rtol=1e-12)


@pytest.mark.parametrize("op", [ad.matrix_cosine, ad.block_readout])
def test_a_constant_memory_bank_ends_with_no_gradient(op):
    rng = np.random.default_rng(26)
    m = rng.normal(size=(4, 5, 2))
    # node rows in, one cosine per graph and block out; or per-graph weights
    # in, node rows out
    if op is ad.matrix_cosine:
        x, r = rng.normal(size=(sum(SIZES), 2)), rng.normal(size=(len(SIZES), 4))
    else:
        x, r = rng.random((len(SIZES), 4)), rng.normal(size=(sum(SIZES), 2))
    grads = []
    for bank in (Tensor(m), leaf(m)):
        a = leaf(x)
        ad.backward(ad.reduce_sum(ad.mul(op(a, bank, RUNS), r)))
        grads.append((a.grad, bank.grad))
    (const_a, const_m), (leaf_a, leaf_m) = grads
    assert const_m is None and leaf_m is not None
    # the other operand's gradient does not depend on the bank's
    np.testing.assert_array_equal(const_a, leaf_a)


def test_graph_mean_equals_the_per_graph_mean():
    rng = np.random.default_rng(24)
    h = rng.normal(size=(sum(SIZES), 3))
    np.testing.assert_allclose(
        ad.graph_mean(Tensor(h), RUNS).data,
        [hg.mean(axis=0) for hg in _per_graph(h)], rtol=1e-12)


def test_frobenius_sq_segments_sum_each_graph():
    rng = np.random.default_rng(25)
    a, b = rng.normal(size=(sum(SIZES), 2)), rng.normal(size=(sum(SIZES), 2))
    out = ad.frobenius_sq(Tensor(a), Tensor(b), segments=SIZES).data
    expected = [((ag - bg) ** 2).sum()
                for ag, bg in zip(_per_graph(a), _per_graph(b))]
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_runs_must_cover_the_rows_exactly():
    h = Tensor(np.ones((sum(SIZES) + 1, 2)))
    with pytest.raises(ValueError, match="runs cover"):
        ad.gram(h, RUNS)
    with pytest.raises(ValueError, match="at least one"):
        ad.gram(Tensor(np.ones((0, 2))), ((1, 0),))
    with pytest.raises(ValueError, match="sum to"):
        ad.frobenius_sq(h, h, segments=SIZES)
    with pytest.raises(ValueError, match="exceeds memory width"):
        ad.matrix_cosine(Tensor(np.ones((sum(SIZES), 2))),
                         Tensor(np.ones((2, 2, 2))), RUNS)


# ---------------------------------------------------------------------------
# hard shrinkage and entropy

def test_hard_shrink_drops_small_weights_and_renormalizes():
    w = Tensor(np.array([[0.70, 0.29, 0.01]]))
    out = ad.hard_shrink(w, 0.02).data
    np.testing.assert_allclose(out, [[0.70 / 0.99, 0.29 / 0.99, 0.0]], rtol=1e-12)


def test_hard_shrink_identity_when_nothing_drops():
    w = Tensor(np.array([[0.5, 0.3, 0.2]]))
    np.testing.assert_allclose(ad.hard_shrink(w, 0.1).data, w.data, rtol=1e-12)


def test_hard_shrink_all_below_threshold_keeps_argmax():
    w = Tensor(np.array([[0.2, 0.5, 0.3]]))
    np.testing.assert_allclose(ad.hard_shrink(w, 0.6).data, [[0.0, 1.0, 0.0]])


def test_hard_shrink_fallback_tie_prefers_lowest_index():
    w = Tensor(np.array([[0.25, 0.25, 0.25, 0.25]]))
    np.testing.assert_allclose(ad.hard_shrink(w, 0.5).data, [[1.0, 0.0, 0.0, 0.0]])


def test_hard_shrink_fallback_row_has_zero_gradient():
    w = leaf(np.array([[0.2, 0.5, 0.3]]))
    ad.backward(ad.reduce_sum(ad.mul(ad.hard_shrink(w, 0.6),
                                     np.array([[1.0, 2.0, 3.0]]))))
    np.testing.assert_allclose(w.grad, np.zeros((1, 3)))


def test_hard_shrink_rejects_bad_threshold():
    w = Tensor(np.ones((1, 2)) / 2)
    for lam in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            ad.hard_shrink(w, lam)


def test_hard_shrink_backward_against_finite_differences():
    logits = leaf(np.array([[0.9, -0.2, 0.4], [0.1, 0.2, -1.0]]))
    r = np.array([[0.3, -0.8, 0.5], [1.1, 0.2, -0.4]])

    def f():
        return ad.reduce_sum(ad.mul(ad.hard_shrink(ad.row_softmax(logits), 0.15), r))

    (err,) = gradcheck.grad_check(f, [logits])
    assert err < gradcheck.DEFAULT_TOL


def test_entropy_uniform_and_onehot():
    uni = Tensor(np.full((1, 4), 0.25))
    assert ad.entropy(uni).data[0] == pytest.approx(np.log(4), rel=1e-12)
    hot = Tensor(np.array([[0.0, 1.0, 0.0]]))
    assert ad.entropy(hot).data[0] == pytest.approx(0.0, abs=1e-15)


def test_entropy_gradient():
    w = leaf(np.array([[0.2, 0.3, 0.5]]))
    ad.backward(ad.reduce_sum(ad.entropy(w)))
    np.testing.assert_allclose(w.grad, -(np.log(w.data) + 1.0), rtol=1e-12)


def test_entropy_zero_entries_get_zero_gradient():
    w = leaf(np.array([[0.0, 1.0]]))
    ad.backward(ad.reduce_sum(ad.entropy(w)))
    assert w.grad[0, 0] == 0.0


# ---------------------------------------------------------------------------
# pooling and losses

def test_frobenius_sq_scalar_and_batched():
    # one block of both rows, then one block per row
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.zeros((2, 2))
    one = ad.frobenius_sq(Tensor(a), Tensor(b), segments=[2])
    np.testing.assert_allclose(one.data, [30.0])
    batched = ad.frobenius_sq(Tensor(a), Tensor(b), segments=[1, 1])
    np.testing.assert_allclose(batched.data, [5.0, 25.0])


def test_frobenius_sq_gradients_are_opposite():
    a = leaf(np.array([1.0, 2.0]))
    b = leaf(np.array([0.5, 0.5]))
    ad.backward(ad.frobenius_sq(a, b, segments=[2]))
    np.testing.assert_allclose(a.grad, 2 * (a.data - b.data))
    np.testing.assert_allclose(b.grad, -a.grad)


def test_frobenius_sq_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ad.frobenius_sq(Tensor(np.ones(2)), Tensor(np.ones(3)), segments=[2])


# ---------------------------------------------------------------------------
# properties: finite in, finite out, at training-scale magnitudes

finite_arrays = arrays(np.float64, (3, 4),
                       elements=st.floats(-1e3, 1e3, allow_nan=False))


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_sigmoid_softmax_finite_on_large_inputs(x):
    s = ad.sigmoid(Tensor(x)).data
    w = ad.row_softmax(Tensor(x)).data
    assert np.all(np.isfinite(s)) and np.all((s >= 0) & (s <= 1))
    assert np.all(np.isfinite(w))
    np.testing.assert_allclose(w.sum(axis=1), np.ones(3), rtol=1e-9)


@given(finite_arrays)
@settings(max_examples=50, deadline=None)
def test_matrix_cosine_bounded_and_finite(x):
    m = np.linspace(-1e3, 1e3, 8).reshape(2, 1, 4)
    out = ad.matrix_cosine(Tensor(x), Tensor(m), ((3, 1),)).data
    assert np.all(np.isfinite(out))
    assert np.all(np.abs(out) <= 1.0 + 1e-9)


@given(arrays(np.float64, (4, 5), elements=st.floats(-50, 50, allow_nan=False)),
       st.floats(0.0, 0.5))
@settings(max_examples=50, deadline=None)
def test_hard_shrink_output_stays_on_simplex(logits, lam):
    w = ad.row_softmax(Tensor(logits))
    out = ad.hard_shrink(w, lam).data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-9)


@given(arrays(np.float64, (4, 5), elements=st.floats(-50, 50, allow_nan=False)))
@settings(max_examples=50, deadline=None)
def test_entropy_nonnegative_on_simplex(logits):
    w = ad.row_softmax(Tensor(logits))
    ent = ad.entropy(w).data
    assert np.all(ent >= -1e-12)
    assert np.all(ent <= np.log(5) + 1e-9)
