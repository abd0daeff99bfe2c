"""Forward semantics and handwritten backward oracles for the tape ops."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hiermem import autodiff as ad
from hiermem.autodiff import Tensor


def leaf(x):
    return Tensor(np.asarray(x, dtype=np.float64), requires_grad=True)


def fd_grad(fn, params, eps=1e-6):
    """Central-difference gradients of a scalar-valued fn, as a test oracle."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(fn().data)
            flat[i] = orig - eps
            lo = float(fn().data)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


# ---------------------------------------------------------------------------
# elementwise and shape ops

def test_add_mul_sub_forward_and_backward():
    a = leaf([[1.0, 2.0], [3.0, 4.0]])
    b = leaf([[10.0, 20.0], [30.0, 40.0]])
    out = ad.reduce_sum(ad.add(ad.mul(a, b), ad.sub(a, b)))
    assert out.item() == pytest.approx(np.sum(a.data * b.data + a.data - b.data))
    out.backward()
    np.testing.assert_allclose(a.grad, b.data + 1.0)
    np.testing.assert_allclose(b.grad, a.data - 1.0)


def test_broadcast_backward_sums_over_expanded_axes():
    a = leaf(np.ones((3, 4)))
    b = leaf(np.arange(4.0))
    out = ad.reduce_sum(ad.mul(a, b))
    out.backward()
    np.testing.assert_allclose(a.grad, np.broadcast_to(np.arange(4.0), (3, 4)))
    np.testing.assert_allclose(b.grad, np.full(4, 3.0))


def test_scalar_broadcast_gradient():
    s = leaf(2.0)
    m = leaf(np.arange(6.0).reshape(2, 3))
    out = ad.reduce_sum(ad.mul(s, m))
    out.backward()
    assert s.grad == pytest.approx(m.data.sum())
    np.testing.assert_allclose(m.grad, np.full((2, 3), 2.0))


def test_fanout_accumulates():
    x = leaf([1.0, 2.0])
    out = ad.reduce_sum(ad.add(ad.mul(x, x), x))  # x^2 + x, d/dx = 2x + 1
    out.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data + 1)


def test_matmul_forward_backward():
    a = leaf(np.arange(6.0).reshape(2, 3))
    b = leaf(np.arange(12.0).reshape(3, 4))
    g = np.random.default_rng(0).normal(size=(2, 4))
    out = ad.reduce_sum(ad.mul(ad.matmul(a, b), g))
    np.testing.assert_allclose(ad.matmul(a, b).data, a.data @ b.data)
    out.backward()
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


def test_matmul_batched():
    rng = np.random.default_rng(1)
    a = leaf(rng.normal(size=(5, 3, 4)))
    b = leaf(rng.normal(size=(5, 4, 2)))
    out = ad.matmul(a, b)
    np.testing.assert_allclose(out.data, np.einsum("bij,bjk->bik", a.data, b.data))
    ad.reduce_sum(out).backward()
    ones = np.ones((5, 3, 2))
    np.testing.assert_allclose(a.grad, np.einsum("bik,bjk->bij", ones, b.data))
    np.testing.assert_allclose(b.grad, np.einsum("bji,bjk->bik", a.data, ones))


def _shared_weight_matmul_grads(h, w, rng):
    """Backpropagate a random projection of h @ w; return it and dL/dh."""
    out = ad.matmul(h, w)
    np.testing.assert_allclose(out.data, np.einsum("...nd,dk->...nk", h.data, w.data))
    g = rng.normal(size=out.shape)
    ad.reduce_sum(ad.mul(out, g)).backward()
    assert w.grad.shape == w.shape
    stack_axes = list(range(h.data.ndim - 1))
    np.testing.assert_allclose(w.grad, np.tensordot(h.data, g, (stack_axes, stack_axes)))
    return np.einsum("...nk,dk->...nd", g, w.data)


def test_matmul_shared_weight_broadcasts_over_batch():
    rng = np.random.default_rng(2)
    h = leaf(rng.normal(size=(4, 5, 3)))
    w = leaf(rng.normal(size=(3, 2)))
    assert ad.matmul(h, w).shape == (4, 5, 2)
    expected_h_grad = _shared_weight_matmul_grads(h, w, rng)
    assert h.grad.shape == (4, 5, 3)
    np.testing.assert_allclose(h.grad, expected_h_grad)


def test_matmul_shared_weight_non_contiguous_stack():
    rng = np.random.default_rng(3)
    base = leaf(rng.normal(size=(4, 3, 5)))
    h = ad.transpose_last2(base)
    assert not h.data.flags["C_CONTIGUOUS"]
    w = leaf(rng.normal(size=(3, 2)))
    expected_h_grad = _shared_weight_matmul_grads(h, w, rng)
    assert base.grad.shape == (4, 3, 5)
    np.testing.assert_allclose(base.grad, np.swapaxes(expected_h_grad, -1, -2))


def test_matmul_shared_weight_four_dim_stack():
    rng = np.random.default_rng(4)
    h = leaf(rng.normal(size=(2, 3, 5, 4)))
    w = leaf(rng.normal(size=(4, 6)))
    expected_h_grad = _shared_weight_matmul_grads(h, w, rng)
    assert h.grad.shape == (2, 3, 5, 4)
    np.testing.assert_allclose(h.grad, expected_h_grad)


def test_transpose_last2():
    a = leaf(np.arange(24.0).reshape(2, 3, 4))
    out = ad.transpose_last2(a)
    np.testing.assert_allclose(out.data, np.swapaxes(a.data, -1, -2))
    ad.reduce_sum(ad.mul(out, out)).backward()
    np.testing.assert_allclose(a.grad, 2 * a.data)


def test_reshape_backward_restores_shape():
    a = leaf(np.arange(6.0))
    out = ad.reshape(a, (2, 3))
    ad.reduce_sum(ad.mul(out, out)).backward()
    np.testing.assert_allclose(a.grad, 2 * a.data)
    assert a.grad.shape == (6,)


def test_crop_keeps_prefix_and_zero_pads_gradient():
    a = leaf(np.arange(12.0).reshape(3, 4))
    out = ad.crop(a, 0, 2)
    np.testing.assert_allclose(out.data, a.data[:2])
    ad.reduce_sum(out).backward()
    expected = np.zeros((3, 4))
    expected[:2] = 1.0
    np.testing.assert_allclose(a.grad, expected)


def test_reduce_sum_axis_keepdims():
    a = leaf(np.arange(6.0).reshape(2, 3))
    out = ad.reduce_sum(a, axis=1, keepdims=True)
    assert out.shape == (2, 1)
    np.testing.assert_allclose(out.data, a.data.sum(axis=1, keepdims=True))
    ad.reduce_sum(out).backward()
    np.testing.assert_allclose(a.grad, np.ones((2, 3)))


def test_reduce_mean_gradient_is_uniform():
    a = leaf(np.arange(8.0).reshape(2, 4))
    ad.reduce_mean(a).backward()
    np.testing.assert_allclose(a.grad, np.full((2, 4), 1.0 / 8.0))


def test_backward_rejects_nonscalar():
    a = leaf(np.ones(3))
    with pytest.raises(ValueError):
        ad.add(a, a).backward()


def test_intermediate_grads_are_freed_leaves_kept():
    a = leaf(np.ones(3))
    mid = ad.mul(a, 2.0)
    ad.reduce_sum(mid).backward()
    assert mid.grad is None
    assert a.grad is not None


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
@pytest.mark.parametrize("scalar", [2, 0.5, -1.0])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_python_scalar_takes_the_tensor_dtype(op, scalar, dtype):
    t = Tensor(np.array([1.5, -2.0], dtype=dtype), requires_grad=True)
    for out in (op(t, scalar), op(scalar, t)):
        assert out.dtype == dtype
        ad.reduce_sum(out).backward()
        assert t.grad.dtype == dtype
        t.grad = None


def test_reduce_mean_keeps_float32():
    a = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    out = ad.reduce_mean(a)
    assert out.dtype == np.float32
    out.backward()
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
    loss.backward()
    with pytest.raises(RuntimeError, match="already ran"):
        loss.backward()
    np.testing.assert_allclose(a.grad, np.full(3, 2.0))


# ---------------------------------------------------------------------------
# nonlinearities

def test_relu_forward_and_subgradient_zero_at_zero():
    a = leaf([-1.0, 0.0, 2.0])
    out = ad.relu(a)
    np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])
    ad.reduce_sum(out).backward()
    np.testing.assert_allclose(a.grad, [0.0, 0.0, 1.0])



def test_relu_propagates_nan_and_routes_no_gradient_through_it():
    for dtype in (np.float32, np.float64):
        a = Tensor(np.array([np.nan, -1.0, 3.0], dtype=dtype), requires_grad=True)
        out = ad.relu(a)
        assert out.dtype == dtype
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [0.0, 3.0])
        ad.reduce_sum(ad.mul(out, np.array([1.0, 1.0, 2.0], dtype=dtype))).backward()
        np.testing.assert_array_equal(a.grad, [0.0, 0.0, 2.0])


def test_relu_hands_its_gradient_on_without_aliasing_fanout():
    # relu masks its own output gradient in place and passes that array on;
    # the other consumers of x must still add into a gradient of their own
    x = leaf([-1.0, 2.0, 3.0])
    h1, h2 = ad.relu(x), ad.relu(x)
    loss = ad.add(ad.add(ad.reduce_sum(ad.mul(h1, 2.0)), ad.reduce_sum(ad.mul(h2, 5.0))),
                  ad.reduce_sum(ad.mul(x, x)))
    loss.backward()
    np.testing.assert_allclose(x.grad, [-2.0, 11.0, 13.0])

def test_sigmoid_matches_closed_form_and_saturates_cleanly():
    x = np.array([-1000.0, -3.0, 0.0, 3.0, 1000.0])
    out = ad.sigmoid(leaf(x))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data[1:4], 1 / (1 + np.exp(-x[1:4])), rtol=1e-12)
    assert out.data[0] == pytest.approx(0.0, abs=1e-300)
    assert out.data[4] == pytest.approx(1.0)


def test_sigmoid_gradient():
    a = leaf([0.3, -0.7])
    out = ad.sigmoid(a)
    s = out.data.copy()
    ad.reduce_sum(out).backward()
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
    out.backward()
    w = ad.row_softmax(Tensor(a.data)).data
    expected = w * (r - (r * w).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(a.grad, expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# cosine similarity family

def test_cosine_rows_matches_numpy_oracle():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 6))
    m = rng.normal(size=(5, 6))
    out = ad.cosine_rows(Tensor(x), Tensor(m)).data
    nx = np.linalg.norm(x, axis=1)
    nm = np.linalg.norm(m, axis=1)
    expected = (x @ m.T) / (nx[:, None] * nm[None, :])
    np.testing.assert_allclose(out, expected, rtol=1e-7)


def test_cosine_rows_zero_row_yields_zero_not_nan():
    x = np.zeros((1, 4))
    m = np.ones((2, 4))
    out = ad.cosine_rows(Tensor(x), Tensor(m)).data
    np.testing.assert_allclose(out, np.zeros((1, 2)))


def test_cosine_rows_backward_against_finite_differences():
    rng = np.random.default_rng(5)
    x = leaf(rng.normal(size=(2, 4)))
    m = leaf(rng.normal(size=(3, 4)))
    r = rng.normal(size=(2, 3))

    def f():
        return ad.reduce_sum(ad.mul(ad.cosine_rows(x, m), r))

    out = f()
    out.backward()
    gx, gm = fd_grad(f, [x, m])
    np.testing.assert_allclose(x.grad, gx, atol=1e-7)
    np.testing.assert_allclose(m.grad, gm, atol=1e-7)


def test_cosine_vector_form():
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0])
    out = ad.cosine(Tensor(u), Tensor(v))
    assert out.item() == pytest.approx(1 / np.sqrt(2), rel=1e-7)
    assert ad.cosine(Tensor(u), Tensor(u)).item() == pytest.approx(1.0, rel=1e-7)


def test_masked_matrix_cosine_ignores_pad_rows():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(2, 4, 3))
    m = rng.normal(size=(2, 4, 3))
    mask = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]])
    base = ad.masked_matrix_cosine(Tensor(h), Tensor(m), mask).data
    h2 = h.copy()
    h2[0, 2:] = 777.0  # junk in pad rows must not matter
    again = ad.masked_matrix_cosine(Tensor(h2), Tensor(m), mask).data
    np.testing.assert_allclose(base, again, rtol=1e-12)


def test_masked_matrix_cosine_matches_per_graph_loop():
    rng = np.random.default_rng(7)
    h = rng.normal(size=(3, 5, 2))
    m = rng.normal(size=(4, 5, 2))
    mask = (rng.random((3, 5)) < 0.7).astype(float)
    mask[:, 0] = 1.0
    out = ad.masked_matrix_cosine(Tensor(h), Tensor(m), mask).data
    for b in range(3):
        keep = mask[b].astype(bool)
        hb = h[b][keep].ravel()
        for p in range(4):
            mp = m[p][keep].ravel()
            expected = hb @ mp / (np.linalg.norm(hb) * np.linalg.norm(mp))
            assert out[b, p] == pytest.approx(expected, rel=1e-6)


def test_masked_matrix_cosine_backward_against_finite_differences():
    rng = np.random.default_rng(8)
    h = leaf(rng.normal(size=(2, 3, 2)))
    m = leaf(rng.normal(size=(2, 3, 2)))
    mask = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]])
    r = rng.normal(size=(2, 2))

    def f():
        return ad.reduce_sum(ad.mul(ad.masked_matrix_cosine(h, m, mask), r))

    f().backward()
    gh, gm = fd_grad(f, [h, m])
    np.testing.assert_allclose(h.grad, gh, atol=1e-7)
    np.testing.assert_allclose(m.grad, gm, atol=1e-7)
    assert np.all(h.grad[0, 2] == 0)  # pad row gets no gradient


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
    ad.reduce_sum(ad.mul(ad.hard_shrink(w, 0.6), np.array([[1.0, 2.0, 3.0]]))).backward()
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

    f().backward()
    (g,) = fd_grad(f, [logits])
    np.testing.assert_allclose(logits.grad, g, atol=1e-7)


def test_entropy_uniform_and_onehot():
    uni = Tensor(np.full((1, 4), 0.25))
    assert ad.entropy(uni).data[0] == pytest.approx(np.log(4), rel=1e-12)
    hot = Tensor(np.array([[0.0, 1.0, 0.0]]))
    assert ad.entropy(hot).data[0] == pytest.approx(0.0, abs=1e-15)


def test_entropy_gradient():
    w = leaf(np.array([[0.2, 0.3, 0.5]]))
    ad.reduce_sum(ad.entropy(w)).backward()
    np.testing.assert_allclose(w.grad, -(np.log(w.data) + 1.0), rtol=1e-12)


def test_entropy_zero_entries_get_zero_gradient():
    w = leaf(np.array([[0.0, 1.0]]))
    ad.reduce_sum(ad.entropy(w)).backward()
    assert w.grad[0, 0] == 0.0


# ---------------------------------------------------------------------------
# pooling and losses

def test_masked_mean_matches_submatrix_mean():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(2, 4, 3))
    mask = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    out = ad.masked_mean(Tensor(h), mask).data
    np.testing.assert_allclose(out[0], h[0, :3].mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(out[1], h[1, 0], rtol=1e-12)


def test_masked_mean_gradient_spreads_by_count():
    h = leaf(np.zeros((1, 3, 2)))
    mask = np.array([[1.0, 1.0, 0.0]])
    ad.reduce_sum(ad.masked_mean(h, mask)).backward()
    np.testing.assert_allclose(h.grad[0, :2], np.full((2, 2), 0.5))
    np.testing.assert_allclose(h.grad[0, 2], np.zeros(2))


def test_masked_mean_rejects_empty_mask():
    with pytest.raises(ValueError):
        ad.masked_mean(Tensor(np.ones((1, 2, 2))), np.zeros((1, 2)))


def test_frobenius_sq_scalar_and_batched():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.zeros((2, 2))
    assert ad.frobenius_sq(Tensor(a), Tensor(b)).item() == pytest.approx(30.0)
    batched = ad.frobenius_sq(Tensor(a[None]), Tensor(b[None]), batch_dims=1)
    np.testing.assert_allclose(batched.data, [30.0])


def test_frobenius_sq_mask_excludes_entries():
    a = np.ones((2, 2))
    b = np.zeros((2, 2))
    mask = np.array([[1.0, 0.0], [0.0, 0.0]])
    out = ad.frobenius_sq(Tensor(a), Tensor(b), mask=mask)
    assert out.item() == pytest.approx(1.0)


def test_frobenius_sq_gradients_are_opposite():
    a = leaf(np.array([1.0, 2.0]))
    b = leaf(np.array([0.5, 0.5]))
    ad.frobenius_sq(a, b).backward()
    np.testing.assert_allclose(a.grad, 2 * (a.data - b.data))
    np.testing.assert_allclose(b.grad, -a.grad)


def test_frobenius_sq_shape_mismatch_raises():
    with pytest.raises(ValueError):
        ad.frobenius_sq(Tensor(np.ones(2)), Tensor(np.ones(3)))


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
def test_cosine_rows_bounded_and_finite(x):
    m = np.linspace(-1e3, 1e3, 8).reshape(2, 4)
    out = ad.cosine_rows(Tensor(x), Tensor(m)).data
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
