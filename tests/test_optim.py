"""Adam must match its hand-computed update rule."""

import tracemalloc

import numpy as np
import pytest

from hiermem.autodiff import Tensor
from hiermem.optim import BLOCK, Adam, AdamState


def reference_adam(value, grads, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Independent step-by-step Adam recomputation (bias-corrected form)."""
    m = np.zeros_like(value)
    v = np.zeros_like(value)
    x = value.copy()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
    return x


def test_first_step_moves_by_lr_times_sign():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    g = np.array([0.4, -0.1, 2.5])
    x.grad = g
    Adam([x], lr=0.01).step()
    # bias correction makes step one effectively lr * sign(g)
    np.testing.assert_allclose(x.data, np.array([1.0, -2.0, 3.0]) - 0.01 * np.sign(g),
                               atol=1e-6)


def test_multiple_steps_match_reference():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(7)]
    expected = reference_adam(x, grads, lr=0.05)

    got = Tensor(x.copy(), requires_grad=True)
    opt = Adam([got], lr=0.05)
    for g in grads:
        got.grad = g
        opt.step()
    np.testing.assert_allclose(got.data, expected, rtol=1e-12)


def test_adam_wrapper_updates_only_tensors_with_grads():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([a, b], lr=0.1)
    a.grad = np.array([1.0, -1.0])
    before_b = b.data.copy()
    opt.step()
    assert not np.allclose(a.data, np.ones(2))
    np.testing.assert_allclose(b.data, before_b)


def test_zero_grad_clears():
    a = Tensor(np.ones(2), requires_grad=True)
    opt = Adam([a], lr=0.1)
    a.grad = np.ones(2)
    opt.zero_grad()
    assert a.grad is None


def test_updates_preserve_float32_dtype():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    opt = Adam([a], lr=0.1)
    a.grad = np.ones(3, dtype=np.float32)
    opt.step()
    assert a.data.dtype == np.float32


def test_state_step_counter_advances():
    a = Tensor(np.ones(1), requires_grad=True)
    opt = Adam([a], lr=0.1)
    for k in range(3):
        a.grad = np.ones(1)
        opt.step()
    assert opt.states[0].step == 3


def out_of_place_adam_step(value, grad, state, lr, beta1=0.9, beta2=0.999,
                           eps=1e-8):
    """One Adam step as written before the optimizer updated in place,
    kept verbatim as the bit-level reference."""
    state.step += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * (grad * grad)
    mhat = state.m / (1.0 - beta1 ** state.step)
    vhat = state.v / (1.0 - beta2 ** state.step)
    value -= (lr * mhat / (np.sqrt(vhat) + eps)).astype(value.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_step_is_bit_equal_to_the_out_of_place_expression(dtype):
    # a small parameter, and one that spans three blocks plus a remainder
    for shape in [(5, 7), (3 * BLOCK // 64 + 1, 64)]:
        rng = np.random.default_rng(4)
        x = rng.normal(size=shape).astype(dtype)
        grads = [(rng.normal(size=shape) * 10.0 ** k).astype(dtype)
                 for k in range(-3, 3)]
        ref_x = x.copy()
        ref = AdamState(np.zeros_like(x), np.zeros_like(x))
        a = Tensor(x.copy(), requires_grad=True)
        opt = Adam([a], lr=0.01)
        state = opt.states[0]
        m, v = state.m, state.v
        for g in grads:
            out_of_place_adam_step(ref_x, g, ref, lr=0.01)
            a.grad = g.copy()
            opt.step()
            assert a.data.tobytes() == ref_x.tobytes()
            assert state.m.tobytes() == ref.m.tobytes()
            assert state.v.tobytes() == ref.v.tobytes()
            assert state.m is m and state.v is v
            assert a.grad.tobytes() == g.tobytes()  # the gradient is left alone
        assert a.data.dtype == state.m.dtype == dtype
        assert state.step == len(grads)


def test_adam_refuses_a_value_it_cannot_update_in_place():
    a = Tensor(np.zeros((4, 3), np.float32).T, requires_grad=True)
    opt = Adam([a], lr=0.01)
    a.grad = np.ones((3, 4), np.float32)
    with pytest.raises(ValueError, match="C-contiguous"):
        opt.step()
    state = opt.states[0]
    assert state.step == 0 and not a.data.any() and not state.m.any()


def _first_step_peak(size):
    a = Tensor(np.ones(size, np.float32), requires_grad=True)
    opt = Adam([a], lr=0.01)
    a.grad = np.ones(size, np.float32)
    tracemalloc.start()
    try:
        opt.step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_first_step_scratch_does_not_grow_with_the_parameter():
    # the update is built in a fixed-size scratch pair made with the
    # optimizer, so a 10x larger parameter allocates no more in its step
    _first_step_peak(1)         # one-off allocations of the first call
    small, large = _first_step_peak(10 ** 5), _first_step_peak(10 ** 6)
    assert large <= small, (large, small)


def test_parameters_of_two_dtypes_each_update_in_their_own():
    rng = np.random.default_rng(6)
    values = [rng.normal(size=(3, 5)).astype(dt)
              for dt in (np.float32, np.float64)]
    grads = [rng.normal(size=(3, 5)).astype(v.dtype) for v in values]
    both = [Tensor(v.copy(), requires_grad=True) for v in values]
    alone = [Tensor(v.copy(), requires_grad=True) for v in values]
    opt = Adam(both, lr=0.01)
    for t, g in zip(both, grads):
        t.grad = g
    opt.step()
    for t, g in zip(alone, grads):
        t.grad = g
        Adam([t], lr=0.01).step()
    for t, u in zip(both, alone):
        assert t.data.dtype == u.data.dtype
        assert t.data.tobytes() == u.data.tobytes()
