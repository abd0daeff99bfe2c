"""Adam optimizer for tape tensors.

The moments are updated in place and each update is built, `BLOCK` elements
at a time, in one scratch pair that `Adam` allocates once, so the
optimizer's memory beyond the moments does not grow with the model and a
step allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

# the moment decay rates and the denominator floor of Kingma & Ba
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# elements updated per pass; 64K was the fastest step in a microbenchmark,
# and each scratch row of a float32 model is then 256 KiB
BLOCK = 1 << 16


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter."""
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def _flat(a: np.ndarray) -> np.ndarray:
    """A 1-d view of `a`, which is updated in place through it."""
    if not a.flags.c_contiguous:
        raise ValueError("Adam updates C-contiguous arrays in place")
    return a.reshape(-1)


def _update(value: np.ndarray, grad: np.ndarray, state: AdamState,
            lr: float, scratch: np.ndarray) -> None:
    """One Adam step on `value` and `state`, a `BLOCK`-element slice at a
    time; `scratch` is a (2, n) array of the moments' dtype, n at least
    min(BLOCK, value.size)."""
    x, m, v = _flat(value), _flat(state.m), _flat(state.v)
    g = np.ascontiguousarray(grad).reshape(-1)
    state.step += 1
    c1, c2 = 1.0 - BETA1 ** state.step, 1.0 - BETA2 ** state.step
    for lo in range(0, x.size, BLOCK):
        xb, gb = x[lo:lo + BLOCK], g[lo:lo + BLOCK]
        mb, vb = m[lo:lo + BLOCK], v[lo:lo + BLOCK]
        num, den = scratch[0, :xb.size], scratch[1, :xb.size]
        np.multiply(mb, BETA1, out=mb)
        np.multiply(gb, 1.0 - BETA1, out=num)
        np.add(mb, num, out=mb)
        np.multiply(vb, BETA2, out=vb)
        np.multiply(gb, gb, out=num)
        np.multiply(num, 1.0 - BETA2, out=num)
        np.add(vb, num, out=vb)
        np.divide(mb, c1, out=num)
        np.multiply(num, lr, out=num)
        np.divide(vb, c2, out=den)
        np.sqrt(den, out=den)
        np.add(den, EPS, out=den)
        np.divide(num, den, out=num)
        xb -= num.astype(xb.dtype, copy=False)


def adam_step(value: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = 1e-3) -> None:
    """Apply one bias-corrected Adam update to `value` in place.

    `state.m` and `state.v` are updated in place. Every operation, its
    operands and its order are those of the out-of-place expressions

        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * (grad * grad)
        value -= (lr * (m / c1) / (sqrt(v / c2) + EPS)).astype(value.dtype)

    with c1 = 1 - BETA1**t and c2 = 1 - BETA2**t, so the result is the
    same to the bit. `value`, `state.m` and `state.v` must be C-contiguous.
    Each call allocates its own scratch of up to `BLOCK` elements; `Adam`
    reuses one.
    """
    scratch = np.empty((2, min(BLOCK, value.size)), state.m.dtype)
    _update(value, grad, state, lr, scratch)


@dataclass
class Adam:
    """Tracks state for a fixed parameter list; params keep their identity."""
    params: list[Tensor]
    lr: float = 1e-3
    states: list[AdamState] = field(init=False)
    scratch: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.states = [AdamState(np.zeros(p.data.shape, p.data.dtype),
                                 np.zeros(p.data.shape, p.data.dtype))
                       for p in self.params]
        # one scratch pair per parameter dtype, as long as the largest
        # parameter's update needs
        width = {}
        for p in self.params:
            dt = p.data.dtype
            width[dt] = max(width.get(dt, 0), min(BLOCK, p.data.size))
        self.scratch = {dt: np.empty((2, n), dt) for dt, n in width.items()}

    def step(self) -> None:
        for p, st in zip(self.params, self.states):
            if p.grad is None:
                continue
            _update(p.data, p.grad, st, self.lr, self.scratch[st.m.dtype])

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
