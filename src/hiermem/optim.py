"""Adam optimizer for tape tensors.

The moments are updated in place and each update is built in scratch space
made once per parameter, so after the first step Adam allocates nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

# the moment decay rates and the denominator floor of Kingma & Ba
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for one parameter, plus scratch
    space for building its update: two arrays of its shape, made on the
    first step when not given."""
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray | None = None


def adam_step(value: np.ndarray, grad: np.ndarray, state: AdamState,
              lr: float = 1e-3) -> None:
    """Apply one bias-corrected Adam update to `value` in place.

    `state.m` and `state.v` are updated in place. Every operation, its
    operands and its order are those of the out-of-place expressions

        m = BETA1 * m + (1 - BETA1) * grad
        v = BETA2 * v + (1 - BETA2) * (grad * grad)
        value -= (lr * (m / c1) / (sqrt(v / c2) + EPS)).astype(value.dtype)

    with c1 = 1 - BETA1**t and c2 = 1 - BETA2**t, so the result is the
    same to the bit.
    """
    m, v = state.m, state.v
    if state.scratch is None:
        state.scratch = np.empty((2,) + m.shape, m.dtype)
    num, den = state.scratch
    state.step += 1
    np.multiply(m, BETA1, out=m)
    np.multiply(grad, 1.0 - BETA1, out=num)
    np.add(m, num, out=m)
    np.multiply(v, BETA2, out=v)
    np.multiply(grad, grad, out=num)
    np.multiply(num, 1.0 - BETA2, out=num)
    np.add(v, num, out=v)
    np.divide(m, 1.0 - BETA1 ** state.step, out=num)
    np.multiply(num, lr, out=num)
    np.divide(v, 1.0 - BETA2 ** state.step, out=den)
    np.sqrt(den, out=den)
    np.add(den, EPS, out=den)
    np.divide(num, den, out=num)
    value -= num.astype(value.dtype, copy=False)


@dataclass
class Adam:
    """Tracks state for a fixed parameter list; params keep their identity."""
    params: list[Tensor]
    lr: float = 1e-3
    states: list[AdamState] = field(init=False)

    def __post_init__(self):
        self.states = [AdamState(np.zeros_like(p.data), np.zeros_like(p.data))
                       for p in self.params]

    def step(self) -> None:
        for p, st in zip(self.params, self.states):
            if p.grad is None:
                continue
            adam_step(p.data, p.grad, st, lr=self.lr)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
