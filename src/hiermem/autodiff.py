"""Reverse-mode autodiff over dense numpy arrays.

A small dynamic tape: every operation returns a `Tensor` that remembers its
parents and a closure that routes the output gradient back to them. Gradients
accumulate additively across fan-out, in one fixed topological order, so a
seeded run is bit-reproducible.

Only the operations this model needs are provided. All of them keep the dtype
of their inputs (float32 for training, float64 for gradient verification) and
never emit NaN/Inf on finite input. A Python int or float operand of `add`,
`sub` or `mul` takes the dtype of the tensor it meets, so a float32 loss, its
gradients and everything on its tape stay float32.

The tape costs nothing where it is not needed. An op none of whose inputs
requires a gradient records nothing: it returns a constant tensor with no
parents and no backward closure. `backward()` consumes the tape it walks:
each node drops its parents and its closure once its closure has run, so an
activation is freed by reference counting as soon as the last op that read
it has been differentiated, and a second `backward()` through the same tape
raises `RuntimeError`.

A stack times a shared 2-D matrix (every graph's node matrix times one layer
weight) runs as one GEMM over the flattened rows, forward and backward, so
results are deterministic per seed but not bit-identical across versions of
this library that sum in a different order.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# Populated by the gradient checker to detect ReLU kink proximity; when it is
# a list, relu() appends min|x| of every call.
_relu_kink_log: list | None = None


class Tensor:
    """An array plus the tape bookkeeping needed for backward()."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple = (), backward: Callable | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x, dtype=None) -> Tensor:
    """Wrap arrays and scalars as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; a Python scalar takes the other's dtype.

    Without this a float becomes a 0-d float64 array, and numpy promotes a
    float32 operand against it to float64.
    """
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return as_tensor(a, b.data.dtype), b
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return a, as_tensor(b, a.data.dtype)
    return as_tensor(a), as_tensor(b)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _make(data: np.ndarray, parents: Sequence[Tensor],
          backward: Callable) -> Tensor:
    if not any(p.requires_grad for p in parents):
        return Tensor(data)
    return Tensor(data, requires_grad=True, parents=tuple(parents),
                  backward=backward)


def _consumed() -> None:
    raise RuntimeError("backward() already ran through this tape")


def backward(out: Tensor) -> None:
    """Run reverse accumulation from a scalar tensor, consuming its tape.

    Each node's gradient, closure and parent links are dropped as soon as its
    closure has run. A closure refers to its own output, so without this a
    tape would live until the cyclic garbage collector ran; with it every
    activation is freed the moment the last op that read it is done, which
    keeps the peak memory of a big batch near the forward footprint.
    """
    if out.data.size != 1:
        raise ValueError(f"backward() needs a scalar output, got shape {out.data.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    out.grad = np.ones_like(out.data)
    while topo:
        node = topo.pop()
        if node._backward is None:              # a leaf keeps its gradient
            continue
        if node.grad is not None:
            node._backward()
        node.grad = None
        node._parents = ()
        node._backward = _consumed


# ---------------------------------------------------------------------------
# elementwise arithmetic

def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data + b.data

    def bw():
        _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        _accumulate(b, _unbroadcast(out.grad, b.data.shape))

    out = _make(out_data, (a, b), bw)
    return out


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data - b.data

    def bw():
        _accumulate(a, _unbroadcast(out.grad, a.data.shape))
        _accumulate(b, -_unbroadcast(out.grad, b.data.shape))

    out = _make(out_data, (a, b), bw)
    return out


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def bw():
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad * a.data, b.data.shape))

    out = _make(out_data, (a, b), bw)
    return out


# ---------------------------------------------------------------------------
# shape ops

def matmul(a, b) -> Tensor:
    """Matrix product, with numpy stacking rules for leading batch axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul needs operands with at least 2 dimensions")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.data.shape} @ {b.data.shape}")
    if a.data.ndim > 2 and b.data.ndim == 2:
        # a stack times one shared matrix: fold the stack into the rows so
        # the forward and both gradients are each one 2-D GEMM, not one small
        # product per stacked matrix (plus, for gb, a stack summed away)
        rows = math.prod(a.data.shape[:-1])
        a2 = a.data.reshape(rows, a.data.shape[-1])
        out_data = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[-1:])

        def bw():
            g2 = out.grad.reshape(rows, b.data.shape[-1])
            if a.requires_grad:
                _accumulate(a, (g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                _accumulate(b, a2.T @ g2)
    else:
        out_data = a.data @ b.data

        def bw():
            g = out.grad
            if a.requires_grad:
                ga = g @ np.swapaxes(b.data, -1, -2)
                _accumulate(a, _unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.swapaxes(a.data, -1, -2) @ g
                _accumulate(b, _unbroadcast(gb, b.data.shape))

    out = _make(out_data, (a, b), bw)
    return out


def transpose_last2(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.swapaxes(a.data, -1, -2)

    def bw():
        _accumulate(a, np.swapaxes(out.grad, -1, -2))

    out = _make(out_data, (a,), bw)
    return out


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.reshape(shape)

    def bw():
        _accumulate(a, out.grad.reshape(a.data.shape))

    out = _make(out_data, (a,), bw)
    return out


def crop(a, axis: int, length: int) -> Tensor:
    """Keep the leading `length` entries along `axis` (backward zero-pads)."""
    a = as_tensor(a)
    idx = (slice(None),) * axis + (slice(0, length),)
    out_data = a.data[idx]

    def bw():
        g = np.zeros_like(a.data)
        g[idx] = out.grad
        _accumulate(a, g)

    out = _make(out_data, (a,), bw)
    return out


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw():
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.data.shape).astype(a.data.dtype, copy=False))

    out = _make(out_data, (a,), bw)
    return out


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    count = a.data.size if axis is None else a.data.shape[axis]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# ---------------------------------------------------------------------------
# nonlinearities

def relu(a) -> Tensor:
    a = as_tensor(a)
    if _relu_kink_log is not None:
        _relu_kink_log.append(float(np.min(np.abs(a.data))) if a.data.size else np.inf)
    keep = a.data > 0  # subgradient at 0 is 0
    out_data = np.where(keep, a.data, 0)

    def bw():
        _accumulate(a, out.grad * keep)

    out = _make(out_data, (a,), bw)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out_data = np.empty_like(x)
    pos = x >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def bw():
        _accumulate(a, out.grad * out_data * (1.0 - out_data))

    out = _make(out_data, (a,), bw)
    return out


def row_softmax(a) -> Tensor:
    """Softmax over the last axis, computed with per-row max subtraction."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    out_data = ex / ex.sum(axis=-1, keepdims=True)

    def bw():
        g = out.grad
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(a, out_data * (g - dot))

    out = _make(out_data, (a,), bw)
    return out


# ---------------------------------------------------------------------------
# memory addressing ops

COSINE_EPS = 1e-8


def cosine_rows(x, m, eps: float = COSINE_EPS) -> Tensor:
    """Pairwise cosine similarity between rows of x (R,F) and rows of m (S,F).

    The denominator carries +eps so all-zero rows yield similarity 0 instead
    of dividing by zero.
    """
    x, m = as_tensor(x), as_tensor(m)
    if x.data.ndim != 2 or m.data.ndim != 2 or x.data.shape[1] != m.data.shape[1]:
        raise ValueError(f"cosine_rows shapes incompatible: {x.data.shape}, {m.data.shape}")
    num = x.data @ m.data.T
    nx = np.sqrt((x.data * x.data).sum(axis=1))
    nm = np.sqrt((m.data * m.data).sum(axis=1))
    den = nx[:, None] * nm[None, :] + eps
    out_data = num / den

    def bw():
        g = out.grad
        a_coef = g / den
        if x.requires_grad:
            nx_safe = np.where(nx > 0, nx, 1.0)
            c = (g * out_data * nm[None, :] / den).sum(axis=1)
            gx = a_coef @ m.data - (c / nx_safe)[:, None] * x.data
            _accumulate(x, gx)
        if m.requires_grad:
            nm_safe = np.where(nm > 0, nm, 1.0)
            c = (g * out_data * nx[:, None] / den).sum(axis=0)
            gm = a_coef.T @ x.data - (c / nm_safe)[:, None] * m.data
            _accumulate(m, gm)

    out = _make(out_data, (x, m), bw)
    return out


def cosine(u, v, eps: float = COSINE_EPS) -> Tensor:
    """Cosine similarity of two vectors; zero vectors map to 0 by the eps rule."""
    u, v = as_tensor(u), as_tensor(v)
    if u.data.ndim != 1 or v.data.ndim != 1:
        raise ValueError("cosine expects 1-D vectors")
    rows = cosine_rows(reshape(u, (1, -1)), reshape(v, (1, -1)), eps=eps)
    return reshape(rows, ())


def masked_matrix_cosine(h, m, mask, eps: float = COSINE_EPS) -> Tensor:
    """Cosine similarity between per-graph node matrices and memory blocks.

    h: (B,N,D) node representations, m: (P,N,D) memory blocks, mask: (B,N)
    binary array (not differentiated). Both operands are restricted to the
    mask-true rows of each graph before flattening, so pad rows never affect
    the similarity.
    """
    h, m = as_tensor(h), as_tensor(m)
    mask = np.asarray(mask)
    B, N, D = h.data.shape
    P = m.data.shape[0]
    if m.data.shape != (P, N, D):
        raise ValueError(f"memory shape {m.data.shape} does not match nodes ({N},{D})")
    if mask.shape != (B, N):
        raise ValueError(f"mask shape {mask.shape} does not match batch ({B},{N})")
    mask = mask.astype(h.data.dtype, copy=False)

    hf = (h.data * mask[:, :, None]).reshape(B, N * D)
    mf = m.data.reshape(P, N * D)
    num = hf @ mf.T                                   # (B,P)
    nh = np.sqrt((hf * hf).sum(axis=1))               # (B,)
    msq_rows = (m.data * m.data).sum(axis=2)          # (P,N)
    nm = np.sqrt(mask @ msq_rows.T)                   # (B,P) per-graph block norms
    den = nh[:, None] * nm + eps
    out_data = num / den

    def bw():
        g = out.grad
        a_coef = g / den                              # (B,P)
        if h.requires_grad:
            nh_safe = np.where(nh > 0, nh, 1.0)
            c = (g * out_data * nm / den).sum(axis=1)  # (B,)
            ghf = a_coef @ mf - (c / nh_safe)[:, None] * hf
            _accumulate(h, ghf.reshape(B, N, D) * mask[:, :, None])
        if m.requires_grad:
            nm_safe = np.where(nm > 0, nm, 1.0)
            gmf = a_coef.T @ hf                        # (P, N*D)
            d_coef = -(g * out_data * nh[:, None] / den) / nm_safe  # (B,P)
            gm = gmf.reshape(P, N, D) + m.data * (d_coef.T @ mask)[:, :, None]
            _accumulate(m, gm)

    out = _make(out_data, (h, m), bw)
    return out


def hard_shrink(w, lam: float) -> Tensor:
    """Zero weights below lam along the last axis and renormalize survivors.

    If a row loses every entry, its single largest weight is kept at 1
    (lowest index on ties); such rows receive zero gradient.
    """
    w = as_tensor(w)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"shrink threshold must be in [0, 1), got {lam}")
    keep = w.data >= lam
    kept = np.where(keep, w.data, 0)
    s = kept.sum(axis=-1, keepdims=True)
    alive = s > 0
    s_safe = np.where(alive, s, 1.0)
    out_data = kept / s_safe
    if not np.all(alive):
        fallback = np.zeros_like(w.data)
        np.put_along_axis(fallback, np.argmax(w.data, axis=-1)[..., None], 1.0, axis=-1)
        out_data = np.where(alive, out_data, fallback)
        keep = keep & alive

    def bw():
        g = out.grad
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(w, keep * (g - dot) / s_safe)

    out = _make(out_data, (w,), bw)
    return out


def entropy(w) -> Tensor:
    """Shannon entropy -sum(w ln w) over the last axis, with 0 ln 0 := 0."""
    w = as_tensor(w)
    pos = w.data > 0
    logw = np.log(np.where(pos, w.data, 1.0))
    out_data = -(w.data * logw).sum(axis=-1)

    def bw():
        g = np.expand_dims(out.grad, -1)
        _accumulate(w, np.where(pos, -g * (logw + 1.0), 0))

    out = _make(out_data, (w,), bw)
    return out


# ---------------------------------------------------------------------------
# pooling and losses

def masked_mean(h, mask) -> Tensor:
    """Mean over the second-to-last axis restricted to mask-true rows.

    h: (...,N,D), mask: (...,N) binary. Every mask must select at least
    one row.
    """
    h = as_tensor(h)
    mask = np.asarray(mask)
    counts = mask.sum(axis=-1)
    if np.any(counts == 0):
        raise ValueError("masked_mean: a mask selects no rows")
    mask = mask.astype(h.data.dtype, copy=False)
    counts = counts.astype(h.data.dtype)
    out_data = (h.data * mask[..., None]).sum(axis=-2) / counts[..., None]

    def bw():
        g = out.grad / counts[..., None]
        _accumulate(h, np.expand_dims(g, -2) * mask[..., None])

    out = _make(out_data, (h,), bw)
    return out


def frobenius_sq(a, b, mask=None, batch_dims: int = 0) -> Tensor:
    """Squared Frobenius distance sum(mask * (a-b)^2).

    With batch_dims=0 the result is a scalar; batch_dims=k keeps the first k
    axes, reducing only over the rest (per-graph losses use batch_dims=1).
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"frobenius_sq shape mismatch: {a.data.shape} vs {b.data.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=a.data.dtype)
        if mask.shape != a.data.shape:
            raise ValueError(f"frobenius_sq mask shape {mask.shape} != {a.data.shape}")
    diff = a.data - b.data
    sq = diff * diff if mask is None else mask * diff * diff
    axes = tuple(range(batch_dims, a.data.ndim))
    out_data = sq.sum(axis=axes)

    def bw():
        g = out.grad.reshape(out.grad.shape + (1,) * (a.data.ndim - batch_dims))
        core = 2.0 * diff if mask is None else 2.0 * mask * diff
        if a.requires_grad:
            _accumulate(a, core * g)
        if b.requires_grad:
            _accumulate(b, -core * g)

    out = _make(out_data, (a, b), bw)
    return out
