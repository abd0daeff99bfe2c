"""Reverse-mode autodiff over dense numpy arrays.

A small dynamic tape: every operation returns a `Tensor` that remembers its
parents and a closure that routes the output gradient back to them. Gradients
accumulate additively across fan-out, in one fixed topological order, so a
seeded run is bit-reproducible.

Only the operations this model needs are provided. All of them keep the dtype
of their inputs (float32 for training, float64 for gradient verification) and
never emit NaN/Inf on finite input. NaN passes through `relu` (as it does
through `torch.relu`) rather than being clipped to 0, so a non-finite weight
or activation reaches the loss and trips the divergence check. `add` and
`mul` do not broadcast: their operands share one shape, or one of them is a
constant scalar. A Python int or float operand takes the dtype of the tensor
it meets, so a float32 loss, its gradients and everything on its tape stay
float32.

The tape costs nothing where it is not needed. An op none of whose inputs
requires a gradient records nothing: it returns a constant tensor with no
parents and no backward closure. `backward()` consumes the tape it walks:
each node drops its parents and its closure once its closure has run, so an
activation is freed by reference counting as soon as the last op that read
it has been differentiated, and a second `backward()` through the same tape
raises `RuntimeError`.

A batch of graphs is ragged, never padded. Node-wise tensors hold the real
node rows of every graph, concatenated in batch order, so a product with a
layer weight is one 2-D GEMM. The batch is a sequence of runs, `runs`, each
a `(count, size)` pair: `count` consecutive graphs of `size` nodes. The
per-graph ops (`matmul` with `adj`, `gram`, `matrix_cosine`,
`block_readout`, `graph_mean`) loop over the runs inside one tape node, and
`frobenius_sq` sums per graph given each graph's length (`segments`). So
the tape of a batch has the same nodes however many sizes it mixes. A graph
convolution, relu(adj_i @ h_i @ W) per graph, is one `matmul` node (its
`adj`) that propagates the product in place, so the tape keeps no `h @ W`.

Three ops are not differentiable everywhere: `relu` (plain or fused) at 0,
`hard_shrink` where a weight equals its threshold, and `matrix_cosine` where
a norm it divides by is 0. While `_kink_log` is a list, each appends
`(op, distance)` entries: min|x| of its input, min|w - lam| of its input,
and, once per run, the smallest graph or cropped-block norm it divides by.
The gradient checker redraws inputs that come within its margin of a kink.

Results are deterministic per seed but not bit-identical across versions of
this library that sum in a different order.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# None, or the list of (op, distance) entries of the smoothness rule above
_kink_log: list | None = None


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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x, dtype=None) -> Tensor:
    """Wrap arrays and scalars as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    arr = np.asarray(x, dtype=dtype)
    return Tensor(arr)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of `add` or `mul` as tensors of one shape, or a tensor
    and a constant scalar; a Python scalar takes the other's dtype.

    Without this a float becomes a 0-d float64 array, and numpy promotes a
    float32 operand against it to float64.
    """
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        a = as_tensor(a, b.data.dtype)
    elif isinstance(b, (int, float)) and isinstance(a, Tensor):
        b = as_tensor(b, a.data.dtype)
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape and not any(
            t.data.ndim == 0 and not t.requires_grad for t in (a, b)):
        raise ValueError(f"operands must share one shape, or one be a constant "
                         f"scalar, got {a.data.shape} and {b.data.shape}")
    return a, b


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into `t.grad`. Every backward closure hands over an array no
    one else holds, so the first one becomes `t.grad` as it is."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.asarray(g)
    else:
        t.grad += g


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
        _accumulate(a, out.grad)
        # an array handed to both parents is owned by the first one
        if b.requires_grad:
            _accumulate(b, out.grad.copy() if a.requires_grad else out.grad)

    out = _make(out_data, (a, b), bw)
    return out


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out_data = a.data * b.data

    def bw():
        if a.requires_grad:
            _accumulate(a, out.grad * b.data)
        if b.requires_grad:
            _accumulate(b, out.grad * a.data)

    out = _make(out_data, (a, b), bw)
    return out


# ---------------------------------------------------------------------------
# products and sums

def matmul(a, b, relu: bool = False, adj=None) -> Tensor:
    """Product of two matrices, or with `adj` one graph convolution.

    `adj` holds one (count, n, n) stack per run of equal node count, in
    batch order, and `a` is then the batch's node rows: graph i's rows of
    the result are adj_i @ a_i @ b. The propagation overwrites the product
    in place, in its dtype, and the backward propagates the output gradient
    back in place before both products, so no product waits on the tape.
    With `relu`, the result is clamped at 0 in place: the same values and
    gradients as `relu` of the unfused op, with one tape node.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul needs (m, k) @ (k, n) matrices, got "
                         f"{a.data.shape} @ {b.data.shape}")
    out_data = a.data @ b.data
    if adj is not None:
        spans = _run_spans([m.shape[:2] for m in adj], a.data.shape[0])
        _propagate_runs(adj, spans, out_data)
    if relu:
        _relu_in_place(out_data)

    def bw():
        g = _relu_grad_in_place(out.grad, out_data) if relu else out.grad
        if adj is not None:
            g = _propagate_runs(adj, spans, np.ascontiguousarray(g),
                                transpose=True)
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    out = _make(out_data, (a, b), bw)
    return out


def _run_spans(runs, rows: int | None = None) -> list[tuple]:
    """(graph slice, row slice, cell slice, count, size) of each run.

    Graphs, node rows and n x n cells are each laid out in batch order. With
    `rows` given, the runs must cover exactly that many node rows.
    """
    spans = []
    g0 = r0 = c0 = 0
    for count, size in runs:
        count, size = int(count), int(size)
        if count < 1 or size < 1:
            raise ValueError(f"a run needs at least one graph of at least one "
                             f"node, got ({count}, {size})")
        spans.append((slice(g0, g0 + count), slice(r0, r0 + count * size),
                      slice(c0, c0 + count * size * size), count, size))
        g0, r0, c0 = g0 + count, r0 + count * size, c0 + count * size * size
    if rows is not None and r0 != rows:
        raise ValueError(f"runs cover {r0} node rows, the tensor has {rows}")
    return spans


def _run_graphs(spans) -> int:
    return spans[-1][0].stop if spans else 0


def _segment_starts(lengths: np.ndarray, rows: int) -> np.ndarray:
    """First row of each segment of consecutive rows, checked."""
    if lengths.ndim != 1 or np.any(lengths < 1) or lengths.sum() != rows:
        raise ValueError(f"segment lengths must be positive and sum to {rows}")
    return np.concatenate(([0], np.cumsum(lengths[:-1])))


# node rows per np.matmul call of a propagation that overwrites its input:
# numpy copies an operand that overlaps the output whole, so a slice of
# graphs at a time bounds that copy
_IN_PLACE_ROWS = 128


def _propagate_runs(adj, spans, h, transpose: bool = False):
    """Overwrite graph i's rows of `h` with adj_i @ those rows, or adj_i^T @
    with `transpose`, one run at a time and at most `_IN_PLACE_ROWS` node
    rows (or one graph) per product; returns `h`, a C-contiguous (sum n, F)
    array."""
    F = h.shape[1]
    for m, (_, rows, _, count, size) in zip(adj, spans):
        if transpose:
            m = np.swapaxes(m, -1, -2)
        s = h[rows].reshape(count, size, F)
        step = max(1, _IN_PLACE_ROWS // size)
        for lo in range(0, count, step):
            np.matmul(m[lo:lo + step], s[lo:lo + step], out=s[lo:lo + step])
    return h


def gram(h, runs) -> Tensor:
    """Each graph's node rows times their own transpose, H_i @ H_i^T.

    h: (sum n, D) node rows; runs: (count, size) pairs. Returns every
    graph's n x n block flattened row-major, concatenated: (sum n^2,).
    """
    h = as_tensor(h)
    spans = _run_spans(runs, h.data.shape[0])
    D = h.data.shape[1]
    cells_total = spans[-1][2].stop if spans else 0
    out_data = np.empty(cells_total, h.data.dtype)
    for _, rows, cells, count, size in spans:
        hb = h.data[rows].reshape(count, size, D)
        np.matmul(hb, np.swapaxes(hb, -1, -2),
                  out=out_data[cells].reshape(count, size, size))

    def bw():
        gh = np.empty(h.data.shape, h.data.dtype)
        for _, rows, cells, count, size in spans:
            g = out.grad[cells].reshape(count, size, size)
            np.matmul(g + np.swapaxes(g, -1, -2),
                      h.data[rows].reshape(count, size, D),
                      out=gh[rows].reshape(count, size, D))
        _accumulate(h, gh)

    out = _make(out_data, (h,), bw)
    return out


def reduce_sum(a) -> Tensor:
    """Sum of every element, a 0-d tensor."""
    a = as_tensor(a)
    out_data = a.data.sum()

    def bw():
        _accumulate(a, np.full(a.data.shape, out.grad, a.data.dtype))

    out = _make(out_data, (a,), bw)
    return out


def reduce_mean(a) -> Tensor:
    """Mean of every element, a 0-d tensor."""
    a = as_tensor(a)
    return mul(reduce_sum(a), 1.0 / a.data.size)


# ---------------------------------------------------------------------------
# nonlinearities

def _relu_in_place(x: np.ndarray) -> np.ndarray:
    """ReLU of an array an op has just made and no one else holds, written
    over it (the `relu=True` of `matmul`)."""
    if _kink_log is not None:
        _kink_log.append(("relu", float(np.min(np.abs(x), initial=np.inf))))
    return np.maximum(x, 0, out=x)  # NaN stays NaN


def _relu_grad_in_place(g: np.ndarray, out_data: np.ndarray) -> np.ndarray:
    """Mask a fused op's own output gradient by its clamped output, in place
    (subgradient 0 at the kink and at NaN)."""
    return np.multiply(g, out_data > 0, out=g)


def relu(a) -> Tensor:
    """The ReLU op: the fused kernels over a copy of its input. The model
    fuses it into the op that feeds it (`relu=` of `matmul`), which gives
    the same bits; this is the reference that path is tested against."""
    a = as_tensor(a)
    out_data = _relu_in_place(a.data.copy())

    def bw():
        # out.grad is this node's own array, dropped once bw returns
        _accumulate(a, _relu_grad_in_place(out.grad, out_data))

    out = _make(out_data, (a,), bw)
    return out


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e)
    # below. min(x, -x) is -|x| that keeps a NaN's sign bit, as exp(x) does.
    e = np.exp(np.minimum(x, -x))
    out_data = np.where(x >= 0, 1, e) / (1 + e)

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


def matrix_cosine(h, m, runs) -> Tensor:
    """Cosine similarity between each graph's node matrix and every memory
    block cropped to that graph's node count.

    h: (sum n, D) node rows; m: (P, N, D) blocks, N at least the widest
    graph; runs: (count, size) pairs. Returns (B, P). A graph of n nodes is
    compared, flattened, with the first n rows of each block, flattened; the
    +COSINE_EPS denominator maps an all-zero matrix to similarity 0.
    """
    h, m = as_tensor(h), as_tensor(m)
    spans = _run_spans(runs, h.data.shape[0])
    P, N, D = m.data.shape
    if h.data.ndim != 2 or h.data.shape[1] != D:
        raise ValueError(f"node rows {h.data.shape} do not match memory {m.data.shape}")
    width = max((span[4] for span in spans), default=0)
    if width > N:
        raise ValueError(f"a graph of {width} nodes exceeds memory width {N}")
    out_data = np.empty((_run_graphs(spans), P), np.result_type(h.data, m.data))
    norms = []
    for graphs, rows, _, count, size in spans:
        hf = h.data[rows].reshape(count, size * D)
        mf = m.data[:, :size].reshape(P, size * D)
        nh = np.sqrt((hf * hf).sum(axis=1))
        nm = np.sqrt((mf * mf).sum(axis=1))
        den = nh[:, None] * nm[None, :] + COSINE_EPS
        out_data[graphs] = (hf @ mf.T) / den
        norms.append((nh, nm, den))
    if _kink_log is not None:
        _kink_log.extend(("matrix_cosine", float(np.concatenate((nh, nm)).min()))
                         for nh, nm, _ in norms)

    def bw():
        gh = np.empty(h.data.shape, h.data.dtype)
        gm = np.zeros_like(m.data)
        for (graphs, rows, _, count, size), (nh, nm, den) in zip(spans, norms):
            hf = h.data[rows].reshape(count, size * D)
            mf = m.data[:, :size].reshape(P, size * D)
            g, cos = out.grad[graphs], out_data[graphs]
            a_coef = g / den
            c = (g * cos * nm[None, :] / den).sum(axis=1)
            ghf = a_coef @ mf - (c / np.where(nh > 0, nh, 1.0))[:, None] * hf
            gh[rows] = ghf.reshape(count * size, D)
            c = (g * cos * nh[:, None] / den).sum(axis=0)
            gmf = a_coef.T @ hf - (c / np.where(nm > 0, nm, 1.0))[:, None] * mf
            gm[:, :size] += gmf.reshape(P, size, D)
        _accumulate(h, gh)
        _accumulate(m, gm)

    out = _make(out_data, (h, m), bw)
    return out


def block_readout(w, m, runs) -> Tensor:
    """Each graph's node rows read out of memory: the w-weighted sum of the
    blocks cropped to its node count.

    w: (B, P) weights; m: (P, N, D) blocks; runs: (count, size) pairs.
    Returns (sum n, D) node rows.
    """
    w, m = as_tensor(w), as_tensor(m)
    spans = _run_spans(runs)
    P, N, D = m.data.shape
    if w.data.shape != (_run_graphs(spans), P):
        raise ValueError(f"weights {w.data.shape} do not match {_run_graphs(spans)} "
                         f"graphs and {P} blocks")
    rows_total = spans[-1][1].stop if spans else 0
    out_data = np.empty((rows_total, D), np.result_type(w.data, m.data))
    for graphs, rows, _, count, size in spans:
        np.matmul(w.data[graphs], m.data[:, :size].reshape(P, size * D),
                  out=out_data[rows].reshape(count, size * D))

    def bw():
        gw = np.empty(w.data.shape, w.data.dtype)
        gm = np.zeros_like(m.data)
        for graphs, rows, _, count, size in spans:
            g = out.grad[rows].reshape(count, size * D)
            gw[graphs] = g @ m.data[:, :size].reshape(P, size * D).T
            gm[:, :size] += (w.data[graphs].T @ g).reshape(P, size, D)
        _accumulate(w, gw)
        _accumulate(m, gm)

    out = _make(out_data, (w, m), bw)
    return out


def hard_shrink(w, lam: float) -> Tensor:
    """Zero weights below lam along the last axis and renormalize survivors.

    If a row loses every entry, its single largest weight is kept at 1
    (lowest index on ties); such rows receive zero gradient.
    """
    w = as_tensor(w)
    if not 0.0 <= lam < 1.0:
        raise ValueError(f"shrink threshold must be in [0, 1), got {lam}")
    if _kink_log is not None:
        _kink_log.append(("hard_shrink",
                          float(np.min(np.abs(w.data - lam), initial=np.inf))))
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

def graph_mean(h, runs) -> Tensor:
    """Mean of each graph's node rows.

    h: (sum n, D) node rows; runs: (count, size) pairs. Returns (B, D).
    """
    h = as_tensor(h)
    spans = _run_spans(runs, h.data.shape[0])
    D = h.data.shape[1]
    out_data = np.empty((_run_graphs(spans), D), h.data.dtype)
    for graphs, rows, _, count, size in spans:
        np.sum(h.data[rows].reshape(count, size, D), axis=1, out=out_data[graphs])
        out_data[graphs] /= size

    def bw():
        gh = np.empty(h.data.shape, h.data.dtype)
        for graphs, rows, _, count, size in spans:
            gh[rows].reshape(count, size, D)[:] = out.grad[graphs, None, :] / size
        _accumulate(h, gh)

    out = _make(out_data, (h,), bw)
    return out


def frobenius_sq(a, b, segments) -> Tensor:
    """Squared Frobenius distance sum((a-b)^2) of each block of consecutive
    rows, given the blocks' lengths along the first axis (`segments`, one per
    graph of a ragged batch)."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"frobenius_sq shape mismatch: {a.data.shape} vs {b.data.shape}")
    segments = np.asarray(segments)
    starts = _segment_starts(segments, a.data.shape[0])
    diff = a.data - b.data
    sq = diff * diff
    per_row = sq if sq.ndim == 1 else sq.reshape(len(sq), -1).sum(axis=1)
    out_data = np.add.reduceat(per_row, starts)

    def bw():
        g = np.repeat(out.grad, segments)
        g = g.reshape(g.shape + (1,) * (a.data.ndim - 1))
        core = 2.0 * diff
        if a.requires_grad:
            _accumulate(a, core * g)
        if b.requires_grad:
            _accumulate(b, -core * g)

    out = _make(out_data, (a, b), bw)
    return out
