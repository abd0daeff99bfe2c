"""Finite-difference verification of every backward rule.

Each registered case builds random float64 inputs, runs the tape once for
analytic gradients, then compares them against central differences of the
scalar output. Inputs that land too close to a nondifferentiable point (ReLU
kinks, shrink thresholds, near-zero norms) are rejected and redrawn from a
shifted seed, so the comparison is only ever made where the function is
smooth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

DEFAULT_EPS = 1e-5
DEFAULT_TOL = 1e-4
KINK_MARGIN = 1e-3
# both-gradients-vanish band: central differences bottom out at rounding
# noise (~1e-12 for O(1) outputs), so below this the check is absolute
ZERO_BAND = 1e-10
_MAX_REDRAWS = 16


@dataclass
class CheckCase:
    params: list[Tensor]
    param_names: list[str]
    fn: Callable[[], Tensor]
    guard: Callable[[], bool] | None = None


@dataclass
class CheckResult:
    name: str
    seed: int
    max_rel_err: float
    passed: bool
    per_param: dict[str, float]


def grad_check(fn: Callable[[], Tensor], params: list[Tensor],
               eps: float = DEFAULT_EPS) -> np.ndarray:
    """Max relative error per parameter between tape and central differences.

    Relative error uses max(|analytic|, |numeric|, 1e-8) as denominator so
    near-zero gradients compare on absolute terms.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 parameters")
        p.grad = None
    out = fn()
    ad.backward(out)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    errs = np.zeros(len(params))
    # the finite-difference forwards are never differentiated: record no tape
    requires = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        for k, p in enumerate(params):
            flat = p.data.reshape(-1)
            an = analytic[k].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                f_hi = float(fn().data)
                flat[i] = orig - eps
                f_lo = float(fn().data)
                flat[i] = orig
                numeric = (f_hi - f_lo) / (2.0 * eps)
                if max(abs(an[i]), abs(numeric)) < ZERO_BAND:
                    continue
                denom = max(abs(an[i]), abs(numeric), 1e-8)
                errs[k] = max(errs[k], abs(an[i] - numeric) / denom)
    finally:
        for p, req in zip(params, requires):
            p.requires_grad = req
    return errs


def _leaf(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _projector(rng: np.random.Generator):
    """Contraction to a scalar through random weights drawn exactly once.

    A plain sum can hide sign errors behind symmetric cancellation; fixed
    random weights make every output coordinate observable while keeping the
    function identical across repeated finite-difference evaluations.
    """
    cell: dict = {}

    def project(t: Tensor) -> Tensor:
        if "w" not in cell:
            cell["w"] = rng.normal(size=t.data.shape)
        return ad.reduce_sum(ad.mul(t, cell["w"]))

    return project


# --- case builders ---------------------------------------------------------

def _case_add(rng):
    a, b = _leaf(rng, (3, 4)), _leaf(rng, (3, 4))
    proj = _projector(rng)
    return CheckCase([a, b], ["a", "b"], lambda: proj(ad.add(a, b)))


def _case_mul(rng):
    a, b = _leaf(rng, (3, 4)), _leaf(rng, (3, 4))
    proj = _projector(rng)
    return CheckCase([a, b], ["a", "b"], lambda: proj(ad.mul(a, b)))


def _case_matmul(rng):
    # node rows times a layer weight, as in every h @ W of the model
    a, b = _leaf(rng, (6, 4)), _leaf(rng, (4, 5))
    proj = _projector(rng)
    return CheckCase([a, b], ["a", "b"], lambda: proj(ad.matmul(a, b)))


def _case_reduce_sum(rng):
    a = _leaf(rng, (3, 4, 2))
    proj = _projector(rng)
    return CheckCase([a], ["a"], lambda: proj(ad.reduce_sum(a)))


def _case_reduce_mean(rng):
    a = _leaf(rng, (3, 4))
    proj = _projector(rng)
    return CheckCase([a], ["a"], lambda: proj(ad.reduce_mean(a)))


def _case_relu(rng):
    a = _leaf(rng, (4, 5))
    proj = _projector(rng)
    return CheckCase([a], ["a"], lambda: proj(ad.relu(a)))


def _case_matmul_relu(rng):
    a, b = _leaf(rng, (6, 4)), _leaf(rng, (4, 5))
    proj = _projector(rng)
    return CheckCase([a, b], ["a", "b"],
                     lambda: proj(ad.matmul(a, b, relu=True)))


def _case_sigmoid(rng):
    a = _leaf(rng, (4, 5))
    proj = _projector(rng)
    return CheckCase([a], ["a"], lambda: proj(ad.sigmoid(a)))


def _case_row_softmax(rng):
    a = _leaf(rng, (3, 5))
    proj = _projector(rng)
    return CheckCase([a], ["a"], lambda: proj(ad.row_softmax(a)))


def _case_hard_shrink(rng):
    lam = 0.15
    a = _leaf(rng, (4, 5))

    proj = _projector(rng)
    def fn():
        return proj(ad.hard_shrink(ad.row_softmax(a), lam))

    def guard():
        w = _simplex_rows_of(a.data)
        return float(np.min(np.abs(w - lam))) > KINK_MARGIN

    return CheckCase([a], ["a"], fn, guard)


def _simplex_rows_of(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _case_entropy(rng):
    a = _leaf(rng, (3, 4))
    proj = _projector(rng)
    return CheckCase([a], ["a"],
                     lambda: proj(ad.entropy(ad.row_softmax(a))))


# a ragged batch of five graphs: one of 1 node, two of 3, two of 2
_RUNS = ((1, 1), (2, 3), (2, 2))
_ROWS = sum(count * size for count, size in _RUNS)
_NODE_COUNTS = np.repeat([size for _, size in _RUNS], [c for c, _ in _RUNS])


def _run_matrices(rng):
    return [rng.normal(size=(count, size, size)) for count, size in _RUNS]


def _case_propagate(rng):
    adj = _run_matrices(rng)
    h = _leaf(rng, (_ROWS, 3))
    proj = _projector(rng)
    return CheckCase([h], ["h"], lambda: proj(ad.propagate(adj, h)))


def _case_propagate_relu(rng):
    adj = _run_matrices(rng)
    h = _leaf(rng, (_ROWS, 3))
    proj = _projector(rng)
    return CheckCase([h], ["h"],
                     lambda: proj(ad.propagate(adj, h, relu=True)))


def _case_gram(rng):
    h = _leaf(rng, (_ROWS, 3))
    proj = _projector(rng)
    return CheckCase([h], ["h"], lambda: proj(ad.gram(h, _RUNS)))


def _case_matrix_cosine(rng):
    h, m = _leaf(rng, (_ROWS, 2)), _leaf(rng, (3, 4, 2))

    def guard():
        starts = np.concatenate(([0], np.cumsum(_NODE_COUNTS)[:-1]))
        nh = np.sqrt(np.add.reduceat((h.data ** 2).sum(axis=1), starts)).min()
        nm = np.linalg.norm(m.data[:, :1].reshape(3, -1), axis=1).min()
        return min(nh, nm) > 1e-2

    proj = _projector(rng)
    return CheckCase([h, m], ["h", "m"],
                     lambda: proj(ad.matrix_cosine(h, m, _RUNS)), guard)


def _case_block_readout(rng):
    w, m = _leaf(rng, (len(_NODE_COUNTS), 3)), _leaf(rng, (3, 4, 2))
    proj = _projector(rng)
    return CheckCase([w, m], ["w", "m"],
                     lambda: proj(ad.block_readout(w, m, _RUNS)))


def _case_graph_mean(rng):
    h = _leaf(rng, (_ROWS, 3))
    proj = _projector(rng)
    return CheckCase([h], ["h"], lambda: proj(ad.graph_mean(h, _RUNS)))


def _case_frobenius_sq(rng):
    a, b = _leaf(rng, (_ROWS, 2)), _leaf(rng, (_ROWS, 2))
    proj = _projector(rng)
    return CheckCase(
        [a, b], ["a", "b"],
        lambda: proj(ad.frobenius_sq(a, b, segments=_NODE_COUNTS)))


PRIMITIVE_CASES: dict[str, Callable] = {
    "add": _case_add,
    "mul": _case_mul,
    "matmul": _case_matmul,
    "matmul_relu": _case_matmul_relu,
    "reduce_sum": _case_reduce_sum,
    "reduce_mean": _case_reduce_mean,
    "relu": _case_relu,
    "sigmoid": _case_sigmoid,
    "row_softmax": _case_row_softmax,
    "hard_shrink": _case_hard_shrink,
    "entropy": _case_entropy,
    "propagate": _case_propagate,
    "propagate_relu": _case_propagate_relu,
    "gram": _case_gram,
    "matrix_cosine": _case_matrix_cosine,
    "block_readout": _case_block_readout,
    "graph_mean": _case_graph_mean,
    "frobenius_sq": _case_frobenius_sq,
}


def _full_loss_case(rng: np.random.Generator) -> CheckCase:
    """Whole-model training loss on one batch of three toy graphs with 1, 3
    and 6 nodes, so that every per-graph op runs over several runs.

    Widths are shrunk so the finite-difference sweep stays within the time
    budget; every parameter tensor of the real architecture is still present
    and checked.
    """
    from . import model as M

    cfg = M.ModelConfig(feature_dim=3, hidden_dim=7, latent_dim=5,
                        num_node_memory=2, num_graph_memory=3, max_nodes=6,
                        shrink_lambda=0.05)
    params = M.init_params(cfg, rng, dtype=np.float64)
    runs = []
    for n in (1, 3, 6):
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        adj = (upper | upper.T).astype(np.float64)[None]
        runs.append((adj, rng.normal(size=(1, n, cfg.feature_dim))))
    batch = M.ragged_batch(runs, np.float64)
    batch_cell: dict = {}

    def fn():
        out = M.forward_batch(params, cfg, batch)
        batch_cell["out"] = out
        return ad.reduce_mean(M.batch_losses(out, cfg).total)

    def guard():
        out = batch_cell["out"]
        margins = [1.0]
        for raw in (out.node_weights_raw, out.graph_weights_raw):
            if raw is not None:
                margins.append(float(np.min(np.abs(raw.data - cfg.shrink_lambda))))
        # cosine denominators must sit well away from the eps floor
        starts = np.concatenate(([0], np.cumsum(batch.node_counts)[:-1]))
        node_norms = np.add.reduceat((out.h_nodes.data ** 2).sum(axis=1), starts)
        norms = min(float(np.linalg.norm(out.h_graph.data, axis=-1).min()),
                    float(np.sqrt(node_norms.min())))
        return min(margins) > KINK_MARGIN and norms > 1e-2

    return CheckCase(params.tensors(), params.tensor_names(), fn, guard)


def run_case(name: str, builder: Callable, seed: int,
             eps: float = DEFAULT_EPS, tol: float = DEFAULT_TOL) -> CheckResult:
    """Build a case at `seed`, redrawing past kinks, then finite-difference it."""
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng(seed + 9973 * attempt)
        case = builder(rng)
        ad._relu_kink_log = []
        try:
            case.fn()
            kinks = ad._relu_kink_log
        finally:
            ad._relu_kink_log = None
        if kinks and min(kinks) <= KINK_MARGIN:
            continue
        if case.guard is not None and not case.guard():
            continue
        errs = grad_check(case.fn, case.params, eps=eps)
        per_param = {n_: float(e) for n_, e in zip(case.param_names, errs)}
        worst = float(errs.max()) if errs.size else 0.0
        return CheckResult(name, seed, worst, worst < tol, per_param)
    raise RuntimeError(f"could not draw smooth inputs for {name} after "
                       f"{_MAX_REDRAWS} attempts")


def check_suite(seeds=range(10), eps: float = DEFAULT_EPS,
                tol: float = DEFAULT_TOL, include_model: bool = True,
                names: list[str] | None = None) -> list[CheckResult]:
    """Run every registered case across `seeds`; returns one result per pair."""
    cases = dict(PRIMITIVE_CASES)
    if include_model:
        cases["full_loss"] = _full_loss_case
    if names is not None:
        unknown = set(names) - set(cases)
        if unknown:
            raise ValueError(f"unknown gradcheck cases: {sorted(unknown)}")
        cases = {k: cases[k] for k in names}
    results = []
    for name, builder in cases.items():
        for seed in seeds:
            results.append(run_case(name, builder, int(seed), eps=eps, tol=tol))
    return results
