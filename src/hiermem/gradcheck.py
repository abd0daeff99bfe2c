"""Finite-difference verification of every backward rule.

Each primitive case is one row of `PRIMITIVE_CASES`: the leaf shapes, the op
and, where needed, constant inputs, so adding an op means adding one row;
`CASES` adds the whole-model loss. A case builds random float64 inputs, runs
the tape once for analytic gradients, then compares them against central
differences of the scalar output. The comparison is only ever made where the
function is smooth: the ops that are not differentiable everywhere log how
far their inputs are from such a point (`autodiff._kink_log`), and a draw
where any distance is at or below its op's `KINK_MARGIN` is redrawn from a
shifted seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

# the finite-difference step every check takes
EPS = 1e-5
DEFAULT_TOL = 1e-4
# per op that logs its kinks (`autodiff._kink_log`), the distance at or below
# which a draw is redrawn: wide of EPS, since one step moves an op's input by
# more than EPS, and for a cosine's norms well above its COSINE_EPS floor
KINK_MARGIN = {"relu": 1e-3, "hard_shrink": 1e-3, "matrix_cosine": 1e-2}
# both-gradients-vanish band: central differences bottom out at rounding
# noise (~1e-12 for O(1) outputs), so below this the check is absolute
ZERO_BAND = 1e-10
# about a third of full_loss's draws are smooth, so all 64 miss with a
# chance of about 0.65**64 = 1e-12 per seed
_MAX_REDRAWS = 64


@dataclass
class CheckCase:
    params: dict[str, Tensor]
    fn: Callable[[], Tensor]


@dataclass
class CheckResult:
    """A case's verdict over one or more seeds: its largest error, the
    lowest seed that gave it, each parameter's largest error, and whether
    every seed passed."""
    name: str
    worst_seed: int
    max_rel_err: float
    passed: bool
    per_param: dict[str, float]


def grad_check(fn: Callable[[], Tensor], params: list[Tensor]) -> np.ndarray:
    """Max relative error per parameter between tape and central differences
    of step EPS.

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
                flat[i] = orig + EPS
                f_hi = float(fn().data)
                flat[i] = orig - EPS
                f_lo = float(fn().data)
                flat[i] = orig
                numeric = (f_hi - f_lo) / (2.0 * EPS)
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


# --- cases -----------------------------------------------------------------

def _case(shapes: dict[str, tuple], op: Callable,
          consts: Callable | None = None) -> Callable:
    """A builder of one case from an rng.

    It draws `consts(rng)` if given, then one leaf per entry of `shapes` in
    order, then the projector, and checks `op` applied to the constants, if
    any, and the leaves. `op` looks its primitive up on `ad` when it runs, so
    a patched op is the one checked.
    """
    def build(rng: np.random.Generator) -> CheckCase:
        fixed = [consts(rng)] if consts is not None else []
        leaves = {name: _leaf(rng, shape) for name, shape in shapes.items()}
        proj = _projector(rng)
        return CheckCase(leaves, lambda: proj(op(*fixed, *leaves.values())))

    return build


# a ragged batch of five graphs: one of 1 node, two of 3, two of 2
_RUNS = ((1, 1), (2, 3), (2, 2))
_ROWS = sum(count * size for count, size in _RUNS)
_NODE_COUNTS = np.repeat([size for _, size in _RUNS], [c for c, _ in _RUNS])


def _run_matrices(rng):
    return [rng.normal(size=(count, size, size)) for count, size in _RUNS]


_SHRINK = 0.15

_PAIR = {"a": (3, 4), "b": (3, 4)}
# node rows times a layer weight, as in every h @ W of the model
_LAYER = {"a": (6, 4), "b": (4, 5)}
_NODES = {"h": (_ROWS, 3)}
# graph convolutions over the asymmetric `_run_matrices`, so that a missing
# transpose in a backward fails
_GCN = {"h": (_ROWS, 3), "w": (3, 2)}

PRIMITIVE_CASES: dict[str, Callable] = {
    "add": _case(_PAIR, lambda a, b: ad.add(a, b)),
    "mul": _case(_PAIR, lambda a, b: ad.mul(a, b)),
    "matmul": _case(_LAYER, lambda a, b: ad.matmul(a, b)),
    "matmul_relu": _case(_LAYER, lambda a, b: ad.matmul(a, b, relu=True)),
    "reduce_sum": _case({"a": (3, 4, 2)}, lambda a: ad.reduce_sum(a)),
    "reduce_mean": _case({"a": (3, 4)}, lambda a: ad.reduce_mean(a)),
    "relu": _case({"a": (4, 5)}, lambda a: ad.relu(a)),
    "sigmoid": _case({"a": (4, 5)}, lambda a: ad.sigmoid(a)),
    "row_softmax": _case({"a": (3, 5)}, lambda a: ad.row_softmax(a)),
    "hard_shrink": _case(
        {"a": (4, 5)}, lambda a: ad.hard_shrink(ad.row_softmax(a), _SHRINK)),
    "entropy": _case({"a": (3, 4)}, lambda a: ad.entropy(ad.row_softmax(a))),
    "matmul_adj": _case(_GCN, lambda adj, h, w: ad.matmul(h, w, adj=adj),
                        consts=_run_matrices),
    "matmul_adj_relu": _case(
        _GCN, lambda adj, h, w: ad.matmul(h, w, relu=True, adj=adj),
        consts=_run_matrices),
    "gram": _case(_NODES, lambda h: ad.gram(h, _RUNS)),
    "matrix_cosine": _case({"h": (_ROWS, 2), "m": (3, 4, 2)},
                           lambda h, m: ad.matrix_cosine(h, m, _RUNS)),
    "block_readout": _case({"w": (len(_NODE_COUNTS), 3), "m": (3, 4, 2)},
                           lambda w, m: ad.block_readout(w, m, _RUNS)),
    "graph_mean": _case(_NODES, lambda h: ad.graph_mean(h, _RUNS)),
    "frobenius_sq": _case(
        {"a": (_ROWS, 2), "b": (_ROWS, 2)},
        lambda a, b: ad.frobenius_sq(a, b, segments=_NODE_COUNTS)),
}


def _full_loss_case(rng: np.random.Generator) -> CheckCase:
    """Whole-model training loss on one batch of three toy graphs with 1, 3
    and 6 nodes, so that every per-graph op runs over several runs.

    Widths are shrunk so the finite-difference sweep stays within the time
    budget; every parameter tensor of the real architecture is still present
    and checked.
    """
    from . import model as M
    from .data import Graph

    cfg = M.ModelConfig(feature_dim=3, hidden_dim=7, latent_dim=5,
                        num_node_memory=2, num_graph_memory=3, max_nodes=6,
                        shrink_lambda=0.05)
    params = M.init_params(cfg, rng, dtype=np.float64)
    graphs = []
    for gid, n in enumerate((1, 3, 6)):
        upper = np.triu(rng.random((n, n)) < 0.5, k=1)
        adj = (upper | upper.T).astype(np.float64)
        graphs.append(Graph(adjacency=adj,
                            attributes=rng.normal(size=(n, cfg.feature_dim)),
                            label=0, node_count=n, graph_id=gid))
    batch = M.ragged_batch(graphs, np.float64)
    return CheckCase(
        dict(params.named_tensors()),
        lambda: ad.reduce_mean(M.batch_losses(
            M.forward_batch(params, cfg, batch), cfg).total))


CASES: dict[str, Callable] = {**PRIMITIVE_CASES, "full_loss": _full_loss_case}


def run_case(name: str, builder: Callable, seed: int) -> CheckResult:
    """Build a case at `seed`, redrawing past kinks, then finite-difference it."""
    for attempt in range(_MAX_REDRAWS):
        rng = np.random.default_rng(seed + 9973 * attempt)
        case = builder(rng)
        ad._kink_log = []
        try:
            case.fn()
            kinks = ad._kink_log
        finally:
            ad._kink_log = None
        near = [(op, d) for op, d in kinks if d <= KINK_MARGIN[op]]
        if near:
            continue
        errs = grad_check(case.fn, list(case.params.values()))
        per_param = {n_: float(e) for n_, e in zip(case.params, errs)}
        worst = float(errs.max()) if errs.size else 0.0
        return CheckResult(name, seed, worst, worst < DEFAULT_TOL, per_param)
    op, d = near[0]
    raise RuntimeError(f"could not draw smooth inputs for {name} after "
                       f"{_MAX_REDRAWS} attempts: the last draw put a {op} "
                       f"input {d:.3g} from its kink (margin {KINK_MARGIN[op]:g})")


def check_suite(seeds) -> list[CheckResult]:
    """Run every case of `CASES` at each of `seeds`; returns one verdict per
    case, over all its seeds."""
    verdicts = []
    for name, builder in CASES.items():
        runs = [run_case(name, builder, int(seed)) for seed in seeds]
        worst = max(runs, key=lambda r: (r.max_rel_err, -r.worst_seed))
        verdicts.append(CheckResult(
            name, worst.worst_seed, worst.max_rel_err,
            all(r.passed for r in runs),
            {p: max(r.per_param[p] for r in runs) for p in worst.per_param}))
    return verdicts
