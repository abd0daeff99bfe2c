"""Minibatch training and batched scoring.

One plan (`_plan`) groups graphs for every forward pass: it sorts them once
by (node count, graph id), cuts the sorted order into batches of at most
`batch_size` consecutive graphs, and cuts each batch into sub-batches of at
most MAX_ROWS node rows (a larger graph is a sub-batch of its own). A plan
holds graph indices; each sub-batch's graphs, in plan order, are handed to
`model.ragged_batch`, which builds the model's batch from them. Training
plans once, prepares each sub-batch once and visits the batches in a new
order every epoch under the training seed; the sub-batches of a batch add up
their gradients before one Adam step. Scoring plans its whole input as one
batch. Both `train` and `score_graphs` first make glibc keep freed memory on
its heap (`_keep_heap`), once per process.
"""

from __future__ import annotations

import ctypes
import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from . import blas
from .data import Graph
from .errors import ConfigurationError, TrainingDiverged
from .model import (BatchLosses, ModelConfig, ModelParams, batch_losses,
                    forward_batch, init_params, ragged_batch, score_batch)
from .optim import Adam

# a history row: the epoch, then each loss term's mean over its graphs
HISTORY_FIELDS = ("epoch",) + tuple(f.name for f in fields(BatchLosses))

# most node rows a forward pass holds: a training batch runs as sub-batches
# of at most this many rows whose gradients add up, and scoring cuts its
# sub-batches the same way, so neither the largest batch nor the largest
# input sets the working set (measured sweep, CHANGES.md)
MAX_ROWS = 1024


# glibc's mallopt parameters (malloc.h) and the largest mmap threshold it
# accepts on a 64-bit system
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 * 1024 * 1024


@functools.cache
def _keep_heap() -> bool:
    """Make glibc keep freed memory for the next step or bucket, once per
    process.

    By default glibc serves every array of 128 KiB or more with its own
    mmap and gives the top of the heap back to the kernel once 128 KiB of
    it is free, so the arrays a training step or a scoring bucket frees are
    returned after it and the next one faults them in again. This serves
    arrays up to 32 MiB from the heap and trims it only when 64 MiB at its
    top is free, the pair glibc's own dynamic threshold settles on after
    freeing a 32 MiB block. `train` and `score_graphs` call it first, and
    the command line before anything else. Returns whether both settings
    took; does nothing where the C library has no `mallopt`.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) == 1
    trim_ok = mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX) == 1
    return mmap_ok and trim_ok


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 300
    learning_rate: float = 1e-3
    alpha: float = ModelConfig.alpha
    shrink_lambda: float = ModelConfig.shrink_lambda
    num_node_memory: int = ModelConfig.num_node_memory
    num_graph_memory: int = ModelConfig.num_graph_memory
    hidden_dim: int = ModelConfig.hidden_dim
    latent_dim: int = ModelConfig.latent_dim
    seed: int = 0
    variant: str = ModelConfig.variant

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < np.inf:
            raise ConfigurationError("learning_rate must be positive and finite")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        # the model's own checks (variant, memory sizes, shrink_lambda,
        # alpha, widths), before any data is read
        make_model_config(self, 1, 1)


def make_model_config(config: TrainConfig, feature_dim: int,
                      max_nodes: int) -> ModelConfig:
    """The ModelConfig a training run with these knobs operates under: each
    field `config` shares with it, plus the data's widths."""
    shared = {f.name: getattr(config, f.name)
              for f in fields(ModelConfig) if hasattr(config, f.name)}
    return ModelConfig(feature_dim=feature_dim, max_nodes=max_nodes, **shared)


def _check_width(graphs: list[Graph], cfg: ModelConfig) -> None:
    """Refuse, by id, a graph wider than the node memory."""
    widest = max(graphs, key=lambda g: g.node_count)
    if cfg.uses_node_memory and widest.node_count > cfg.max_nodes:
        raise ConfigurationError(
            f"graph {widest.graph_id} has {widest.node_count} nodes, more than "
            f"the node memory's max_nodes={cfg.max_nodes}")


def _plan(graphs: list[Graph], batch_size: int) -> list[list[list[int]]]:
    """Batches of graph indices, each a list of its sub-batches.

    The graphs are sorted once by (node count, graph id); each batch is the
    next run of at most `batch_size` graphs in that order, and each of its
    sub-batches the next run of at most MAX_ROWS node rows, or one graph
    larger than that.
    """
    order = sorted(range(len(graphs)),
                   key=lambda i: (graphs[i].node_count, graphs[i].graph_id))
    plan = []
    for start in range(0, len(order), batch_size):
        subs, rows = [], 0
        for i in order[start:start + batch_size]:
            n = graphs[i].node_count
            if not subs or rows + n > MAX_ROWS:
                subs.append([])
                rows = 0
            subs[-1].append(i)
            rows += n
        plan.append(subs)
    return plan


def train(train_graphs: list[Graph], config: TrainConfig,
          feature_dim: int | None = None,
          max_nodes: int | None = None) -> tuple[ModelParams, list[dict]]:
    """Minimize the mean per-graph training loss with Adam.

    The optimizer batches are fixed runs of graphs in size order (`_plan`),
    prepared once and visited in a new order every epoch. Each batch runs
    forward and backward once per sub-batch of at most MAX_ROWS node rows,
    each sub-batch's loss being its summed per-graph loss over the batch's
    graph count, so the parameter gradients add up to those of the batch's
    mean loss; Adam then steps once per batch. A batch under the cap is one
    sub-batch.

    Returns the trained parameters and one history row per epoch (mean loss
    components over the epoch's graphs). Fixed seed means bit-identical
    history. max_nodes sizes the node memory bank; pass the dataset-wide
    maximum when test graphs can be larger than any training graph; a
    training graph wider than it is refused, by id, before any step.
    """
    _keep_heap()
    if not train_graphs:
        raise ConfigurationError("training set is empty")
    if feature_dim is None:
        feature_dim = train_graphs[0].attributes.shape[1]
    if max_nodes is None:
        max_nodes = max(g.node_count for g in train_graphs)
    cfg = make_model_config(config, feature_dim, max_nodes)
    _check_width(train_graphs, cfg)

    rng = np.random.default_rng(config.seed)
    params = init_params(cfg, rng, dtype=np.float32)
    if config.epochs == 0:
        return params, []

    opt = Adam(params.tensors(), lr=config.learning_rate)
    history: list[dict] = []
    batches = [(sum(map(len, subs)),
                [ragged_batch([train_graphs[i] for i in sub], np.float32)
                 for sub in subs])
               for subs in _plan(train_graphs, config.batch_size)]

    n_total = len(train_graphs)
    for epoch in range(config.epochs):
        sums = {k: 0.0 for k in HISTORY_FIELDS[1:]}
        for bi, b in enumerate(rng.permutation(len(batches))):
            count, subs = batches[b]
            opt.zero_grad()
            for batch in subs:
                out = forward_batch(params, cfg, batch)
                bl = batch_losses(out, cfg)
                # reduce_mean's own ops, over the whole batch's graph count
                loss = ad.mul(ad.reduce_sum(bl.total), 1.0 / count)
                loss_val = float(loss.data)
                if not np.isfinite(loss_val):
                    term = next((k for k in HISTORY_FIELDS[2:]
                                 if not np.all(np.isfinite(getattr(bl, k).data))),
                                "total")
                    raise TrainingDiverged(
                        f"non-finite {term} loss (sub-batch loss {loss_val}) "
                        f"at epoch {epoch}, batch {bi}")
                ad.backward(loss)
                for k in sums:
                    sums[k] += float(getattr(bl, k).data.sum())
                # freed before the next forward: kept alive, they left the
                # heap 3 MB larger (2000 AIDS-shaped graphs, batch 300)
                del out, bl, loss
            opt.step()
        row = {"epoch": epoch}
        row.update({k: v / n_total for k, v in sums.items()})
        history.append(row)
    return params, history


def score_graphs(params: ModelParams, cfg: ModelConfig, graphs: list[Graph],
                 *, batch_size: int | None = None) -> np.ndarray:
    """Anomaly scores aligned to the input order.

    A graph's score is a sum over that graph alone, so the graphs are scored
    in the sub-batches `_plan` cuts from the whole input as one batch: size
    ordered, of at most MAX_ROWS node rows (a larger graph is scored alone),
    so scoring's memory does not grow with the input.
    Inputs of at least 2 * MAX_ROWS node rows, when OpenBLAS runs more than
    one thread, are scored on a pool of that many threads with OpenBLAS on
    one thread per sub-batch; smaller inputs are scored one sub-batch after
    another with OpenBLAS as it is, which is faster below that size
    (CHANGES.md). `batch_size` is ignored: perfbench/test_perfbench.py:108
    still passes it, and ROADMAP item 5a deletes both. A graph wider than
    the node memory is refused, by id, before any sub-batch is scored, and
    a non-finite score raises `TrainingDiverged` naming its graph.
    """
    _keep_heap()
    if not graphs:
        return np.zeros(0)
    _check_width(graphs, cfg)
    scores = np.zeros(len(graphs))
    dtype = params.enc1.data.dtype

    def score(idx):
        scores[idx] = score_batch(params, cfg,
                                  ragged_batch([graphs[i] for i in idx], dtype))

    [subs] = _plan(graphs, len(graphs))
    threads = blas.threads() or 1
    if threads < 2 or sum(g.node_count for g in graphs) < 2 * MAX_ROWS:
        for idx in subs:
            score(idx)
    else:
        # pinned once for the call, not per sub-batch: OpenBLAS workers keep
        # spinning for a while after a GEMM and would compete with the pool
        with blas.pinned(1), ThreadPoolExecutor(threads) as pool:
            for future in [pool.submit(score, idx) for idx in subs]:
                future.result()
    bad = ~np.isfinite(scores)
    if bad.any():
        raise TrainingDiverged(f"graph {graphs[int(np.argmax(bad))].graph_id}: "
                               "non-finite score")
    return scores
