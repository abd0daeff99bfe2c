"""Minibatch training and batched scoring.

Graphs are sorted by (node count, graph id) and chunked into batches;
scoring also caps each chunk's node rows (CHUNK_ROWS). A batch is built
with one `pad_batch` call per node count it holds, at that count's own
width, so nothing is padded, and is prepared for the model once
(`model.ragged_batch`); bucketed training reuses its prepared batches every
epoch. Batch order is reshuffled every epoch under the training seed;
without bucketing, each epoch chunks a fresh permutation of the graphs, and
each chunk is sorted the same way.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from . import blas
from .data import Graph, pad_batch
from .errors import ConfigurationError, TrainingDiverged
from .model import (ModelConfig, ModelParams, RaggedBatch, batch_losses,
                    forward_batch, init_params, ragged_batch, score_batch)
from .optim import Adam

HISTORY_FIELDS = ("epoch", "total", "rec_structure", "rec_attribute",
                  "approximation", "entropy")

# fewest node rows a scoring part is given: below it, one part per OpenBLAS
# thread scores slower than one multithreaded pass (measured crossover,
# CHANGES.md)
SPLIT_ROWS = 1024

# most node rows a scoring chunk holds: the chunk's activations, not its
# graph count, set scoring's working set (measured sweep, CHANGES.md)
CHUNK_ROWS = 4096


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 300
    learning_rate: float = 1e-3
    alpha: float = 0.01
    shrink_lambda: float = 0.01
    num_node_memory: int = 3
    num_graph_memory: int = 3
    hidden_dim: int = 512
    latent_dim: int = 256
    seed: int = 0
    variant: str = "full"
    normalize_losses: bool = False
    bucket_by_size: bool = True

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigurationError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")


def make_model_config(config: TrainConfig, feature_dim: int,
                      max_nodes: int) -> ModelConfig:
    """The ModelConfig a training run with these knobs operates under."""
    return ModelConfig(feature_dim=feature_dim, hidden_dim=config.hidden_dim,
                       latent_dim=config.latent_dim,
                       num_node_memory=config.num_node_memory,
                       num_graph_memory=config.num_graph_memory,
                       max_nodes=max_nodes,
                       shrink_lambda=config.shrink_lambda, alpha=config.alpha,
                       variant=config.variant,
                       normalize_losses=config.normalize_losses)


def _size_key(graph: Graph) -> tuple[int, int]:
    return graph.node_count, graph.graph_id


def _chunks(graphs: list[Graph], order, batch_size: int,
            max_rows: float = math.inf) -> Iterator[list[int]]:
    """Chunks of graph indices taken in `order`, each sorted by size.

    A chunk holds at most `batch_size` graphs and at most `max_rows` node
    rows; a graph of more than `max_rows` nodes forms a chunk of its own.
    """
    chunk, rows = [], 0
    for i in order:
        n = graphs[i].node_count
        if chunk and (len(chunk) == batch_size or rows + n > max_rows):
            yield sorted(chunk, key=lambda j: _size_key(graphs[j]))
            chunk, rows = [], 0
        chunk.append(i)
        rows += n
    if chunk:
        yield sorted(chunk, key=lambda j: _size_key(graphs[j]))


def _ragged(graphs: list[Graph], idx, dtype) -> RaggedBatch:
    """The prepared batch of the size-sorted graphs `idx`."""
    runs = [pad_batch(list(run), size) for size, run in itertools.groupby(
        (graphs[i] for i in idx), key=lambda g: g.node_count)]
    return ragged_batch([(r.adjacency_padded, r.attributes_padded)
                         for r in runs], dtype)


def _batches(graphs: list[Graph], order, batch_size: int,
             dtype) -> Iterator[tuple[list[int], RaggedBatch]]:
    """Chunks of `batch_size` graph indices taken in `order`, each sorted by
    size, with the prepared batch of its graphs."""
    for idx in _chunks(graphs, order, batch_size):
        yield idx, _ragged(graphs, idx, dtype)


def _size_order(graphs: list[Graph]) -> list[int]:
    return sorted(range(len(graphs)), key=lambda i: _size_key(graphs[i]))


def train(train_graphs: list[Graph], config: TrainConfig,
          feature_dim: int | None = None,
          max_nodes: int | None = None) -> tuple[ModelParams, list[dict]]:
    """Minimize the mean per-graph training loss with Adam.

    Returns the trained parameters and one history row per epoch (mean loss
    components over the epoch's graphs). Fixed seed means bit-identical
    history. max_nodes sizes the node memory bank; pass the dataset-wide
    maximum when test graphs can be larger than any training graph.
    """
    if not train_graphs:
        raise ConfigurationError("training set is empty")
    if feature_dim is None:
        feature_dim = train_graphs[0].attributes.shape[1]
    if max_nodes is None:
        max_nodes = max(g.node_count for g in train_graphs)
    cfg = make_model_config(config, feature_dim, max_nodes)

    rng = np.random.default_rng(config.seed)
    params = init_params(cfg, rng, dtype=np.float32)
    if config.epochs == 0:
        return params, []

    batch_size = min(config.batch_size, len(train_graphs))
    opt = Adam(params.tensors(), lr=config.learning_rate)
    history: list[dict] = []

    if config.bucket_by_size:
        batches = [b for _, b in _batches(train_graphs, _size_order(train_graphs),
                                          batch_size, np.float32)]

    n_total = len(train_graphs)
    for epoch in range(config.epochs):
        if config.bucket_by_size:
            epoch_batches = [batches[i] for i in rng.permutation(len(batches))]
        else:
            epoch_batches = (b for _, b in _batches(
                train_graphs, rng.permutation(n_total).tolist(), batch_size,
                np.float32))

        sums = {k: 0.0 for k in HISTORY_FIELDS[1:]}
        for bi, batch in enumerate(epoch_batches):
            out = forward_batch(params, cfg, batch)
            bl = batch_losses(out, cfg)
            loss = ad.reduce_mean(bl.total)
            loss_val = float(loss.data)
            if not np.isfinite(loss_val):
                term = next((k for k in HISTORY_FIELDS[2:]
                             if not np.all(np.isfinite(getattr(bl, k).data))),
                            "total")
                raise TrainingDiverged(
                    f"non-finite {term} loss (mean total {loss_val}) "
                    f"at epoch {epoch}, batch {bi}")
            opt.zero_grad()
            ad.backward(loss)
            opt.step()
            sums["total"] += float(bl.total.data.sum())
            sums["rec_structure"] += float(bl.rec_structure.data.sum())
            sums["rec_attribute"] += float(bl.rec_attribute.data.sum())
            sums["approximation"] += float(bl.approximation.data.sum())
            sums["entropy"] += float(bl.entropy.data.sum())
        row = {"epoch": epoch}
        row.update({k: v / n_total for k, v in sums.items()})
        history.append(row)
    return params, history


def _parts(graphs: list[Graph], idx: list[int],
           threads: int) -> list[list[int]]:
    """`idx` cut into at most `threads` contiguous parts of about equal node
    rows, at least SPLIT_ROWS of them per part on average."""
    counts = np.array([graphs[i].node_count for i in idx])
    k = min(threads, int(counts.sum()) // SPLIT_ROWS)
    if k < 2:
        return [idx]
    # a graph goes to the part its middle node row falls in
    middles = np.cumsum(counts) - counts / 2
    cuts = np.searchsorted(middles, counts.sum() * np.arange(1, k) / k)
    return [part.tolist() for part in np.split(np.asarray(idx), cuts)
            if part.size]


def score_graphs(params: ModelParams, cfg: ModelConfig, graphs: list[Graph],
                 batch_size: int = 300) -> np.ndarray:
    """Anomaly scores aligned to the input order, computed in size buckets.

    A bucket holds at most `batch_size` graphs and at most CHUNK_ROWS node
    rows (a larger graph is scored alone), so scoring's memory does not grow
    with the largest graphs of a collection; cross-validation folds at the
    default batch sizes stay below the cap. A bucket of at least
    2 * SPLIT_ROWS node rows is cut into up to one part per OpenBLAS thread
    (`_parts`), and the parts are scored at the same time on a thread pool,
    with OpenBLAS on one thread per part. Smaller buckets are scored one
    after another with OpenBLAS as it is.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if not graphs:
        return np.zeros(0)
    scores = np.zeros(len(graphs))
    dtype = params.enc1.data.dtype

    def score(idx):
        scores[idx] = score_batch(params, cfg, _ragged(graphs, idx, dtype))

    threads = blas.threads() or 1
    split = []
    for idx in _chunks(graphs, _size_order(graphs), batch_size, CHUNK_ROWS):
        parts = _parts(graphs, idx, threads)
        if len(parts) == 1:
            score(idx)
        else:
            split.append(parts)
    if split:
        # pinned once for the call, not per bucket: OpenBLAS workers keep
        # spinning for a while after a GEMM and would compete with the pool
        with blas.pinned(1), ThreadPoolExecutor(threads - 1) as pool:
            for parts in split:
                futures = [pool.submit(score, part) for part in parts[1:]]
                score(parts[0])
                for future in futures:
                    future.result()
    return scores


def config_dict(config: TrainConfig) -> dict:
    return dataclasses.asdict(config)
