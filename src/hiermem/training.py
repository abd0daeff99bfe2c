"""Minibatch training and batched scoring.

Batches are bucketed by graph size: graphs are sorted by node count, chunked,
and each chunk is padded only to its own widest member. Under masked losses
this is exact (padded rows contribute nothing to any term) and it cuts the
cost of the dense matrix products severalfold on size-skewed datasets. Batch
order is reshuffled every epoch under the training seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Graph, GraphBatch, pad_batch
from .errors import ConfigurationError, TrainingDiverged
from .model import (ModelConfig, ModelParams, batch_losses, forward_batch,
                    init_params, score_batch)
from .optim import Adam

HISTORY_FIELDS = ("epoch", "total", "rec_structure", "rec_attribute",
                  "approximation", "entropy")


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
    masked_losses: bool = True
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
                       masked_losses=config.masked_losses,
                       normalize_losses=config.normalize_losses)


def _size_buckets(graphs: list[Graph], batch_size: int,
                  pad_to: int | None) -> list[GraphBatch]:
    order = sorted(range(len(graphs)),
                   key=lambda i: (graphs[i].node_count, graphs[i].graph_id))
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = [graphs[i] for i in order[start:start + batch_size]]
        width = pad_to if pad_to is not None else max(g.node_count for g in chunk)
        batches.append(pad_batch(chunk, width))
    return batches


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
    # unmasked losses read the literal padded matrices, so every batch must
    # carry the full max_nodes width; masked losses allow per-bucket widths
    pad_to = None if config.masked_losses else max_nodes
    opt = Adam(params.tensors(), lr=config.learning_rate)
    history: list[dict] = []

    if config.bucket_by_size:
        batches = _size_buckets(train_graphs, batch_size, pad_to)

    n_total = len(train_graphs)
    for epoch in range(config.epochs):
        if config.bucket_by_size:
            epoch_batches = [batches[i] for i in rng.permutation(len(batches))]
        else:
            order = rng.permutation(n_total)
            epoch_batches = []
            for start in range(0, n_total, batch_size):
                chunk = [train_graphs[i] for i in order[start:start + batch_size]]
                width = pad_to if pad_to is not None else max(
                    g.node_count for g in chunk)
                epoch_batches.append(pad_batch(chunk, width))

        sums = {k: 0.0 for k in HISTORY_FIELDS[1:]}
        for bi, batch in enumerate(epoch_batches):
            out = forward_batch(params, cfg, batch.adjacency_padded,
                                batch.attributes_padded, batch.node_mask)
            bl = batch_losses(out, batch.adjacency_padded,
                              batch.attributes_padded, batch.node_mask, cfg)
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


def score_graphs(params: ModelParams, cfg: ModelConfig, graphs: list[Graph],
                 batch_size: int = 300) -> np.ndarray:
    """Anomaly scores aligned to the input order, computed in size buckets."""
    if not graphs:
        return np.zeros(0)
    order = sorted(range(len(graphs)),
                   key=lambda i: (graphs[i].node_count, graphs[i].graph_id))
    pad_to = None if cfg.masked_losses else max(cfg.max_nodes,
                                                max(g.node_count for g in graphs))
    scores = np.zeros(len(graphs))
    for start in range(0, len(order), batch_size):
        idx = order[start:start + batch_size]
        chunk = [graphs[i] for i in idx]
        width = pad_to if pad_to is not None else max(g.node_count for g in chunk)
        batch = pad_batch(chunk, width)
        scores[idx] = score_batch(params, cfg, batch.adjacency_padded,
                                  batch.attributes_padded, batch.node_mask)
    return scores


def config_dict(config: TrainConfig) -> dict:
    return dataclasses.asdict(config)
