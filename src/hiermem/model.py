"""Memory-augmented graph autoencoder.

A three-layer GCN encoder maps each padded graph to node representations and
a mean-pooled graph representation. Two learned memory banks approximate what
the encoder produced: graph-level blocks approximate the pooled vector, and
node-level blocks approximate the whole node matrix. The decoders reconstruct
adjacency (inner product + sigmoid) and attributes (two-layer GCN) from the
memory approximation, so reconstruction quality reflects how well the stored
normal patterns explain the input. The anomaly score is the reconstruction
error plus the graph-level approximation error.

Variants for ablations:
  full      both memory banks (default)
  no_node   decoders read the encoder output directly
  no_graph  graph bank removed; no approximation term anywhere
  gae_only  both banks removed; plain graph autoencoder
Disabled banks have no parameter tensors at all, so nothing can leak
gradients into them.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Graph
from .errors import CheckpointError, ConfigurationError, StructuralError

VARIANTS = ("full", "no_node", "no_graph", "gae_only")


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    hidden_dim: int = 512
    latent_dim: int = 256
    num_node_memory: int = 3
    num_graph_memory: int = 3
    max_nodes: int = 0
    shrink_lambda: float = 0.01
    alpha: float = 0.01
    variant: str = "full"
    masked_losses: bool = True
    normalize_losses: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.num_node_memory < 1 or self.num_graph_memory < 1:
            raise ConfigurationError("memory bank sizes must be >= 1")
        if not 0.0 <= self.shrink_lambda < 1.0:
            raise ConfigurationError(
                f"shrink_lambda must be in [0, 1), got {self.shrink_lambda}")
        if self.alpha < 0:
            raise ConfigurationError(f"alpha must be >= 0, got {self.alpha}")
        if min(self.feature_dim, self.hidden_dim, self.latent_dim) < 1:
            raise ConfigurationError("layer widths must be positive")

    @property
    def uses_node_memory(self) -> bool:
        return self.variant in ("full", "no_graph")

    @property
    def uses_graph_memory(self) -> bool:
        return self.variant in ("full", "no_node")


@dataclass
class ModelParams:
    """All learnable tensors. Memory fields are None for disabled variants."""
    enc1: Tensor
    enc2: Tensor
    enc3: Tensor
    dec1: Tensor
    dec2: Tensor
    node_memory: Tensor | None
    graph_memory: Tensor | None

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        pairs = [("enc1", self.enc1), ("enc2", self.enc2), ("enc3", self.enc3),
                 ("dec1", self.dec1), ("dec2", self.dec2),
                 ("node_memory", self.node_memory),
                 ("graph_memory", self.graph_memory)]
        return [(n, t) for n, t in pairs if t is not None]

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def tensor_names(self) -> list[str]:
        return [n for n, _ in self.named_tensors()]

    def detached(self) -> "ModelParams":
        """The same arrays as constants: a forward over them records no tape."""
        return dataclasses.replace(
            self, **{n: Tensor(t.data) for n, t in self.named_tensors()})


@dataclass
class MemoryAttention:
    """Addressing result for one graph: simplex weights and what they select."""
    weights: np.ndarray
    approximation: np.ndarray


@dataclass
class LossBreakdown:
    rec_structure: float
    rec_attribute: float
    approximation: float
    entropy: float
    total: float


@dataclass
class BatchLosses:
    """Per-graph loss terms as tape tensors, each shaped (B,)."""
    rec_structure: Tensor
    rec_attribute: Tensor
    approximation: Tensor
    entropy: Tensor
    total: Tensor


@dataclass
class ModelOutputs:
    """Forward-pass tensors kept for losses and diagnostics."""
    h_nodes: Tensor
    h_graph: Tensor | None
    h_graph_hat: Tensor | None
    h_hat: Tensor
    a_hat: Tensor
    x_hat: Tensor
    node_weights_raw: Tensor | None
    node_weights: Tensor | None
    graph_weights_raw: Tensor | None
    graph_weights: Tensor | None


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    shapes = {
        "enc1": (cfg.feature_dim, cfg.hidden_dim),
        "enc2": (cfg.hidden_dim, cfg.hidden_dim),
        "enc3": (cfg.hidden_dim, cfg.latent_dim),
        "dec1": (cfg.latent_dim, cfg.latent_dim),
        "dec2": (cfg.latent_dim, cfg.feature_dim),
    }
    if cfg.uses_node_memory:
        shapes["node_memory"] = (cfg.num_node_memory, cfg.max_nodes, cfg.latent_dim)
    if cfg.uses_graph_memory:
        shapes["graph_memory"] = (cfg.num_graph_memory, cfg.latent_dim)
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> ModelParams:
    """Glorot-uniform GCN weights; memory blocks uniform in +-1/sqrt(D)."""
    if cfg.uses_node_memory and cfg.max_nodes < 1:
        raise ConfigurationError("max_nodes must be set before initializing "
                                 "node memory")

    def glorot(shape):
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return Tensor(rng.uniform(-limit, limit, shape).astype(dtype),
                      requires_grad=True)

    def memory(shape):
        limit = 1.0 / np.sqrt(cfg.latent_dim)
        return Tensor(rng.uniform(-limit, limit, shape).astype(dtype),
                      requires_grad=True)

    shapes = param_shapes(cfg)
    return ModelParams(
        enc1=glorot(shapes["enc1"]),
        enc2=glorot(shapes["enc2"]),
        enc3=glorot(shapes["enc3"]),
        dec1=glorot(shapes["dec1"]),
        dec2=glorot(shapes["dec2"]),
        node_memory=memory(shapes["node_memory"]) if cfg.uses_node_memory else None,
        graph_memory=memory(shapes["graph_memory"]) if cfg.uses_graph_memory else None,
    )


# ---------------------------------------------------------------------------
# forward pieces

def normalize_adjacency(adjacency: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization with self-loops on real nodes only.

    Padded rows/columns stay exactly zero, so they contribute nothing to any
    later matrix product.
    """
    adjacency = np.asarray(adjacency)
    mask = np.asarray(mask)
    single = adjacency.ndim == 2
    adj = adjacency[None] if single else adjacency
    msk = mask[None] if single else mask
    if not np.array_equal(adj, np.swapaxes(adj, -1, -2)):
        raise StructuralError("adjacency must be symmetric")
    n = adj.shape[-1]
    tilde = adj.astype(np.result_type(adj.dtype, np.float32), copy=True)
    idx = np.arange(n)
    tilde[:, idx, idx] += msk
    deg = tilde.sum(axis=-1)
    with np.errstate(divide="ignore"):
        dinv = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
    out = dinv[:, :, None] * tilde * dinv[:, None, :]
    return out[0] if single else out


def encode(params: ModelParams, a_norm: np.ndarray, x: np.ndarray) -> Tensor:
    """Three GCN layers, ReLU each. Padded rows come out exactly zero because
    their rows of a_norm and x are zero."""
    if x.shape[-1] != params.enc1.data.shape[0]:
        raise ConfigurationError(
            f"attribute dim {x.shape[-1]} does not match encoder "
            f"input dim {params.enc1.data.shape[0]}")
    h = ad.relu(ad.matmul(a_norm, ad.matmul(x, params.enc1)))
    h = ad.relu(ad.matmul(a_norm, ad.matmul(h, params.enc2)))
    h = ad.relu(ad.matmul(a_norm, ad.matmul(h, params.enc3)))
    return h


def _attend_graph(h_graph: Tensor, memory: Tensor, lam: float):
    sims = ad.cosine_rows(h_graph, memory)
    raw = ad.row_softmax(sims)
    weights = ad.hard_shrink(raw, lam)
    approx = ad.matmul(weights, memory)
    return raw, weights, approx


def _attend_nodes(h_nodes: Tensor, memory: Tensor, mask: np.ndarray, lam: float):
    b, n, d = h_nodes.data.shape
    if n > memory.data.shape[1]:
        raise ConfigurationError(
            f"batch width {n} exceeds memory width {memory.data.shape[1]}")
    if n < memory.data.shape[1]:
        # pad rows beyond the batch width are masked out of the similarity
        # and of every loss, so cropping the bank is exact
        memory = ad.crop(memory, 1, n)
    p = memory.data.shape[0]
    sims = ad.masked_matrix_cosine(h_nodes, memory, mask)
    raw = ad.row_softmax(sims)
    weights = ad.hard_shrink(raw, lam)
    flat = ad.matmul(weights, ad.reshape(memory, (p, n * d)))
    approx = ad.mul(ad.reshape(flat, (b, n, d)),
                    mask[:, :, None].astype(h_nodes.data.dtype))
    return raw, weights, approx


def decode_structure(h_hat: Tensor) -> Tensor:
    return ad.sigmoid(ad.matmul(h_hat, ad.transpose_last2(h_hat)))


def decode_attributes(params: ModelParams, h_hat: Tensor,
                      a_norm: np.ndarray) -> Tensor:
    t = ad.relu(ad.matmul(a_norm, ad.matmul(h_hat, params.dec1)))
    return ad.matmul(a_norm, ad.matmul(t, params.dec2))


def forward_batch(params: ModelParams, cfg: ModelConfig, adj: np.ndarray,
                  x: np.ndarray, mask: np.ndarray) -> ModelOutputs:
    """Run the full network on a zero-padded batch.

    adj: (B,N,N) binary symmetric, x: (B,N,d), mask: (B,N). N may be smaller
    than cfg.max_nodes when the batch holds only small graphs.
    """
    dtype = params.enc1.data.dtype
    adj = np.asarray(adj, dtype=dtype)
    x = np.asarray(x, dtype=dtype)
    mask = np.asarray(mask, dtype=dtype)
    a_norm = normalize_adjacency(adj, mask)
    h = encode(params, a_norm, x)

    h_graph = None
    h_graph_hat = None
    graph_raw = graph_w = None
    if cfg.uses_graph_memory:
        h_graph = ad.masked_mean(h, mask)
        graph_raw, graph_w, h_graph_hat = _attend_graph(
            h_graph, params.graph_memory, cfg.shrink_lambda)

    node_raw = node_w = None
    if cfg.uses_node_memory:
        node_raw, node_w, h_hat = _attend_nodes(
            h, params.node_memory, mask, cfg.shrink_lambda)
    else:
        h_hat = h

    a_hat = decode_structure(h_hat)
    x_hat = decode_attributes(params, h_hat, a_norm)
    return ModelOutputs(h_nodes=h, h_graph=h_graph, h_graph_hat=h_graph_hat,
                        h_hat=h_hat, a_hat=a_hat, x_hat=x_hat,
                        node_weights_raw=node_raw, node_weights=node_w,
                        graph_weights_raw=graph_raw, graph_weights=graph_w)


# ---------------------------------------------------------------------------
# losses and scores

def batch_losses(out: ModelOutputs, adj: np.ndarray, x: np.ndarray,
                 mask: np.ndarray, cfg: ModelConfig) -> BatchLosses:
    """Per-graph loss terms, each a (B,) tensor.

    total = rec_structure + rec_attribute + approximation + alpha * entropy.
    """
    dtype = out.h_hat.data.dtype
    adj = np.asarray(adj, dtype=dtype)
    x = np.asarray(x, dtype=dtype)
    mask = np.asarray(mask, dtype=dtype)
    b, n = mask.shape
    d = x.shape[-1]

    if cfg.masked_losses:
        mask2 = mask[:, :, None] * mask[:, None, :]
        maskx = np.broadcast_to(mask[:, :, None], x.shape)
        n_real = mask.sum(axis=1)
        cnt_struct = n_real * n_real
        cnt_attr = n_real * d
    else:
        mask2 = maskx = None
        cnt_struct = np.full(b, float(n * n))
        cnt_attr = np.full(b, float(n * d))

    # the inner-product decoder scores each node against itself, so the
    # structure target carries self-loops on real nodes
    idx = np.arange(n)
    target = adj.copy()
    target[:, idx, idx] += mask

    rec_s = ad.frobenius_sq(out.a_hat, target, mask=mask2, batch_dims=1)
    rec_a = ad.frobenius_sq(out.x_hat, x, mask=maskx, batch_dims=1)

    if out.h_graph_hat is not None:
        approx = ad.frobenius_sq(out.h_graph_hat, out.h_graph, batch_dims=1)
    else:
        approx = Tensor(np.zeros(b, dtype=dtype))

    if cfg.normalize_losses:
        rec_s = ad.mul(rec_s, (1.0 / cnt_struct).astype(dtype))
        rec_a = ad.mul(rec_a, (1.0 / cnt_attr).astype(dtype))
        if out.h_graph_hat is not None:
            approx = ad.mul(approx, 1.0 / cfg.latent_dim)

    ent_terms = [ad.entropy(w) for w in (out.node_weights, out.graph_weights)
                 if w is not None]
    if ent_terms:
        entropy = ent_terms[0]
        for t in ent_terms[1:]:
            entropy = ad.add(entropy, t)
    else:
        entropy = Tensor(np.zeros(b, dtype=dtype))

    total = ad.add(ad.add(rec_s, rec_a),
                   ad.add(approx, ad.mul(entropy, cfg.alpha)))
    return BatchLosses(rec_structure=rec_s, rec_attribute=rec_a,
                       approximation=approx, entropy=entropy, total=total)


def _graph_arrays(graph: Graph, cfg: ModelConfig):
    # masked losses are padding-invariant, so a lone graph needs no padding;
    # the unmasked ablation reads the literal max_nodes-padded matrices
    n = graph.node_count if cfg.masked_losses else max(cfg.max_nodes,
                                                       graph.node_count)
    adj = np.zeros((1, n, n))
    x = np.zeros((1, n, graph.attributes.shape[1]))
    mask = np.zeros((1, n))
    k = graph.node_count
    adj[0, :k, :k] = graph.adjacency
    x[0, :k, :] = graph.attributes
    mask[0, :k] = 1.0
    return adj, x, mask


def compute_losses(graph: Graph, params: ModelParams,
                   cfg: ModelConfig) -> LossBreakdown:
    adj, x, mask = _graph_arrays(graph, cfg)
    out = forward_batch(params.detached(), cfg, adj, x, mask)
    bl = batch_losses(out, adj, x, mask, cfg)
    return LossBreakdown(
        rec_structure=float(bl.rec_structure.data[0]),
        rec_attribute=float(bl.rec_attribute.data[0]),
        approximation=float(bl.approximation.data[0]),
        entropy=float(bl.entropy.data[0]),
        total=float(bl.total.data[0]),
    )


def anomaly_score(graph: Graph, params: ModelParams, cfg: ModelConfig) -> float:
    """Reconstruction error plus graph-approximation error (entropy excluded).

    Higher means more anomalous. Variants without the graph bank have no
    approximation term by construction.
    """
    lb = compute_losses(graph, params, cfg)
    return lb.rec_structure + lb.rec_attribute + lb.approximation


def score_batch(params: ModelParams, cfg: ModelConfig, adj: np.ndarray,
                x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Anomaly scores for a padded batch in one forward pass, with no tape."""
    out = forward_batch(params.detached(), cfg, adj, x, mask)
    bl = batch_losses(out, adj, x, mask, cfg)
    return (bl.rec_structure.data + bl.rec_attribute.data
            + bl.approximation.data).astype(np.float64)


# ---------------------------------------------------------------------------
# single-graph attention views (detached)

def graph_memory_attend(h_graph: np.ndarray, graph_memory: np.ndarray,
                        lam: float) -> MemoryAttention:
    _, w, approx = _attend_graph(Tensor(np.asarray(h_graph)[None]),
                                 Tensor(np.asarray(graph_memory)), lam)
    return MemoryAttention(weights=w.data[0].copy(),
                           approximation=approx.data[0].copy())


def node_memory_attend(h_nodes: np.ndarray, node_memory: np.ndarray,
                       mask: np.ndarray, lam: float) -> MemoryAttention:
    _, w, approx = _attend_nodes(Tensor(np.asarray(h_nodes)[None]),
                                 Tensor(np.asarray(node_memory)),
                                 np.asarray(mask)[None], lam)
    return MemoryAttention(weights=w.data[0].copy(),
                           approximation=approx.data[0].copy())


def hard_shrink_weights(weights: np.ndarray, lam: float) -> np.ndarray:
    """Threshold-and-renormalize a simplex vector (see autodiff.hard_shrink)."""
    return ad.hard_shrink(Tensor(np.asarray(weights, dtype=float)), lam).data


# ---------------------------------------------------------------------------
# checkpoints

_CONFIG_KEY = "__config__"


def save_params(path, params: ModelParams, cfg: ModelConfig) -> None:
    """Write a self-describing npz: little-endian arrays plus the config."""
    arrays = {}
    for name, t in params.named_tensors():
        arr = t.data
        le = arr.dtype.newbyteorder("<")
        arrays[name] = arr.astype(le, copy=False)
    arrays[_CONFIG_KEY] = np.array(json.dumps(dataclasses.asdict(cfg),
                                              sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_params(path) -> tuple[ModelParams, ModelConfig]:
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as z:
        if _CONFIG_KEY not in z:
            raise CheckpointError(f"{path} has no embedded config")
        cfg_dict = json.loads(str(z[_CONFIG_KEY]))
        try:
            cfg = ModelConfig(**cfg_dict)
        except TypeError as e:
            raise CheckpointError(f"bad config in {path}: {e}") from None
        expected = param_shapes(cfg)
        loaded = {}
        for name, shape in expected.items():
            if name not in z:
                raise CheckpointError(f"{path} is missing tensor {name!r}")
            arr = z[name]
            if arr.shape != shape:
                raise CheckpointError(
                    f"tensor {name!r} has shape {arr.shape}, expected {shape}")
            if not np.issubdtype(arr.dtype, np.floating):
                raise CheckpointError(
                    f"tensor {name!r} has dtype {arr.dtype}, expected a float dtype")
            first = next(iter(loaded.values()), None)
            if first is not None and arr.dtype != first.dtype:
                raise CheckpointError(
                    f"tensor {name!r} has dtype {arr.dtype}, but the checkpoint's "
                    f"other tensors are {first.dtype}")
            loaded[name] = Tensor(np.ascontiguousarray(arr), requires_grad=True)
    return ModelParams(
        enc1=loaded["enc1"], enc2=loaded["enc2"], enc3=loaded["enc3"],
        dec1=loaded["dec1"], dec2=loaded["dec2"],
        node_memory=loaded.get("node_memory"),
        graph_memory=loaded.get("graph_memory"),
    ), cfg
