"""Memory-augmented graph autoencoder.

A three-layer GCN encoder maps each graph to node representations and a
mean-pooled graph representation. Two learned memory banks approximate what
the encoder produced: graph-level blocks approximate the pooled vector, and
node-level blocks approximate the whole node matrix. Both banks are read
through one attention path (`_attend`): a graph block is a node block of one
row, read by the pooled vectors as graphs of one node. The decoders reconstruct
adjacency (inner product + sigmoid) and attributes (two-layer GCN) from the
memory approximation, so reconstruction quality reflects how well the stored
normal patterns explain the input. The anomaly score is the reconstruction
error plus the graph-level approximation error.

A batch is ragged (`RaggedBatch`): the real node rows of all its graphs,
grouped into runs of equal node count. `ragged_batch`, the only route from
graphs to the model, stacks each run at its own count (`data.pad_batch`), so
nothing is computed on padding: every `h @ W` is one GEMM over the batch's
node rows, and each per-graph product runs once per run (see `autodiff`).
The parameter tensors are named once, in `param_shapes`.

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
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Graph, pad_batch
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
    """All learnable tensors in `param_shapes` order; a disabled bank is None."""
    enc1: Tensor
    enc2: Tensor
    enc3: Tensor
    dec1: Tensor
    dec2: Tensor
    node_memory: Tensor | None = None
    graph_memory: Tensor | None = None

    def named_tensors(self) -> list[tuple[str, Tensor]]:
        pairs = [(f.name, getattr(self, f.name))
                 for f in dataclasses.fields(self)]
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
class BatchLosses:
    """Per-graph loss terms as tape tensors, each shaped (B,)."""
    rec_structure: Tensor
    rec_attribute: Tensor
    approximation: Tensor
    entropy: Tensor
    total: Tensor


@dataclass(eq=False)
class RaggedBatch:
    """A batch of graphs as runs of equal node count; nothing is padded.

    runs: one (count, size) pair per run, in batch order. a_norm: one
    normalized adjacency stack (count, size, size) per run. x: (sum n, d)
    attribute rows, each graph's rows contiguous. target: (sum n^2,) the
    structure target, each graph's adjacency plus self-loops flattened.
    node_counts: (B,) nodes per graph.
    """
    runs: tuple[tuple[int, int], ...]
    a_norm: tuple[np.ndarray, ...]
    x: np.ndarray
    target: np.ndarray
    node_counts: np.ndarray


def ragged_batch(graphs: Sequence[Graph], dtype) -> RaggedBatch:
    """Prepare a batch of `graphs`, in their order.

    Each stretch of consecutive graphs of equal node count is one run,
    stacked unpadded at that count: (count, size, size) and (count, size, d).
    Everything the forward pass and the losses read but never change is
    built here, once, in `dtype`.
    """
    shapes, a_norm, xs, targets = [], [], [], []
    for size, run in itertools.groupby(graphs, key=lambda g: g.node_count):
        adj, x = pad_batch(list(run), size)
        count = len(adj)
        shapes.append((count, size))
        a_norm.append(normalize_adjacency(adj).astype(dtype, copy=False))
        xs.append(np.asarray(x, dtype=dtype).reshape(count * size, -1))
        # the inner-product decoder scores each node against itself, so the
        # structure target carries self-loops
        targets.append((adj + np.eye(size)).astype(dtype).reshape(-1))
    return RaggedBatch(runs=tuple(shapes), a_norm=tuple(a_norm),
                       x=np.concatenate(xs), target=np.concatenate(targets),
                       node_counts=np.repeat([n for _, n in shapes],
                                             [c for c, _ in shapes]))


@dataclass
class ModelOutputs:
    """Forward-pass tensors kept for losses and diagnostics.

    Node-wise tensors (h_nodes, h_hat, x_hat) are (sum n, .) rows in the
    layout of `batch`; a_hat_cells holds each graph's decoded n x n block,
    flattened; per-graph tensors are (B, .).
    """
    batch: RaggedBatch
    h_nodes: Tensor
    h_graph: Tensor | None
    h_graph_hat: Tensor | None
    h_hat: Tensor
    a_hat_cells: Tensor
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
        shapes["graph_memory"] = (cfg.num_graph_memory, 1, cfg.latent_dim)
    return shapes


def init_params(cfg: ModelConfig, rng: np.random.Generator,
                dtype=np.float32) -> ModelParams:
    """Glorot-uniform GCN weights; memory blocks, the 3-d tensors, uniform in
    +-1/sqrt(D). Tensors are drawn in `param_shapes` order."""
    if cfg.uses_node_memory and cfg.max_nodes < 1:
        raise ConfigurationError("max_nodes must be set before initializing "
                                 "node memory")
    tensors = {}
    for name, shape in param_shapes(cfg).items():
        limit = (1.0 / np.sqrt(cfg.latent_dim) if len(shape) == 3
                 else np.sqrt(6.0 / (shape[0] + shape[1])))
        tensors[name] = Tensor(rng.uniform(-limit, limit, shape).astype(dtype),
                               requires_grad=True)
    return ModelParams(**tensors)


# ---------------------------------------------------------------------------
# forward pieces

def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization with self-loops, D^-1/2 (A + I) D^-1/2,
    of one (n, n) adjacency or of each graph of a (count, n, n) stack."""
    adj = np.asarray(adjacency)
    if not np.array_equal(adj, np.swapaxes(adj, -1, -2)):
        raise StructuralError("adjacency must be symmetric")
    n = adj.shape[-1]
    # a bool adjacency (a parsed graph's) is normalised in float64, as a
    # 0/1 float64 one is
    dtype = np.float64 if adj.dtype == bool else np.result_type(adj.dtype,
                                                                np.float32)
    tilde = adj.astype(dtype, copy=True)
    idx = np.arange(n)
    tilde[..., idx, idx] += 1
    # the self-loop makes every degree at least 1
    dinv = 1.0 / np.sqrt(tilde.sum(axis=-1))
    return dinv[..., :, None] * tilde * dinv[..., None, :]


def encode(params: ModelParams, a_norm, x: np.ndarray) -> Tensor:
    """Three GCN layers, ReLU each, over node rows. Each ReLU is fused into
    the op that makes its input, so a layer keeps one activation array.

    a_norm: the normalized adjacency, one (count, n, n) stack per run; x:
    (sum n, d) attribute rows. Returns (sum n, D) node rows.
    """
    if x.shape[-1] != params.enc1.data.shape[0]:
        raise ConfigurationError(
            f"attribute dim {x.shape[-1]} does not match encoder "
            f"input dim {params.enc1.data.shape[0]}")
    # (a_norm @ x) @ W1 equals a_norm @ (x @ W1), but x has a few columns
    # where W1 has hundreds: the propagation runs on the narrow side and
    # records nothing on the tape. Each h @ W is bound to h before it is
    # propagated, so without a tape the previous layer's rows are freed first
    h = ad.matmul(ad.propagate(a_norm, x), params.enc1, relu=True)
    h = ad.matmul(h, params.enc2)
    h = ad.propagate(a_norm, h, relu=True)
    h = ad.matmul(h, params.enc3)
    return ad.propagate(a_norm, h, relu=True)


def _attend(h: Tensor, memory: Tensor, runs, lam: float):
    """MemAE attention of each graph over (P, N, D) memory blocks: cosine,
    softmax, hard shrink, then the weighted readout of the blocks cropped to
    the graph's node count. Returns (raw weights, shrunk weights, readout)."""
    raw = ad.row_softmax(ad.matrix_cosine(h, memory, runs))
    weights = ad.hard_shrink(raw, lam)
    return raw, weights, ad.block_readout(weights, memory, runs)


def _attend_graph(h_graph: Tensor, memory: Tensor, lam: float):
    # the graph bank is a node bank of one-row blocks, read by the pooled
    # vectors as graphs of one node
    return _attend(h_graph, memory, ((h_graph.data.shape[0], 1),), lam)


def _attend_nodes(h_nodes: Tensor, memory: Tensor, runs, lam: float):
    width = max(size for _, size in runs)
    if width > memory.data.shape[1]:
        raise ConfigurationError(
            f"batch width {width} exceeds memory width {memory.data.shape[1]}")
    # a graph of n nodes reads the first n rows of every block
    return _attend(h_nodes, memory, runs, lam)


def decode_structure(h_hat: Tensor, runs) -> Tensor:
    """sigmoid(H H^T) of each graph, as flattened n x n cells (sum n^2,)."""
    return ad.sigmoid(ad.gram(h_hat, runs))


def decode_attributes(params: ModelParams, h_hat: Tensor, a_norm) -> Tensor:
    """Two GCN layers from node rows back to attribute rows; as in `encode`,
    each t @ W is bound to t before it is propagated."""
    t = ad.matmul(h_hat, params.dec1)
    t = ad.propagate(a_norm, t, relu=True)
    t = ad.matmul(t, params.dec2)
    return ad.propagate(a_norm, t)


def forward_batch(params: ModelParams, cfg: ModelConfig,
                  batch: RaggedBatch) -> ModelOutputs:
    """Run the full network on one prepared batch (`ragged_batch`)."""
    h = encode(params, batch.a_norm, batch.x)

    h_graph = None
    h_graph_hat = None
    graph_raw = graph_w = None
    if cfg.uses_graph_memory:
        h_graph = ad.graph_mean(h, batch.runs)
        graph_raw, graph_w, h_graph_hat = _attend_graph(
            h_graph, params.graph_memory, cfg.shrink_lambda)

    node_raw = node_w = None
    if cfg.uses_node_memory:
        node_raw, node_w, h_hat = _attend_nodes(
            h, params.node_memory, batch.runs, cfg.shrink_lambda)
    else:
        h_hat = h

    a_hat = decode_structure(h_hat, batch.runs)
    x_hat = decode_attributes(params, h_hat, batch.a_norm)
    return ModelOutputs(batch=batch, h_nodes=h, h_graph=h_graph,
                        h_graph_hat=h_graph_hat, h_hat=h_hat,
                        a_hat_cells=a_hat, x_hat=x_hat,
                        node_weights_raw=node_raw, node_weights=node_w,
                        graph_weights_raw=graph_raw, graph_weights=graph_w)


# ---------------------------------------------------------------------------
# losses and scores

def batch_losses(out: ModelOutputs, cfg: ModelConfig) -> BatchLosses:
    """Per-graph loss terms, each a (B,) tensor.

    total = rec_structure + rec_attribute + approximation + alpha * entropy.
    """
    batch = out.batch
    dtype = out.h_hat.data.dtype
    n = batch.node_counts
    b = len(n)

    rec_s = ad.frobenius_sq(out.a_hat_cells, batch.target, segments=n * n)
    rec_a = ad.frobenius_sq(out.x_hat, batch.x, segments=n)

    if out.h_graph_hat is not None:
        approx = ad.frobenius_sq(out.h_graph_hat, out.h_graph,
                                 segments=np.ones(b, dtype=int))
    else:
        approx = Tensor(np.zeros(b, dtype=dtype))

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


def score_batch(params: ModelParams, cfg: ModelConfig,
                batch: RaggedBatch) -> np.ndarray:
    """Anomaly scores for one prepared batch in one forward pass, with no
    tape: reconstruction error plus graph-approximation error, entropy
    excluded. Higher means more anomalous; variants without the graph bank
    have no approximation term."""
    out = forward_batch(params.detached(), cfg, batch)
    bl = batch_losses(out, cfg)
    return (bl.rec_structure.data + bl.rec_attribute.data
            + bl.approximation.data).astype(np.float64)


# ---------------------------------------------------------------------------
# checkpoints

_CONFIG_KEY = "__config__"

# config keys of removed options, with the value the model still computes:
# the padding ablation's losses over real nodes only, and unnormalized terms
_REMOVED_OPTIONS = {"masked_losses": True, "normalize_losses": False}


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
        # older checkpoints carry the flags of removed loss options; each
        # one's default is what this model computes
        for key, default in _REMOVED_OPTIONS.items():
            value = cfg_dict.pop(key, default)
            if value is not default:
                raise CheckpointError(
                    f"{path} was trained with {key}={value!r}, a loss option "
                    "this version no longer computes")
        try:
            cfg = ModelConfig(**cfg_dict)
        except (TypeError, ConfigurationError) as e:
            raise CheckpointError(f"bad config in {path}: {e}") from None
        expected = param_shapes(cfg)
        loaded = {}
        for name, shape in expected.items():
            if name not in z:
                raise CheckpointError(f"{path} is missing tensor {name!r}")
            arr = z[name]
            if len(shape) == 3 and shape[1] == 1 and arr.shape == shape[::2]:
                # older checkpoints store a bank of one-row blocks (the graph
                # bank) as (q, latent) rows
                arr = arr.reshape(shape)
            if arr.shape != shape:
                raise CheckpointError(
                    f"{path}: tensor {name!r} has shape {arr.shape}, "
                    f"expected {shape}")
            if not np.issubdtype(arr.dtype, np.floating):
                raise CheckpointError(
                    f"{path}: tensor {name!r} has dtype {arr.dtype}, "
                    "expected a float dtype")
            # every tensor loads as float32; a value beyond its range
            # becomes inf and is refused as non-finite
            with np.errstate(over="ignore"):
                arr = np.ascontiguousarray(arr, dtype=np.float32)
            if not np.all(np.isfinite(arr)):
                raise CheckpointError(
                    f"{path}: tensor {name!r} holds a non-finite value")
            loaded[name] = Tensor(arr, requires_grad=True)
    return ModelParams(**loaded), cfg
