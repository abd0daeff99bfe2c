"""Shared fixtures: small graphs, a toy dataset on disk, tiny configs."""

import ctypes
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hiermem import blas
from hiermem.data import Graph, GraphDataset
from hiermem.model import ModelConfig, init_params, ragged_batch
from hiermem.training import TrainConfig


ROOT = Path(__file__).resolve().parent.parent


def pytest_report_header(config):
    """The BLAS that ran: numpy's build names one kernel, while OpenBLAS
    picks its own at load time from the CPU and OPENBLAS_CORETYPE."""
    build = np.__config__.CONFIG["Build Dependencies"]["blas"]
    core = "unknown"
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                       .glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_get_corename64_"):
            lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
            core = lib.scipy_openblas_get_corename64_().decode()
            break
    return (f"numpy {np.__version__}, OpenBLAS {build.get('version')} "
            f"(build: {build.get('openblas configuration', '?')}), "
            f"runtime core {core}, {blas.threads() or 'unknown'} BLAS threads")


def aids_corpus():
    """The benchmark's AIDS-shaped corpus generator, `perfbench/corpus.py`."""
    spec = importlib.util.spec_from_file_location(
        "aids_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairwise_auc(scores, labels):
    """The AUC oracle: the exhaustive Mann-Whitney count over every
    (anomalous, normal) pair, 1 for a win and 1/2 for a tie."""
    scores, labels = np.asarray(scores, dtype=float), np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        wins += (p > neg).sum() + 0.5 * (p == neg).sum()
    return wins / (len(pos) * len(neg))


def build_graph(edges, num_nodes, label=0, graph_id=1, attr_dim=2, seed=0):
    adj = np.zeros((num_nodes, num_nodes))
    for i, j in edges:
        adj[i, j] = adj[j, i] = 1.0
    rng = np.random.default_rng(seed + graph_id)
    attrs = rng.normal(size=(num_nodes, attr_dim))
    return Graph(adjacency=adj, attributes=attrs, label=label,
                 node_count=num_nodes, graph_id=graph_id)


def ragged(graphs, dtype=np.float32):
    """The prepared model batch of `graphs` in their order: one run per
    stretch of consecutive graphs of equal node count."""
    return ragged_batch(graphs, dtype)


@pytest.fixture
def triangle_graph():
    return build_graph([(0, 1), (1, 2), (0, 2)], 3)


@pytest.fixture
def path_graph():
    return build_graph([(0, 1), (1, 2), (2, 3)], 4, graph_id=2)


@pytest.fixture
def toy_dataset():
    graphs = []
    rng = np.random.default_rng(11)
    gid = 1
    for label, count in ((0, 12), (1, 6)):
        for _ in range(count):
            n = int(rng.integers(3, 7))
            p = 0.3 if label == 0 else 0.8
            adj = (rng.random((n, n)) < p).astype(float)
            adj = np.triu(adj, 1)
            adj = adj + adj.T
            attrs = rng.normal(size=(n, 2))
            graphs.append(Graph(adjacency=adj, attributes=attrs, label=label,
                                node_count=n, graph_id=gid))
            gid += 1
    return GraphDataset(graphs=graphs, attribute_dim=2, n_max=6, name="toy")


@pytest.fixture
def toy_model_config():
    return ModelConfig(feature_dim=2, hidden_dim=8, latent_dim=5,
                       num_node_memory=2, num_graph_memory=3, max_nodes=6,
                       shrink_lambda=0.01, alpha=0.01)


@pytest.fixture
def toy_params(toy_model_config):
    return init_params(toy_model_config, np.random.default_rng(0))


@pytest.fixture
def toy_train_config():
    return TrainConfig(epochs=3, batch_size=8, hidden_dim=8, latent_dim=5,
                       num_node_memory=2, num_graph_memory=2, seed=0)


def write_tud_files(root, name):
    """Write a 3-graph dataset in the four-file benchmark layout by hand.

    Graph 1: triangle (nodes 1..3), class 0.
    Graph 2: single edge (nodes 4..5), class 1.
    Graph 3: path of 3 (nodes 6..8), class 0.
    """
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    edges = [(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2),
             (4, 5), (5, 4),
             (6, 7), (7, 6), (7, 8), (8, 7)]
    (d / f"{name}_A.txt").write_text(
        "".join(f"{i}, {j}\n" for i, j in edges))
    (d / f"{name}_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in (1, 1, 1, 2, 2, 3, 3, 3)))
    (d / f"{name}_graph_labels.txt").write_text("0\n1\n0\n")
    rows = [(1.0, 0.5), (2.0, 0.5), (3.0, 0.5), (4.0, 1.5),
            (5.0, 1.5), (6.0, 2.5), (7.0, 2.5), (8.0, 2.5)]
    (d / f"{name}_node_attributes.txt").write_text(
        "".join(f"{a}, {b}\n" for a, b in rows))
    return d


@pytest.fixture
def tud_dir(tmp_path):
    write_tud_files(tmp_path, "TOY")
    return tmp_path
