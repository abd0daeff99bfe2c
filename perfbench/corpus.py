"""Deterministic AIDS-shaped graph corpus.

The real AIDS collection (as used by GLocalKD, Ma et al., WSDM 2022) has
2000 molecule graphs with 2 to 95 nodes (median near 12), 4-dim node
attributes and a 20% minority class that becomes the anomalous class. This
module generates a collection of that shape from a seed alone.

Node counts are not drawn independently: each class gets the same multiset
of counts (log-normal quantiles clipped to 2..95) and the seed only decides
which graph gets which count. The padded work a corpus causes is then nearly
the same for every seed, so timings compare across seeds while the graphs
themselves differ.

Normal graphs are sparse trees with a few ring closures and centred
attributes. Anomalies carry several times more ring closures and shifted
attributes, so both reconstruction terms separate them.
"""

from __future__ import annotations

import hashlib
from statistics import NormalDist

import numpy as np

from hiermem.data import Graph, GraphDataset

MIN_NODES = 2
MAX_NODES = 95
MEDIAN_NODES = 12
SIGMA = 0.62            # log-normal spread; puts the top quantiles at 95
ATTR_DIM = 4
ANOMALY_FRACTION = 0.2
NORMAL_EXTRA_EDGES = 0.1     # ring closures per node
ANOMALY_EXTRA_EDGES = 1.0
ANOMALY_ATTR_SHIFT = np.array([4.0, -4.0, 2.0, 0.0])


def node_counts(num: int) -> np.ndarray:
    """The fixed multiset of node counts for `num` graphs of one class."""
    z = NormalDist()
    qs = [z.inv_cdf((i + 0.5) / num) for i in range(num)]
    raw = np.rint(MEDIAN_NODES * np.exp(SIGMA * np.asarray(qs)))
    counts = np.clip(raw, MIN_NODES, MAX_NODES).astype(int)
    # both extremes in every class, so every corpus pads to the full width
    counts[0], counts[-1] = MIN_NODES, MAX_NODES
    return counts


def _adjacency(n: int, extra_per_node: float,
               rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((n, n))
    if n > 1:
        # random recursive tree: node i attaches to an earlier node
        parents = (rng.random(n - 1) * np.arange(1, n)).astype(int)
        children = np.arange(1, n)
        adj[children, parents] = adj[parents, children] = 1.0
    extra = int(round(extra_per_node * n))
    if n > 2 and extra:
        u = rng.integers(0, n, extra)
        v = rng.integers(0, n, extra)
        keep = u != v
        adj[u[keep], v[keep]] = adj[v[keep], u[keep]] = 1.0
    return adj


def make_aids_like(num_graphs: int, seed: int,
                   name: str = "AIDSLIKE") -> GraphDataset:
    """An AIDS-shaped collection of `num_graphs` graphs, fixed by `seed`."""
    num_anomalous = int(round(ANOMALY_FRACTION * num_graphs))
    num_normal = num_graphs - num_anomalous
    if not 0 < num_anomalous < num_normal:
        raise ValueError(f"{num_graphs} graphs leave no strict minority class")
    rng = np.random.default_rng(seed)
    labels = np.zeros(num_graphs, dtype=int)
    labels[rng.choice(num_graphs, num_anomalous, replace=False)] = 1
    sizes = np.zeros(num_graphs, dtype=int)
    for label, count in ((0, num_normal), (1, num_anomalous)):
        members = np.flatnonzero(labels == label)
        sizes[members] = rng.permutation(node_counts(count))

    graphs = []
    for gid, (n, label) in enumerate(zip(sizes, labels)):
        anomalous = label == 1
        adj = _adjacency(int(n), ANOMALY_EXTRA_EDGES if anomalous
                         else NORMAL_EXTRA_EDGES, rng)
        attr = rng.normal(0.0, 1.0, (n, ATTR_DIM))
        if anomalous:
            attr += ANOMALY_ATTR_SHIFT
        graphs.append(Graph(adjacency=adj, attributes=attr, label=int(label),
                            node_count=int(n), graph_id=gid))
    return GraphDataset(graphs=graphs, attribute_dim=ATTR_DIM,
                        n_max=int(sizes.max()), name=name)


def dataset_digest(dataset: GraphDataset) -> str:
    """SHA-256 over every graph's label, adjacency and attributes, in order.

    Two datasets with equal digests hold the same graphs, so a corpus parsed
    back from disk can be checked against the one that was written.
    """
    h = hashlib.sha256()
    for g in dataset.graphs:
        h.update(np.asarray([g.graph_id, g.label, g.node_count]).tobytes())
        h.update(np.ascontiguousarray(g.adjacency, dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(g.attributes, dtype=np.float64).tobytes())
    return h.hexdigest()
