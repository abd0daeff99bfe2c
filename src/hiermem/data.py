"""Graph dataset handling.

Reads TUDataset-format collections (edge list, graph indicator, graph labels,
optional node attributes), derives anomaly labels by the minority-class rule,
builds stratified cross-validation folds with a held-out contamination pool,
and stacks graphs of one node count for a batch.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, DatasetParseError, StructuralError


@dataclass(eq=False, slots=True)
class Graph:
    """One undirected graph: binary adjacency, node attributes, anomaly label.
    Construction checks every invariant; `parse_tudataset` proves them for a
    whole corpus at once and builds its graphs without these checks. Its
    fields are slots: a corpus of thousands of graphs holds no per-graph
    dict."""
    adjacency: np.ndarray
    attributes: np.ndarray
    label: int
    node_count: int
    graph_id: int

    def __post_init__(self):
        a = self.adjacency
        n = self.node_count
        if n <= 0:
            raise StructuralError(f"graph {self.graph_id}: empty graph")
        if a.shape != (n, n):
            raise StructuralError(f"graph {self.graph_id}: adjacency shape "
                                  f"{a.shape} for {n} nodes")
        if not ((a == 0) | (a == 1)).all():
            raise StructuralError(f"graph {self.graph_id}: adjacency entry not 0 or 1")
        if not (a == a.T).all():
            raise StructuralError(f"graph {self.graph_id}: adjacency not symmetric")
        if a.diagonal().any():
            raise StructuralError(f"graph {self.graph_id}: self-loop present")
        if self.attributes.shape[0] != n:
            raise StructuralError(f"graph {self.graph_id}: {self.attributes.shape[0]} "
                                  f"attribute rows for {n} nodes")
        if not np.isfinite(self.attributes).all():
            raise StructuralError(f"graph {self.graph_id}: non-finite attribute")
        if self.label not in (0, 1):
            raise StructuralError(f"graph {self.graph_id}: label {self.label} "
                                  "not in {0, 1}")


@dataclass(eq=False)
class GraphDataset:
    graphs: list[Graph]
    attribute_dim: int
    n_max: int
    name: str

    def __post_init__(self):
        for g in self.graphs:
            if g.attributes.shape[1] != self.attribute_dim:
                raise StructuralError(f"graph {g.graph_id}: attribute dim "
                                      f"{g.attributes.shape[1]} != {self.attribute_dim}")
            if g.node_count > self.n_max:
                raise StructuralError(f"graph {g.graph_id}: {g.node_count} nodes "
                                      f"exceeds n_max {self.n_max}")

    def labels(self) -> np.ndarray:
        return np.array([g.label for g in self.graphs], dtype=int)


@dataclass(eq=False)
class FoldSplit:
    """One cross-validation fold, as it trains.

    train_graphs holds the non-test normal graphs plus any contaminating
    anomalies; contamination_pool holds the non-test anomalies left out of
    training; seed is the one the fold contaminates and trains under.
    """
    train_graphs: list[Graph]
    test_graphs: list[Graph]
    contamination_pool: list[Graph]
    fold_index: int
    seed: int


# ---------------------------------------------------------------------------
# parsing

def _read_rows(path: Path, kind: type, width: int | None = None) -> np.ndarray:
    """Every non-blank line of a comma-separated file as one row of an array.

    numpy reads the file in one pass, straight from its path. Only when that
    fails (a bad token, a changed column count, a whitespace-only line, no
    rows at all) or finds the wrong width is the file read as text and
    walked line by line, which either raises the typed error naming the
    line or parses what numpy would not.
    """
    if not path.is_file():
        raise DatasetParseError(f"missing dataset file: {path}")
    try:
        with warnings.catch_warnings():
            # numpy warns on a file without rows; the line walk reads it
            warnings.simplefilter("error", UserWarning)
            rows = np.loadtxt(path, dtype=kind, delimiter=",", comments=None,
                              ndmin=2)
    except (ValueError, UserWarning):
        return _read_rows_by_line(path, kind, width)
    if width is not None and rows.shape[1] != width:
        return _read_rows_by_line(path, kind, width)
    return rows


def _read_rows_by_line(path: Path, kind: type,
                       width: int | None) -> np.ndarray:
    rows = []
    # a byte that is not UTF-8 reads as U+FFFD, which the ASCII check below
    # refuses at its line
    for i, line in _numbered_lines(path.read_text(errors="replace")):
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise DatasetParseError(
                f"{path}:{i}: expected {width} values, got {len(parts)}")
        try:
            if "_" in line or not line.isascii():  # Python's int/float allow them
                raise ValueError
            rows.append([kind(p) for p in parts])
        except (ValueError, OverflowError):
            raise DatasetParseError(
                f"{path}:{i}: non-numeric or out-of-range token in {line!r}") from None
    return np.array(rows, dtype=kind).reshape(len(rows), width or 0)


def _numbered_lines(text: str):
    """(1-based line number, line) of every non-blank line: row k of
    `_read_rows` is the k-th of them."""
    return ((i, line) for i, line in enumerate(text.split("\n"), 1)
            if line.strip())


def _at(path: Path, row: int) -> str:
    """`path:line` of row `row` of `_read_rows(path, ...)`, for an error."""
    lines = _numbered_lines(path.read_text(errors="replace"))
    return f"{path}:{next(islice(lines, row, None))[0]}"


def _proven_graph(**fields) -> Graph:
    """A `Graph` built as pickle builds one, without `__post_init__`."""
    graph = object.__new__(Graph)
    for name, value in fields.items():
        setattr(graph, name, value)
    return graph


def degree_features(adjacency: np.ndarray) -> np.ndarray:
    """Per-node degree as a single-column attribute matrix, the attributes
    of a graph that comes without any."""
    return adjacency.sum(axis=0, dtype=float)[:, None]


def _tu_paths(root_dir, name: str) -> list[Path]:
    """The four TU files the parser reads, in `dataset_checksum`'s order
    (edges, graph indicator, graph labels, node attributes), from
    `root_dir/name/` if it is a directory and else from `root_dir`."""
    root = Path(root_dir)
    base = root / name if (root / name).is_dir() else root
    return [base / f"{name}_{kind}.txt" for kind in
            ("A", "graph_indicator", "graph_labels", "node_attributes")]


def label_anomalies(raw_labels: list[int]) -> list[int]:
    """Map raw class labels to {0 normal, 1 anomalous} by strict minority.

    Tie on class counts: the class with the smaller raw value is anomalous.
    """
    counts = Counter(raw_labels)
    if len(counts) < 2:
        raise ConfigurationError("dataset has a single class; anomaly labeling "
                                 "needs at least two")
    anomalous = min(counts, key=lambda c: (counts[c], c))
    return [1 if lbl == anomalous else 0 for lbl in raw_labels]


def parse_tudataset(root_dir, name: str) -> GraphDataset:
    """Load `<name>_*.txt` files from `root_dir/name/` or `root_dir` itself.

    Node ids in the files are global and 1-indexed; each graph gets local
    0-indexed nodes in file order. Edges are symmetrized and de-duplicated.
    Without a node-attribute file, each graph gets its `degree_features`.

    Each file is checked once, in whole-array passes, for every invariant
    `Graph` checks; the parsed graphs skip those per-graph checks.
    """
    edges_path, indicator_path, labels_path, attrs_path = _tu_paths(root_dir, name)

    indicator = _read_rows(indicator_path, np.int64, 1)[:, 0]
    if not indicator.size:
        raise DatasetParseError(f"{indicator_path}: no nodes listed")
    raw_labels = _read_rows(labels_path, np.int64, 1)[:, 0]
    try:
        labels = label_anomalies(raw_labels.tolist())
    except ConfigurationError as e:
        raise ConfigurationError(f"{labels_path}: {e}") from None
    num_graphs = len(raw_labels)
    cover = f"graph ids must cover 1..{num_graphs} (one label line per graph)"
    stray = (indicator < 1) | (indicator > num_graphs)
    if stray.any():
        r = int(np.argmax(stray))
        raise DatasetParseError(f"{_at(indicator_path, r)}: graph id {indicator[r]} "
                                f"outside 1..{num_graphs}; {cover}")
    node_graph = indicator - 1
    counts = np.bincount(node_graph, minlength=num_graphs)
    if not counts.all():
        raise DatasetParseError(f"{indicator_path}: graph {int(np.argmin(counts)) + 1} "
                                f"has no node line; {cover}")
    num_nodes = len(indicator)
    starts = np.concatenate(([0], np.cumsum(counts)))
    # global node ids grouped by graph, in file order within each graph
    # (a stable sort), so graph g owns by_graph[starts[g]:starts[g + 1]];
    # when the file already lists them so, nothing is sorted or copied
    ordered = bool((node_graph[1:] >= node_graph[:-1]).all())
    by_graph = slice(None) if ordered else np.argsort(node_graph, kind="stable")
    local_index = np.empty(num_nodes, dtype=int)
    local_index[by_graph] = np.arange(num_nodes) - np.repeat(starts[:-1], counts)

    attributes = None
    if attrs_path.is_file():
        attributes = _read_rows(attrs_path, np.float64)
        if len(attributes) != num_nodes:
            raise DatasetParseError(
                f"{attrs_path}: {len(attributes)} attribute rows for {num_nodes} nodes")
        bad = ~np.isfinite(attributes).all(axis=1)
        if bad.any():
            g = node_graph[bad].min()
            r = int(np.argmax(bad & (node_graph == g)))
            raise StructuralError(
                f"{_at(attrs_path, r)}: non-finite attribute in graph {g + 1}")
        attributes = attributes[by_graph]

    # each per-edge temporary is dropped as soon as it has been read: the
    # edge arrays are the largest the parse holds
    edges = _read_rows(edges_path, np.int64, 2)
    edges -= 1
    u, v = edges[:, 0], edges[:, 1]
    bad = (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes)
    # an outside id is clipped to a real node; its edge is already bad
    gu = node_graph.take(u, mode="clip")
    bad |= gu != node_graph.take(v, mode="clip")
    bad |= u == v
    if bad.any():
        r = int(np.argmax(bad))
        at, a, b = _at(edges_path, r), int(u[r]), int(v[r])
        if not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise StructuralError(f"{at}: node id outside 1..{num_nodes}")
        if node_graph[a] != node_graph[b]:
            raise StructuralError(f"{at}: edge joins graphs {node_graph[a] + 1} "
                                  f"and {node_graph[b] + 1}")
        raise StructuralError(f"{at}: self-loop on node {a + 1}")
    del bad

    # every adjacency matrix is a bool view into one flat buffer; setting
    # both directions symmetrises the edges and repeats de-duplicate
    # themselves
    cells = np.concatenate(([0], np.cumsum(counts * counts)))
    flat = np.zeros(cells[-1], dtype=bool)
    start, size = cells[gu], counts[gu]
    del gu
    lu, lv = local_index[u], local_index[v]
    del edges, u, v
    for row, col in ((lu, lv), (lv, lu)):
        cell = row * size
        cell += col
        cell += start
        flat[cell] = True
    del start, size, lu, lv, row, col, cell

    # the checks above prove Graph's: nodes in every graph, symmetric (n, n)
    # adjacency without self-loops, n finite attribute rows, 0/1 labels
    cells, starts = cells.tolist(), starts.tolist()
    graphs = [_proven_graph(adjacency=(a := flat[cells[g]:cells[g + 1]].reshape(n, n)),
                            attributes=degree_features(a) if attributes is None
                            else attributes[starts[g]:starts[g + 1]],
                            label=labels[g], node_count=n, graph_id=g)
              for g, n in enumerate(counts.tolist())]

    return GraphDataset(graphs=graphs,
                        attribute_dim=graphs[0].attributes.shape[1],
                        n_max=int(counts.max()), name=name)


def write_tudataset(dataset: GraphDataset, root_dir) -> None:
    """Write the four TUDataset files (both edge directions, repr floats).

    Reparsing yields an identical dataset as long as the anomalous class is a
    strict minority (the tie-break rule would otherwise relabel a balanced
    collection).
    """
    (Path(root_dir) / dataset.name).mkdir(parents=True, exist_ok=True)
    edge_lines = []
    indicator_lines = []
    label_lines = []
    attr_lines = []
    offset = 0
    for gid, g in enumerate(dataset.graphs, 1):
        rows, cols = np.nonzero(g.adjacency)
        for r, c in zip(rows, cols):
            edge_lines.append(f"{offset + r + 1}, {offset + c + 1}")
        indicator_lines.extend([str(gid)] * g.node_count)
        label_lines.append(str(g.label))
        for row in g.attributes:
            attr_lines.append(", ".join(repr(float(v)) for v in row))
        offset += g.node_count
    for path, lines in zip(_tu_paths(root_dir, dataset.name), (
            edge_lines, indicator_lines, label_lines, attr_lines)):
        path.write_text("\n".join(lines) + "\n")


def dataset_checksum(root_dir, name: str) -> str:
    """SHA-256 over the name and bytes of each TU file the parser reads."""
    h = hashlib.sha256()
    for p in _tu_paths(root_dir, name):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# folds and contamination

def make_folds(dataset: GraphDataset, k: int, seed: int,
               tau: float = 0.0) -> list[FoldSplit]:
    """Stratified k-fold split under a fixed seed, each fold as it trains.

    Each class is shuffled and dealt into k contiguous chunks; remainder
    chunks rotate across classes so fold sizes stay balanced. Training sets
    hold the non-test normal graphs; non-test anomalies form the fold's
    contamination pool. Fold f's seed is seed + f, under which floor(tau% of
    its pool) anomalies, drawn without replacement, move into its training
    set; the test set is untouched.
    """
    if k < 2:
        raise ConfigurationError(f"need k >= 2 folds, got {k}")
    if not 0.0 <= tau <= 100.0:
        raise ConfigurationError(f"tau must be in [0, 100], got {tau}")
    by_class: dict[int, list[Graph]] = {0: [], 1: []}
    for g in dataset.graphs:
        by_class[g.label].append(g)
    for label, members in by_class.items():
        if len(members) < k:
            raise ConfigurationError(
                f"class {label} has {len(members)} graphs, fewer than k={k}")

    rng = np.random.default_rng(seed)
    test_sets: list[list[Graph]] = [[] for _ in range(k)]
    offset = 0
    for label in (0, 1):
        members = by_class[label]
        order = rng.permutation(len(members))
        base, rem = divmod(len(members), k)
        start = 0
        for f in range(k):
            size = base + (1 if (f - offset) % k < rem else 0)
            for idx in order[start:start + size]:
                test_sets[f].append(members[idx])
            start += size
        offset += rem

    folds = []
    for f in range(k):
        test_ids = {g.graph_id for g in test_sets[f]}
        train = [g for g in by_class[0] if g.graph_id not in test_ids]
        pool = [g for g in by_class[1] if g.graph_id not in test_ids]
        chosen = np.random.default_rng(seed + f).choice(
            len(pool), size=math.floor(tau * len(pool) / 100.0), replace=False)
        picked = {pool[i].graph_id for i in chosen}
        train += [pool[i] for i in chosen]
        pool = [g for g in pool if g.graph_id not in picked]
        folds.append(FoldSplit(train_graphs=train, test_graphs=test_sets[f],
                               contamination_pool=pool, fold_index=f,
                               seed=seed + f))
    return folds


@contextmanager
def atomic_open(path, newline: str | None = None):
    """Open a text file for writing that appears at `path` only once the
    block completes.

    The text goes to a temporary file beside `path`, which `os.replace` then
    moves into place; if the block raises, the temporary file is removed and
    whatever `path` held before is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> str:
    """Write `obj` to `path` through `atomic_open` as JSON with sorted keys,
    indented by two, and a trailing newline; returns the text without it."""
    text = json.dumps(obj, sort_keys=True, indent=2)
    with atomic_open(path) as fh:
        fh.write(text + "\n")
    return text


def export_folds_csv(folds: list[FoldSplit], path) -> None:
    """Audit file: one row per (graph, fold) membership."""
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["graph_id", "fold", "role"])
        for split in folds:
            for role, graphs in (("train", split.train_graphs),
                                 ("test", split.test_graphs),
                                 ("pool", split.contamination_pool)):
                for g in graphs:
                    writer.writerow([g.graph_id, split.fold_index, role])


# ---------------------------------------------------------------------------
# batching

def pad_batch(graphs: list[Graph], n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency (B, n_max, n_max) and attribute (B, n_max, d) stacks of
    a run of graphs of exactly `n_max` nodes, in the graphs' own dtypes."""
    for g in graphs:
        if g.node_count != n_max:
            raise StructuralError(f"graph {g.graph_id}: {g.node_count} nodes "
                                  f"in a run of {n_max}")
    return (np.stack([g.adjacency for g in graphs]),
            np.stack([g.attributes for g in graphs]))


# ---------------------------------------------------------------------------
# synthetic data

def make_er_dataset(num_normal: int, num_anomalous: int, seed: int,
                    n_range: tuple[int, int] = (10, 14),
                    name: str = "synthetic-er") -> GraphDataset:
    """Random-graph collection where anomalies differ by edge density, 0.7
    against 0.3.

    Every graph gets degree features, matching the plain-graph convention.
    """
    rng = np.random.default_rng(seed)
    graphs = []
    specs = [(0.3, 0)] * num_normal + [(0.7, 1)] * num_anomalous
    for gid, (p, label) in enumerate(specs):
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        upper = np.triu(rng.random((n, n)) < p, k=1)
        adj = (upper | upper.T).astype(float)
        attr = degree_features(adj)
        graphs.append(Graph(adjacency=adj, attributes=attr, label=label,
                            node_count=n, graph_id=gid))
    return GraphDataset(graphs=graphs, attribute_dim=1,
                        n_max=max(g.node_count for g in graphs), name=name)
