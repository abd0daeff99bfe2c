"""Dataset parsing, labeling, folds, contamination, batching."""

import math
import pickle
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import data as dt
from hiermem.errors import ConfigurationError, DatasetParseError, StructuralError

from conftest import aids_corpus, build_graph, write_tud_files


# ---------------------------------------------------------------------------
# graph validation

def test_graph_rejects_asymmetric_adjacency():
    adj = np.zeros((2, 2))
    adj[0, 1] = 1.0
    with pytest.raises(StructuralError, match="symmetric"):
        dt.Graph(adjacency=adj, attributes=np.zeros((2, 1)), label=0,
                 node_count=2, graph_id=1)


@pytest.mark.parametrize("entry", [2.0, -1.0, 0.5, np.nan])
def test_graph_rejects_an_adjacency_entry_other_than_0_or_1(entry):
    # a 2 would be normalised as an edge weight and put in the structure
    # target; NaN is named as what it is, not as an asymmetry
    adj = np.array([[0.0, entry], [entry, 0.0]])
    with pytest.raises(StructuralError, match="graph 4: adjacency entry not 0 or 1"):
        dt.Graph(adjacency=adj, attributes=np.zeros((2, 1)), label=0,
                 node_count=2, graph_id=4)


def test_graph_rejects_self_loop():
    adj = np.eye(2)
    with pytest.raises(StructuralError, match="self-loop"):
        dt.Graph(adjacency=adj, attributes=np.zeros((2, 1)), label=0,
                 node_count=2, graph_id=1)


def test_graph_rejects_nonfinite_attributes():
    with pytest.raises(StructuralError, match="non-finite"):
        dt.Graph(adjacency=np.zeros((1, 1)), attributes=np.array([[np.nan]]),
                 label=0, node_count=1, graph_id=1)


def test_dataset_rejects_mixed_attribute_dims(triangle_graph):
    other = build_graph([(0, 1)], 2, graph_id=9, attr_dim=3)
    with pytest.raises(StructuralError, match="attribute dim"):
        dt.GraphDataset(graphs=[triangle_graph, other], attribute_dim=2,
                        n_max=3, name="bad")


# ---------------------------------------------------------------------------
# parsing a hand-written benchmark layout

def test_parse_hand_traced_dataset(tud_dir):
    ds = dt.parse_tudataset(tud_dir, "TOY")
    assert len(ds.graphs) == 3
    assert ds.attribute_dim == 2
    assert ds.n_max == 3

    tri = ds.graphs[0]
    assert tri.node_count == 3
    expected = np.ones((3, 3)) - np.eye(3)
    np.testing.assert_allclose(tri.adjacency, expected)
    np.testing.assert_allclose(tri.attributes,
                               [[1.0, 0.5], [2.0, 0.5], [3.0, 0.5]])

    edge = ds.graphs[1]
    assert edge.node_count == 2
    np.testing.assert_allclose(edge.adjacency, [[0, 1], [1, 0]])

    path = ds.graphs[2]
    np.testing.assert_allclose(path.adjacency,
                               [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    # raw labels 0,1,0: class 1 is the strict minority, so graph 2 is anomalous
    assert [g.label for g in ds.graphs] == [0, 1, 0]


def _write_mix(root):
    """A 3-graph dataset whose graph ids interleave in the indicator file:
    graph 1 holds global nodes 2, 5, graph 2 nodes 1, 3, 7, graph 3 nodes
    4, 6; node v has attributes (v, 10 v)."""
    d = root / "MIX"
    d.mkdir()
    (d / "MIX_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in (2, 1, 2, 3, 1, 3, 2)))
    (d / "MIX_graph_labels.txt").write_text("0\n0\n1\n")
    (d / "MIX_A.txt").write_text("1, 7\n7, 1\n3, 7\n2, 5\n6, 4\n")
    (d / "MIX_node_attributes.txt").write_text(
        "".join(f"{v}.0, {10 * v}.0\n" for v in range(1, 8)))
    return d


def test_parse_interleaved_indicator_keeps_file_order(tmp_path):
    # graph ids interleave in the indicator file; each graph's local nodes
    # must follow the global file order, and attribute rows must follow them
    _write_mix(tmp_path)
    ds = dt.parse_tudataset(tmp_path, "MIX")

    assert [g.node_count for g in ds.graphs] == [2, 3, 2]
    assert ds.n_max == 3
    # graph 1 holds global nodes 2, 5
    np.testing.assert_allclose(ds.graphs[0].attributes, [[2, 20], [5, 50]])
    np.testing.assert_allclose(ds.graphs[0].adjacency, [[0, 1], [1, 0]])
    # graph 2 holds global nodes 1, 3, 7; node 7 (local 2) is the star centre
    np.testing.assert_allclose(ds.graphs[1].attributes,
                               [[1, 10], [3, 30], [7, 70]])
    np.testing.assert_allclose(ds.graphs[1].adjacency,
                               [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    # graph 3 holds global nodes 4, 6
    np.testing.assert_allclose(ds.graphs[2].attributes, [[4, 40], [6, 60]])
    np.testing.assert_allclose(ds.graphs[2].adjacency, [[0, 1], [1, 0]])
    assert [g.label for g in ds.graphs] == [0, 0, 1]


def test_parsed_graphs_hold_no_dict_and_pickle_whole(tud_dir):
    # `--jobs` sends graphs to fold workers by pickle
    for g in dt.parse_tudataset(tud_dir, "TOY").graphs:
        assert not hasattr(g, "__dict__")
        copy = pickle.loads(pickle.dumps(g))
        assert (copy.label, copy.node_count, copy.graph_id) == \
            (g.label, g.node_count, g.graph_id)
        assert copy.adjacency.tobytes() == g.adjacency.tobytes()
        assert copy.attributes.tobytes() == g.attributes.tobytes()


def test_parse_accepts_dataset_rooted_directly(tud_dir):
    ds = dt.parse_tudataset(tud_dir / "TOY", "TOY")
    assert len(ds.graphs) == 3


def test_parse_missing_file_names_it(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_A.txt").unlink()
    with pytest.raises(DatasetParseError, match="TOY_A.txt"):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_reports_malformed_line_number(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_A.txt").write_text("1, 2\nbroken\n")
    with pytest.raises(DatasetParseError, match=":2"):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_rejects_edge_out_of_range(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_A.txt").write_text("1, 99\n")
    with pytest.raises(StructuralError, match="outside"):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_rejects_cross_graph_edge(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_A.txt").write_text("1, 4\n4, 1\n")
    with pytest.raises(StructuralError, match="joins graphs"):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_rejects_self_loop_edge(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_A.txt").write_text("2, 2\n")
    with pytest.raises(StructuralError, match="self-loop"):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_rejects_gapped_graph_ids(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_graph_indicator.txt").write_text(
        "".join(f"{g}\n" for g in (1, 1, 1, 3, 3, 3, 3, 3)))
    with pytest.raises(DatasetParseError, match="cover"):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_names_the_labels_file_of_a_single_class_corpus(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    labels = d / "TOY_graph_labels.txt"
    labels.write_text("1\n1\n1\n")
    with pytest.raises(ConfigurationError) as e:
        dt.parse_tudataset(tmp_path, "TOY")
    assert str(e.value) == (f"{labels}: dataset has a single class; anomaly "
                            "labeling needs at least two")


def test_parse_rejects_attribute_row_count_mismatch(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_node_attributes.txt").write_text("1.0, 2.0\n")
    with pytest.raises(DatasetParseError, match="attribute rows"):
        dt.parse_tudataset(tmp_path, "TOY")


def _assert_degree_features(ds):
    for g in ds.graphs:
        want = dt.degree_features(g.adjacency)
        assert g.attributes.dtype == want.dtype
        np.testing.assert_array_equal(g.attributes, want)


def test_parse_falls_back_to_degree_features(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_node_attributes.txt").unlink()
    ds = dt.parse_tudataset(tmp_path, "TOY")
    assert ds.attribute_dim == 1
    np.testing.assert_allclose(ds.graphs[0].attributes, [[2.0], [2.0], [2.0]])
    np.testing.assert_allclose(ds.graphs[2].attributes, [[1.0], [2.0], [1.0]])
    _assert_degree_features(ds)

    # graph by graph over mixed sizes, a one-node graph and isolated nodes
    rng = np.random.default_rng(4)
    graphs = []
    for gid, n in enumerate([1, 5, 2, 8, 1, 3, 6]):
        upper = np.triu(rng.random((n, n)) < 0.4, k=1)
        if n == 5:
            upper[:, 0] = upper[0, :] = False      # node 0 is isolated
        graphs.append(dt.Graph(adjacency=(upper | upper.T).astype(float),
                               attributes=np.zeros((n, 1)), label=int(gid < 2),
                               node_count=n, graph_id=gid))
    dt.write_tudataset(dt.GraphDataset(graphs, 1, 8, "SIZES"), tmp_path)
    (tmp_path / "SIZES" / "SIZES_node_attributes.txt").unlink()
    parsed = dt.parse_tudataset(tmp_path, "SIZES")
    assert [g.node_count for g in parsed.graphs] == [1, 5, 2, 8, 1, 3, 6]
    assert parsed.graphs[1].attributes[0, 0] == 0.0
    _assert_degree_features(parsed)

    # and with graph ids interleaved in the indicator file
    (_write_mix(tmp_path) / "MIX_node_attributes.txt").unlink()
    mix = dt.parse_tudataset(tmp_path, "MIX")
    np.testing.assert_array_equal(mix.graphs[1].attributes, [[1.0], [1.0], [2.0]])
    _assert_degree_features(mix)


def test_write_then_parse_round_trip(tud_dir, tmp_path):
    ds = dt.parse_tudataset(tud_dir, "TOY")
    out = tmp_path / "copy"
    dt.write_tudataset(ds, out)
    again = dt.parse_tudataset(out, "TOY")
    assert len(again.graphs) == len(ds.graphs)
    for a, b in zip(ds.graphs, again.graphs):
        np.testing.assert_allclose(a.adjacency, b.adjacency)
        np.testing.assert_allclose(a.attributes, b.attributes)
        assert a.label == b.label



def _assert_same_graphs(got, want):
    assert len(got.graphs) == len(want.graphs)
    assert (got.attribute_dim, got.n_max) == (want.attribute_dim, want.n_max)
    for a, b in zip(got.graphs, want.graphs):
        assert (a.graph_id, a.label, a.node_count) == (b.graph_id, b.label, b.node_count)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        np.testing.assert_array_equal(a.attributes, b.attributes)


def test_parse_empty_edge_file_gives_isolated_nodes_without_warning(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    (d / "TOY_A.txt").write_text("")
    (d / "TOY_graph_indicator.txt").write_text("1\n1\n1\n2\n3\n3\n3\n3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = dt.parse_tudataset(tmp_path, "TOY")
    assert [g.node_count for g in ds.graphs] == [3, 1, 4]
    for g in ds.graphs:
        np.testing.assert_array_equal(g.adjacency, np.zeros((g.node_count,) * 2))
    np.testing.assert_array_equal(ds.graphs[1].attributes, [[4.0, 1.5]])


def test_parse_skips_blank_lines_and_reads_crlf(tud_dir, tmp_path):
    clean = dt.parse_tudataset(tud_dir, "TOY")
    d = write_tud_files(tmp_path / "messy", "TOY")
    for path in d.iterdir():
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        lines.insert(4, "   ")
        path.write_bytes(("\n\n" + "\r\n".join(lines) + "\r\n\r\n").encode())
    _assert_same_graphs(dt.parse_tudataset(tmp_path / "messy", "TOY"), clean)


@pytest.mark.parametrize("suffix, text, error, line, message", [
    ("A.txt", "1, 2\n\n\n2, x\n", DatasetParseError, 4, "non-numeric"),
    ("A.txt", "1, 2\n \n2, 3, 1\n", DatasetParseError, 3, "expected 2 values, got 3"),
    ("A.txt", "\n1, 2\n\n1, 99\n", StructuralError, 4, "node id outside 1..8"),
    ("A.txt", "\n\n1, 2\n  \n\n0, 1\n", StructuralError, 6, "node id outside"),
    ("A.txt", "1, 2\n\n2, 1\n\n\n3, 4\n", StructuralError, 6, "edge joins graphs 1 and 2"),
    ("A.txt", "\r\n1, 2\r\n\r\n5, 5\r\n", StructuralError, 4, "self-loop on node 5"),
    # the lowest bad line is named, whichever of the three faults it holds
    ("A.txt", "1, 2\n5, 5\n3, 4\n1, 99\n", StructuralError, 2, "self-loop on node 5"),
    ("A.txt", "1, 2\n3, 4\n5, 5\n0, 1\n", StructuralError, 2, "edge joins graphs 1 and 2"),
    ("A.txt", "1, 2\n9, 9\n3, 4\n", StructuralError, 2, "node id outside 1..8"),
    ("node_attributes.txt", "1.0, 2.0\n\n3.0, 4.0\n\n5.0\n", DatasetParseError, 5,
     "expected 2 values, got 1"),
    ("node_attributes.txt", "\n1.0, 2.0\n0.5, abc\n", DatasetParseError, 3,
     "non-numeric"),
    ("graph_indicator.txt", "1\n\n1\n1, 2\n", DatasetParseError, 4,
     "expected 1 values, got 2"),
    ("graph_labels.txt", "0\n\n\n1.5\n", DatasetParseError, 4, "non-numeric"),
    # numpy refuses these, and Python's float would read 10.5 and 1.0
    ("node_attributes.txt", "1.0, 2.0\n\n1_0.5, 4.0\n", DatasetParseError, 3,
     "non-numeric"),
    ("node_attributes.txt", "1.0, 2.0\n\u0661, 4.0\n", DatasetParseError, 2,
     "non-numeric"),
    ("A.txt", "1, 2\n\n2, 99999999999999999999\n", DatasetParseError, 3,
     "non-numeric or out-of-range token"),
    ("graph_indicator.txt", "1\n1\n\n1\n2\n2\n4\n3\n3\n", DatasetParseError, 7,
     "graph id 4 outside 1..3; graph ids must cover 1..3"),
    # bytes that are not UTF-8 (a UTF-16 byte-order mark)
    ("node_attributes.txt", b"\xff\xfe1.0, 2.0\n3.0, 4.0\n", DatasetParseError, 1,
     "non-numeric"),
])
def test_parse_errors_name_the_exact_line(tmp_path, suffix, text, error, line,
                                          message):
    d = write_tud_files(tmp_path, "TOY")
    path = d / f"TOY_{suffix}"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(error, match=re.escape(f"{path}:{line}: {message}")):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_symmetrises_and_deduplicates_edges(tud_dir, tmp_path):
    clean = dt.parse_tudataset(tud_dir, "TOY")
    d = write_tud_files(tmp_path / "one-way", "TOY")
    # one direction only for the triangle and the path, repeats of both
    # directions for the single edge
    (d / "TOY_A.txt").write_text(
        "1, 2\n3, 1\n2, 3\n1, 2\n4, 5\n5, 4\n5, 4\n4, 5\n7, 6\n7, 8\n")
    _assert_same_graphs(dt.parse_tudataset(tmp_path / "one-way", "TOY"), clean)


def test_parse_names_a_graph_without_nodes(tmp_path):
    d = write_tud_files(tmp_path, "TOY")
    path = d / "TOY_graph_indicator.txt"
    path.write_text("1\n1\n1\n3\n3\n3\n3\n3\n")
    with pytest.raises(DatasetParseError, match=re.escape(
            f"{path}: graph 2 has no node line; graph ids must cover 1..3")):
        dt.parse_tudataset(tmp_path, "TOY")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_parse_rejects_a_non_finite_attribute(tmp_path, token):
    d = write_tud_files(tmp_path, "TOY")
    path = d / "TOY_node_attributes.txt"
    path.write_text(
        "1.0, 0.5\n2.0, 0.5\n3.0, 0.5\n4.0, 1.5\n"
        f"5.0, {token}\n6.0, 2.5\n7.0, 2.5\n8.0, 2.5\n")
    # node 5 is the second node of graph 2
    with pytest.raises(StructuralError, match=re.escape(
            f"{path}:5: non-finite attribute in graph 2")):
        dt.parse_tudataset(tmp_path, "TOY")


def test_parse_names_the_lowest_graph_with_a_non_finite_attribute(tmp_path):
    # nodes 1 and 7 (graph 2) come before node 5 (graph 1) in the file, and
    # a blank line shifts node 5 to line 6; graph 1 is named, at its line
    d = _write_mix(tmp_path)
    path = d / "MIX_node_attributes.txt"
    rows = [f"{v}.0, {10 * v}.0" for v in range(1, 8)]
    rows[0] = rows[6] = "nan, 1.0"
    rows[4] = "5.0, inf"
    path.write_text("\n".join(rows[:2] + [""] + rows[2:]) + "\n")
    with pytest.raises(StructuralError, match=re.escape(
            f"{path}:6: non-finite attribute in graph 1")):
        dt.parse_tudataset(tmp_path, "MIX")


def test_parse_ignores_node_labels(tud_dir, tmp_path):
    # node labels are not read as features: only _node_attributes.txt (or
    # the degree, without it) is
    d = write_tud_files(tmp_path / "labelled", "TOY")
    (d / "TOY_node_labels.txt").write_text("0\n1\n2\n0\n0\n1\n2\n1\n")
    _assert_same_graphs(dt.parse_tudataset(tmp_path / "labelled", "TOY"),
                        dt.parse_tudataset(tud_dir, "TOY"))


def test_parsed_adjacencies_are_bool_views_of_one_buffer(tud_dir):
    graphs = dt.parse_tudataset(tud_dir, "TOY").graphs
    base = graphs[0].adjacency.base
    assert base is not None and base.dtype == bool
    assert base.size == sum(g.node_count ** 2 for g in graphs)
    for g in graphs:
        assert g.adjacency.dtype == bool and g.adjacency.base is base


def test_parsed_attributes_are_views_of_the_array_read(tmp_path, monkeypatch):
    # TOY lists its nodes graph by graph, so no graph's attributes are copied
    write_tud_files(tmp_path, "TOY")
    read = {}
    real = dt._read_rows

    def recording(path, kind, width=None):
        read[path.name] = rows = real(path, kind, width)
        return rows

    monkeypatch.setattr(dt, "_read_rows", recording)
    graphs = dt.parse_tudataset(tmp_path, "TOY").graphs
    base = graphs[0].attributes.base
    assert base is not None
    for g in graphs:
        assert g.attributes.base is base
        assert np.shares_memory(g.attributes, read["TOY_node_attributes.txt"])


def test_parse_runs_no_per_graph_check(tmp_path, monkeypatch):
    dt.write_tudataset(aids_corpus().make_aids_like(100, seed=3), tmp_path)
    calls = []
    monkeypatch.setattr(dt.Graph, "__post_init__", lambda g: calls.append(g))
    assert len(dt.parse_tudataset(tmp_path, "AIDSLIKE").graphs) == 100
    assert calls == []


@pytest.mark.parametrize("corpus", ["TOY", "MIX", "TOY-no-attributes"])
def test_parsed_graphs_pass_every_graph_check(tmp_path, corpus):
    if corpus == "MIX":
        _write_mix(tmp_path)
    else:
        d = write_tud_files(tmp_path, "TOY")
        if corpus == "TOY-no-attributes":
            (d / "TOY_node_attributes.txt").unlink()
    for g in dt.parse_tudataset(tmp_path, corpus.split("-")[0]).graphs:
        dt.Graph.__post_init__(g)


def test_parse_round_trips_an_aids_shaped_corpus_to_the_bit(tmp_path):
    dataset = aids_corpus().make_aids_like(600, seed=7)
    dt.write_tudataset(dataset, tmp_path)
    parsed = dt.parse_tudataset(tmp_path, dataset.name)
    _assert_same_graphs(parsed, dataset)
    for a, b in zip(parsed.graphs, dataset.graphs):
        assert a.attributes.tobytes() == b.attributes.tobytes()


def test_parse_peak_memory_of_an_aids_sized_corpus(tmp_path):
    # 2000 AIDS-shaped graphs, 3.2 MB of files. Reading the files through a
    # str copy and a dense float64 adjacency per graph peaked at 14.8 MB;
    # reading from the paths into one bool buffer peaked at 7.5 MB, and
    # dropping each per-edge array once it has been read peaks at 5.6 MB
    dataset = aids_corpus().make_aids_like(2000, seed=7)
    dt.write_tudataset(dataset, tmp_path)
    tracemalloc.start()
    try:
        parsed = dt.parse_tudataset(tmp_path, dataset.name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parsed.graphs) == 2000
    assert peak < 6.5e6, peak


@st.composite
def _datasets(draw):
    num_graphs = draw(st.integers(3, 7))
    labels = [0] * num_graphs
    for i in draw(st.sets(st.integers(0, num_graphs - 1), min_size=1,
                          max_size=(num_graphs - 1) // 2)):
        labels[i] = 1
    dim = draw(st.integers(1, 3))
    values = st.floats(allow_nan=False, allow_infinity=False)
    graphs = []
    for gid, label in enumerate(labels):
        n = draw(st.integers(1, 6))
        upper = np.triu(np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                               max_size=n * n))).reshape(n, n), 1)
        attrs = draw(st.lists(values, min_size=n * dim, max_size=n * dim))
        graphs.append(dt.Graph(adjacency=(upper | upper.T).astype(float),
                               attributes=np.array(attrs).reshape(n, dim),
                               label=label, node_count=n, graph_id=gid))
    return dt.GraphDataset(graphs=graphs, attribute_dim=dim,
                           n_max=max(g.node_count for g in graphs), name="RT")


@given(_datasets(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_write_then_parse_round_trips_any_dataset(ds, rnd):
    with tempfile.TemporaryDirectory() as root:
        dt.write_tudataset(ds, root)
        edges = f"{root}/RT/RT_A.txt"
        with open(edges) as fh:
            lines = fh.read().splitlines()
        rnd.shuffle(lines)
        with open(edges, "w") as fh:
            fh.write("".join(line + "\n" for line in lines))
        _assert_same_graphs(dt.parse_tudataset(root, "RT"), ds)


@st.composite
def _corpus_files(draw):
    """The rows of a small corpus's four files, nodes listed graph by graph
    or interleaved, edges one-way or repeated, with at most one injected
    fault; and either the graphs they hold, built through the checked
    `Graph(...)`, or the error that parsing them must raise."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    num_graphs = len(sizes)
    raw = draw(st.lists(st.integers(0, 2), min_size=num_graphs,
                        max_size=num_graphs).filter(lambda r: len(set(r)) > 1))
    owner = [g for g, n in enumerate(sizes) for _ in range(n)]
    if draw(st.booleans()):
        owner = draw(st.permutations(owner))
    num_nodes, dim = len(owner), draw(st.integers(1, 2))
    attrs = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=num_nodes * dim,
                                   max_size=num_nodes * dim))).reshape(num_nodes, dim)
    members = [[v for v in range(num_nodes) if owner[v] == g] for g in range(num_graphs)]
    edges = [(u, v) for nodes in members
             for u, v in draw(st.lists(st.tuples(st.sampled_from(nodes),
                                                 st.sampled_from(nodes)), max_size=6))
             if u != v]
    edges = draw(st.permutations(edges))
    indicator = [g + 1 for g in owner]
    fault = draw(st.sampled_from([None, "attribute", "graph id"]))
    row = draw(st.integers(0, num_nodes - 1))
    if fault == "attribute":
        attrs[row, draw(st.integers(0, dim - 1))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        return indicator, raw, edges, attrs, (
            StructuralError, "node_attributes", row,
            f"non-finite attribute in graph {owner[row] + 1}")
    if fault == "graph id":
        indicator[row] = v = draw(st.sampled_from([0, -1, num_graphs + 1, 99]))
        return indicator, raw, edges, attrs, (
            DatasetParseError, "graph_indicator", row,
            f"graph id {v} outside 1..{num_graphs}; graph ids must cover "
            f"1..{num_graphs} (one label line per graph)")
    labels = dt.label_anomalies(raw)
    graphs = []
    for g, nodes in enumerate(members):
        adj = np.zeros((len(nodes), len(nodes)))
        for u, v in edges:
            if owner[u] == g:
                adj[nodes.index(u), nodes.index(v)] = adj[nodes.index(v), nodes.index(u)] = 1
        graphs.append(dt.Graph(adjacency=adj, attributes=attrs[nodes], label=labels[g],
                               node_count=len(nodes), graph_id=g))
    return indicator, raw, edges, attrs, dt.GraphDataset(
        graphs=graphs, attribute_dim=dim, n_max=max(sizes), name="PB")


@given(_corpus_files())
@settings(max_examples=60, deadline=None)
def test_parse_equals_checked_graphs_or_names_the_fault(corpus):
    indicator, raw, edges, attrs, want = corpus
    with tempfile.TemporaryDirectory() as root:
        for suffix, rows in (("graph_indicator", indicator), ("graph_labels", raw),
                             ("A", [f"{u + 1}, {v + 1}" for u, v in edges]),
                             ("node_attributes",
                              [", ".join(map(repr, map(float, r))) for r in attrs])):
            with open(f"{root}/PB_{suffix}.txt", "w") as fh:
                fh.write("".join(f"{r}\n" for r in rows))
        if isinstance(want, dt.GraphDataset):
            _assert_same_graphs(dt.parse_tudataset(root, "PB"), want)
            return
        error, suffix, row, message = want
        with pytest.raises(error) as caught:
            dt.parse_tudataset(root, "PB")
        assert str(caught.value) == f"{root}/PB_{suffix}.txt:{row + 1}: {message}"


def test_checksum_stable_and_sensitive(tud_dir):
    c1 = dt.dataset_checksum(tud_dir, "TOY")
    c2 = dt.dataset_checksum(tud_dir, "TOY")
    assert c1 == c2 and len(c1) == 64
    (tud_dir / "TOY" / "TOY_graph_labels.txt").write_text("0\n0\n1\n")
    assert dt.dataset_checksum(tud_dir, "TOY") != c1


def test_checksum_hashes_exactly_the_files_the_parser_reads(tmp_path):
    dt.write_tudataset(dt.make_er_dataset(4, 2, seed=1, n_range=(3, 5),
                                          name="PIN"), tmp_path)
    base = tmp_path / "PIN"
    # which files are hashed, and in what order, must not move: manifests
    # already written record this value
    pinned = "f12bcb0eb36fe3ecfc28b28f33654266ca2cb9c8e9cace444774275b9be5ea15"
    assert dt.dataset_checksum(tmp_path, "PIN") == pinned
    assert dt.dataset_checksum(base, "PIN") == pinned
    # the parser ignores node labels (test_parse_ignores_node_labels), so
    # the checksum does too
    (base / "PIN_node_labels.txt").write_text("0\n" * 24)
    assert dt.dataset_checksum(tmp_path, "PIN") == pinned
    attrs = base / "PIN_node_attributes.txt"
    attrs.write_text("9.0\n" + attrs.read_text().split("\n", 1)[1])
    changed = dt.dataset_checksum(tmp_path, "PIN")
    attrs.unlink()
    assert len({pinned, changed, dt.dataset_checksum(tmp_path, "PIN")}) == 3


# ---------------------------------------------------------------------------
# labeling

def test_label_anomalies_minority_wins():
    assert dt.label_anomalies([5, 5, 5, 2]) == [0, 0, 0, 1]


def test_label_anomalies_tie_prefers_smaller_raw_label():
    assert dt.label_anomalies([0, 1, 0, 1]) == [1, 0, 1, 0]


def test_label_anomalies_single_class_rejected():
    with pytest.raises(ConfigurationError):
        dt.label_anomalies([3, 3, 3])


def test_degree_features_column():
    g = build_graph([(0, 1), (1, 2)], 3)
    np.testing.assert_allclose(dt.degree_features(g.adjacency), [[1.0], [2.0], [1.0]])


# ---------------------------------------------------------------------------
# folds

def test_make_folds_partitions_test_sets(toy_dataset):
    folds = dt.make_folds(toy_dataset, k=3, seed=0)
    seen = []
    for f in folds:
        seen.extend(g.graph_id for g in f.test_graphs)
    assert sorted(seen) == sorted(g.graph_id for g in toy_dataset.graphs)


def test_make_folds_stratifies_both_classes(toy_dataset):
    # 12 normals and 6 anomalies over 3 folds: exactly 4 + 2 per test fold
    folds = dt.make_folds(toy_dataset, k=3, seed=1)
    for f in folds:
        labels = [g.label for g in f.test_graphs]
        assert labels.count(0) == 4
        assert labels.count(1) == 2


def test_make_folds_train_is_normal_only_pool_is_anomalous(toy_dataset):
    for f in dt.make_folds(toy_dataset, k=3, seed=2):
        assert all(g.label == 0 for g in f.train_graphs)
        assert all(g.label == 1 for g in f.contamination_pool)
        test_ids = {g.graph_id for g in f.test_graphs}
        covered = test_ids | {g.graph_id for g in f.train_graphs} \
            | {g.graph_id for g in f.contamination_pool}
        assert covered == {g.graph_id for g in toy_dataset.graphs}


def test_make_folds_remainder_rotates_between_classes():
    graphs = []
    gid = 0
    for label in (0, 1):
        for _ in range(7):  # 7 = 5 * 1 + 2, so two folds get an extra graph
            graphs.append(build_graph([(0, 1)], 2, label=label, graph_id=gid))
            gid += 1
    ds = dt.GraphDataset(graphs=graphs, attribute_dim=2, n_max=2, name="rot")
    folds = dt.make_folds(ds, k=5, seed=0)
    sizes = [len(f.test_graphs) for f in folds]
    # per-class extras land on different folds, keeping totals within 1
    assert max(sizes) - min(sizes) <= 1
    assert sum(sizes) == 14


def test_make_folds_deterministic(toy_dataset):
    a = dt.make_folds(toy_dataset, k=3, seed=7)
    b = dt.make_folds(toy_dataset, k=3, seed=7)
    for fa, fb in zip(a, b):
        assert [g.graph_id for g in fa.test_graphs] == \
            [g.graph_id for g in fb.test_graphs]


def test_make_folds_rejects_small_class(toy_dataset):
    with pytest.raises(ConfigurationError, match="fewer than k"):
        dt.make_folds(toy_dataset, k=7, seed=0)
    with pytest.raises(ConfigurationError, match="k >= 2"):
        dt.make_folds(toy_dataset, k=1, seed=0)


# ---------------------------------------------------------------------------
# contamination

def _ids(graphs):
    return [g.graph_id for g in graphs]


def test_contamination_count_uses_floor(toy_dataset):
    clean = dt.make_folds(toy_dataset, k=3, seed=0)[0]
    assert len(clean.contamination_pool) == 4
    out = dt.make_folds(toy_dataset, k=3, seed=0, tau=26.0)[0]
    # floor(0.26 * 4) = 1
    assert len(out.train_graphs) == len(clean.train_graphs) + 1
    assert len(out.contamination_pool) == 3


def test_contamination_zero_and_full(toy_dataset):
    clean = dt.make_folds(toy_dataset, k=3, seed=0)
    zero = dt.make_folds(toy_dataset, k=3, seed=0, tau=0.0)
    full = dt.make_folds(toy_dataset, k=3, seed=0, tau=100.0)
    for c, z, f in zip(clean, zero, full):
        for field in ("train_graphs", "test_graphs", "contamination_pool"):
            assert _ids(getattr(z, field)) == _ids(getattr(c, field))
        assert (sorted(_ids(f.train_graphs)) ==
                sorted(_ids(c.train_graphs + c.contamination_pool)))
        assert f.contamination_pool == []


def test_contamination_leaves_test_untouched_and_samples_without_replacement(toy_dataset):
    clean = dt.make_folds(toy_dataset, k=3, seed=3)
    for c, out in zip(clean, dt.make_folds(toy_dataset, k=3, seed=3, tau=100.0)):
        assert _ids(out.test_graphs) == _ids(c.test_graphs)
        assert _ids(out.train_graphs[:len(c.train_graphs)]) == _ids(c.train_graphs)
        added = _ids(out.train_graphs[len(c.train_graphs):])
        assert len(added) == len(set(added)) == len(c.contamination_pool)


def test_contamination_rejects_bad_tau(toy_dataset):
    for tau in (-1.0, 101.0):
        with pytest.raises(ConfigurationError, match="tau must be in"):
            dt.make_folds(toy_dataset, k=3, seed=0, tau=tau)


def test_make_folds_contaminates_each_fold_under_its_own_seed(toy_dataset):
    clean = dt.make_folds(toy_dataset, k=3, seed=5)
    for tau in (0.0, 50.0, 100.0):
        for split, base in zip(dt.make_folds(toy_dataset, k=3, seed=5, tau=tau),
                               clean):
            f = split.fold_index
            assert split.seed == base.seed == 5 + f
            pool = base.contamination_pool
            count = math.floor(tau * len(pool) / 100.0)
            chosen = (np.random.default_rng(5 + f).choice(
                len(pool), size=count, replace=False) if count else [])
            picked = [pool[i] for i in chosen]
            assert _ids(split.train_graphs) == _ids(base.train_graphs + picked)
            assert _ids(split.test_graphs) == _ids(base.test_graphs)
            assert _ids(split.contamination_pool) == [
                gid for gid in _ids(pool) if gid not in _ids(picked)]


def test_export_folds_csv(toy_dataset, tmp_path):
    folds = dt.make_folds(toy_dataset, k=3, seed=0)
    path = tmp_path / "folds.csv"
    dt.export_folds_csv(folds, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "graph_id,fold,role"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 18 * 3  # every graph has a role in every fold
    test_rows = [r for r in rows if r[2] == "test"]
    assert len(test_rows) == 18


# ---------------------------------------------------------------------------
# batching and the synthetic generator

def test_pad_batch_stacks_a_run_in_the_graphs_dtypes(triangle_graph):
    other = build_graph([(0, 1)], 3, graph_id=5)
    adjacency, attributes = dt.pad_batch([triangle_graph, other], n_max=3)
    assert adjacency.shape == (2, 3, 3) and attributes.shape == (2, 3, 2)
    np.testing.assert_array_equal(adjacency[0], triangle_graph.adjacency)
    np.testing.assert_array_equal(attributes[1], other.attributes)
    assert adjacency.dtype == attributes.dtype == np.float64
    # a parsed graph's bool adjacency stays bool, and nothing is widened
    narrow = [dt.Graph(adjacency=g.adjacency.astype(bool),
                       attributes=g.attributes.astype(np.float32),
                       label=g.label, node_count=g.node_count,
                       graph_id=g.graph_id)
              for g in (triangle_graph, other)]
    adjacency, attributes = dt.pad_batch(narrow, n_max=3)
    assert adjacency.dtype == bool and attributes.dtype == np.float32
    np.testing.assert_array_equal(adjacency[1], other.adjacency)


@pytest.mark.parametrize("n_max, culprit", [(3, "graph 2: 4 nodes"),
                                             (4, "graph 1: 3 nodes")],
                         ids=["more", "fewer"])
def test_pad_batch_refuses_a_graph_of_another_node_count(
        triangle_graph, path_graph, n_max, culprit):
    # a graph with more nodes than the run's count, or with fewer
    with pytest.raises(StructuralError, match=f"{culprit} in a run of {n_max}"):
        dt.pad_batch([triangle_graph, path_graph], n_max=n_max)


def test_make_er_dataset_contract():
    ds = dt.make_er_dataset(10, 4, seed=5)
    assert len(ds.graphs) == 14
    assert ds.attribute_dim == 1
    labels = [g.label for g in ds.graphs]
    assert labels.count(0) == 10 and labels.count(1) == 4
    for g in ds.graphs:
        assert 10 <= g.node_count <= 14
        np.testing.assert_allclose(g.adjacency, g.adjacency.T)
        assert np.all(np.diagonal(g.adjacency) == 0)
        np.testing.assert_allclose(g.attributes,
                                   g.adjacency.sum(axis=0)[:, None])


def test_make_er_dataset_deterministic():
    a = dt.make_er_dataset(5, 2, seed=9)
    b = dt.make_er_dataset(5, 2, seed=9)
    for ga, gb in zip(a.graphs, b.graphs):
        np.testing.assert_array_equal(ga.adjacency, gb.adjacency)


def test_make_er_dataset_density_gap():
    ds = dt.make_er_dataset(30, 30, seed=1)
    dens = lambda g: g.adjacency.sum() / (g.node_count * (g.node_count - 1))
    normal = np.mean([dens(g) for g in ds.graphs if g.label == 0])
    anom = np.mean([dens(g) for g in ds.graphs if g.label == 1])
    assert anom > normal + 0.2
