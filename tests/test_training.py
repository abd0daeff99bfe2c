"""Training loop behavior: memorization, determinism, batching, failure modes."""

import dataclasses
import gc
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import autodiff as ad
from hiermem import blas
from hiermem import model as M
from hiermem import training as T
from hiermem.data import Graph, make_er_dataset, pad_batch
from hiermem.errors import ConfigurationError, TrainingDiverged
from hiermem.model import anomaly_score, batch_losses, forward_batch, init_params
from hiermem.optim import Adam
from hiermem.training import TrainConfig

from conftest import build_graph


SMALL = dict(hidden_dim=8, latent_dim=5, num_node_memory=2, num_graph_memory=2)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.0)


def test_empty_training_set_rejected():
    with pytest.raises(ConfigurationError, match="empty"):
        T.train([], TrainConfig(**SMALL))


def test_epochs_zero_returns_init_and_empty_history(triangle_graph):
    params, history = T.train([triangle_graph], TrainConfig(epochs=0, **SMALL))
    assert history == []
    assert params.enc1.data.shape == (2, 8)


def test_history_rows_have_all_fields_and_decreasing_loss(toy_dataset):
    cfg = TrainConfig(epochs=12, batch_size=8, learning_rate=5e-3,
                      seed=0, **SMALL)
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    params, history = T.train(normals, cfg)
    assert len(history) == 12
    for i, row in enumerate(history):
        assert row["epoch"] == i
        assert set(row) == set(T.HISTORY_FIELDS)
    assert history[-1]["total"] < history[0]["total"]


def test_same_seed_bitwise_identical_history(toy_dataset):
    cfg = TrainConfig(epochs=4, batch_size=4, seed=123, **SMALL)
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    _, h1 = T.train(normals, cfg)
    _, h2 = T.train(normals, cfg)
    assert h1 == h2  # exact float equality, not approximate


def test_different_seeds_differ(toy_dataset):
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    _, h1 = T.train(normals, TrainConfig(epochs=2, seed=0, **SMALL))
    _, h2 = T.train(normals, TrainConfig(epochs=2, seed=1, **SMALL))
    assert h1 != h2


def test_memorization_single_graph():
    # the desk-size model shrinks the loss by an order of magnitude; the
    # full-width variant of this check lives in the acceptance suite
    g = make_er_dataset(1, 0, seed=3).graphs[0]
    cfg = TrainConfig(epochs=300, batch_size=1, learning_rate=1e-2,
                      seed=0, hidden_dim=16, latent_dim=8,
                      num_node_memory=2, num_graph_memory=2)
    params, history = T.train([g], cfg)
    assert history[-1]["total"] < 0.1 * history[0]["total"]


def test_memorized_graph_scores_below_random_graph():
    ds = make_er_dataset(1, 0, seed=3)
    g = ds.graphs[0]
    cfg = TrainConfig(epochs=300, batch_size=1, learning_rate=1e-2,
                      seed=0, hidden_dim=16, latent_dim=8,
                      num_node_memory=2, num_graph_memory=2)
    params, _ = T.train([g], cfg)
    mcfg = T.make_model_config(cfg, 1, g.node_count)
    other = make_er_dataset(3, 0, seed=77,
                            n_range=(g.node_count, g.node_count)).graphs[1]
    assert anomaly_score(g, params, mcfg) < anomaly_score(other, params, mcfg)


def test_divergence_names_the_non_finite_term(toy_dataset, monkeypatch):
    normals = [g for g in toy_dataset.graphs if g.label == 0][:3]
    real = T.batch_losses
    calls = []

    def poisoned(*args, **kwargs):
        bl = real(*args, **kwargs)
        calls.append(None)
        if len(calls) < 5:  # three batches per epoch: poison epoch 1, batch 1
            return bl
        bad = ad.add(ad.mul(bl.approximation, 0.0), np.nan)
        return dataclasses.replace(bl, approximation=bad,
                                   total=ad.add(bl.total, bad))

    monkeypatch.setattr(T, "batch_losses", poisoned)
    cfg = TrainConfig(epochs=3, batch_size=1, seed=0, **SMALL)
    with pytest.raises(TrainingDiverged,
                       match=r"non-finite approximation loss .* epoch 1, batch 1$"):
        T.train(normals, cfg)



def test_nan_weight_makes_training_diverge(toy_dataset, monkeypatch):
    # ReLU passes NaN through, so one bad weight reaches the loss instead
    # of being clipped to 0 and scoring silently
    def poisoned(*args, **kwargs):
        params = init_params(*args, **kwargs)
        params.enc1.data[0, 0] = np.nan
        return params

    monkeypatch.setattr(T, "init_params", poisoned)
    normals = [g for g in toy_dataset.graphs if g.label == 0][:4]
    cfg = TrainConfig(epochs=2, batch_size=4, seed=0, **SMALL)
    with pytest.raises(TrainingDiverged, match=r"epoch 0, batch 0$"):
        T.train(normals, cfg)

def test_divergence_raises(toy_dataset):
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    cfg = TrainConfig(epochs=200, learning_rate=1e12, seed=0, **SMALL)
    with pytest.raises((TrainingDiverged, FloatingPointError)):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            T.train(normals, cfg)


def test_bucketing_off_still_converges(toy_dataset):
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    cfg = TrainConfig(epochs=10, batch_size=4, learning_rate=5e-3, seed=0,
                      bucket_by_size=False, **SMALL)
    _, history = T.train(normals, cfg)
    assert history[-1]["total"] < history[0]["total"]


def test_single_batch_bucketed_equals_unbucketed(toy_dataset):
    # with every graph in one batch, bucketing only changes padding width,
    # which masked losses cannot see
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    base = dict(epochs=3, batch_size=len(normals), learning_rate=1e-3,
                seed=5, **SMALL)
    _, h_bucketed = T.train(normals, TrainConfig(bucket_by_size=True, **base))
    _, h_plain = T.train(normals, TrainConfig(bucket_by_size=False, **base))
    for r1, r2 in zip(h_bucketed, h_plain):
        assert r1["total"] == pytest.approx(r2["total"], rel=1e-5)


def test_max_nodes_override_sizes_memory(toy_dataset):
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    cfg = TrainConfig(epochs=1, **SMALL)
    params, _ = T.train(normals, cfg, max_nodes=10)
    assert params.node_memory.data.shape[1] == 10


def test_score_graphs_aligned_to_input_order(toy_dataset):
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    cfg = TrainConfig(epochs=2, seed=0, **SMALL)
    params, _ = T.train(normals, cfg)
    mcfg = T.make_model_config(cfg, 2, max(g.node_count for g in toy_dataset.graphs))
    graphs = toy_dataset.graphs
    got = T.score_graphs(params, mcfg, graphs, batch_size=4)
    expected = [anomaly_score(g, params, mcfg) for g in graphs]
    np.testing.assert_allclose(got, expected, rtol=1e-4)


def test_score_graphs_empty_list(toy_model_config, toy_params):
    out = T.score_graphs(toy_params, toy_model_config, [])
    assert out.shape == (0,)


def test_variants_all_train(toy_dataset):
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    for variant in ("full", "no_node", "no_graph", "gae_only"):
        cfg = TrainConfig(epochs=2, seed=0, variant=variant, **SMALL)
        params, history = T.train(normals, cfg)
        assert len(history) == 2
        assert np.isfinite(history[-1]["total"])
        if variant in ("no_node", "gae_only"):
            assert params.node_memory is None
        if variant in ("no_graph", "gae_only"):
            assert params.graph_memory is None
        if variant == "gae_only":
            assert history[-1]["approximation"] == 0.0
            assert history[-1]["entropy"] == 0.0


def test_config_dict_round_trip():
    cfg = TrainConfig(epochs=7, seed=3, **SMALL)
    d = T.config_dict(cfg)
    assert d["epochs"] == 7
    assert TrainConfig(**d) == cfg


def _tape_nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_float32_step_keeps_loss_tape_gradients_and_moments_float32(toy_dataset):
    normals = [g for g in toy_dataset.graphs if g.label == 0]
    mcfg = T.make_model_config(TrainConfig(**SMALL), 2, toy_dataset.n_max)
    params = init_params(mcfg, np.random.default_rng(0), dtype=np.float32)
    batch = pad_batch(normals, toy_dataset.n_max)
    arrays = (batch.adjacency_padded, batch.attributes_padded, batch.node_mask)
    bl = batch_losses(forward_batch(params, mcfg, *arrays), mcfg)
    loss = ad.reduce_mean(bl.total)
    assert loss.data.dtype == np.float32
    nodes = _tape_nodes(loss)
    assert len(nodes) > 30
    assert {n.data.dtype for n in nodes} == {np.dtype(np.float32)}
    opt = Adam(params.tensors())
    ad.backward(loss)
    opt.step()
    assert {p.grad.dtype for p in params.tensors()} == {np.dtype(np.float32)}
    assert {a.dtype for st in opt.states for a in (st.m, st.v)} == {
        np.dtype(np.float32)}


@pytest.fixture
def scoring_setup():
    ds = make_er_dataset(10, 6, seed=5, n_range=(12, 16))
    cfg = TrainConfig(epochs=1, batch_size=8, seed=0, hidden_dim=256,
                      latent_dim=128)
    params, _ = T.train([g for g in ds.graphs if g.label == 0], cfg)
    return params, T.make_model_config(cfg, 1, 16), ds.graphs


def test_score_graphs_records_no_tape(scoring_setup):
    params, mcfg, graphs = scoring_setup
    for p in params.tensors():
        p.grad = None
    gc.disable()
    try:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scores = T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert all(p.grad is None and p.requires_grad for p in params.tensors())
    # only the returned scores outlive the call
    assert after - before < scores.nbytes + 4096
    activation = len(graphs) * 16 * mcfg.hidden_dim * 4    # (B, N, hidden) f32
    assert peak - before < 5 * activation


def test_score_graphs_equals_the_training_forward(scoring_setup):
    params, mcfg, graphs = scoring_setup
    got = T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))
    batch = pad_batch(graphs, max(g.node_count for g in graphs))
    arrays = (batch.adjacency_padded, batch.attributes_padded, batch.node_mask)
    out = forward_batch(params, mcfg, *arrays)
    assert out.h_nodes.requires_grad
    bl = batch_losses(out, mcfg)
    expected = (bl.rec_structure.data + bl.rec_attribute.data
                + bl.approximation.data).astype(np.float64)
    np.testing.assert_array_equal(got, expected)


def _graphs_of_sizes(sizes, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for gid, n in enumerate(sizes):
        upper = np.triu(rng.random((n, n)) < 0.3, k=1)
        graphs.append(Graph(adjacency=(upper | upper.T).astype(float),
                            attributes=rng.normal(size=(n, 2)), label=0,
                            node_count=n, graph_id=gid))
    return graphs


def test_score_graphs_on_a_mixed_batch_equals_single_graph_scores():
    graphs = _graphs_of_sizes([40, 1, 7, 2, 7, 1])
    cfg = TrainConfig(epochs=1, batch_size=6, seed=0, **SMALL)
    params, _ = T.train(graphs, cfg)
    mcfg = T.make_model_config(cfg, 2, 40)
    got = T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))
    expected = [anomaly_score(g, params, mcfg) for g in graphs]
    np.testing.assert_allclose(got, expected, rtol=1e-5)


def test_training_with_every_shrink_row_dead_falls_back_to_argmax():
    # with two blocks every softmax weight is below 0.9, so hard shrink
    # keeps only each row's largest weight
    graphs = _graphs_of_sizes([3, 5, 5, 8, 1])
    cfg = TrainConfig(epochs=3, batch_size=5, seed=0, shrink_lambda=0.9,
                      **SMALL)
    params, history = T.train(graphs, cfg)
    assert all(np.isfinite(row[k]) for row in history for k in row)
    assert all(np.all(np.isfinite(t.data)) for t in params.tensors())
    mcfg = T.make_model_config(cfg, 2, 8)
    batch = pad_batch(graphs, 8)
    out = forward_batch(params, mcfg, batch.adjacency_padded,
                        batch.attributes_padded, batch.node_mask)
    for w in (out.node_weights, out.graph_weights):
        assert set(np.unique(w.data)) == {0.0, 1.0}
    assert history[-1]["entropy"] == 0.0


def test_tape_nodes_do_not_depend_on_how_many_sizes_a_batch_mixes():
    mcfg = T.make_model_config(TrainConfig(**SMALL), 2, 9)

    def step_nodes(sizes):
        params = init_params(mcfg, np.random.default_rng(0))
        batch = next(T._batches(_graphs_of_sizes(sizes), list(range(len(sizes))),
                                len(sizes), np.float32))[1]
        loss = ad.reduce_mean(batch_losses(forward_batch(params, mcfg, batch),
                                           mcfg).total)
        assert np.isfinite(float(loss.data))
        return len(batch.runs), len(_tape_nodes(loss))

    one_size = step_nodes([5] * 8)
    many_sizes = step_nodes([1, 2, 3, 4, 5, 6, 8, 9])
    assert one_size[0] == 1 and many_sizes[0] == 8
    assert one_size[1] == many_sizes[1]


@pytest.mark.parametrize("batch_size", [0, -1])
def test_score_graphs_rejects_a_batch_size_below_one(batch_size, toy_model_config,
                                                     toy_params, triangle_graph):
    with pytest.raises(ConfigurationError,
                       match=f"batch_size must be >= 1, got {batch_size}"):
        T.score_graphs(toy_params, toy_model_config, [triangle_graph],
                       batch_size=batch_size)


# ---------------------------------------------------------------------------
# scoring a bucket in parts on a thread pool

def _real_blas_threads():
    """The bundled OpenBLAS's own count, whatever `blas.threads` is patched
    to; None without it."""
    funcs = blas._openblas()
    return None if funcs is None else funcs[0]()


@pytest.fixture
def forced_split(monkeypatch):
    """Buckets of 8 or more node rows split into up to 3 parts."""
    monkeypatch.setattr(T, "SPLIT_ROWS", 4)
    monkeypatch.setattr(blas, "threads", lambda: 3)


@pytest.fixture
def split_setup():
    graphs = _graphs_of_sizes([9, 1, 7, 2, 7, 1, 5, 6, 3, 8, 4, 9], seed=3)
    cfg = TrainConfig(epochs=1, batch_size=6, seed=0, **SMALL)
    params, _ = T.train(graphs, cfg)
    return params, T.make_model_config(cfg, 2, 9), graphs


def _record_parts(monkeypatch):
    """Wrap the `score_batch` that `score_graphs` calls; returns the list of
    (batch, scores, OpenBLAS threads during the call) it fills."""
    calls, real = [], T.score_batch

    def recording(params, cfg, batch):
        out = real(params, cfg, batch)
        calls.append((batch, out, _real_blas_threads()))
        return out

    monkeypatch.setattr(T, "score_batch", recording)
    return calls


def test_parts_are_contiguous_and_balanced_by_node_rows(monkeypatch):
    monkeypatch.setattr(T, "SPLIT_ROWS", 4)
    graphs = _graphs_of_sizes([1, 1, 2, 7, 7, 40, 3, 3, 3, 3])
    assert T._parts(graphs, list(range(6)), 1) == [list(range(6))]
    # the 40-node graph holds more than a third of the rows: 2 parts, not 3
    assert T._parts(graphs, list(range(6)), 3) == [[0, 1, 2, 3, 4], [5]]
    assert T._parts(graphs, list(range(6, 10)), 2) == [[6, 7], [8, 9]]
    assert T._parts(graphs, list(range(6, 10)), 3) == [[6], [7, 8], [9]]
    # 12 rows make at most 3 parts of 4 rows on average, whatever the threads
    assert T._parts(graphs, list(range(6, 10)), 8) == [[6], [7, 8], [9]]
    assert T._parts(graphs, [6, 7], 8) == [[6, 7]]       # 6 rows: one part


def test_split_scores_equal_each_part_scored_serially(split_setup, forced_split,
                                                      monkeypatch):
    params, mcfg, graphs = split_setup
    calls = _record_parts(monkeypatch)
    got = T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))

    order = sorted(range(len(graphs)), key=lambda i: graphs[i].node_count)
    parts = T._parts(graphs, order, 3)
    assert len(parts) == 3 and len(calls) == 3
    expected = np.zeros(len(graphs))
    with blas.pinned(1):
        for part in parts:
            expected[part] = M.score_batch(
                params, mcfg, T._ragged(graphs, part, np.float32))
    np.testing.assert_array_equal(got, expected)

    monkeypatch.setattr(T, "SPLIT_ROWS", 10**9)
    whole = T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))
    assert len(calls) == 4
    np.testing.assert_allclose(got, whole, rtol=1e-5)


def test_split_over_more_threads_than_cores_loses_no_score(split_setup,
                                                           monkeypatch):
    params, mcfg, _ = split_setup
    graphs = _graphs_of_sizes([1 + i % 9 for i in range(120)], seed=4)
    monkeypatch.setattr(T, "SPLIT_ROWS", 4)
    monkeypatch.setattr(blas, "threads", lambda: 8)
    calls = _record_parts(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = T.score_graphs(params, mcfg, graphs, batch_size=40)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 3 * 8
    order = sorted(range(len(graphs)), key=lambda i: graphs[i].node_count)
    expected = np.zeros(len(graphs))
    with blas.pinned(1):
        for start in range(0, len(order), 40):
            for part in T._parts(graphs, order[start:start + 40], 8):
                expected[part] = M.score_batch(
                    params, mcfg, T._ragged(graphs, part, np.float32))
    np.testing.assert_array_equal(got, expected)


def test_split_pins_openblas_to_one_thread_and_restores_it(split_setup,
                                                           forced_split,
                                                           monkeypatch):
    params, mcfg, graphs = split_setup
    if _real_blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS")
    calls = _record_parts(monkeypatch)
    with blas.pinned(2):
        before = _real_blas_threads()
        T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))
        assert _real_blas_threads() == before
        assert len(calls) == 3 and {c[2] for c in calls} == {1}

        # the widest graph lands in the last part, which a pool thread scores
        narrow = dataclasses.replace(mcfg, max_nodes=8)
        narrow_params = init_params(narrow, np.random.default_rng(0))
        with pytest.raises(ConfigurationError,
                           match="batch width 9 exceeds memory width 8"):
            T.score_graphs(narrow_params, narrow, graphs,
                           batch_size=len(graphs))
        assert _real_blas_threads() == before


def test_no_openblas_means_no_pool_and_no_pin(split_setup, monkeypatch):
    params, mcfg, graphs = split_setup
    serial = T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))

    def refuse(*args, **kwargs):
        raise AssertionError("scoring must stay serial")

    monkeypatch.setattr(T, "SPLIT_ROWS", 4)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    monkeypatch.setattr(blas, "pinned", refuse)
    monkeypatch.setattr(T, "ThreadPoolExecutor", refuse)
    calls = _record_parts(monkeypatch)
    got = T.score_graphs(params, mcfg, graphs, batch_size=len(graphs))
    assert len(calls) == 1
    np.testing.assert_array_equal(got, serial)


def test_cv_with_two_jobs_equals_serial_while_scoring_splits(forced_split,
                                                             monkeypatch):
    from hiermem.evaluation import run_cv
    ds = make_er_dataset(20, 10, seed=4)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=0, **SMALL)
    calls = _record_parts(monkeypatch)
    serial = run_cv(ds, cfg, k=3, seed=3, jobs=1)
    assert len(calls) > 3       # three folds of one bucket each, split
    parallel = run_cv(ds, cfg, k=3, seed=3, jobs=2)
    assert serial.per_fold_auc == parallel.per_fold_auc
    assert serial.per_graph_scores == parallel.per_graph_scores


def test_a_float64_checkpoint_scores_in_float64_through_the_split(
        split_setup, forced_split, monkeypatch, tmp_path):
    _, mcfg, graphs = split_setup
    M.save_params(tmp_path / "model.npz",
                  init_params(mcfg, np.random.default_rng(2), dtype=np.float64),
                  mcfg)
    params, cfg = M.load_params(tmp_path / "model.npz")
    calls = _record_parts(monkeypatch)
    got = T.score_graphs(params, cfg, graphs, batch_size=len(graphs))
    assert len(calls) == 3
    assert {c[0].x.dtype for c in calls} == {np.dtype(np.float64)}
    monkeypatch.setattr(T, "SPLIT_ROWS", 10**9)
    whole = T.score_graphs(params, cfg, graphs, batch_size=len(graphs))
    np.testing.assert_allclose(got, whole, rtol=1e-12)


# ---------------------------------------------------------------------------
# scoring chunks capped by node rows

def test_scoring_memory_does_not_grow_with_the_count_of_large_graphs(
        monkeypatch):
    # sixty-node graphs at default widths: 200 of them in chunks of up to
    # 300 graphs hold twice the node rows of 100, and once held twice the
    # activations (76 against 38 MiB). Scored serially, so the peak does not
    # depend on how the parts of a split chunk overlap in time.
    monkeypatch.setattr(blas, "threads", lambda: 1)
    mcfg = T.make_model_config(TrainConfig(), 2, 60)
    params = init_params(mcfg, np.random.default_rng(0), dtype=np.float32)
    graphs = _graphs_of_sizes([60] * 200)

    def peak(count):
        gc.collect()
        tracemalloc.start()
        try:
            T.score_graphs(params, mcfg, graphs[:count], batch_size=300)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(100), peak(200)
    assert large <= 1.1 * small, (small, large)


def _rows(graphs, idx):
    return sum(graphs[i].node_count for i in idx)


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 30), min_size=1, max_size=40),
       batch_size=st.integers(1, 12), cap=st.integers(1, 80))
def test_capped_chunks_cover_every_graph_once_within_both_limits(sizes,
                                                                 batch_size,
                                                                 cap):
    graphs = _graphs_of_sizes(sizes)
    order = T._size_order(graphs)
    chunks = list(T._chunks(graphs, order, batch_size, cap))
    assert [i for chunk in chunks for i in chunk] == order
    for chunk, after in zip(chunks, chunks[1:] + [None]):
        assert 1 <= len(chunk) <= batch_size
        assert len(chunk) == 1 or _rows(graphs, chunk) <= cap
        if after is not None:
            # a chunk closes only when the next graph breaks a limit
            assert (len(chunk) == batch_size
                    or _rows(graphs, chunk) + graphs[after[0]].node_count > cap)
    for i, g in enumerate(graphs):
        if g.node_count > cap:
            assert [i] in chunks
    # without a cap the chunks are the plain slices training batches use
    uncapped = list(T._chunks(graphs, order, batch_size))
    assert uncapped == [order[s:s + batch_size]
                        for s in range(0, len(order), batch_size)]


@pytest.fixture(scope="module")
def chunk_model():
    mcfg = T.make_model_config(TrainConfig(**SMALL), 2, 12)
    return init_params(mcfg, np.random.default_rng(1)), mcfg


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=30),
       batch_size=st.integers(1, 10), cap=st.integers(1, 40),
       threads=st.integers(1, 3))
def test_capped_scores_equal_each_chunk_part_scored_alone(chunk_model, sizes,
                                                          batch_size, cap,
                                                          threads):
    params, mcfg = chunk_model
    graphs = _graphs_of_sizes(sizes, seed=len(sizes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "CHUNK_ROWS", cap)
        mp.setattr(T, "SPLIT_ROWS", 4)
        mp.setattr(blas, "threads", lambda: threads)
        got = T.score_graphs(params, mcfg, graphs, batch_size=batch_size)
        plans = [T._parts(graphs, chunk, threads) for chunk in
                 T._chunks(graphs, T._size_order(graphs), batch_size, cap)]

    expected = np.zeros(len(graphs))

    def score(parts):
        for part in parts:
            expected[part] = M.score_batch(
                params, mcfg, T._ragged(graphs, part, np.float32))

    for parts in plans:
        if len(parts) == 1:
            score(parts)
    with blas.pinned(1):
        for parts in plans:
            if len(parts) > 1:
                score(parts)
    np.testing.assert_array_equal(got, expected)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "CHUNK_ROWS", np.inf)
        whole = T.score_graphs(params, mcfg, graphs, batch_size=batch_size)
    np.testing.assert_allclose(got, whole, rtol=1e-5)


def test_a_graph_wider_than_the_node_memory_raises_the_same_error_capped(
        monkeypatch):
    graphs = _graphs_of_sizes([3, 9, 2, 4, 5])
    narrow = T.make_model_config(TrainConfig(**SMALL), 2, 8)
    params = init_params(narrow, np.random.default_rng(0))

    def message():
        with pytest.raises(ConfigurationError) as info:
            T.score_graphs(params, narrow, graphs, batch_size=len(graphs))
        return str(info.value)

    uncapped = message()
    monkeypatch.setattr(T, "CHUNK_ROWS", 8)     # the 9-node graph alone
    assert message() == uncapped == "batch width 9 exceeds memory width 8"
