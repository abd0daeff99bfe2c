"""Training loop behavior: memorization, determinism, batching, failure modes."""

import contextlib
import dataclasses
import gc
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import autodiff as ad
from hiermem import blas
from hiermem import model as M
from hiermem import training as T
from hiermem.data import Graph, make_er_dataset
from hiermem.errors import ConfigurationError, TrainingDiverged
from hiermem.model import batch_losses, forward_batch, init_params
from hiermem.optim import Adam
from hiermem.training import TrainConfig

from conftest import build_graph, ragged


def single_scores(params, cfg, graphs):
    """Each graph scored on its own."""
    return [T.score_graphs(params, cfg, [g])[0] for g in graphs]


SMALL = dict(hidden_dim=8, latent_dim=5, num_node_memory=2, num_graph_memory=2)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=-1)
    with pytest.raises(ConfigurationError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        TrainConfig(learning_rate=0.0)
    for field in ("learning_rate", "alpha"):
        for value in (np.nan, np.inf):
            with pytest.raises(ConfigurationError, match=f"{field} must be"):
                TrainConfig(**{field: value})


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
    assert T.score_graphs(params, mcfg, [g])[0] < T.score_graphs(params, mcfg, [other])[0]


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
    got = T.score_graphs(params, mcfg, graphs)
    expected = single_scores(params, mcfg, graphs)
    np.testing.assert_allclose(got, expected, rtol=1e-4)


def test_score_graphs_names_the_first_graph_whose_score_is_not_finite(
        toy_model_config, toy_params):
    # attributes that fit float32 but whose squared error overflows it
    huge = [build_graph([(0, 1)], 2, graph_id=gid) for gid in (7, 8)]
    for g in huge:
        g.attributes[:] = 1e30
    graphs = [build_graph([(0, 1), (1, 2)], 3, graph_id=5)] + huge
    with np.errstate(all="ignore"), pytest.raises(
            TrainingDiverged, match="^graph 7: non-finite score$"):
        T.score_graphs(toy_params, toy_model_config, graphs)


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
    bl = batch_losses(forward_batch(params, mcfg, ragged(normals)), mcfg)
    loss = ad.reduce_mean(bl.total)
    assert loss.data.dtype == np.float32
    nodes = _tape_nodes(loss)
    assert len(nodes) > 30
    assert {n.data.dtype for n in nodes} == {np.dtype(np.float32)}
    opt = Adam(params.tensors(), lr=1e-3)
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
            scores = T.score_graphs(params, mcfg, graphs)
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
    got = T.score_graphs(params, mcfg, graphs)
    out = forward_batch(params, mcfg, ragged(graphs))
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
    got = T.score_graphs(params, mcfg, graphs)
    expected = single_scores(params, mcfg, graphs)
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
    out = forward_batch(params, mcfg, ragged(graphs))
    for w in (out.node_weights, out.graph_weights):
        assert set(np.unique(w.data)) == {0.0, 1.0}
    assert history[-1]["entropy"] == 0.0


def test_tape_nodes_do_not_depend_on_how_many_sizes_a_batch_mixes():
    mcfg = T.make_model_config(TrainConfig(**SMALL), 2, 9)

    def step_nodes(sizes):
        params = init_params(mcfg, np.random.default_rng(0))
        batch = ragged(_graphs_of_sizes(sizes))
        loss = ad.reduce_mean(batch_losses(forward_batch(params, mcfg, batch),
                                           mcfg).total)
        assert np.isfinite(float(loss.data))
        return len(batch.runs), len(_tape_nodes(loss))

    one_size = step_nodes([5] * 8)
    many_sizes = step_nodes([1, 2, 3, 4, 5, 6, 8, 9])
    assert one_size[0] == 1 and many_sizes[0] == 8
    assert one_size[1] == many_sizes[1]


# ---------------------------------------------------------------------------
# scoring in sub-batches capped by node rows, serially or on a thread pool

def _real_blas_threads():
    """The bundled OpenBLAS's own count, whatever `blas.threads` is patched
    to; None without it."""
    funcs = blas._openblas()
    return None if funcs is None else funcs[0]()


@pytest.fixture
def forced_split(monkeypatch):
    """Sub-batches of at most 16 node rows; inputs of 32 rows or more are
    scored on a pool of 3 threads."""
    monkeypatch.setattr(T, "MAX_ROWS", 16)
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


def _record_pools(monkeypatch):
    """Wrap the `ThreadPoolExecutor` that `score_graphs` makes; returns the
    list of the thread counts of the pools it made."""
    pools = []

    def recording(threads):
        pools.append(threads)
        return ThreadPoolExecutor(threads)

    monkeypatch.setattr(T, "ThreadPoolExecutor", recording)
    return pools


def _sub_batches(graphs):
    """The sub-batches of the plan of `graphs` as one batch."""
    [subs] = T._plan(graphs, len(graphs))
    return subs


def _scored_alone(params, cfg, graphs, subs, pinned):
    """Each sub-batch scored on its own, with OpenBLAS on one thread if
    `pinned`."""
    scores = np.zeros(len(graphs))
    with blas.pinned(1) if pinned else contextlib.nullcontext():
        for sub in subs:
            scores[sub] = M.score_batch(params, cfg, M.ragged_batch(
                [graphs[i] for i in sub], params.enc1.data.dtype))
    return scores


def test_split_scores_equal_each_part_scored_serially(split_setup, forced_split,
                                                      monkeypatch):
    params, mcfg, graphs = split_setup
    calls, pools = _record_parts(monkeypatch), _record_pools(monkeypatch)
    got = T.score_graphs(params, mcfg, graphs)

    subs = _sub_batches(graphs)
    assert len(subs) == len(calls) == 5 and pools == [3]
    np.testing.assert_array_equal(
        got, _scored_alone(params, mcfg, graphs, subs, pinned=True))

    monkeypatch.setattr(T, "MAX_ROWS", 10**9)
    whole = T.score_graphs(params, mcfg, graphs)
    assert len(calls) == 6 and pools == [3]
    np.testing.assert_allclose(got, whole, rtol=1e-5)


def test_inputs_under_twice_the_row_cap_never_reach_the_pool(split_setup,
                                                             monkeypatch):
    params, mcfg, graphs = split_setup
    monkeypatch.setattr(blas, "threads", lambda: 3)
    rows = sum(g.node_count for g in graphs)
    monkeypatch.setattr(T, "MAX_ROWS", rows // 2 + 1)

    def refuse(*args, **kwargs):
        raise AssertionError("scoring must stay serial")

    monkeypatch.setattr(blas, "pinned", refuse)
    monkeypatch.setattr(T, "ThreadPoolExecutor", refuse)
    calls = _record_parts(monkeypatch)
    got = T.score_graphs(params, mcfg, graphs)
    subs = _sub_batches(graphs)
    assert len(subs) == len(calls) > 1
    np.testing.assert_array_equal(
        got, _scored_alone(params, mcfg, graphs, subs, pinned=False))


def test_split_over_more_threads_than_cores_loses_no_score(split_setup,
                                                           monkeypatch):
    params, mcfg, _ = split_setup
    graphs = _graphs_of_sizes([1 + i % 9 for i in range(120)], seed=4)
    monkeypatch.setattr(T, "MAX_ROWS", 24)
    monkeypatch.setattr(blas, "threads", lambda: 8)
    calls, pools = _record_parts(monkeypatch), _record_pools(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = T.score_graphs(params, mcfg, graphs)
    finally:
        sys.setswitchinterval(interval)
    subs = _sub_batches(graphs)
    assert len(calls) == len(subs) > 8 and pools == [8]
    np.testing.assert_array_equal(
        got, _scored_alone(params, mcfg, graphs, subs, pinned=True))


def test_split_pins_openblas_to_one_thread_and_restores_it(split_setup,
                                                           forced_split,
                                                           monkeypatch):
    params, mcfg, graphs = split_setup
    if _real_blas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS")
    calls = _record_parts(monkeypatch)
    with blas.pinned(2):
        before = _real_blas_threads()
        T.score_graphs(params, mcfg, graphs)
        assert _real_blas_threads() == before
        assert len(calls) == 5 and {c[2] for c in calls} == {1}

        # a graph wider than the node memory is refused before the pool
        # scores any sub-batch
        narrow = dataclasses.replace(mcfg, max_nodes=8)
        narrow_params = init_params(narrow, np.random.default_rng(0))
        with pytest.raises(ConfigurationError,
                           match="graph 0 has 9 nodes, more than the node "
                                 "memory's max_nodes=8"):
            T.score_graphs(narrow_params, narrow, graphs)
        assert _real_blas_threads() == before
        assert len(calls) == 5

        # an error a sub-batch raises on the pool leaves score_graphs, and
        # OpenBLAS gets its thread count back
        with pytest.raises(ConfigurationError,
                           match="attribute dim 3 does not match"):
            T.score_graphs(params, mcfg, _with_three_attributes(graphs, 9))
        assert _real_blas_threads() == before


def _with_three_attributes(graphs, size):
    """`graphs`, those of `size` nodes given three attribute columns."""
    return [Graph(adjacency=g.adjacency, attributes=np.ones((size, 3)),
                  label=g.label, node_count=size, graph_id=g.graph_id)
            if g.node_count == size else g for g in graphs]


def test_no_openblas_means_no_pool_and_no_pin(split_setup, monkeypatch):
    params, mcfg, graphs = split_setup

    def refuse(*args, **kwargs):
        raise AssertionError("scoring must stay serial")

    monkeypatch.setattr(T, "MAX_ROWS", 16)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    monkeypatch.setattr(blas, "pinned", refuse)
    monkeypatch.setattr(T, "ThreadPoolExecutor", refuse)
    calls = _record_parts(monkeypatch)
    got = T.score_graphs(params, mcfg, graphs)
    subs = _sub_batches(graphs)
    assert len(calls) == len(subs) == 5
    np.testing.assert_array_equal(
        got, _scored_alone(params, mcfg, graphs, subs, pinned=False))


def test_cv_with_two_jobs_equals_serial_while_scoring_splits(forced_split,
                                                             monkeypatch):
    from hiermem.evaluation import run_cv
    ds = make_er_dataset(20, 10, seed=4)
    cfg = TrainConfig(epochs=2, batch_size=16, seed=3, **SMALL)
    pools = _record_pools(monkeypatch)
    serial = run_cv(ds, cfg, k=3, jobs=1)
    assert pools == [3] * 3     # every fold's test set is scored on the pool
    parallel = run_cv(ds, cfg, k=3, jobs=2)
    assert serial.per_fold_auc == parallel.per_fold_auc
    assert serial.per_graph_scores == parallel.per_graph_scores


def test_a_float64_checkpoint_scores_as_its_float32_cast_through_the_split(
        split_setup, forced_split, monkeypatch, tmp_path):
    _, mcfg, graphs = split_setup
    wide = init_params(mcfg, np.random.default_rng(2), dtype=np.float64)
    M.save_params(tmp_path / "model.npz", wide, mcfg)
    params, cfg = M.load_params(tmp_path / "model.npz")
    cast = M.ModelParams(**{name: ad.Tensor(t.data.astype(np.float32))
                            for name, t in wide.named_tensors()})
    calls, pools = _record_parts(monkeypatch), _record_pools(monkeypatch)
    got = T.score_graphs(params, cfg, graphs)
    assert len(calls) == 5 and pools == [3]
    assert {c[0].x.dtype for c in calls} == {np.dtype(np.float32)}
    np.testing.assert_array_equal(
        got, _scored_alone(params, cfg, graphs, _sub_batches(graphs),
                           pinned=True))
    np.testing.assert_array_equal(got, T.score_graphs(cast, mcfg, graphs))


def test_scoring_memory_does_not_grow_with_the_count_of_large_graphs(
        monkeypatch):
    # sixty-node graphs at default widths: 200 of them hold twice the node
    # rows of 100, and in chunks of up to 300 graphs once held twice the
    # activations (76 against 38 MiB). Scored serially, so the peak does not
    # depend on how the pool's sub-batches overlap in time.
    monkeypatch.setattr(blas, "threads", lambda: 1)
    mcfg = T.make_model_config(TrainConfig(), 2, 60)
    params = init_params(mcfg, np.random.default_rng(0), dtype=np.float32)
    graphs = _graphs_of_sizes([60] * 200)

    def peak(count):
        gc.collect()
        tracemalloc.start()
        try:
            T.score_graphs(params, mcfg, graphs[:count])
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
def test_capped_chunks_cover_every_graph_once_within_both_limits(
        chunk_model, sizes, batch_size, cap):
    graphs = _graphs_of_sizes(sizes)          # graph i has graph id i
    order = sorted(range(len(sizes)), key=lambda i: (sizes[i], i))
    cut = []

    def recording(batch, dtype):
        cut.append([g.graph_id for g in batch])
        return batch

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "MAX_ROWS", cap)
        plan = T._plan(graphs, batch_size)
        [whole] = T._plan(graphs, len(graphs))
        # what scoring cuts, recorded without running the model
        mp.setattr(blas, "threads", lambda: 1)
        mp.setattr(T, "ragged_batch", recording)
        mp.setattr(T, "score_batch",
                   lambda params, cfg, batch: np.zeros(len(batch)))
        params, mcfg = chunk_model
        T.score_graphs(params, dataclasses.replace(mcfg, max_nodes=30), graphs)

    # each batch is the next slice of the size order
    assert [[i for sub in batch for i in sub] for batch in plan] == [
        order[s:s + batch_size] for s in range(0, len(order), batch_size)]
    for batch in plan + [whole]:
        for sub, after in zip(batch, batch[1:] + [None]):
            assert len(sub) == 1 or _rows(graphs, sub) <= cap
            if after is not None:
                # a sub-batch closes only when the next graph breaks the cap
                assert _rows(graphs, sub) + graphs[after[0]].node_count > cap
    assert cut == whole and [i for sub in whole for i in sub] == order


@pytest.fixture(scope="module")
def chunk_model():
    mcfg = T.make_model_config(TrainConfig(**SMALL), 2, 12)
    return init_params(mcfg, np.random.default_rng(1)), mcfg


@settings(max_examples=25, deadline=None)
@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=30),
       cap=st.integers(1, 40), threads=st.integers(1, 3))
def test_capped_scores_equal_each_chunk_part_scored_alone(chunk_model, sizes,
                                                          cap, threads):
    params, mcfg = chunk_model
    graphs = _graphs_of_sizes(sizes, seed=len(sizes))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "MAX_ROWS", cap)
        mp.setattr(blas, "threads", lambda: threads)
        pools = _record_pools(mp)
        got = T.score_graphs(params, mcfg, graphs)
        subs = _sub_batches(graphs)

    # the pool, and OpenBLAS on one thread, only from twice the cap up
    pooled = threads >= 2 and sum(sizes) >= 2 * cap
    assert pools == ([threads] if pooled else [])
    assert all(len(sub) == 1 or _rows(graphs, sub) <= cap for sub in subs)
    np.testing.assert_array_equal(
        got, _scored_alone(params, mcfg, graphs, subs, pinned=pooled))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "MAX_ROWS", np.inf)
        whole = T.score_graphs(params, mcfg, graphs)
    np.testing.assert_allclose(got, whole, rtol=1e-5)


def test_a_graph_wider_than_the_node_memory_raises_the_same_error_capped(
        monkeypatch):
    graphs = _graphs_of_sizes([3, 9, 2, 4, 5])
    narrow = T.make_model_config(TrainConfig(**SMALL), 2, 8)
    params = init_params(narrow, np.random.default_rng(0))

    def message():
        with pytest.raises(ConfigurationError) as info:
            T.score_graphs(params, narrow, graphs)
        return str(info.value)

    uncapped = message()
    monkeypatch.setattr(T, "MAX_ROWS", 8)       # the 9-node graph alone
    monkeypatch.setattr(blas, "threads", lambda: 2)
    assert message() == uncapped == (
        "graph 1 has 9 nodes, more than the node memory's max_nodes=8")
    # a sub-batch that fails, here the 9-node graph alone, raises the same
    # error from the pool as it does serially
    wide = T.make_model_config(TrainConfig(**SMALL), 2, 9)
    wide_params = init_params(wide, np.random.default_rng(0))
    pools, errors = _record_pools(monkeypatch), []
    for threads in (1, 2):
        monkeypatch.setattr(blas, "threads", lambda: threads)
        with pytest.raises(ConfigurationError) as info:
            T.score_graphs(wide_params, wide, _with_three_attributes(graphs, 9))
        errors.append(str(info.value))
    assert pools == [2]
    assert errors[0] == errors[1] == (
        "attribute dim 3 does not match encoder input dim 2")
    # training refuses the same graph, with the same words, before any step
    with pytest.raises(ConfigurationError) as info:
        T.train(graphs, TrainConfig(**SMALL), max_nodes=8)
    assert str(info.value) == message()
    # a model without a node memory has no width to exceed
    no_node = dataclasses.replace(narrow, variant="no_node")
    scores = T.score_graphs(init_params(no_node, np.random.default_rng(0)),
                            no_node, graphs)
    assert np.all(np.isfinite(scores))


# ---------------------------------------------------------------------------
# training batches run as sub-batches capped by node rows

def _one_step(graphs):
    """Parameters and their gradients after one Adam step on all `graphs`
    as one optimizer batch."""
    cfg = TrainConfig(epochs=1, batch_size=len(graphs), seed=3, **SMALL)
    params, _ = T.train(graphs, cfg)
    return ([p.data.copy() for p in params.tensors()],
            [p.grad.copy() for p in params.tensors()])


def test_a_batch_split_into_sub_batches_matches_the_whole_batch(monkeypatch):
    graphs = _graphs_of_sizes([3, 9, 2, 4, 5, 7, 7, 1, 6, 8])
    monkeypatch.setattr(T, "MAX_ROWS", np.inf)
    whole_params, whole_grads = _one_step(graphs)
    monkeypatch.setattr(T, "MAX_ROWS", 12)
    rows, real = [], T.forward_batch

    def counting(params, cfg, batch):
        rows.append(batch.x.shape[0])
        return real(params, cfg, batch)

    monkeypatch.setattr(T, "forward_batch", counting)
    split_params, split_grads = _one_step(graphs)
    assert len(rows) > 3 and max(rows) <= 12 and sum(rows) == 52
    for split, whole in zip(split_grads, whole_grads):
        np.testing.assert_allclose(split, whole, rtol=1e-5)
    for split, whole in zip(split_params, whole_params):
        np.testing.assert_allclose(split, whole, rtol=1e-5)


def test_a_batch_under_the_cap_takes_the_gradient_of_its_mean_loss():
    graphs = _graphs_of_sizes([3, 9, 2, 4, 5])
    cfg = TrainConfig(epochs=1, batch_size=len(graphs), seed=3, **SMALL)
    _, grads = _one_step(graphs)

    mcfg = T.make_model_config(cfg, 2, 9)
    params = init_params(mcfg, np.random.default_rng(3), dtype=np.float32)
    [[idx]] = T._plan(graphs, len(graphs))
    batch = M.ragged_batch([graphs[i] for i in idx], np.float32)
    loss = ad.reduce_mean(batch_losses(forward_batch(params, mcfg, batch),
                                       mcfg).total)
    ad.backward(loss)
    for got, p in zip(grads, params.tensors()):
        np.testing.assert_array_equal(got, p.grad)


def test_a_nan_in_a_later_sub_batch_names_the_optimizer_batch(monkeypatch):
    graphs = _graphs_of_sizes([3, 9, 2, 4, 5, 7])
    real = T.batch_losses
    calls = []

    def poisoned(*args, **kwargs):
        bl = real(*args, **kwargs)
        calls.append(None)
        if len(calls) < 2:
            return bl
        bad = ad.add(ad.mul(bl.rec_attribute, 0.0), np.nan)
        return dataclasses.replace(bl, rec_attribute=bad,
                                   total=ad.add(bl.total, bad))

    monkeypatch.setattr(T, "MAX_ROWS", 10)
    monkeypatch.setattr(T, "batch_losses", poisoned)
    cfg = TrainConfig(epochs=2, batch_size=len(graphs), seed=0, **SMALL)
    with pytest.raises(TrainingDiverged,
                       match=r"non-finite rec_attribute loss .* epoch 0, batch 0$"):
        T.train(graphs, cfg)
    assert len(calls) == 2


def test_training_memory_does_not_grow_with_the_rows_of_a_batch():
    # the same 200 sixty-node graphs at default widths, so the prepared
    # inputs held for the run are the same: in batches of 200 a batch holds
    # twice the node rows of one of 100, and unsplit held about twice the
    # activations (179 against 99 MiB)
    graphs = _graphs_of_sizes([60] * 200)

    def peak(batch_size):
        cfg = TrainConfig(epochs=1, batch_size=batch_size)
        gc.collect()
        tracemalloc.start()
        try:
            T.train(graphs, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(100), peak(200)
    assert large <= 1.1 * small, (small, large)


# ---------------------------------------------------------------------------
# node order

def _permuted(graph, rng):
    perm = rng.permutation(graph.node_count)
    return dataclasses.replace(graph,
                               adjacency=graph.adjacency[np.ix_(perm, perm)],
                               attributes=graph.attributes[perm])


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_only_the_node_memory_makes_scores_depend_on_node_order(variant):
    # the node memory is positional: node i of a graph reads row i of every
    # block, so permuting a graph's nodes moves its score; without it the
    # model is equivariant and the score is a permutation-invariant sum
    ds = make_er_dataset(16, 4, seed=9, n_range=(5, 9))
    normals = [g for g in ds.graphs if g.label == 0]
    cfg = TrainConfig(epochs=3, batch_size=8, seed=0, variant=variant, **SMALL)
    params, _ = T.train(normals, cfg, max_nodes=ds.n_max)
    mcfg = T.make_model_config(cfg, ds.attribute_dim, ds.n_max)
    rng = np.random.default_rng(0)
    shuffled = [_permuted(g, rng) for g in ds.graphs]
    before = T.score_graphs(params, mcfg, ds.graphs)
    after = T.score_graphs(params, mcfg, shuffled)
    change = np.abs(after - before) / np.abs(before)
    if variant in ("full", "no_graph"):
        assert change.max() > 1e-3
    else:
        assert change.max() <= 1e-6
