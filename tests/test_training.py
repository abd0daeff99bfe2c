"""Training loop behavior: memorization, determinism, batching, failure modes."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from hiermem import autodiff as ad
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
    bl = batch_losses(forward_batch(params, mcfg, *arrays), *arrays, mcfg)
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
    bl = batch_losses(out, *arrays, mcfg)
    expected = (bl.rec_structure.data + bl.rec_attribute.data
                + bl.approximation.data).astype(np.float64)
    np.testing.assert_array_equal(got, expected)
