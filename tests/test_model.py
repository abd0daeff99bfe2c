"""Model pieces against hand-computed examples, plus variant and checkpoint
behavior."""

import dataclasses

import numpy as np
import pytest

from hiermem import model as M
from hiermem.autodiff import Tensor
from hiermem.errors import CheckpointError, ConfigurationError, StructuralError

from conftest import build_graph


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        M.ModelConfig(feature_dim=0)
    with pytest.raises(ConfigurationError):
        M.ModelConfig(feature_dim=2, shrink_lambda=1.0)
    with pytest.raises(ConfigurationError):
        M.ModelConfig(feature_dim=2, variant="bogus")
    with pytest.raises(ConfigurationError):
        M.ModelConfig(feature_dim=2, alpha=-0.5)


def test_variant_memory_flags():
    mk = lambda v: M.ModelConfig(feature_dim=2, max_nodes=4, variant=v)
    assert mk("full").uses_node_memory and mk("full").uses_graph_memory
    assert mk("no_graph").uses_node_memory and not mk("no_graph").uses_graph_memory
    assert not mk("no_node").uses_node_memory and mk("no_node").uses_graph_memory
    assert not mk("gae_only").uses_node_memory and not mk("gae_only").uses_graph_memory


# ---------------------------------------------------------------------------
# initialization

def test_param_shapes(toy_model_config):
    shapes = M.param_shapes(toy_model_config)
    assert shapes["enc1"] == (2, 8)
    assert shapes["enc3"] == (8, 5)
    assert shapes["dec2"] == (5, 2)
    assert shapes["node_memory"] == (2, 6, 5)
    assert shapes["graph_memory"] == (3, 5)


def test_init_params_bounds(toy_model_config):
    params = M.init_params(toy_model_config, np.random.default_rng(0))
    lim1 = np.sqrt(6.0 / (2 + 8))
    assert np.all(np.abs(params.enc1.data) <= lim1)
    mem_lim = 1.0 / np.sqrt(5)
    assert np.all(np.abs(params.node_memory.data) <= mem_lim)
    assert np.all(np.abs(params.graph_memory.data) <= mem_lim)
    assert params.enc1.data.dtype == np.float32
    assert all(t.requires_grad for t in params.tensors())


def test_init_params_float64_option(toy_model_config):
    params = M.init_params(toy_model_config, np.random.default_rng(0),
                           dtype=np.float64)
    assert params.enc1.data.dtype == np.float64


def test_disabled_banks_have_no_tensors():
    cfg = M.ModelConfig(feature_dim=2, hidden_dim=4, latent_dim=3,
                        max_nodes=4, variant="gae_only")
    params = M.init_params(cfg, np.random.default_rng(0))
    assert params.node_memory is None
    assert params.graph_memory is None
    assert len(params.tensors()) == 5


# ---------------------------------------------------------------------------
# adjacency normalization

def test_normalize_single_node():
    out = M.normalize_adjacency(np.zeros((1, 1)), np.ones(1))
    np.testing.assert_allclose(out, [[1.0]])


def test_normalize_two_nodes_one_edge():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = M.normalize_adjacency(adj, np.ones(2))
    np.testing.assert_allclose(out, np.full((2, 2), 0.5))


def test_normalize_pad_rows_stay_zero():
    adj = np.zeros((3, 3))
    adj[0, 1] = adj[1, 0] = 1.0
    mask = np.array([1.0, 1.0, 0.0])
    out = M.normalize_adjacency(adj, mask)
    assert np.all(out[2] == 0) and np.all(out[:, 2] == 0)
    np.testing.assert_allclose(out[:2, :2], np.full((2, 2), 0.5))


def test_normalize_batched_matches_single():
    rng = np.random.default_rng(0)
    adjs, masks = [], []
    for n in (3, 5):
        a = (rng.random((5, 5)) < 0.5).astype(float)
        a = np.triu(a, 1)
        a = a + a.T
        a[n:, :] = a[:, n:] = 0.0
        m = np.zeros(5)
        m[:n] = 1.0
        adjs.append(a)
        masks.append(m)
    batched = M.normalize_adjacency(np.stack(adjs), np.stack(masks))
    for i in range(2):
        np.testing.assert_allclose(batched[i],
                                   M.normalize_adjacency(adjs[i], masks[i]))


def test_normalize_rejects_asymmetric():
    adj = np.zeros((2, 2))
    adj[0, 1] = 1.0
    with pytest.raises(StructuralError):
        M.normalize_adjacency(adj, np.ones(2))


# ---------------------------------------------------------------------------
# encoder

def test_encode_zero_features_give_zero_output(toy_params):
    a_norm = M.normalize_adjacency(np.zeros((1, 3, 3)), np.ones((1, 3)))
    h = M.encode(toy_params, a_norm, np.zeros((1, 3, 2), dtype=np.float32))
    np.testing.assert_allclose(h.data, np.zeros((1, 3, 5)))


def test_encode_rejects_wrong_feature_dim(toy_params):
    a_norm = np.eye(3, dtype=np.float32)[None]
    with pytest.raises(ConfigurationError, match="attribute dim"):
        M.encode(toy_params, a_norm, np.zeros((1, 3, 7), dtype=np.float32))


def test_encode_permutation_equivariant(toy_params, toy_model_config):
    rng = np.random.default_rng(1)
    g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], 4, seed=5)
    adj = g.adjacency
    x = rng.normal(size=(4, 2))
    perm = np.array([2, 0, 3, 1])
    pmat = np.eye(4)[perm]
    adj_p = pmat @ adj @ pmat.T
    x_p = pmat @ x

    a1 = M.normalize_adjacency(adj[None], np.ones((1, 4)))
    a2 = M.normalize_adjacency(adj_p[None], np.ones((1, 4)))
    h1 = M.encode(toy_params, a1.astype(np.float32), x[None].astype(np.float32))
    h2 = M.encode(toy_params, a2.astype(np.float32), x_p[None].astype(np.float32))
    np.testing.assert_allclose(h2.data[0], pmat @ h1.data[0], atol=1e-5)


def test_encode_pad_rows_exactly_zero(toy_params):
    adj = np.zeros((1, 4, 4))
    adj[0, 0, 1] = adj[0, 1, 0] = 1.0
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    x = np.zeros((1, 4, 2), dtype=np.float32)
    x[0, :2] = 1.0
    a_norm = M.normalize_adjacency(adj, mask)
    h = M.encode(toy_params, a_norm.astype(np.float32), x)
    assert np.all(h.data[0, 2:] == 0)


# ---------------------------------------------------------------------------
# memory attention

def test_graph_attend_single_block_is_identity():
    mem = np.array([[1.0, 2.0, 3.0]])
    att = M.graph_memory_attend(np.array([9.0, -1.0, 4.0]), mem, lam=0.0)
    np.testing.assert_allclose(att.weights, [1.0])
    np.testing.assert_allclose(att.approximation, mem[0])


def test_graph_attend_identical_blocks_uniform():
    mem = np.tile(np.array([[1.0, 1.0]]), (4, 1))
    att = M.graph_memory_attend(np.array([3.0, 3.0]), mem, lam=0.0)
    np.testing.assert_allclose(att.weights, np.full(4, 0.25), rtol=1e-7)


def test_graph_attend_prefers_aligned_block():
    mem = np.array([[1.0, 0.0], [0.0, 1.0]])
    att = M.graph_memory_attend(np.array([5.0, 0.0]), mem, lam=0.0)
    assert att.weights[0] > att.weights[1]
    assert att.weights.sum() == pytest.approx(1.0)


def test_graph_attend_shrink_concentrates():
    mem = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    soft = M.graph_memory_attend(np.array([5.0, 0.1]), mem, lam=0.0)
    hard = M.graph_memory_attend(np.array([5.0, 0.1]), mem, lam=0.45)
    assert np.count_nonzero(hard.weights) < np.count_nonzero(soft.weights)
    assert hard.weights.sum() == pytest.approx(1.0)


def test_node_attend_output_masked_and_convex():
    rng = np.random.default_rng(2)
    mem = rng.normal(size=(3, 4, 2))
    h = rng.normal(size=(4, 2))
    mask = np.array([1.0, 1.0, 1.0, 0.0])
    att = M.node_memory_attend(h, mem, mask, lam=0.0)
    assert att.weights.shape == (3,)
    assert att.weights.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(att.approximation[3], np.zeros(2))
    combo = np.tensordot(att.weights, mem, axes=1)
    np.testing.assert_allclose(att.approximation[:3], combo[:3], rtol=1e-6)


def test_node_attend_crops_wide_memory_exactly():
    rng = np.random.default_rng(3)
    mem = rng.normal(size=(2, 6, 3))
    h = rng.normal(size=(4, 3))
    mask = np.ones(4)
    att_wide = M.node_memory_attend(h, mem, mask, lam=0.0)
    att_tight = M.node_memory_attend(h, mem[:, :4, :].copy(), mask, lam=0.0)
    np.testing.assert_allclose(att_wide.weights, att_tight.weights, rtol=1e-10)
    np.testing.assert_allclose(att_wide.approximation, att_tight.approximation,
                               rtol=1e-10)


def test_node_attend_rejects_oversized_batch():
    mem = np.zeros((2, 3, 2))
    with pytest.raises(ConfigurationError, match="width"):
        M.node_memory_attend(np.zeros((5, 2)), mem, np.ones(5), lam=0.0)


def test_hard_shrink_weights_wrapper():
    out = M.hard_shrink_weights(np.array([0.70, 0.29, 0.01]), 0.02)
    np.testing.assert_allclose(out, [0.70 / 0.99, 0.29 / 0.99, 0.0], rtol=1e-12)


# ---------------------------------------------------------------------------
# decoders

def test_decode_structure_zero_latents_give_half():
    out = M.decode_structure(Tensor(np.zeros((1, 4, 3))))
    np.testing.assert_allclose(out.data, np.full((1, 4, 4), 0.5))


def test_decode_structure_symmetric_in_unit_interval():
    rng = np.random.default_rng(4)
    h = Tensor(rng.normal(size=(2, 5, 3)))
    out = M.decode_structure(h).data
    np.testing.assert_allclose(out, np.swapaxes(out, -1, -2), rtol=1e-12)
    assert np.all((out > 0) & (out < 1))


def test_decode_structure_orthonormal_rows():
    h = Tensor(np.eye(3)[None] * 4.0)
    out = M.decode_structure(h).data[0]
    sig = 1 / (1 + np.exp(-16.0))
    np.testing.assert_allclose(np.diagonal(out), np.full(3, sig), rtol=1e-7)
    off = out[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, np.full(6, 0.5), rtol=1e-12)


def test_decode_attributes_zero_latents_give_zero(toy_params):
    a_norm = np.eye(4, dtype=np.float32)[None]
    out = M.decode_attributes(toy_params, Tensor(np.zeros((1, 4, 5),
                                                          dtype=np.float32)), a_norm)
    np.testing.assert_allclose(out.data, np.zeros((1, 4, 2)))


# ---------------------------------------------------------------------------
# losses and scores

def _forward_single(graph, params, cfg):
    adj, x, mask = M._graph_arrays(graph, cfg)
    out = M.forward_batch(params, cfg, adj, x, mask)
    return out, (adj, x, mask)


def test_structure_target_is_adjacency_plus_self_loops(toy_model_config, toy_params):
    # perfect off-diagonal reconstruction still scores the diagonal against 1
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    out, (adj, x, mask) = _forward_single(g, toy_params, toy_model_config)
    bl = M.batch_losses(out, adj, x, mask, toy_model_config)
    target = adj[0] + np.eye(3)
    manual = ((out.a_hat.data[0] - target) ** 2).sum()
    assert bl.rec_structure.data[0] == pytest.approx(manual, rel=1e-6)


def test_loss_breakdown_total_is_sum(toy_model_config, toy_params, triangle_graph):
    lb = M.compute_losses(triangle_graph, toy_params, toy_model_config)
    assert lb.total == pytest.approx(
        lb.rec_structure + lb.rec_attribute + lb.approximation
        + toy_model_config.alpha * lb.entropy, rel=1e-6)


def test_alpha_zero_total_excludes_entropy(toy_params, triangle_graph,
                                           toy_model_config):
    cfg = dataclasses.replace(toy_model_config, alpha=0.0)
    lb = M.compute_losses(triangle_graph, toy_params, cfg)
    assert lb.total == pytest.approx(
        lb.rec_structure + lb.rec_attribute + lb.approximation, rel=1e-6)
    assert lb.entropy > 0  # still reported, just unweighted


def test_anomaly_score_excludes_entropy(toy_params, triangle_graph,
                                        toy_model_config):
    lb = M.compute_losses(triangle_graph, toy_params, toy_model_config)
    score = M.anomaly_score(triangle_graph, toy_params, toy_model_config)
    assert score == pytest.approx(
        lb.rec_structure + lb.rec_attribute + lb.approximation, rel=1e-6)
    assert score >= 0.0


def test_approximation_zero_when_memory_matches(toy_model_config):
    # place the graph representation exactly on a memory block
    params = M.init_params(toy_model_config, np.random.default_rng(0),
                           dtype=np.float64)
    g = build_graph([(0, 1), (1, 2)], 3)
    out, (adj, x, mask) = _forward_single(g, params, toy_model_config)
    with_block = params.graph_memory.data.copy()
    with_block[:] = out.h_graph.data[0]  # every block equals the query
    params.graph_memory.data = with_block
    out2, _ = _forward_single(g, params, toy_model_config)
    bl = M.batch_losses(out2, adj, x, mask, toy_model_config)
    assert bl.approximation.data[0] == pytest.approx(0.0, abs=1e-12)


def test_entropy_uniform_two_by_two_banks():
    cfg = M.ModelConfig(feature_dim=2, hidden_dim=4, latent_dim=3,
                        num_node_memory=2, num_graph_memory=2, max_nodes=3,
                        shrink_lambda=0.0, alpha=1.0)
    params = M.init_params(cfg, np.random.default_rng(0), dtype=np.float64)
    # identical blocks force uniform attention in both banks
    params.node_memory.data = np.tile(params.node_memory.data[:1], (2, 1, 1))
    params.graph_memory.data = np.tile(params.graph_memory.data[:1], (2, 1))
    g = build_graph([(0, 1), (1, 2)], 3)
    lb = M.compute_losses(g, params, cfg)
    assert lb.entropy == pytest.approx(2 * np.log(2), rel=1e-9)


def test_batched_scores_match_single_graph_scores(toy_model_config, toy_params,
                                                  toy_dataset):
    from hiermem.data import pad_batch
    graphs = toy_dataset.graphs[:5]
    batch = pad_batch(graphs, n_max=6)
    batched = M.score_batch(toy_params, toy_model_config,
                            batch.adjacency_padded, batch.attributes_padded,
                            batch.node_mask)
    singles = [M.anomaly_score(g, toy_params, toy_model_config) for g in graphs]
    np.testing.assert_allclose(batched, singles, rtol=1e-4)


def test_unmasked_losses_depend_on_padding(toy_model_config, toy_params):
    cfg = dataclasses.replace(toy_model_config, masked_losses=False)
    g = build_graph([(0, 1), (1, 2)], 3)
    masked = M.anomaly_score(g, toy_params, toy_model_config)
    unmasked = M.anomaly_score(g, toy_params, cfg)
    # pad rows now contribute sigmoid(0)=0.5 entries against zero targets
    assert unmasked > masked


def test_forward_variants_outputs():
    base = dict(feature_dim=2, hidden_dim=4, latent_dim=3, max_nodes=4,
                num_node_memory=2, num_graph_memory=2)
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    for variant in M.VARIANTS:
        cfg = M.ModelConfig(variant=variant, **base)
        params = M.init_params(cfg, np.random.default_rng(1))
        out, _ = _forward_single(g, params, cfg)
        assert (out.node_weights is None) == (not cfg.uses_node_memory)
        assert (out.graph_weights is None) == (not cfg.uses_graph_memory)
        if variant == "gae_only":
            assert out.h_hat is out.h_nodes
        score = M.anomaly_score(g, params, cfg)
        assert np.isfinite(score) and score >= 0


def test_simplex_invariant_on_random_inputs():
    cfg = M.ModelConfig(feature_dim=2, hidden_dim=4, latent_dim=3,
                        max_nodes=5, num_node_memory=3, num_graph_memory=4,
                        shrink_lambda=0.01)
    params = M.init_params(cfg, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    for trial in range(5):
        g = build_graph([(0, 1), (1, 2), (0, 3), (3, 4)], 5,
                        graph_id=trial, seed=trial)
        out, _ = _forward_single(g, params, cfg)
        for w in (out.node_weights_raw, out.node_weights,
                  out.graph_weights_raw, out.graph_weights):
            assert np.all(w.data >= -1e-12)
            np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)


def test_graph_hat_is_convex_combination_of_blocks():
    cfg = M.ModelConfig(feature_dim=2, hidden_dim=4, latent_dim=3,
                        max_nodes=4, variant="no_node")
    params = M.init_params(cfg, np.random.default_rng(7))
    g = build_graph([(0, 1), (1, 2)], 3)
    out, _ = _forward_single(g, params, cfg)
    lo = params.graph_memory.data.min(axis=0) - 1e-7
    hi = params.graph_memory.data.max(axis=0) + 1e-7
    assert np.all(out.h_graph_hat.data[0] >= lo)
    assert np.all(out.h_graph_hat.data[0] <= hi)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tmp_path, toy_model_config, toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    loaded, cfg = M.load_params(path)
    assert cfg == toy_model_config
    for (n1, t1), (n2, t2) in zip(toy_params.named_tensors(),
                                  loaded.named_tensors()):
        assert n1 == n2
        np.testing.assert_array_equal(t1.data, t2.data)
        assert t2.requires_grad


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        M.load_params(tmp_path / "nope.npz")


def test_checkpoint_shape_mismatch_rejected(tmp_path, toy_model_config,
                                            toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    import json as js
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["enc2"] = np.zeros((3, 3), dtype=np.float32)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match="enc2"):
        M.load_params(path)


def test_checkpoint_missing_tensor_rejected(tmp_path, toy_model_config,
                                            toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files if k != "graph_memory"}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match="graph_memory"):
        M.load_params(path)


def _rewrite_checkpoint(path, **dtypes):
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    for name, dtype in dtypes.items():
        arrays[name] = arrays[name].astype(dtype)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def test_checkpoint_mixed_float_dtypes_rejected(tmp_path, toy_model_config,
                                               toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    _rewrite_checkpoint(path, enc1=np.float32, enc2=np.float32, enc3=np.float32,
                        dec1=np.float32, dec2=np.float32,
                        node_memory=np.float32, graph_memory=np.float64)
    with pytest.raises(CheckpointError, match="graph_memory.*float64.*float32"):
        M.load_params(path)


def test_checkpoint_integer_dtype_rejected(tmp_path, toy_model_config,
                                           toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    _rewrite_checkpoint(path, dec1=np.int64)
    with pytest.raises(CheckpointError, match="dec1.*int64"):
        M.load_params(path)



@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_checkpoint_non_finite_value_rejected(tmp_path, toy_model_config,
                                              toy_params, value):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["enc2"][1, 2] = value
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match="'enc2' holds a non-finite value"):
        M.load_params(path)

def test_checkpoint_uniform_float64_loads(tmp_path, toy_model_config):
    params = M.init_params(toy_model_config, np.random.default_rng(1),
                           dtype=np.float64)
    path = tmp_path / "model.npz"
    M.save_params(path, params, toy_model_config)
    loaded, _ = M.load_params(path)
    for (_, t1), (_, t2) in zip(params.named_tensors(), loaded.named_tensors()):
        assert t2.dtype == np.float64
        np.testing.assert_array_equal(t1.data, t2.data)


def test_checkpoint_scores_identical_after_reload(tmp_path, toy_model_config,
                                                  toy_params, triangle_graph):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    loaded, cfg = M.load_params(path)
    s1 = M.anomaly_score(triangle_graph, toy_params, toy_model_config)
    s2 = M.anomaly_score(triangle_graph, loaded, cfg)
    assert s1 == pytest.approx(s2, rel=1e-12)
