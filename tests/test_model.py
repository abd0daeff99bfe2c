"""Model pieces against hand-computed examples, plus variant and checkpoint
behavior."""

import dataclasses
import json
import re

import numpy as np
import pytest

from hiermem import autodiff as ad
from hiermem import model as M
from hiermem.autodiff import Tensor
from hiermem.data import (Graph, make_er_dataset, parse_tudataset,
                          write_tudataset)
from hiermem.errors import CheckpointError, ConfigurationError, StructuralError
from hiermem.training import score_graphs

from conftest import build_graph, ragged


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
    for alpha in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="alpha must be finite"):
            M.ModelConfig(feature_dim=2, alpha=alpha)
    with pytest.raises(ConfigurationError, match="memory bank sizes must be >= 1"):
        M.ModelConfig(feature_dim=2, num_node_memory=0)
    with pytest.raises(ConfigurationError, match="max_nodes must be set"):
        M.init_params(M.ModelConfig(feature_dim=2), np.random.default_rng(0))


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
    assert shapes["graph_memory"] == (3, 1, 5)


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
    out = M.normalize_adjacency(np.zeros((1, 1)))
    np.testing.assert_allclose(out, [[1.0]])


def test_normalize_two_nodes_one_edge():
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = M.normalize_adjacency(adj)
    np.testing.assert_allclose(out, np.full((2, 2), 0.5))


def test_normalize_bool_adjacency_in_float64():
    # a parsed graph's adjacency is bool; it must normalise to the same bits
    # as its float64 copy
    rng = np.random.default_rng(3)
    upper = np.triu(rng.random((7, 7)) < 0.4, k=1)
    adj = upper | upper.T
    out = M.normalize_adjacency(adj)
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, M.normalize_adjacency(adj.astype(float)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_parsed_corpus_batches_to_the_bytes_of_its_float64_copy(tmp_path,
                                                                  dtype):
    write_tudataset(make_er_dataset(20, 8, seed=4), tmp_path)
    parsed = sorted(parse_tudataset(tmp_path, "synthetic-er").graphs,
                    key=lambda g: g.node_count)
    assert parsed[0].adjacency.dtype == bool
    copies = [Graph(adjacency=g.adjacency.astype(np.float64),
                    attributes=g.attributes.astype(np.float64), label=g.label,
                    node_count=g.node_count, graph_id=g.graph_id)
              for g in parsed]
    got, want = ragged(parsed, dtype), ragged(copies, dtype)
    assert got.runs == want.runs and len(got.runs) < len(parsed)
    for a, b in zip(got.a_norm + (got.x, got.ax, got.target),
                    want.a_norm + (want.x, want.ax, want.target)):
        assert a.dtype == b.dtype == dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_batch_propagates_each_graphs_attributes_once(dtype):
    # runs of several graphs and a lone one: each graph's rows of ax are the
    # bits of its own a_norm_i @ x_i
    batch = ragged(_mixed_graphs([2, 2, 2, 5, 9, 9], attr_dim=3), dtype)
    assert batch.ax.dtype == dtype and batch.ax.shape == batch.x.shape
    r0 = 0
    for (_, size), a_norm in zip(batch.runs, batch.a_norm):
        for a in a_norm:
            rows = slice(r0, r0 + size)
            assert batch.ax[rows].tobytes() == (a @ batch.x[rows]).tobytes()
            r0 += size
    assert r0 == len(batch.ax)


def test_normalize_batched_matches_single():
    rng = np.random.default_rng(0)
    adjs = []
    for _ in range(2):
        a = (rng.random((5, 5)) < 0.5).astype(float)
        a = np.triu(a, 1)
        adjs.append(a + a.T)
    batched = M.normalize_adjacency(np.stack(adjs))
    for i in range(2):
        np.testing.assert_allclose(batched[i], M.normalize_adjacency(adjs[i]))


def test_normalize_rejects_asymmetric():
    adj = np.zeros((2, 2))
    adj[0, 1] = 1.0
    with pytest.raises(StructuralError):
        M.normalize_adjacency(adj)


# ---------------------------------------------------------------------------
# encoder

def test_encode_zero_features_give_zero_output(toy_params):
    a_norm = M.normalize_adjacency(np.zeros((1, 3, 3)))
    h = M.encode(toy_params, (a_norm,),
                 a_norm[0] @ np.zeros((3, 2), dtype=np.float32))
    np.testing.assert_allclose(h.data, np.zeros((3, 5)))


def test_encode_rejects_wrong_feature_dim(toy_params):
    a_norm = np.eye(3, dtype=np.float32)[None]
    with pytest.raises(ConfigurationError, match="attribute dim"):
        M.encode(toy_params, (a_norm,),
                 a_norm[0] @ np.zeros((3, 7), dtype=np.float32))


def test_encode_permutation_equivariant(toy_params, toy_model_config):
    rng = np.random.default_rng(1)
    g = build_graph([(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)], 4, seed=5)
    adj = g.adjacency
    x = rng.normal(size=(4, 2))
    perm = np.array([2, 0, 3, 1])
    pmat = np.eye(4)[perm]
    adj_p = pmat @ adj @ pmat.T
    x_p = pmat @ x

    a1 = M.normalize_adjacency(adj[None]).astype(np.float32)
    a2 = M.normalize_adjacency(adj_p[None]).astype(np.float32)
    h1 = M.encode(toy_params, (a1,), a1[0] @ x.astype(np.float32))
    h2 = M.encode(toy_params, (a2,), a2[0] @ x_p.astype(np.float32))
    np.testing.assert_allclose(h2.data, pmat @ h1.data, atol=1e-5)


# ---------------------------------------------------------------------------
# memory attention

def _graph_attention(h_graph, memory, lam):
    """One graph's shrunk weights over the (Q, 1, D) graph blocks and its
    approximation."""
    _, w, approx = M._attend_graph(Tensor(h_graph[None]), Tensor(memory), lam)
    return w.data[0], approx.data[0]


def _node_attention(h_nodes, memory, lam):
    """One graph's shrunk weights over the node blocks and its approximation."""
    _, w, approx = M._attend_nodes(Tensor(h_nodes), Tensor(memory),
                                   ((1, len(h_nodes)),), lam)
    return w.data[0], approx.data


def test_graph_attend_single_block_is_identity():
    mem = np.array([[[1.0, 2.0, 3.0]]])
    weights, approx = _graph_attention(np.array([9.0, -1.0, 4.0]), mem, lam=0.0)
    np.testing.assert_allclose(weights, [1.0])
    np.testing.assert_allclose(approx, mem[0, 0])


def test_graph_attend_identical_blocks_uniform():
    mem = np.tile(np.array([[[1.0, 1.0]]]), (4, 1, 1))
    weights, _ = _graph_attention(np.array([3.0, 3.0]), mem, lam=0.0)
    np.testing.assert_allclose(weights, np.full(4, 0.25), rtol=1e-7)


def test_graph_attend_prefers_aligned_block():
    mem = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
    weights, _ = _graph_attention(np.array([5.0, 0.0]), mem, lam=0.0)
    assert weights[0] > weights[1]
    assert weights.sum() == pytest.approx(1.0)


def test_graph_attend_shrink_concentrates():
    mem = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[-1.0, 0.0]]])
    soft, _ = _graph_attention(np.array([5.0, 0.1]), mem, lam=0.0)
    hard, _ = _graph_attention(np.array([5.0, 0.1]), mem, lam=0.45)
    assert np.count_nonzero(hard) < np.count_nonzero(soft)
    assert hard.sum() == pytest.approx(1.0)


def test_node_attend_output_masked_and_convex():
    # a graph of 3 nodes reads the first 3 rows of blocks 4 rows wide
    rng = np.random.default_rng(2)
    mem = rng.normal(size=(3, 4, 2))
    h = rng.normal(size=(4, 2))[:3]
    weights, approx = _node_attention(h, mem, lam=0.0)
    assert weights.shape == (3,)
    assert weights.sum() == pytest.approx(1.0)
    assert approx.shape == (3, 2)
    combo = np.tensordot(weights, mem, axes=1)
    np.testing.assert_allclose(approx, combo[:3], rtol=1e-6)


def test_node_attend_crops_wide_memory_exactly():
    rng = np.random.default_rng(3)
    mem = rng.normal(size=(2, 6, 3))
    h = rng.normal(size=(4, 3))
    w_wide, approx_wide = _node_attention(h, mem, lam=0.0)
    w_tight, approx_tight = _node_attention(h, mem[:, :4, :].copy(), lam=0.0)
    np.testing.assert_allclose(w_wide, w_tight, rtol=1e-10)
    np.testing.assert_allclose(approx_wide, approx_tight, rtol=1e-10)


def test_node_attend_rejects_oversized_batch():
    # `train` and `score_graphs` refuse such a graph by id first; below them
    # the cosine op still refuses a batch wider than the memory
    mem = np.zeros((2, 3, 2))
    with pytest.raises(ValueError,
                       match="a graph of 5 nodes exceeds memory width 3"):
        _node_attention(np.zeros((5, 2)), mem, lam=0.0)


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_each_memory_is_read_by_its_own_attend_function(monkeypatch, variant):
    # the benchmark charges each op to the innermost model function it runs
    # under, so graph-memory work must run in _attend_graph and node-memory
    # work in _attend_nodes, each once per forward, neither inside the other
    calls = {"_attend_nodes": 0, "_attend_graph": 0}
    for name in calls:
        def counted(*args, _fn=getattr(M, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(M, name, counted)
    cfg = M.ModelConfig(feature_dim=2, hidden_dim=4, latent_dim=3, max_nodes=4,
                        num_node_memory=2, num_graph_memory=2, variant=variant)
    params = M.init_params(cfg, np.random.default_rng(1))
    graphs = [build_graph([(0, 1), (1, 2)], 3), build_graph([(0, 1)], 2)]
    M.forward_batch(params, cfg, ragged(graphs))
    assert calls == {"_attend_nodes": int(cfg.uses_node_memory),
                     "_attend_graph": int(cfg.uses_graph_memory)}


# ---------------------------------------------------------------------------
# decoders

def test_decode_structure_zero_latents_give_half():
    out = M.decode_structure(Tensor(np.zeros((4, 3))), ((1, 4),))
    np.testing.assert_allclose(out.data, np.full(16, 0.5))


def test_decode_structure_symmetric_in_unit_interval():
    rng = np.random.default_rng(4)
    h = Tensor(rng.normal(size=(10, 3)))
    out = M.decode_structure(h, ((2, 5),)).data.reshape(2, 5, 5)
    np.testing.assert_allclose(out, np.swapaxes(out, -1, -2), rtol=1e-12)
    assert np.all((out > 0) & (out < 1))


def test_decode_structure_orthonormal_rows():
    h = Tensor(np.eye(3) * 4.0)
    out = M.decode_structure(h, ((1, 3),)).data.reshape(3, 3)
    sig = 1 / (1 + np.exp(-16.0))
    np.testing.assert_allclose(np.diagonal(out), np.full(3, sig), rtol=1e-7)
    off = out[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, np.full(6, 0.5), rtol=1e-12)


def test_decode_attributes_zero_latents_give_zero(toy_params):
    a_norm = (np.eye(4, dtype=np.float32)[None],)
    out = M.decode_attributes(toy_params, Tensor(np.zeros((4, 5),
                                                          dtype=np.float32)), a_norm)
    np.testing.assert_allclose(out.data, np.zeros((4, 2)))


# ---------------------------------------------------------------------------
# losses and scores

def _forward_single(graph, params, cfg):
    return M.forward_batch(params, cfg, ragged([graph], params.enc1.data.dtype))


def _losses(graph, params, cfg):
    """One graph's loss terms as floats."""
    bl = M.batch_losses(_forward_single(graph, params, cfg), cfg)
    return {k: float(getattr(bl, k).data[0]) for k in (
        "rec_structure", "rec_attribute", "approximation", "entropy", "total")}


def test_structure_target_is_adjacency_plus_self_loops(toy_model_config, toy_params):
    # perfect off-diagonal reconstruction still scores the diagonal against 1
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    out = _forward_single(g, toy_params, toy_model_config)
    bl = M.batch_losses(out, toy_model_config)
    target = g.adjacency + np.eye(3)
    manual = ((out.a_hat_cells.data.reshape(3, 3) - target) ** 2).sum()
    assert bl.rec_structure.data[0] == pytest.approx(manual, rel=1e-6)


def test_loss_breakdown_total_is_sum(toy_model_config, toy_params, triangle_graph):
    lb = _losses(triangle_graph, toy_params, toy_model_config)
    assert lb["total"] == pytest.approx(
        lb["rec_structure"] + lb["rec_attribute"] + lb["approximation"]
        + toy_model_config.alpha * lb["entropy"], rel=1e-6)


def test_alpha_zero_total_excludes_entropy(toy_params, triangle_graph,
                                           toy_model_config):
    cfg = dataclasses.replace(toy_model_config, alpha=0.0)
    lb = _losses(triangle_graph, toy_params, cfg)
    assert lb["total"] == pytest.approx(
        lb["rec_structure"] + lb["rec_attribute"] + lb["approximation"], rel=1e-6)
    assert lb["entropy"] > 0  # still reported, just unweighted


def test_anomaly_score_excludes_entropy(toy_params, triangle_graph,
                                        toy_model_config):
    lb = _losses(triangle_graph, toy_params, toy_model_config)
    score = score_graphs(toy_params, toy_model_config, [triangle_graph])[0]
    assert score == pytest.approx(
        lb["rec_structure"] + lb["rec_attribute"] + lb["approximation"], rel=1e-6)
    assert score >= 0.0


def test_approximation_zero_when_memory_matches(toy_model_config):
    # place the graph representation exactly on a memory block
    params = M.init_params(toy_model_config, np.random.default_rng(0),
                           dtype=np.float64)
    g = build_graph([(0, 1), (1, 2)], 3)
    out = _forward_single(g, params, toy_model_config)
    with_block = params.graph_memory.data.copy()
    with_block[:] = out.h_graph.data[0]  # every block equals the query
    params.graph_memory.data = with_block
    out2 = _forward_single(g, params, toy_model_config)
    bl = M.batch_losses(out2, toy_model_config)
    assert bl.approximation.data[0] == pytest.approx(0.0, abs=1e-12)


def test_entropy_uniform_two_by_two_banks():
    cfg = M.ModelConfig(feature_dim=2, hidden_dim=4, latent_dim=3,
                        num_node_memory=2, num_graph_memory=2, max_nodes=3,
                        shrink_lambda=0.0, alpha=1.0)
    params = M.init_params(cfg, np.random.default_rng(0), dtype=np.float64)
    # identical blocks force uniform attention in both banks
    params.node_memory.data = np.tile(params.node_memory.data[:1], (2, 1, 1))
    params.graph_memory.data = np.tile(params.graph_memory.data[:1], (2, 1, 1))
    g = build_graph([(0, 1), (1, 2)], 3)
    assert _losses(g, params, cfg)["entropy"] == pytest.approx(2 * np.log(2),
                                                               rel=1e-9)


def test_batched_scores_match_single_graph_scores(toy_model_config, toy_params,
                                                  toy_dataset):
    graphs = toy_dataset.graphs[:5]
    batched = M.score_batch(toy_params, toy_model_config, ragged(graphs))
    singles = [score_graphs(toy_params, toy_model_config, [g])[0] for g in graphs]
    np.testing.assert_allclose(batched, singles, rtol=1e-4)


def test_forward_variants_outputs():
    base = dict(feature_dim=2, hidden_dim=4, latent_dim=3, max_nodes=4,
                num_node_memory=2, num_graph_memory=2)
    g = build_graph([(0, 1), (1, 2), (2, 3)], 4)
    for variant in M.VARIANTS:
        cfg = M.ModelConfig(variant=variant, **base)
        params = M.init_params(cfg, np.random.default_rng(1))
        out = _forward_single(g, params, cfg)
        assert (out.node_weights is None) == (not cfg.uses_node_memory)
        assert (out.graph_weights is None) == (not cfg.uses_graph_memory)
        if variant == "gae_only":
            assert out.h_hat is out.h_nodes
        score = score_graphs(params, cfg, [g])[0]
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
        out = _forward_single(g, params, cfg)
        for w in (out.node_weights_raw, out.node_weights,
                  out.graph_weights_raw, out.graph_weights):
            assert np.all(w.data >= -1e-12)
            np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)


def test_graph_hat_is_convex_combination_of_blocks():
    cfg = M.ModelConfig(feature_dim=2, hidden_dim=4, latent_dim=3,
                        max_nodes=4, variant="no_node")
    params = M.init_params(cfg, np.random.default_rng(7))
    g = build_graph([(0, 1), (1, 2)], 3)
    out = _forward_single(g, params, cfg)
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


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_every_variant_names_its_tensors_in_param_shapes_order(
        tmp_path, toy_model_config, variant):
    cfg = dataclasses.replace(toy_model_config, variant=variant)
    names = list(M.param_shapes(cfg))
    params = M.init_params(cfg, np.random.default_rng(0))
    path = tmp_path / "model.npz"
    M.save_params(path, params, cfg)
    with np.load(path, allow_pickle=False) as z:
        saved = [k for k in z.files if k != "__config__"]
    assert [n for n, _ in params.named_tensors()] == names
    assert [n for n, _ in M.load_params(path)[0].named_tensors()] == names
    assert saved == names


def test_checkpoint_with_a_two_dimensional_graph_memory_is_refused(
        tmp_path, toy_model_config, toy_params):
    # the graph bank is saved as (q, 1, latent) one-row blocks; a file that
    # holds it as (q, latent) rows is refused by the shape check
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    old = tmp_path / "old.npz"
    with open(old, "wb") as fh:
        np.savez(fh, **{**arrays, "graph_memory": arrays["graph_memory"][:, 0]})
    with pytest.raises(CheckpointError, match="'graph_memory' has shape"):
        M.load_params(old)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        M.load_params(tmp_path / "nope.npz")


def _malformed_checkpoint(kind, path, real):
    if kind == "directory":
        path.mkdir()
    elif kind == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
    elif kind in ("config", "no-config"):
        with np.load(real, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files}
        if kind == "config":
            arrays["__config__"] = np.array("{not json")
        else:
            del arrays["__config__"]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
    else:
        data = real.read_bytes()
        path.write_bytes({"empty": b"", "text": b"enc1 = 1.0\n",
                          "truncated": data[:len(data) // 2]}[kind])


@pytest.mark.parametrize("kind", ["empty", "text", "truncated", "npy",
                                  "directory", "config", "no-config"])
def test_a_malformed_checkpoint_is_refused_naming_its_path(
        tmp_path, toy_model_config, toy_params, kind):
    real = tmp_path / "real.npz"
    M.save_params(real, toy_params, toy_model_config)
    path = tmp_path / "model.npz"
    _malformed_checkpoint(kind, path, real)
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        M.load_params(path)


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


def _assert_loads_as_float32(path):
    """Every tensor of the checkpoint at `path` loads equal to its stored
    array cast to float32."""
    with np.load(path, allow_pickle=False) as z:
        stored = {k: z[k] for k in z.files}
    loaded, _ = M.load_params(path)
    for name, t in loaded.named_tensors():
        assert t.data.dtype == np.float32 and t.requires_grad
        np.testing.assert_array_equal(t.data, stored[name].astype(np.float32))


def test_checkpoint_mixed_float_dtypes_load_as_float32(tmp_path,
                                                       toy_model_config):
    params = M.init_params(toy_model_config, np.random.default_rng(1),
                           dtype=np.float64)
    path = tmp_path / "model.npz"
    M.save_params(path, params, toy_model_config)
    _rewrite_checkpoint(path, enc1=np.float32, enc3=np.float16,
                        node_memory=np.float32)
    _assert_loads_as_float32(path)


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

def test_checkpoint_with_an_out_of_range_config_names_its_file(
        tmp_path, toy_model_config, toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    import json as js
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    cfg = js.loads(str(arrays["__config__"]))
    arrays["__config__"] = np.array(js.dumps(dict(cfg, shrink_lambda=2.0)))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError,
                       match=rf"bad config in .*model\.npz: shrink_lambda"):
        M.load_params(path)


def test_checkpoint_with_a_nan_alpha_is_refused(tmp_path, toy_model_config,
                                                toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    cfg = json.loads(str(arrays["__config__"]))
    arrays["__config__"] = np.array(json.dumps(dict(cfg, alpha=float("nan"))))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match="alpha must be finite"):
        M.load_params(path)


def test_checkpoint_tensor_errors_name_the_file(tmp_path, toy_model_config,
                                                toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    _rewrite_checkpoint(path, dec1=np.int64)
    with pytest.raises(CheckpointError, match=r"model\.npz: tensor 'dec1'"):
        M.load_params(path)


def test_checkpoint_uniform_float64_loads_as_float32(tmp_path,
                                                     toy_model_config):
    params = M.init_params(toy_model_config, np.random.default_rng(1),
                           dtype=np.float64)
    path = tmp_path / "model.npz"
    M.save_params(path, params, toy_model_config)
    _assert_loads_as_float32(path)


def test_checkpoint_float64_value_beyond_float32_range_rejected(
        tmp_path, toy_model_config, toy_params):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["dec2"] = arrays["dec2"].astype(np.float64)
    arrays["dec2"][0, 1] = -1e39
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match="'dec2' holds a non-finite value"):
        M.load_params(path)


def test_checkpoint_scores_identical_after_reload(tmp_path, toy_model_config,
                                                  toy_params, triangle_graph):
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    loaded, cfg = M.load_params(path)
    s1 = score_graphs(toy_params, toy_model_config, [triangle_graph])[0]
    s2 = score_graphs(loaded, cfg, [triangle_graph])[0]
    assert s1 == pytest.approx(s2, rel=1e-12)


@pytest.mark.parametrize("key, value", [("masked_losses", True),
                                        ("normalize_losses", False)])
def test_checkpoint_with_a_removed_loss_option_is_refused(
        tmp_path, toy_model_config, toy_params, key, value):
    # even at the value the model still computes, a config key of a removed
    # option is not a ModelConfig field
    path = tmp_path / "model.npz"
    M.save_params(path, toy_params, toy_model_config)
    import json as js
    with np.load(path, allow_pickle=False) as z:
        arrays = {k: z[k] for k in z.files}
    cfg = js.loads(str(arrays["__config__"]))
    arrays["__config__"] = np.array(js.dumps(dict(cfg, **{key: value})))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(CheckpointError, match=f"bad config in .*'{key}'"):
        M.load_params(path)


# ---------------------------------------------------------------------------
# ragged batches

def _mixed_graphs(sizes, attr_dim=2, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for gid, n in enumerate(sizes):
        upper = np.triu(rng.random((n, n)) < 0.3, k=1)
        adj = (upper | upper.T).astype(float)
        graphs.append(Graph(adjacency=adj, attributes=rng.normal(size=(n, attr_dim)),
                            label=0, node_count=n, graph_id=gid))
    return graphs


def _mixed_config(**kw):
    return M.ModelConfig(**dict(dict(feature_dim=2, hidden_dim=8, latent_dim=5,
                                     num_node_memory=2, num_graph_memory=3,
                                     max_nodes=40), **kw))


def test_mixed_size_batch_scores_equal_single_graph_scores():
    cfg = _mixed_config()
    params = M.init_params(cfg, np.random.default_rng(1))
    graphs = _mixed_graphs([1, 2, 7, 40, 7, 2])
    batch = ragged(graphs)
    batched = M.score_batch(params, cfg, batch)
    singles = [score_graphs(params, cfg, [g])[0] for g in graphs]
    np.testing.assert_allclose(batched, singles, rtol=1e-5)
    out = M.forward_batch(params, cfg, batch)
    # runs are consecutive graphs of equal size, in batch order
    assert out.batch.runs == ((1, 1), (1, 2), (1, 7), (1, 40), (1, 7), (1, 2))
    assert out.h_nodes.data.shape == (59, 5)
    assert out.a_hat_cells.data.shape == (1 + 4 + 49 + 1600 + 49 + 4,)


def test_single_node_graphs_and_isolated_nodes_score_and_differentiate():
    cfg = _mixed_config(max_nodes=6)
    params = M.init_params(cfg, np.random.default_rng(2))
    lone = build_graph([], 1, graph_id=1)
    isolated = build_graph([(0, 1)], 6, graph_id=2)         # nodes 2..5 alone
    empty = build_graph([], 4, graph_id=3)                  # no edge at all
    graphs = [lone, isolated, empty]
    batch = ragged(graphs)
    scores = M.score_batch(params, cfg, batch)
    assert np.all(np.isfinite(scores))
    np.testing.assert_allclose(
        scores, [score_graphs(params, cfg, [g])[0] for g in graphs], rtol=1e-5)
    loss = ad.reduce_mean(M.batch_losses(M.forward_batch(params, cfg, batch),
                                         cfg).total)
    ad.backward(loss)
    assert all(np.all(np.isfinite(p.grad)) for p in params.tensors())


def test_all_zero_attributes_take_the_cosine_eps_path():
    # zero attributes make every node row zero: both cosines divide by eps
    cfg = _mixed_config(max_nodes=7)
    params = M.init_params(cfg, np.random.default_rng(3))
    graphs = [Graph(adjacency=g.adjacency, attributes=np.zeros_like(g.attributes),
                    label=0, node_count=g.node_count, graph_id=g.graph_id)
              for g in _mixed_graphs([3, 7, 7])]
    out = M.forward_batch(params, cfg, ragged(graphs))
    assert not out.h_nodes.data.any()
    np.testing.assert_array_equal(out.node_weights_raw.data, 0.5)
    bl = M.batch_losses(out, cfg)
    assert np.all(np.isfinite(bl.total.data))
    ad.backward(ad.reduce_mean(bl.total))
    for p in params.tensors():
        assert p.grad is not None and np.all(np.isfinite(p.grad))


def _tape(out):
    """Every tensor the tape of `out` holds, `out` included."""
    seen, stack, nodes = set(), [out], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            nodes.append(t)
            stack.extend(t._parents)
    return nodes


def test_the_training_tape_keeps_no_gcn_layer_product():
    # each GCN layer is one tape node: enc1 reads the batch's propagated
    # attributes, and the others propagate their own h @ W in place, so the
    # tape holds each layer's output and no product: of the (rows, width)
    # arrays, enc1 and enc2 give the two hidden ones; enc3, the node-memory
    # readout and dec1 the latent ones; ax as enc1's input, x as the loss's
    # target, and x_hat, the attribute-wide ones
    cfg = _mixed_config(max_nodes=6)
    params = M.init_params(cfg, np.random.default_rng(4))
    batch = ragged(_mixed_graphs([1, 3, 6, 6]))
    loss = ad.reduce_mean(M.batch_losses(M.forward_batch(params, cfg, batch),
                                         cfg).total)
    rows = len(batch.x)
    shapes = [t.data.shape for t in _tape(loss)]
    widths = {w: shapes.count((rows, w)) for w in (cfg.hidden_dim,
                                                   cfg.latent_dim,
                                                   cfg.feature_dim)}
    assert widths == {cfg.hidden_dim: 2, cfg.latent_dim: 3, cfg.feature_dim: 3}


def test_on_one_non_negative_attribute_column_the_encoder_is_rank_one():
    # degree features, as in criterion 4's synthetic-er and every TU dataset
    # without attributes: with no GCN bias, each layer's output is an outer
    # product p (x) relu(w) whose row factor w all graphs share, so every
    # pooled graph vector points one way and the graph memory, which reads
    # by cosine, weighs every graph alike; the weights differ only through
    # COSINE_EPS. Biases would change every score (see ROADMAP).
    ds = make_er_dataset(100, 40, seed=0)
    batch = M.ragged_batch(ds.graphs, np.float64)
    cfg = M.ModelConfig(feature_dim=1, max_nodes=ds.n_max)
    for seed in range(3):
        params = M.init_params(cfg, np.random.default_rng(seed), np.float64)
        out = M.forward_batch(params.detached(), cfg, batch)
        s = np.linalg.svd(out.h_nodes.data, compute_uv=False)
        assert s[1] <= 1e-14 * s[0]
        g = out.h_graph.data / np.linalg.norm(out.h_graph.data, axis=1,
                                              keepdims=True)
        assert (g @ g.T).min() >= 1 - 1e-14
        w = out.graph_weights.data
        assert np.abs(w - w[0]).max() <= 1e-8
