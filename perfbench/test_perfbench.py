"""Self-tests of the benchmark: span arithmetic, percentiles, the corpus
generator, and wrappers that must not change what they wrap.

    python3 -m pytest perfbench -q
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import corpus
import spans
from hiermem import autodiff, cli, data, model, training
from hiermem.training import TrainConfig


# ---------------------------------------------------------------------------
# self time

def test_self_time_of_a_leaf_is_its_duration():
    table = spans.self_times([(1, "a", 0.0, 2.0, None)])
    assert table["a"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}


def test_self_time_subtracts_nested_and_sibling_children():
    s = [(1, "root", 0.0, 10.0, None),
         (2, "child", 1.0, 3.0, 1),
         (3, "child", 4.0, 8.0, 1),
         (4, "grandchild", 5.0, 6.0, 3)]
    table = spans.self_times(s)
    assert table["root"]["self_s"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert table["child"]["calls"] == 2
    assert table["child"]["total_s"] == pytest.approx(6.0)
    assert table["child"]["self_s"] == pytest.approx(2.0 + 3.0)
    assert table["grandchild"]["self_s"] == pytest.approx(1.0)
    # self times of one tree add up to the root's duration
    assert sum(v["self_s"] for v in table.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    s = [(1, "pool", 0.0, 10.0, None),
         (2, "worker", 1.0, 6.0, 1),
         (3, "worker", 4.0, 9.0, 1),
         (4, "late", 8.0, 12.0, 1)]          # runs past its parent's end
    table = spans.self_times(s)
    assert table["pool"]["self_s"] == pytest.approx(10.0 - 9.0)


# ---------------------------------------------------------------------------
# percentiles

def test_percentile_is_nearest_rank_with_its_sample_count():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 6.0, 8.0, 7.0, 9.0]
    assert spans.percentile(values, 50) == (5.0, 10)
    assert spans.percentile(values, 90) == (9.0, 10)
    assert spans.percentile(values, 100) == (10.0, 10)
    assert spans.percentile([3.0], 90) == (3.0, 1)
    value, count = spans.percentile([], 50)
    assert np.isnan(value) and count == 0


# ---------------------------------------------------------------------------
# corpus

def test_corpus_is_fixed_by_its_seed():
    a = corpus.make_aids_like(300, seed=7)
    b = corpus.make_aids_like(300, seed=7)
    c = corpus.make_aids_like(300, seed=8)
    assert corpus.dataset_digest(a) == corpus.dataset_digest(b)
    assert corpus.dataset_digest(a) != corpus.dataset_digest(c)


def test_corpus_has_the_aids_shape_for_every_seed():
    for seed in (0, 1):
        ds = corpus.make_aids_like(2000, seed=seed)
        sizes = np.array([g.node_count for g in ds.graphs])
        labels = ds.labels()
        assert sizes.min() == 2 and sizes.max() == 95 == ds.n_max
        assert 11 <= np.median(sizes) <= 13
        assert labels.mean() == pytest.approx(0.2)
        assert ds.attribute_dim == 4
        # the seed permutes a fixed multiset of node counts
        assert sorted(sizes) == sorted(np.concatenate(
            [corpus.node_counts(1600), corpus.node_counts(400)]))


def test_corpus_reads_back_through_the_parser(tmp_path):
    ds = corpus.make_aids_like(50, seed=3, name="RT")
    data.write_tudataset(ds, tmp_path)
    back = data.parse_tudataset(tmp_path, "RT")
    assert corpus.dataset_digest(back) == corpus.dataset_digest(ds)


# ---------------------------------------------------------------------------
# wrappers

def _small_run():
    ds = corpus.make_aids_like(40, seed=1)
    config = TrainConfig(epochs=2, batch_size=8, hidden_dim=8, latent_dim=4,
                         seed=3)
    graphs = [g for g in ds.graphs if g.label == 0]
    params, history = training.train(graphs, config, feature_dim=4,
                                     max_nodes=ds.n_max)
    cfg = training.make_model_config(config, 4, ds.n_max)
    scores = training.score_graphs(params, cfg, ds.graphs, batch_size=16)
    return [t.data.copy() for t in params.tensors()], history, scores


@pytest.mark.parametrize("traced", [False, True])
def test_wrappers_leave_results_untouched_and_uninstall(traced):
    originals = (training.train, model.forward_batch, autodiff.matmul,
                 data.pad_batch, cli.load_dataset, training.Adam.step)
    expected = _small_run()
    rec = spans.Recorder()
    inst = spans.Instrumentation(rec, traced=traced).install()
    try:
        assert training.train is not originals[0]
        got = _small_run()
    finally:
        inst.uninstall()
    for a, b in zip(expected[0], got[0]):
        np.testing.assert_array_equal(a, b)
    assert expected[1] == got[1]
    np.testing.assert_array_equal(expected[2], got[2])
    assert (training.train, model.forward_batch, autodiff.matmul,
            data.pad_batch, cli.load_dataset, training.Adam.step) == originals
    names = {s[1] for s in rec.spans}
    assert {"training.train", "training.score_graphs"} <= names
    if traced:
        assert {"model.encode", "autodiff.backward",
                "optim.Adam.step"} <= names
        assert any(n.startswith("autodiff.bw.enc2.matmul") for n in names)
        assert len(rec.samples["training.step_ms"]) == rec.samples[
            "autodiff.tape_nodes_per_step"].__len__() > 0
    else:
        assert "model.encode" not in names


def test_wrapped_op_returns_the_same_tensor_values():
    a = autodiff.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = autodiff.Tensor(np.ones((3, 2)), requires_grad=True)
    plain = autodiff.matmul(a, b)
    rec = spans.Recorder()
    inst = spans.Instrumentation(rec, traced=True).install()
    try:
        wrapped = autodiff.matmul(a, b)
        autodiff.backward(autodiff.reduce_sum(wrapped))
    finally:
        inst.uninstall()
    np.testing.assert_array_equal(plain.data, wrapped.data)
    np.testing.assert_array_equal(a.grad, np.full((2, 3), 2.0))
    assert rec.counts["autodiff.matmul_flop"] == 2 * 2 * 3 * 2 * 3


def test_forked_worker_writes_its_own_spans(tmp_path):
    rec = spans.Recorder(tmp_path / "trace.jsonl")
    inst = spans.Instrumentation(rec, traced=False).install()
    try:
        rec.mark("before")
        pid = os.fork()
        if pid == 0:                       # worker: one root span, then exit
            try:
                training.score_graphs(None, None, [])
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        rec.flush()
    finally:
        inst.uninstall()
    records = spans.read_records(tmp_path / "trace.jsonl")
    by_pid = {r["pid"]: r for r in records}
    assert by_pid[pid]["spans"][0][1] == "training.score_graphs"
    assert "before" not in by_pid[pid]["marks"]
    assert by_pid[os.getpid()]["marks"].keys() == {"before"}


def test_run_refuses_a_tree_without_the_program(tmp_path):
    bare = tmp_path / "perfbench"
    bare.mkdir()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("run.py", "spans.py", "corpus.py", "invoke.py"):
        (bare / name).write_bytes(open(os.path.join(here, name), "rb").read())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "synth-cv", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
