"""`hiermem cv --data-dir` end to end on an AIDS-shaped corpus of 600 graphs.

The corpus comes from the benchmark's own generator (`perfbench/corpus.py`):
2 to 95 nodes per graph, median near 12, a 20% anomalous class, written in
the TU format and read back through the real parser. The run covers parsing,
size buckets up to width 95, training, scoring and the report files.

This test does not stand in for the paper's numbers: the corpus is
synthetic, one epoch trains nothing to convergence, and no AUC level is
asserted. It checks that a run at this scale completes and that its report
is consistent.
"""

import csv
import json
import math
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import pytest

from hiermem import blas
from hiermem import training as T
from hiermem.cli import main
from hiermem.data import dataset_checksum, write_tudataset
from hiermem.evaluation import evaluate_auc

from conftest import aids_corpus

GRAPHS = 600
BATCH = 80


@pytest.fixture(scope="module")
def aids_like_run(tmp_path_factory):
    corpus = aids_corpus()
    data_dir = tmp_path_factory.mktemp("data")
    dataset = corpus.make_aids_like(GRAPHS, seed=7)
    write_tudataset(dataset, data_dir)
    out_dir = tmp_path_factory.mktemp("runs")

    # (graphs, node rows) of each sub-batch of each plan, of each training
    # forward pass and of each scoring forward pass, and the thread count of
    # each pool scoring makes; OpenBLAS is taken to have 2 threads, so only
    # the input's size keeps scoring off the pool
    seen = defaultdict(list)
    real_plan, real_forward, real_score = (T._plan, T.forward_batch,
                                           T.score_batch)

    def plan(graphs, batch_size):
        cut = real_plan(graphs, batch_size)
        seen["plans"].append(
            [[(len(sub), sum(graphs[i].node_count for i in sub))
              for sub in batch] for batch in cut])
        return cut

    def forward(params, cfg, batch):
        seen["train"].append((len(batch.node_counts), batch.x.shape[0]))
        return real_forward(params, cfg, batch)

    def score(params, cfg, batch):
        seen["score"].append((len(batch.node_counts), batch.x.shape[0]))
        return real_score(params, cfg, batch)

    def pool(threads):
        seen["pools"].append(threads)
        return ThreadPoolExecutor(threads)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_plan", plan)
        mp.setattr(T, "forward_batch", forward)
        mp.setattr(T, "score_batch", score)
        mp.setattr(T, "ThreadPoolExecutor", pool)
        mp.setattr(blas, "threads", lambda: 2)
        code = main(["cv", "--dataset", dataset.name,
                     "--data-dir", str(data_dir), "--folds", "5",
                     "--epochs", "1", "--batch-size", str(BATCH),
                     "--out-dir", str(out_dir)])
    assert code == 0
    return dataset, data_dir, out_dir / f"cv-{dataset.name}-s0", seen


def test_every_graph_gets_one_finite_score(aids_like_run):
    dataset, _, run_dir, _ = aids_like_run
    report = json.loads((run_dir / "report.json").read_text())
    ids = [gid for gid, _, _ in report["per_graph_scores"]]
    assert sorted(ids) == sorted(g.graph_id for g in dataset.graphs)
    assert all(math.isfinite(s) for _, s, _ in report["per_graph_scores"])
    labels = {g.graph_id: g.label for g in dataset.graphs}
    assert all(labels[gid] == y for gid, _, y in report["per_graph_scores"])


def test_each_fold_auc_equals_the_auc_of_its_reported_scores(aids_like_run):
    _, _, run_dir, _ = aids_like_run
    report = json.loads((run_dir / "report.json").read_text())
    scored = {gid: (s, y) for gid, s, y in report["per_graph_scores"]}
    with open(run_dir / "folds.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["role"] == "test"]
    assert len(report["per_fold_auc"]) == 5
    for fold, auc in enumerate(report["per_fold_auc"]):
        test = [scored[int(r["graph_id"])] for r in rows
                if int(r["fold"]) == fold]
        assert test
        assert evaluate_auc([s for s, _ in test], [y for _, y in test]) == auc


def test_the_manifest_names_the_run_and_its_outputs(aids_like_run):
    dataset, data_dir, run_dir, _ = aids_like_run
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "cv"
    assert manifest["resolved_config"]["dataset"] == dataset.name
    assert manifest["dataset_checksum"] == dataset_checksum(data_dir,
                                                            dataset.name)
    assert manifest["outputs"]
    assert all((run_dir / name).is_file() for name in manifest["outputs"])


def _within_the_cap(passes):
    return all(rows <= T.MAX_ROWS or count == 1 for count, rows in passes)


def _plans(seen, role):
    """The plans training (role 0) or scoring (role 1) cut: each fold
    trains, then scores its test set."""
    return seen["plans"][role::2]


def test_fold_scoring_chunks_stay_below_the_row_cap(aids_like_run):
    # each fold's test set holds fewer than 2 * MAX_ROWS node rows, so it
    # is scored serially, one sub-batch after another, as one batch
    *_, seen = aids_like_run
    scoring = _plans(seen, 1)
    assert seen["pools"] == [] and len(scoring) == 5
    assert all(len(plan) == 1 for plan in scoring)
    assert seen["score"] == [sub for [batch] in scoring for sub in batch]
    assert sum(count for count, _ in seen["score"]) == GRAPHS
    assert _within_the_cap(seen["score"])


def test_training_sub_batches_hold_at_most_the_row_cap(aids_like_run):
    # one epoch runs each sub-batch of each training plan once
    *_, seen = aids_like_run
    batches = [batch for plan in _plans(seen, 0) for batch in plan]
    subs = [sub for batch in batches for sub in batch]
    assert sorted(seen["train"]) == sorted(subs)
    assert len(subs) > len(batches)      # the largest batches are split
    assert all(sum(count for count, _ in batch) <= BATCH for batch in batches)
    assert _within_the_cap(subs)
