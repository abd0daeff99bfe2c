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
import importlib.util
import json
import math
from pathlib import Path

import pytest

from hiermem import training as T
from hiermem.cli import main
from hiermem.data import dataset_checksum, write_tudataset
from hiermem.evaluation import evaluate_auc

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = 600


def _corpus():
    spec = importlib.util.spec_from_file_location(
        "aids_corpus", ROOT / "perfbench" / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def aids_like_run(tmp_path_factory):
    corpus = _corpus()
    data_dir = tmp_path_factory.mktemp("data")
    dataset = corpus.make_aids_like(GRAPHS, seed=7)
    write_tudataset(dataset, data_dir)
    out_dir = tmp_path_factory.mktemp("runs")

    chunk_rows, real_chunks = [], T._chunks

    def recording(graphs, order, batch_size, max_rows=math.inf):
        for idx in real_chunks(graphs, order, batch_size, max_rows):
            if max_rows != math.inf:
                chunk_rows.append(sum(graphs[i].node_count for i in idx))
            yield idx

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_chunks", recording)
        code = main(["cv", "--dataset", dataset.name,
                     "--data-dir", str(data_dir), "--folds", "5",
                     "--epochs", "1", "--batch-size", "80",
                     "--out-dir", str(out_dir)])
    assert code == 0
    return dataset, data_dir, out_dir / f"cv-{dataset.name}-s0", chunk_rows


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
    assert manifest["dataset"] == dataset.name
    assert manifest["dataset_checksum"] == dataset_checksum(data_dir,
                                                            dataset.name)
    assert manifest["outputs"]
    assert all((run_dir / name).is_file() for name in manifest["outputs"])


def test_fold_scoring_chunks_stay_below_the_row_cap(aids_like_run):
    *_, chunk_rows = aids_like_run
    assert len(chunk_rows) >= 5          # every fold scores at least one chunk
    assert max(chunk_rows) < T.CHUNK_ROWS
