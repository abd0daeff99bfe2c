"""AUC against a pairwise oracle, cross-validation, sweep cells, writers."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hiermem import cli
from hiermem import evaluation as ev
from hiermem.data import make_er_dataset
from hiermem.errors import ConfigurationError
from hiermem.training import TrainConfig

from conftest import pairwise_auc


SMALL = dict(hidden_dim=8, latent_dim=5, num_node_memory=2,
             num_graph_memory=2, epochs=3, batch_size=16)


# ---------------------------------------------------------------------------
# AUC

def test_auc_hand_examples():
    assert ev.evaluate_auc([0.1, 0.9], [0, 1]) == 1.0
    assert ev.evaluate_auc([0.9, 0.1], [0, 1]) == 0.0
    assert ev.evaluate_auc([0.5, 0.5], [0, 1]) == 0.5
    assert ev.evaluate_auc([1, 2, 3, 4], [0, 0, 1, 1]) == 1.0
    assert ev.evaluate_auc([1, 3, 2, 4], [0, 0, 1, 1]) == 0.75


def test_auc_all_tied_is_half():
    assert ev.evaluate_auc(np.zeros(10), [0, 1] * 5) == 0.5


def test_auc_matches_pairwise_oracle_on_random_sets():
    rng = np.random.default_rng(0)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.normal(size=n) * 2) / 2
        assert ev.evaluate_auc(scores, labels) == pytest.approx(
            pairwise_auc(scores, labels), abs=1e-12)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, size=30)
    labels[0], labels[1] = 0, 1
    a1 = ev.evaluate_auc(scores, labels)
    a2 = ev.evaluate_auc(np.exp(scores * 3), labels)
    assert a1 == pytest.approx(a2, abs=1e-12)


def test_auc_rejects_single_class_and_bad_shapes():
    with pytest.raises(ConfigurationError):
        ev.evaluate_auc([1.0, 2.0], [1, 1])
    with pytest.raises(ConfigurationError):
        ev.evaluate_auc([1.0, 2.0], [0, 1, 1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_refuses_a_non_finite_score(bad):
    # NaN would be ranked as if it were a number
    with pytest.raises(ConfigurationError, match="finite scores"):
        ev.evaluate_auc([0.1, bad, 0.3, 0.4], [0, 1, 0, 1])


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=25))
@settings(max_examples=100, deadline=None)
def test_auc_pairwise_equivalence_property(xs):
    labels = [i % 2 for i in range(len(xs))]
    got = ev.evaluate_auc(np.array(xs, dtype=float), labels)
    assert got == pytest.approx(pairwise_auc(xs, labels), abs=1e-12)


# ---------------------------------------------------------------------------
# cross-validation reports

@pytest.fixture(scope="module")
def er_dataset():
    return make_er_dataset(20, 10, seed=4)


def test_run_cv_report_invariants(er_dataset):
    cfg = TrainConfig(seed=0, **SMALL)
    rep = ev.run_cv(er_dataset, cfg, k=3)
    assert rep.config["folds"] == 3 and len(rep.per_fold_auc) == 3
    assert rep.mean_auc == pytest.approx(np.mean(rep.per_fold_auc), abs=1e-12)
    assert rep.std_auc == pytest.approx(np.std(rep.per_fold_auc), abs=1e-12)
    assert all(0.0 <= a <= 1.0 for a in rep.per_fold_auc)
    # every graph is scored exactly once across test folds
    scored = sorted(gid for gid, _, _ in rep.per_graph_scores)
    assert scored == sorted(g.graph_id for g in er_dataset.graphs)
    assert rep.wall_clock_seconds > 0
    assert rep.config == {**dataclasses.asdict(cfg), "dataset": er_dataset.name,
                          "folds": 3, "tau": 0.0}
    assert len(rep.fold_histories) == 3
    assert all(len(h) == SMALL["epochs"] for h in rep.fold_histories)


def test_run_cv_splits_and_trains_under_the_config_seed(er_dataset):
    reports = {s: ev.run_cv(er_dataset, TrainConfig(seed=s, **SMALL), k=3)
               for s in (0, 5)}
    assert [r.config["seed"] for r in reports.values()] == [0, 5]
    assert reports[0].per_graph_scores != reports[5].per_graph_scores


def test_run_cv_deterministic(er_dataset):
    cfg = TrainConfig(seed=1, **SMALL)
    r1 = ev.run_cv(er_dataset, cfg, k=3)
    r2 = ev.run_cv(er_dataset, cfg, k=3)
    assert r1.per_fold_auc == r2.per_fold_auc
    assert r1.per_graph_scores == r2.per_graph_scores


def test_run_cv_tau_zero_identical_to_no_contamination(er_dataset):
    cfg = TrainConfig(seed=2, **SMALL)
    r0 = ev.run_cv(er_dataset, cfg, k=3, tau=0.0)
    r1 = ev.run_cv(er_dataset, cfg, k=3)
    assert r0.per_graph_scores == r1.per_graph_scores


def test_run_cv_parallel_matches_serial(er_dataset):
    cfg = TrainConfig(seed=3, **SMALL)
    serial = ev.run_cv(er_dataset, cfg, k=3, jobs=1)
    parallel = ev.run_cv(er_dataset, cfg, k=3, jobs=3)
    assert serial.per_fold_auc == parallel.per_fold_auc
    assert serial.per_graph_scores == parallel.per_graph_scores


@pytest.mark.parametrize("jobs", [0, -2])
def test_run_cv_rejects_a_job_count_below_one(er_dataset, jobs):
    cfg = TrainConfig(seed=0, **SMALL)
    with pytest.raises(ConfigurationError, match=f"jobs must be >= 1, got {jobs}"):
        ev.run_cv(er_dataset, cfg, k=3, jobs=jobs)


def sweep_values(protocol, *flags):
    args = cli.build_parser().parse_args(["sweep", protocol, *flags])
    values, _ = cli.resolve_fields(args, cli._COMMON)
    return values


def run_sweep(dataset, protocol, *flags, k):
    """Each sweep cell run through run_cv at SMALL sizes, keeping the
    cell's memory sizes and variant."""
    small = {key: v for key, v in SMALL.items()
             if key not in ("num_node_memory", "num_graph_memory")}
    return [(fields, ev.run_cv(dataset, dataclasses.replace(config, **small),
                               k=k, tau=tau))
            for tau, config, _, _, fields in
            cli.sweep_cells(protocol, sweep_values(protocol, *flags))]


def test_contamination_sweep_orders_and_validates(er_dataset):
    runs = run_sweep(er_dataset, "contamination", "--tau", "0,50", k=3)
    assert [r.config["tau"] for _, r in runs] == [0.0, 50.0]
    assert [f["tau"] for f, _ in runs] == [0.0, 50.0]
    with pytest.raises(ConfigurationError, match="--tau must be <= 100"):
        sweep_values("contamination", "--tau", "0,120")
    cfg = TrainConfig(seed=0, **SMALL)
    with pytest.raises(ConfigurationError, match="tau must be in"):
        ev.run_cv(er_dataset, cfg, k=3, tau=120.0)


def test_memory_sweep_grid_shape(er_dataset):
    runs = run_sweep(er_dataset, "memory", "--p", "1,2", "--q", "1,3", k=2)
    assert [(f["p"], f["q"]) for f, _ in runs] == [(1, 1), (2, 1), (1, 3)]
    for fields, rep in runs:
        assert rep.config["num_node_memory"] == fields["p"]
        assert rep.config["num_graph_memory"] == fields["q"]
    with pytest.raises(ConfigurationError, match="--p must be >= 1"):
        sweep_values("memory", "--p", "0", "--q", "1")
    with pytest.raises(ConfigurationError, match="--p: empty item"):
        sweep_values("memory", "--p", "", "--q", "1")


def test_ablation_sets_variant(er_dataset):
    cfg = TrainConfig(seed=0, variant="gae_only", **SMALL)
    rep = ev.run_cv(er_dataset, cfg, k=2)
    assert rep.config["variant"] == "gae_only"


# ---------------------------------------------------------------------------
# serialization

@pytest.fixture(scope="module")
def small_report(er_dataset):
    cfg = TrainConfig(seed=0, **SMALL)
    return ev.run_cv(er_dataset, cfg, k=2)


def test_report_json_round_trip(small_report, tmp_path):
    path = tmp_path / "report.json"
    ev.write_report_json(small_report, path)
    loaded = json.loads(path.read_text())
    assert loaded["schema_version"] == ev.SCHEMA_VERSION
    assert loaded["mean_auc"] == small_report.mean_auc
    assert loaded["per_fold_auc"] == small_report.per_fold_auc
    assert len(loaded["per_graph_scores"]) == len(small_report.per_graph_scores)


def test_report_csv_exact_aucs(small_report, tmp_path):
    path = tmp_path / "report.csv"
    ev.write_report_csv(small_report, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "variant", "p", "q", "tau", "fold", "auc"]
    assert len(rows) == 1 + small_report.config["folds"]
    for i, row in enumerate(rows[1:]):
        assert int(row[5]) == i
        assert float(row[6]) == small_report.per_fold_auc[i]  # repr round-trips


def test_history_csv_covers_every_epoch(small_report, tmp_path):
    path = tmp_path / "history.csv"
    ev.write_history_csv(small_report, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "fold"
    assert len(rows) == 1 + small_report.config["folds"] * SMALL["epochs"]
    total_col = rows[0].index("total")
    recomputed = float(rows[1][total_col])
    assert recomputed == small_report.fold_histories[0][0]["total"]


def _raises_mid_write(report, path):
    """Writers given a report whose serialisation fails part-way through."""
    bad_json = dataclasses.replace(report, config={"a": 1, "z": object()})
    bad_rows = dataclasses.replace(
        report, fold_histories=[report.fold_histories[0] + [{"epoch": 99}]])
    return {"report.json": lambda: ev.write_report_json(bad_json, path),
            "history.csv": lambda: ev.write_history_csv(bad_rows, path),
            "manifest.json": lambda: cli.write_manifest(
                path.parent, "cv", {"seed": object()}, {}, "", [])}


@pytest.mark.parametrize("name", ["report.json", "history.csv", "manifest.json"])
def test_failed_write_keeps_the_previous_file(small_report, tmp_path, name):
    path = tmp_path / name
    path.write_text("previous\n")
    with pytest.raises((TypeError, KeyError)):
        _raises_mid_write(small_report, path)[name]()
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]
    # and a write that succeeds replaces it, leaving no temporary file
    ev.write_report_json(small_report, tmp_path / "report.json")
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["seed"] == 0
    assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
