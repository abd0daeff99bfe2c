"""AUC scoring, cross-validation, and the report writers.

A run's one seed is its `TrainConfig.seed`: it draws the split, and fold f
owns seed + f (`FoldSplit.seed`), its parameters and its optimizer state, so
folds can train in separate processes without changing any result:
reports are bit-identical for any --jobs value at one BLAS thread count.
`cv` and each sweep protocol are a list of cells, each one `run_cv` call
(`cli.sweep_cells`).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import time
from dataclasses import dataclass

import numpy as np

from .data import (FoldSplit, GraphDataset, atomic_open, make_folds,
                   write_json)
from .errors import ConfigurationError
from .training import (HISTORY_FIELDS, TrainConfig, make_model_config,
                       score_graphs, train)

SCHEMA_VERSION = 2


@dataclass
class EvalReport:
    """One cross-validation: its settings, each stated once in `config` (every
    `TrainConfig` field plus dataset, folds and tau), and its results.
    `config["seed"]` is the run's `TrainConfig.seed`: it drives the split,
    and fold f contaminates and trains under seed + f."""
    config: dict
    per_fold_auc: list[float]
    mean_auc: float
    std_auc: float
    per_graph_scores: list[tuple[int, float, int]]
    fold_histories: list[list[dict]]
    wall_clock_seconds: float


def evaluate_auc(scores, labels) -> float:
    """Area under the ROC curve by the rank statistic.

    Equals (#pairs where an anomaly outscores a normal + 0.5 per tied pair)
    divided by the number of anomaly/normal pairs; average ranks make the
    result exactly equal to that pairwise count.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ConfigurationError("scores and labels must be equal-length vectors")
    n = scores.size
    n_pos = int((labels == 1).sum())
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ConfigurationError("AUC needs both classes present")
    if not np.isfinite(scores).all():
        raise ConfigurationError("AUC needs finite scores")
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    # a group of equal scores shares the mean of its first and last 1-based rank
    last = np.cumsum(counts)
    first = last - counts + 1
    ranks = ((first + last) / 2.0)[group]
    rank_sum = ranks[labels == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# cross-validation

def _run_fold(split: FoldSplit, config: TrainConfig, feature_dim: int,
              n_max: int) -> tuple[float, list, list[dict]]:
    """Train one fold under its seed and score its test set: the fold's AUC,
    its (graph id, score, label) triples and its training history."""
    fold_cfg = dataclasses.replace(config, seed=split.seed)
    params, history = train(split.train_graphs, fold_cfg,
                            feature_dim=feature_dim, max_nodes=n_max)
    cfg = make_model_config(fold_cfg, feature_dim, n_max)
    scores = score_graphs(params, cfg, split.test_graphs)
    labels = [g.label for g in split.test_graphs]
    triples = [(g.graph_id, float(s), g.label)
               for g, s in zip(split.test_graphs, scores)]
    return evaluate_auc(scores, labels), triples, history


def run_cv(dataset: GraphDataset, config: TrainConfig, k: int,
           tau: float = 0.0, jobs: int = 1) -> EvalReport:
    """k-fold cross-validation: train on normals, score the mixed test fold.

    `config.seed` drives the fold split; each fold, contaminated by tau% of
    its anomaly pool, trains under its own seed (`make_folds`).
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    t0 = time.perf_counter()
    folds = make_folds(dataset, k, config.seed, tau)
    run = functools.partial(_run_fold, config=config,
                            feature_dim=dataset.attribute_dim,
                            n_max=dataset.n_max)
    if jobs > 1:
        # imported here: it loads multiprocessing, which serial runs never use
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, folds))
    else:
        results = list(map(run, folds))
    per_fold, triples, histories = zip(*results)

    return EvalReport(
        config={**dataclasses.asdict(config), "dataset": dataset.name,
                "folds": k, "tau": tau},
        per_fold_auc=list(per_fold),
        mean_auc=float(np.mean(per_fold)),
        std_auc=float(np.std(per_fold)),
        per_graph_scores=[t for fold in triples for t in fold],
        fold_histories=list(histories),
        wall_clock_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# serialization

def write_report_json(report: EvalReport, path) -> None:
    write_json(path, {**dataclasses.asdict(report),
                      "schema_version": SCHEMA_VERSION})


def write_report_csv(report: EvalReport, path) -> None:
    """Per-fold summary: dataset, variant, p, q, tau, fold, auc."""
    setting = [report.config[k] for k in ("dataset", "variant", "num_node_memory",
                                          "num_graph_memory", "tau")]
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset", "variant", "p", "q", "tau", "fold", "auc"])
        for f, auc in enumerate(report.per_fold_auc):
            writer.writerow(setting + [f, repr(auc)])


def write_history_csv(report: EvalReport, path) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold"] + list(HISTORY_FIELDS))
        for f, history in enumerate(report.fold_histories):
            for row in history:
                writer.writerow([f] + [repr(row[k]) if k != "epoch" else row[k]
                                       for k in HISTORY_FIELDS])
