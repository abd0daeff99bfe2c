"""The hiermem benchmark: four workloads, timed from outside the program.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--record FILE]

Each workload is a closed loop: one program invocation at a time, each in a
fresh process, until the run's seconds are spent. Inputs come from --seed
alone. Untraced (--trace 0) a run prints the end-to-end metrics, each the
median over its invocations. Traced (--trace 1) it alternates untraced and
traced invocations and prints the per-layer metrics from the traced ones,
plus the tracing overhead. Every invocation's outputs are checked; the last
line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 1 when a check failed. No BLAS or OpenMP thread
variable is set here: the environment block reports them as found.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
INVOCATION_TIMEOUT_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")

# sizes chosen so that one invocation takes a few seconds on two cores and
# a run holds two or more of them (see README.md for the numbers)
SYNTH_EPOCHS = 3
TU_NAME = "AIDSLIKE"
TU_CV_GRAPHS = 600
TU_CV_BATCH = 80
TU_SCORE_GRAPHS = 8000
CHECKPOINT_TRAIN_GRAPHS = 300
CHECKPOINT_BATCH = 80
CHECKPOINT_REPEATS = 5

END_TO_END = {                      # name: (unit, better)
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "train_graphs_per_s": ("graphs/s", "higher"),
    "score_graphs_per_s": ("graphs/s", "higher"),
    "auc_mean": ("1", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

MODEL_SPANS = ("normalize_adjacency", "encode", "attend_nodes", "attend_graph",
               "decode_structure", "decode_attributes", "batch_losses",
               "forward_batch")
BW_LAYERS = ("enc1", "enc2", "enc3", "node_mem", "graph_mem", "dec_struct",
             "dec_attr", "losses")
BW_OPS = ("matmul", "masked_matrix_cosine", "relu", "hard_shrink",
          "frobenius_sq")
WRITE_SPANS = ("evaluation.write_report_json", "evaluation.write_report_csv",
               "evaluation.write_history_csv", "data.export_folds_csv",
               "cli.write_resolved_cfg", "cli.write_manifest")

# per-layer metrics every workload produces; BENCHMARK.json lists these
PER_LAYER = {
    "data.pad_batch_s": ("s", "lower"),
    "data.pad_batch.calls": ("count", "lower"),
    "data.pad_fill_nodes": ("1", "higher"),
    "data.pad_fill_cells": ("1", "higher"),
    **{f"model.{s}_s": ("s", "lower") for s in MODEL_SPANS},
    "model.score_batch_ms.p50": ("ms", "lower"),
    "model.score_batch_ms.p90": ("ms", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    **{f"autodiff.bw.{layer}_s": ("s", "lower") for layer in BW_LAYERS},
    **{f"autodiff.bw.op.{op}_s": ("s", "lower") for op in BW_OPS},
    "autodiff.tape_nodes_per_step": ("count", "lower"),
    "autodiff.matmul_gflop_per_step": ("GFLOP-computed", "lower"),
    "optim.adam_step_s": ("s", "lower"),
    "training.train_s": ("s", "lower"),
    "training.score_graphs_s": ("s", "lower"),
    "training.steps": ("count", "lower"),
    "training.step_ms.p50": ("ms", "lower"),
    "training.step_ms.p90": ("ms", "lower"),
    "evaluation.evaluate_auc_s": ("s", "lower"),
    "evaluation.pool.cpu_util": ("1", "higher"),
    "evaluation.pool.nivcsw": ("count", "lower"),
    "trace.overhead_frac": ("1", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}

# per-layer numbers that only some workloads have; printed and recorded,
# not part of the result line
DETAIL = {
    "data.parse_tudataset_s": "s",
    "evaluation.run_cv_s": "s",
    "cli.load_dataset_s": "s",
    "cli.write_outputs_s": "s",
    "model.score_batch_ms.samples": "count",
    "training.step_ms.samples": "count",
    "autodiff.tape_nodes_per_score_batch": "count",
    "autodiff.bw.other_s": "s",
    "autodiff.bw.unattributed_s": "s",
    "trace.unattributed_frac": "1",
}


# ---------------------------------------------------------------------------
# one invocation

@dataclass
class Invocation:
    spec: dict
    trace: bool
    pid: int = 0
    t_spawn: float = 0.0
    t_exit: float = 0.0
    status: int = 0
    rusage: object = None
    result: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def inv_dir(self) -> Path:
        return Path(self.spec["dir"])

    def spans(self, pid=None):
        """All spans, ids made unique across processes as (pid, id)."""
        out = []
        for r in self.records:
            if pid is not None and r["pid"] != pid:
                continue
            p = r["pid"]
            out.extend(((p, s), name, t0, t1, None if par is None else (p, par))
                       for s, name, t0, t1, par in r["spans"])
        return out

    def count(self, name) -> float:
        return sum(r["counts"].get(name, 0.0) for r in self.records)

    def samples(self, name) -> list:
        return [v for r in self.records for v in r["samples"].get(name, ())]

    def mark(self, name):
        for r in self.records:
            if name in r["marks"]:
                return r["marks"][name]
        return None


def _reap_group(pgid: int) -> None:
    """Kill what is left of a process group and wait until it is gone."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(spec: dict, trace: bool) -> Invocation:
    inv_dir = Path(spec["dir"])
    inv_dir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, trace=trace, trace_path=str(inv_dir / "trace.jsonl"),
                result_path=str(inv_dir / "result.json"))
    spec_path = inv_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    inv = Invocation(spec=spec, trace=trace)
    with open(inv_dir / "stdout.txt", "wb") as out, \
            open(inv_dir / "stderr.txt", "wb") as err:
        inv.t_spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "invoke.py"),
                                 str(spec_path)], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=str(inv_dir),
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, _reap_group, (proc.pid,))
        timer.start()
        try:
            _, inv.status, inv.rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            inv.t_exit = time.perf_counter()
            proc.returncode = inv.status
            _reap_group(proc.pid)
    inv.pid = proc.pid
    if inv.status != 0:
        tail = (inv_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        inv.problems.append(f"exit status {inv.status}: {tail.strip()}")
        return inv
    inv.result = json.loads(Path(spec["result_path"]).read_text())
    inv.records = spans.read_records(spec["trace_path"])
    return inv


# ---------------------------------------------------------------------------
# workloads

class Workload:
    name = ""
    why = ""

    def prepare(self, seed: int, work: Path, trace: bool) -> dict:
        return {}

    def spec(self, prep: dict, seed: int, inv_dir: Path) -> dict:
        raise NotImplementedError

    def outcome(self, inv: Invocation, prep: dict) -> dict:
        """Per-graph scores and AUCs of one invocation, checked."""
        raise NotImplementedError


class CvWorkload(Workload):
    """`hiermem cv` through the command line, as a user runs it."""

    def __init__(self, name, why, dataset, extra=(), corpus_graphs=0):
        self.name, self.why = name, why
        self.dataset, self.extra = dataset, list(extra)
        self.corpus_graphs = corpus_graphs

    def prepare(self, seed, work, trace):
        if not self.corpus_graphs:
            return {"graph_ids": list(range(140))}  # make_er_dataset(100, 40)
        prep_dir = work / "prepare"
        inv = launch({"kind": "prepare", "dir": str(prep_dir),
                      "graphs": self.corpus_graphs, "seed": seed,
                      "name": self.dataset, "data_dir": str(work / "data")},
                     trace=False)
        return {"prep": inv, "graph_ids": list(range(self.corpus_graphs)),
                "data_dir": str(work / "data"),
                "digest": inv.result.get("digest")}

    def spec(self, prep, seed, inv_dir):
        extra = list(self.extra)
        if "data_dir" in prep:
            extra += ["--data-dir", prep["data_dir"]]
        return {"kind": "cli", "dir": str(inv_dir), "digest": True,
                "seed": seed,
                "argv": ["cv", "--dataset", self.dataset, "--seed", str(seed),
                         "--out-dir", str(inv_dir / "runs"), *extra]}

    def outcome(self, inv, prep):
        run_dir = (inv.inv_dir / "runs"
                   / f"cv-{self.dataset}-s{inv.spec['seed']}")
        report = json.loads((run_dir / "report.json").read_text())
        test_ids: dict[int, set] = {}
        with open(run_dir / "folds.csv") as fh:
            for row in csv.DictReader(fh):
                if row["role"] == "test":
                    test_ids.setdefault(int(row["fold"]), set()).add(
                        int(row["graph_id"]))
        triples = report["per_graph_scores"]
        problems = _check_scores([t[0] for t in triples],
                                 [t[1] for t in triples], prep["graph_ids"])
        from hiermem.evaluation import evaluate_auc
        for f, auc in enumerate(report["per_fold_auc"]):
            fold = [t for t in triples if t[0] in test_ids.get(f, ())]
            again = evaluate_auc([t[1] for t in fold], [t[2] for t in fold])
            if again != auc:
                problems.append(f"fold {f}: report AUC {auc!r}, recomputed "
                                f"from its scores {again!r}")
        if "digest" in prep and inv.result.get("digest") != prep["digest"]:
            problems.append("parse_tudataset did not read back the written corpus")
        return {"auc_mean": report["mean_auc"], "problems": problems,
                "scores": [(t[0], t[1]) for t in triples]}


class JobsWorkload(CvWorkload):
    """A cv workload run with a fold process pool, checked against the
    per-graph scores of the same workload run serially."""

    def __init__(self, name, why, serial: CvWorkload, jobs: int):
        super().__init__(name, why, serial.dataset,
                         serial.extra + ["--jobs", str(jobs)],
                         serial.corpus_graphs)
        self.serial = serial

    def prepare(self, seed, work, trace):
        prep = super().prepare(seed, work, trace)
        ref = launch(self.serial.spec(prep, seed, work / "serial-reference"),
                     trace=False)
        if ref.problems:
            raise RuntimeError("serial reference failed: " + ref.problems[0])
        prep["reference"] = self.serial.outcome(ref, prep)["scores"]
        return prep

    def outcome(self, inv, prep):
        out = super().outcome(inv, prep)
        if out["scores"] != prep["reference"]:
            out["problems"].append("--jobs 2 scores differ from the serial run")
        return out


class ScoreWorkload(Workload):
    name = "tu-score"
    why = ("inference only: load a checkpoint, parse 8000 AIDS-shaped graphs, "
           "score every graph, AUC; no backward or Adam, and parse cost lands "
           "in set-up")

    def prepare(self, seed, work, trace):
        inv = launch({"kind": "prepare", "dir": str(work / "prepare"),
                      "graphs": TU_SCORE_GRAPHS, "seed": seed, "name": TU_NAME,
                      "data_dir": str(work / "data"),
                      "checkpoint": str(work / "checkpoint.npz"),
                      "train_graphs": CHECKPOINT_TRAIN_GRAPHS, "epochs": 1,
                      "batch_size": CHECKPOINT_BATCH,
                      # traced, one training gives the per-layer numbers
                      "repeats": 1 if trace else CHECKPOINT_REPEATS},
                     trace=trace)
        if inv.result.get("repeats_identical") is False:
            inv.problems.append("checkpoint training is not repeatable")
        return {"prep": inv, "graph_ids": list(range(TU_SCORE_GRAPHS)),
                "digest": inv.result.get("digest"),
                "data_dir": str(work / "data"),
                "checkpoint": str(work / "checkpoint.npz")}

    def spec(self, prep, seed, inv_dir):
        return {"kind": "score", "dir": str(inv_dir),
                "checkpoint": prep["checkpoint"], "data_dir": prep["data_dir"],
                "name": TU_NAME, "scores_path": str(inv_dir / "scores.npz")}

    def outcome(self, inv, prep):
        import numpy as np
        from hiermem.evaluation import evaluate_auc
        with np.load(inv.spec["scores_path"]) as z:
            scores, labels, ids = z["scores"], z["labels"], z["graph_ids"]
        problems = _check_scores(ids.tolist(), scores.tolist(),
                                 prep["graph_ids"])
        again = evaluate_auc(scores, labels)
        if again != inv.result["auc"]:
            problems.append(f"AUC {inv.result['auc']!r}, recomputed {again!r}")
        if inv.result.get("digest") != prep["digest"]:
            problems.append("parse_tudataset did not read back the written corpus")
        return {"auc_mean": inv.result["auc"], "problems": problems,
                "scores": list(zip(ids.tolist(), scores.tolist()))}


def _check_scores(ids, scores, expected_ids) -> list[str]:
    problems = []
    if sorted(ids) != sorted(expected_ids):
        problems.append(f"{len(ids)} scored graphs, expected one score for "
                        f"each of {len(expected_ids)}")
    bad = [s for s in scores if not math.isfinite(s)]
    if bad:
        problems.append(f"{len(bad)} non-finite scores")
    return problems


SYNTH_CV = CvWorkload(
    "synth-cv",
    "training-bound on small uniform graphs (synthetic-er, 5 folds, one "
    "B=80 batch per epoch); most time is autodiff backward of the encoder "
    "matmuls", "synthetic-er", ["--epochs", str(SYNTH_EPOCHS)])

WORKLOADS = {w.name: w for w in [
    SYNTH_CV,
    CvWorkload(
        "tu-cv",
        "AIDS-shaped TU corpus through the real parser, size buckets up to "
        "width 95 and the cropped node memory; data and node-memory costs "
        "synth-cv barely touches", TU_NAME,
        ["--folds", "5", "--epochs", "1", "--batch-size", str(TU_CV_BATCH)],
        corpus_graphs=TU_CV_GRAPHS),
    ScoreWorkload(),
    JobsWorkload(
        "synth-cv-jobs2",
        "synth-cv with --jobs 2: the only path through the fold process pool, "
        "together with unpinned BLAS threads", SYNTH_CV, jobs=2),
]}


# ---------------------------------------------------------------------------
# metrics

def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else math.nan


def end_to_end(inv: Invocation, workload: Workload) -> dict:
    main = inv.spans(pid=inv.pid)
    if isinstance(workload, ScoreWorkload):
        setup_end, done = inv.mark("setup"), inv.mark("done")
    else:
        setup_end = max(t1 for _, n, _, t1, _ in main if n == "cli.load_dataset")
        done = max(t1 for _, n, _, t1, _ in main if n == "cli.write_manifest")
    every = inv.spans()
    train_s = sum(t1 - t0 for _, n, t0, t1, _ in every if n == "training.train")
    score_s = sum(t1 - t0 for _, n, t0, t1, _ in every
                  if n == "training.score_graphs")
    out = {"wall_s": done - inv.t_spawn, "setup_s": setup_end - inv.t_spawn,
           "score_graphs_per_s": inv.count("training.graphs_scored") / score_s,
           "peak_rss_mb": inv.rusage.ru_maxrss / 1024.0}
    if train_s:
        out["train_graphs_per_s"] = inv.count("training.graph_epochs") / train_s
    return out


def layer_metrics(inv: Invocation, extra_records=()) -> tuple[dict, float]:
    """Per-layer numbers of one traced invocation, and the time of its own
    process that spans cover."""
    records = list(extra_records) + inv.records
    view = Invocation(spec=inv.spec, trace=True, pid=inv.pid, records=records)
    table = spans.self_times(view.spans())

    def total(name):
        return table.get(name, {}).get("total_s", 0.0)

    def self_(name):
        return table.get(name, {}).get("self_s", 0.0)

    def bw(pred):
        return sum(v["total_s"] for k, v in table.items()
                   if k.startswith("autodiff.bw.") and pred(k.split(".")[2:]))

    m = {"data.parse_tudataset_s": total("data.parse_tudataset"),
         "data.pad_batch_s": total("data.pad_batch"),
         "data.pad_batch.calls": table.get("data.pad_batch", {}).get("calls", 0),
         "data.pad_fill_nodes": view.count("data.pad.real_nodes")
         / view.count("data.pad.node_slots"),
         "data.pad_fill_cells": view.count("data.pad.real_cells")
         / view.count("data.pad.cells")}
    for s in MODEL_SPANS:
        m[f"model.{s}_s"] = self_(f"model.{s}")
    for key, samples in (("model.score_batch_ms", "model.score_batch_ms"),
                         ("training.step_ms", "training.step_ms")):
        values = view.samples(samples)
        m[f"{key}.p50"], n = spans.percentile(values, 50)
        m[f"{key}.p90"], _ = spans.percentile(values, 90)
        m[f"{key}.samples"] = n
    m["autodiff.backward_s"] = total("autodiff.backward")
    m["autodiff.bw.unattributed_s"] = self_("autodiff.backward")
    for layer in BW_LAYERS + ("other",):
        m[f"autodiff.bw.{layer}_s"] = bw(lambda p, layer=layer: p[0] == layer)
    for op in BW_OPS:
        m[f"autodiff.bw.op.{op}_s"] = bw(lambda p, op=op: p[1] == op)
    steps = view.samples("autodiff.tape_nodes_per_step")
    m["autodiff.tape_nodes_per_step"] = _median(steps)
    m["autodiff.tape_nodes_per_score_batch"] = _median(
        view.samples("autodiff.tape_nodes_per_score_batch"))
    m["autodiff.matmul_gflop_per_step"] = _median(
        view.samples("autodiff.matmul_flop_per_step")) / 1e9
    m["optim.adam_step_s"] = total("optim.Adam.step")
    m["training.train_s"] = total("training.train")
    m["training.score_graphs_s"] = total("training.score_graphs")
    m["training.steps"] = len(steps)
    m["evaluation.run_cv_s"] = total("evaluation.run_cv")
    m["evaluation.evaluate_auc_s"] = total("evaluation.evaluate_auc")
    m["cli.load_dataset_s"] = total("cli.load_dataset")
    m["cli.write_outputs_s"] = sum(total(n) for n in WRITE_SPANS)
    # the rest of the process's time, start-up and imports, is unattributed
    covered = sum(v["self_s"] for v in spans.self_times(
        inv.spans(pid=inv.pid)).values())
    return m, covered


def pool_metrics(inv: Invocation) -> dict:
    ru = inv.rusage
    lifetime = inv.t_exit - inv.t_spawn
    nproc = len(os.sched_getaffinity(0))
    return {"evaluation.pool.cpu_util": (ru.ru_utime + ru.ru_stime)
            / (lifetime * nproc),
            "evaluation.pool.nivcsw": ru.ru_nivcsw}


# ---------------------------------------------------------------------------
# one run of one workload

@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    elapsed_s: float = 0.0
    walls: list = field(default_factory=list)
    traced_walls: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_workload(workload: Workload, seed: int, seconds: float,
                 trace: bool) -> RunResult:
    """One run in a scratch directory that is removed afterwards."""
    work = WORK / f"{workload.name}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_workload(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, work) -> RunResult:
    res = RunResult(workload.name, seed, trace)
    prep = workload.prepare(seed, work, trace)
    prep_inv = prep.get("prep")
    if prep_inv is not None and prep_inv.problems:
        res.attempted = res.failed = 1
        res.problems += [f"preparation: {p}" for p in prep_inv.problems]
        return res

    runs: list[tuple[Invocation, dict]] = []
    first = None            # outcome of the first invocation that passed
    t0 = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        inv = launch(workload.spec(prep, seed, work / f"inv{len(runs)}"),
                     trace=traced)
        res.attempted += 1
        outcome = {"problems": []}
        if not inv.problems:
            try:
                outcome = workload.outcome(inv, prep)
            except (OSError, ValueError, KeyError) as e:
                outcome["problems"].append(f"unreadable outputs: {e!r}")
        problems = inv.problems + outcome["problems"]
        if not problems and first is None:
            first = outcome
        elif not problems:
            # one seed, one answer: repeats, and traced against untraced
            if outcome["scores"] != first["scores"]:
                problems.append("per-graph scores differ from the first "
                                "invocation" + (" (traced)" if traced else ""))
            if outcome["auc_mean"] != first["auc_mean"]:
                problems.append("auc_mean differs from the first invocation")
        if problems:
            res.failed += 1
            res.problems += [f"invocation {len(runs)}: {p}" for p in problems]
            outcome = {"problems": problems}
        runs.append((inv, outcome))
        elapsed = time.perf_counter() - t0
        typical = _median([i.t_exit - i.t_spawn for i, _ in runs])
        enough = not trace or len(runs) >= 2
        if enough and elapsed + typical > seconds:
            break
    res.elapsed_s = time.perf_counter() - t0

    good = [(i, o) for i, o in runs if "scores" in o]
    plain = [(i, o) for i, o in good if not i.trace]
    e2e = [end_to_end(i, workload) for i, _ in plain]
    res.walls = [row["wall_s"] for row in e2e]
    if isinstance(workload, ScoreWorkload):
        # tu-score trains only while preparing its checkpoint
        train_rate = end_to_end_train(prep_inv)
        for row in e2e:
            row["train_graphs_per_s"] = train_rate
    if not trace:
        for name in END_TO_END:
            res.metrics[name] = _median([row.get(name) for row in e2e])
        res.metrics["auc_mean"] = _median([o["auc_mean"] for _, o in plain])
        return res

    traced_runs = [(i, o) for i, o in good if i.trace]
    if not traced_runs or not e2e:
        res.problems.append("no traced and untraced invocation pair completed")
        return res
    extra = prep_inv.records if (prep_inv is not None and prep_inv.trace) else ()
    rows = []
    for inv, _ in traced_runs:
        m, covered = layer_metrics(inv, extra)
        wall = end_to_end(inv, workload)["wall_s"]
        m["trace.unattributed_s"] = wall - covered
        m["trace.unattributed_frac"] = (wall - covered) / wall
        res.traced_walls.append(wall)
        rows.append(m)
    rows += [pool_metrics(i) for i, _ in plain]
    merged = {k: _median([r.get(k) for r in rows]) for k in rows[0] | rows[-1]}
    merged["trace.overhead_frac"] = (_median(res.traced_walls)
                                     / _median(res.walls) - 1.0)
    res.metrics = {k: merged[k] for k in PER_LAYER}
    res.detail = {k: merged[k] for k in DETAIL}
    return res


def end_to_end_train(inv: Invocation) -> float:
    """Median training rate over the calls of `train` in a preparation."""
    calls = [t1 - t0 for _, n, t0, t1, _ in inv.spans() if n == "training.train"]
    per_call = inv.count("training.graph_epochs") / len(calls)
    return _median([per_call / t for t in calls])


# ---------------------------------------------------------------------------
# environment and output

def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    h = hashlib.sha256()
    for p in sorted((SRC / "hiermem").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_config": blas.get("openblas configuration"),
            "thread_env": {k: os.environ[k] for k in THREAD_VARS
                           if k in os.environ}}


def report(res: RunResult) -> None:
    kind = "per-layer" if res.trace else "end-to-end"
    print(f"== {res.workload}  seed {res.seed}  {kind}: {res.attempted} "
          f"invocations in {res.elapsed_s:.1f} s, walls "
          + " ".join(f"{w:.2f}" for w in res.walls)
          + (", traced " + " ".join(f"{w:.2f}" for w in res.traced_walls)
             if res.trace else ""))
    table = PER_LAYER if res.trace else END_TO_END
    for name, value in res.metrics.items():
        print(f"  {name:38s} {value:14.6g} {table[name][0]}")
    for name, value in res.detail.items():
        print(f"  {name:38s} {value:14.6g} {DETAIL[name]}  (detail)")
    print(f"  {'failed_frac':38s} {res.failed / max(res.attempted, 1):14.6g} 1"
          f"  ({res.failed} of {res.attempted}; checks "
          + ("ok)" if res.correct else "FAILED)"))
    for p in res.problems:
        print(f"  ! {p}")


def record(path: Path, res: RunResult, env: dict) -> None:
    """Merge one run into a baseline file keyed by workload and mode."""
    book = json.loads(path.read_text()) if path.exists() else {}
    book["environment"] = env
    entry = book.setdefault("workloads", {}).setdefault(res.workload, {})
    entry["why"] = WORKLOADS[res.workload].why
    entry["trace1" if res.trace else "trace0"] = {
        "seed": res.seed, "invocations": res.attempted,
        "metrics": res.metrics, "detail": res.detail,
        "correct": res.correct}
    path.write_text(json.dumps(book, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="merge the results into this JSON file")
    args = parser.parse_args(argv)

    if not (SRC / "hiermem" / "__init__.py").is_file():
        print(f"error: no hiermem sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            res = run_workload(WORKLOADS[name], args.seed, seconds,
                               bool(args.trace))
        except RuntimeError as e:
            res = RunResult(name, args.seed, bool(args.trace), attempted=1,
                            failed=1, problems=[str(e)])
        report(res)
        WORK.mkdir(exist_ok=True)
        (WORK / f"{name}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"environment": env, **vars(res)}, indent=1))
        if args.record:
            record(args.record, res, env)
        results.append(res)

    table = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    metrics = {(f"{r.workload}/{k}" if prefix else k):
               {"value": v, "unit": table[k][0]}
               for r in results for k, v in r.metrics.items()}
    correct = all(r.correct for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in results),
                      "failed": sum(r.failed for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
