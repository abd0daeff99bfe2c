"""One program invocation, run in a fresh process by run.py.

    python3 perfbench/invoke.py SPEC.json

SPEC names what to run:
  kind "cli"      hiermem's own command line, `cli.main(argv)`
  kind "score"    the inference path: load_params, parse_tudataset,
                  score_graphs over every graph, evaluate_auc
  kind "prepare"  generate an AIDS-shaped corpus and write it to disk, and
                  optionally train (repeatedly) and save a checkpoint on a
                  sample of its normal graphs

Spans go to SPEC["trace_path"] (one file per process) and a small JSON
result to SPEC["result_path"]. The process start is taken by the caller,
before the interpreter even loads, so import time counts as set-up.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from hiermem import cli, data, evaluation, model, training  # noqa: E402

import corpus  # noqa: E402
import spans  # noqa: E402


def run_cli(spec, rec, inst) -> dict:
    code = cli.main(spec["argv"])
    out = {"exit_code": code}
    dataset = inst.captured.get("dataset")
    if dataset is not None and spec.get("digest"):
        out["digest"] = corpus.dataset_digest(dataset)
    return out


def run_score(spec, rec, inst) -> dict:
    params, cfg = model.load_params(spec["checkpoint"])
    dataset = data.parse_tudataset(spec["data_dir"], spec["name"])
    rec.mark("setup")
    scores = training.score_graphs(params, cfg, dataset.graphs)
    auc = evaluation.evaluate_auc(scores, dataset.labels())
    rec.mark("done")
    np.savez(spec["scores_path"], scores=scores, labels=dataset.labels(),
             graph_ids=[g.graph_id for g in dataset.graphs])
    return {"exit_code": 0, "auc": auc,
            "digest": corpus.dataset_digest(dataset)}


def run_prepare(spec, rec, inst) -> dict:
    inst.uninstall()    # generation is not the program under test
    dataset = corpus.make_aids_like(spec["graphs"], spec["seed"], spec["name"])
    data.write_tudataset(dataset, spec["data_dir"])
    out = {"exit_code": 0, "digest": corpus.dataset_digest(dataset)}
    if spec.get("checkpoint"):
        # a size-stratified sample of the normal graphs: the same node-count
        # multiset for every seed, so training cost does not vary with it
        normals = sorted((g for g in dataset.graphs if g.label == 0),
                         key=lambda g: (g.node_count, g.graph_id))
        step = len(normals) / spec["train_graphs"]
        sample = [normals[int(i * step)] for i in range(spec["train_graphs"])]
        config = training.TrainConfig(epochs=spec["epochs"],
                                      batch_size=spec["batch_size"],
                                      seed=spec["seed"])
        # trained more than once for a steadier train time; every repeat
        # must give the same parameters
        inst.install()
        trained = [training.train(sample, config,
                                  feature_dim=dataset.attribute_dim,
                                  max_nodes=dataset.n_max)[0]
                   for _ in range(spec["repeats"])]
        inst.uninstall()
        out["repeats_identical"] = all(
            np.array_equal(a.data, b.data)
            for p in trained[1:]
            for a, b in zip(trained[0].tensors(), p.tensors()))
        cfg = training.make_model_config(config, dataset.attribute_dim,
                                         dataset.n_max)
        model.save_params(spec["checkpoint"], trained[0], cfg)
    return out


KINDS = {"cli": run_cli, "score": run_score, "prepare": run_prepare}


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    rec = spans.Recorder(spec["trace_path"])
    inst = spans.Instrumentation(rec, traced=spec["trace"]).install()
    try:
        result = KINDS[spec["kind"]](spec, rec, inst)
    finally:
        inst.uninstall()
        rec.flush()
    Path(spec["result_path"]).write_text(json.dumps(result))
    return int(result["exit_code"])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
