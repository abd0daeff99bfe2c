"""The benchmark's own self-tests, run as part of this suite.

`perfbench/` wraps hiermem functions by name (`data.pad_batch`,
`model.forward_batch`, `model.encode`, `training.Adam`, ...) and attributes
encoder matmuls to `enc1`-`enc3`; its tests fail when one of those is renamed
or no longer called. They run in a subprocess because `perfbench/` and
`tests/` each have a `conftest` module, which one pytest run cannot hold.
Each kind of benchmark invocation also runs once here, on a tiny corpus.
"""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from hiermem import autodiff, data, model, training

ROOT = Path(__file__).resolve().parent.parent

# the leading parameters `perfbench/spans.py` reads by position or by name
BOUND_PARAMETERS = (
    (data.pad_batch, ("graphs", "n_max")),
    (model.forward_batch, ("params",)),
    (training.train, ("train_graphs", "config")),
    (training.score_graphs, ("params", "cfg", "graphs")),
    (autodiff.matmul, ("a", "b")),
)


def test_functions_perfbench_binds_keep_their_parameters():
    for fn, names in BOUND_PARAMETERS:
        leading = list(inspect.signature(fn).parameters)[:len(names)]
        assert leading == list(names), f"{fn.__module__}.{fn.__name__}{leading}"


def test_perfbench_self_tests_pass():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench"], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-2000:]


def test_each_perfbench_invocation_kind_runs(tmp_path):
    """One tiny untraced run of every kind `perfbench/invoke.py` knows: the
    calls tu-cv and tu-score make, which its self-tests do not run."""
    data_dir, checkpoint = tmp_path / "data", tmp_path / "checkpoint.npz"

    def invoke(**spec):
        kind = spec["kind"]
        spec = dict(spec, trace=False, trace_path=str(tmp_path / f"{kind}.jsonl"),
                    result_path=str(tmp_path / f"{kind}.json"))
        spec_path = tmp_path / f"{kind}-spec.json"
        spec_path.write_text(json.dumps(spec))
        done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "invoke.py"),
                               str(spec_path)], cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-3000:]
        return json.loads(Path(spec["result_path"]).read_text())

    prepared = invoke(kind="prepare", graphs=60, seed=7, name="AIDSLIKE",
                      data_dir=str(data_dir), checkpoint=str(checkpoint),
                      train_graphs=20, epochs=1, batch_size=8, repeats=2)
    assert prepared["repeats_identical"] is True
    scored = invoke(kind="score", checkpoint=str(checkpoint),
                    data_dir=str(data_dir), name="AIDSLIKE",
                    scores_path=str(tmp_path / "scores.npz"))
    assert math.isfinite(scored["auc"])
    cv = invoke(kind="cli", digest=True,
                argv=["cv", "--dataset", "AIDSLIKE", "--folds", "2",
                      "--epochs", "1", "--batch-size", "80",
                      "--data-dir", str(data_dir),
                      "--out-dir", str(tmp_path / "runs")])
    assert prepared["digest"] == scored["digest"] == cv["digest"]
    report = json.loads(
        (tmp_path / "runs" / "cv-AIDSLIKE-s0" / "report.json").read_text())
    assert len(report["per_fold_auc"]) == 2 and math.isfinite(report["mean_auc"])
