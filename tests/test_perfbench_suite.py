"""The benchmark's own self-tests, run as part of this suite.

`perfbench/` wraps hiermem functions by name (`data.pad_batch`,
`model.forward_batch`, `model.encode`, `training.Adam`, ...) and attributes
encoder matmuls to `enc1`-`enc3`; its tests fail when one of those is renamed
or no longer called. They run in a subprocess because `perfbench/` and
`tests/` each have a `conftest` module, which one pytest run cannot hold.
"""

import inspect
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
