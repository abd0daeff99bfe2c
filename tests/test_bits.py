"""The bits ledger: digests that pin what training and scoring compute.

`tests/bits.json` holds, for a few fixed training runs, the sha256 of the
trained parameters' bytes, of the per-epoch history rows and of the per-graph
scores, along with the numpy and OpenBLAS versions that produced them. The
test recomputes every case in one subprocess under a forced OpenBLAS kernel
and one BLAS thread, because both change the bits of a GEMM. A change that
means to keep the numerics leaves the file alone; one that means to change
them rewrites it and lists the changed cases:

    PYTHONPATH=src python tests/test_bits.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER = Path(__file__).resolve().with_name("bits.json")
ROOT = LEDGER.parent.parent
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
# every case trains fold 0 of 5 under seed 0, then scores its test graphs
EPOCHS, BATCH, FOLDS = 2, 80, 5


def versions() -> dict[str, str]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": str(blas.get("version"))}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _case(dataset, variant: str) -> dict[str, str]:
    from hiermem.data import make_folds
    from hiermem.training import (TrainConfig, make_model_config,
                                  score_graphs, train)

    [split, *_] = make_folds(dataset, FOLDS, 0, 0.0)
    config = TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=split.seed,
                         variant=variant)
    params, history = train(split.train_graphs, config,
                            feature_dim=dataset.attribute_dim,
                            max_nodes=dataset.n_max)
    cfg = make_model_config(config, dataset.attribute_dim, dataset.n_max)
    scores = score_graphs(params, cfg, split.test_graphs)
    return {
        "params": _sha(b"".join(np.ascontiguousarray(t.data).tobytes()
                                for t in params.tensors())),
        "history": _sha(json.dumps(history, sort_keys=True).encode()),
        "scores": _sha(np.asarray(scores, dtype=np.float64).tobytes()),
    }


def compute() -> dict:
    """Every case's digests; run under `PINNED_ENV` (see `recompute`)."""
    sys.path.insert(0, str(ROOT / "tests"))
    from conftest import aids_corpus
    from hiermem.data import make_er_dataset

    er = make_er_dataset(100, 40, seed=0)
    aids = aids_corpus().make_aids_like(600, 7)
    return {**versions(), "cases": {
        "synthetic-er/full": _case(er, "full"),
        "synthetic-er/gae_only": _case(er, "gae_only"),
        "aids-like-600-7/full": _case(aids, "full"),
    }}


def recompute() -> dict:
    """`compute()` in a fresh interpreter under the pinned kernel and thread
    count, which OpenBLAS reads only when it loads."""
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, __file__, "--compute"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout)


def test_training_and_scoring_keep_the_ledgers_bits():
    if "avx2" not in Path("/proc/cpuinfo").read_text():
        pytest.skip("the ledger's pinned Haswell kernel needs AVX2")
    ledger = json.loads(LEDGER.read_text())
    here = versions()
    if any(here[k] != ledger[k] for k in here):
        pytest.skip(f"ledger written with numpy {ledger['numpy']} and OpenBLAS "
                    f"{ledger['openblas']}; this is numpy {here['numpy']} and "
                    f"OpenBLAS {here['openblas']}")
    got = recompute()
    assert got["cases"] == ledger["cases"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--compute"]:
        print(json.dumps(compute()))
    elif sys.argv[1:] == ["--write"]:
        LEDGER.write_text(json.dumps(recompute(), sort_keys=True, indent=2)
                          + "\n")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
