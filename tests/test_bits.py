"""The bits ledger: digests that pin what training and scoring compute.

`tests/bits.json` holds, for a few fixed training runs, the sha256 of the
trained parameters' bytes, of the per-epoch history rows and of the per-graph
scores, along with the numpy and OpenBLAS versions that produced them, and
the sha256 of the gradient checker's verdicts over seeds 0-9, so a change to
which draws that oracle compares shows here too. The test recomputes every
case in one subprocess under a forced OpenBLAS kernel and one BLAS thread,
because both change the bits of a GEMM, and fails naming the kernel that ran
if OpenBLAS ignored the forced one; a second test recomputes two of them
in their own subprocess at two threads, which split some GEMMs differently
(it skips where OpenBLAS runs fewer). Some cases are twins that must give
equal digests: a corpus written to disk and parsed back (bool adjacency;
degree columns built by the parser when the attribute file is left out)
against the corpus as constructed, and a cross-validation run with two fold
workers against the serial run. A change that means to keep the numerics
leaves the file alone; one that means to change them rewrites it, which
prints each case whose digests changed, and lists those cases:

    PYTHONPATH=src python tests/test_bits.py --write
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hiermem import blas

from conftest import aids_corpus, fresh_env

LEDGER = Path(__file__).resolve().with_name("bits.json")
PINNED_ENV = {"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}
# the ledger's 2-thread column: these cases again at two BLAS threads
TWO_THREADS = ("synthetic-er/full", "aids-like-600-7/full")
# every case trains fold 0 of 5 under seed 0, then scores its test graphs
EPOCHS, BATCH, FOLDS = 2, 80, 5
# case -> the case whose digests it must equal
TWINS = {
    "aids-like-600-7-parsed/full": "aids-like-600-7/full",
    "synthetic-er-parsed/full": "synthetic-er/full",
    "synthetic-er/cv-jobs2": "synthetic-er/cv",
}


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


def _cv(dataset, jobs: int) -> dict[str, str]:
    """The per-graph scores of a `full` cross-validation over all folds."""
    from hiermem.evaluation import run_cv
    from hiermem.training import TrainConfig

    config = TrainConfig(epochs=EPOCHS, batch_size=BATCH, seed=0)
    report = run_cv(dataset, config, FOLDS, jobs=jobs)
    return {"scores": _sha(json.dumps(report.per_graph_scores).encode())}


def _gradcheck() -> dict[str, str]:
    """Each case's verdict of `check_suite(range(10))`: its name, worst
    seed, largest error (as `repr`), pass flag and per-parameter errors."""
    from hiermem.gradcheck import check_suite

    verdicts = [[v.name, v.worst_seed, repr(v.max_rel_err), v.passed,
                 v.per_param] for v in check_suite(range(10))]
    return {"verdicts": _sha(json.dumps(verdicts).encode())}


def _reparsed(dataset, attributes: bool = True):
    """`dataset` written in the TUDataset layout and parsed back; without
    its attribute file the parser builds the degree columns."""
    from hiermem.data import parse_tudataset, write_tudataset

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_tudataset(dataset, root)
        if not attributes:
            (root / dataset.name / f"{dataset.name}_node_attributes.txt").unlink()
        return parse_tudataset(root, dataset.name)


def compute(names=None) -> dict:
    """The digests of the cases in `names` (all by default), and the BLAS
    kernel and thread count they ran at; run under a pinned environment
    (`recompute`)."""
    from hiermem.data import make_er_dataset

    er = make_er_dataset(100, 40, seed=0)
    aids = aids_corpus().make_aids_like(600, 7)
    cases = {
        "synthetic-er/full": lambda: _case(er, "full"),
        "synthetic-er/gae_only": lambda: _case(er, "gae_only"),
        "synthetic-er/no_node": lambda: _case(er, "no_node"),
        "synthetic-er/no_graph": lambda: _case(er, "no_graph"),
        "synthetic-er-parsed/full":
            lambda: _case(_reparsed(er, attributes=False), "full"),
        "aids-like-600-7/full": lambda: _case(aids, "full"),
        "aids-like-600-7-parsed/full": lambda: _case(_reparsed(aids), "full"),
        "synthetic-er/cv": lambda: _cv(er, jobs=1),
        "synthetic-er/cv-jobs2": lambda: _cv(er, jobs=2),
        "gradcheck": _gradcheck,
    }
    return {**versions(), "core": blas.core(), "threads": blas.threads(),
            "cases": {name: cases[name]() for name in names or cases}}


def recompute(threads: int = 1, names: tuple[str, ...] = ()) -> dict:
    """`compute(names)` in a fresh interpreter under the pinned kernel and
    `threads` BLAS threads, which OpenBLAS reads only when it loads. Fails
    naming the kernel if OpenBLAS ran another one."""
    env = fresh_env(**{**PINNED_ENV, "OPENBLAS_NUM_THREADS": str(threads)})
    done = subprocess.run([sys.executable, __file__, "--compute", *names],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    got = json.loads(done.stdout)
    pinned = PINNED_ENV["OPENBLAS_CORETYPE"]
    assert got["core"] == pinned, (
        f"OpenBLAS ran the {got['core']} kernel, not the pinned {pinned}")
    return got


def changed_cases(old: dict, new: dict) -> list[str]:
    """Each case, as `column case`, whose digests differ between ledgers
    `old` and `new` in the 1-thread (`cases`) or 2-thread column, or that
    only one of them holds."""
    return [f"{column} {case}" for column in ("cases", "cases_2_threads")
            for case in sorted(old.get(column, {}).keys() | new[column].keys())
            if old.get(column, {}).get(case) != new[column].get(case)]


def _ledger() -> dict:
    """The ledger, or a skip where its kernel or versions cannot run."""
    if "avx2" not in Path("/proc/cpuinfo").read_text():
        pytest.skip("the ledger's pinned Haswell kernel needs AVX2")
    ledger = json.loads(LEDGER.read_text())
    here = versions()
    if any(here[k] != ledger[k] for k in here):
        pytest.skip(f"ledger written with numpy {ledger['numpy']} and OpenBLAS "
                    f"{ledger['openblas']}; this is numpy {here['numpy']} and "
                    f"OpenBLAS {here['openblas']}")
    return ledger


def test_training_and_scoring_keep_the_ledgers_bits():
    ledger = _ledger()
    got = recompute()["cases"]
    for case, twin in TWINS.items():
        assert got[case] == got[twin], f"{case} differs from {twin}"
    assert got == ledger["cases"]


def test_two_blas_threads_keep_the_ledgers_bits():
    ledger = _ledger()
    got = recompute(2, TWO_THREADS)
    if (got["threads"] or 0) < 2:
        pytest.skip(f"OpenBLAS runs {got['threads']} thread(s) here, not 2")
    assert got["cases"] == ledger["cases_2_threads"]


def test_an_ignored_kernel_pin_is_named(monkeypatch):
    if blas.core() is None:
        pytest.skip("numpy bundles no OpenBLAS that names its kernel")
    # OpenBLAS ignores a kernel it does not know and runs its own choice
    monkeypatch.setitem(PINNED_ENV, "OPENBLAS_CORETYPE", "NoSuchCore")
    with pytest.raises(AssertionError, match=(
            r"OpenBLAS ran the \w+ kernel, not the pinned NoSuchCore")):
        recompute(names=("synthetic-er/full",))


def test_write_names_each_case_whose_digests_changed():
    old = {"cases": {"a": {"scores": "1"}, "b": {"scores": "2"}},
           "cases_2_threads": {"a": {"scores": "3"}}}
    new = {"cases": {"a": {"scores": "1"}, "c": {"scores": "4"}},
           "cases_2_threads": {"a": {"scores": "5"}}}
    assert changed_cases(old, new) == ["cases b", "cases c",
                                       "cases_2_threads a"]
    assert changed_cases(new, new) == []


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compute"]:
        print(json.dumps(compute(sys.argv[2:])))
    elif sys.argv[1:] == ["--write"]:
        two = recompute(2, TWO_THREADS)
        if (two["threads"] or 0) < 2:
            sys.exit(f"OpenBLAS runs {two['threads']} thread(s) here, not 2")
        ledger = {**versions(), "cases": recompute()["cases"],
                  "cases_2_threads": two["cases"]}
        old = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
        LEDGER.write_text(json.dumps(ledger, sort_keys=True, indent=2) + "\n")
        print("\n".join(f"changed: {c}" for c in changed_cases(old, ledger))
              or "no case changed")
    else:
        sys.exit(f"usage: {sys.argv[0]} --write")
