"""End-to-end command-line runs: exit codes, artifacts, config precedence."""

import ast
import csv
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hiermem
from hiermem import blas, cli, evaluation, training
from hiermem.cli import main, parse_float_list, parse_int_list, parse_str_list
from hiermem.data import (export_folds_csv, make_er_dataset, make_folds,
                          parse_tudataset, write_tudataset)
from hiermem.errors import ConfigurationError

from conftest import ROOT, fresh_env


@pytest.fixture(scope="module")
def disk_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = make_er_dataset(12, 6, seed=2, n_range=(5, 8), name="ERS")
    write_tudataset(ds, root)
    return root


def run_cv_args(disk_dataset, out_dir, extra=()):
    return ["cv", "--dataset", "ERS", "--data-dir", str(disk_dataset),
            "--folds", "2", "--epochs", "1", "--out-dir", str(out_dir),
            *extra]


# ---------------------------------------------------------------------------
# list parsing

def test_parse_int_list_ranges_and_commas():
    assert parse_int_list("3") == [3]
    assert parse_int_list("1..4") == [1, 2, 3, 4]
    assert parse_int_list("1,3, 5..6") == [1, 3, 5, 6]


def test_parse_int_list_errors():
    for bad in ("x", "", "5..3", "1..y", "1,,2", "1,", " , "):
        with pytest.raises(ConfigurationError):
            parse_int_list(bad)


def test_parse_float_list():
    assert parse_float_list("0, 2.5,8") == [0.0, 2.5, 8.0]
    for bad in ("a,b", "", "0,,8", "0,8,", ",0"):
        with pytest.raises(ConfigurationError):
            parse_float_list(bad)


def test_parse_str_list():
    assert parse_str_list("full, gae_only") == ["full", "gae_only"]
    for bad in ("", "full,,gae_only", "full,", " , "):
        with pytest.raises(ConfigurationError, match="empty item"):
            parse_str_list(bad)


# ---------------------------------------------------------------------------
# config knobs

# TrainConfig fields the command line does not set, and why each stays
EXEMPT = {
    "hidden_dim": "the paper's encoder width; tests and the benchmark's "
                  "self-tests shrink it through the library",
    "latent_dim": "the paper's latent width; tests and the benchmark's "
                  "self-tests shrink it through the library",
}


def test_every_train_config_field_is_set_by_the_command_line():
    source = inspect.getsource(cli.build_train_config)
    fields = [f.name for f in dataclasses.fields(training.TrainConfig)]
    unset = [name for name in fields if name not in EXEMPT
             and not re.search(rf"\b{name}=", source)]
    assert unset == [], f"TrainConfig fields the command line never sets: {unset}"
    assert set(EXEMPT) <= set(fields)


def test_the_command_lines_defaults_are_train_configs():
    # README "Python API": a run without flags trains under TrainConfig()
    defaults = {name: field.default for name, field in cli.FIELDS.items()}
    p, q, variant = (defaults[key] for key in ("p", "q", "variant"))
    assert len(p) == len(q) == len(variant) == 1
    config = cli.build_train_config(defaults, p[0], q[0], variant[0])
    assert config == training.TrainConfig()
    for name, field in cli.FIELDS.items():
        if field.default is not None:
            assert cli._parse_field(field, cli._fmt(field.default),
                                    f"--{name}") == field.default


def _reads(tree: ast.AST) -> set[str]:
    """Every name a module reads, directly or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and not isinstance(node.ctx, ast.Store)}


def _imported(tree: ast.AST) -> set[str]:
    """Every name a module imports."""
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def _package_and_benchmark() -> tuple[list[Path], dict[Path, ast.Module]]:
    """The package's modules, and the parsed trees of those and of the
    benchmark's modules."""
    sources = sorted((ROOT / "src" / "hiermem").glob("*.py"))
    return sources, {p: ast.parse(p.read_text())
                     for p in sources + sorted((ROOT / "perfbench").glob("*.py"))}


def test_every_exported_name_is_used_by_the_package_or_the_benchmark():
    # no public name should exist just for a test to call
    sources, trees = _package_and_benchmark()
    used = set().union(*(_reads(t) | _imported(t) for p, t in trees.items()
                         if p.name != "__init__.py"))
    unused = [name for name in hiermem.__all__ if name not in used]
    assert unused == [], f"exported names nothing in src/ or perfbench/ uses: {unused}"


def _module_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names a module defines at its top
    level, dunders aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_every_module_level_name_and_import_is_read():
    # a private helper or constant, like a public name, must serve the
    # package or the benchmark, not only a test
    sources, trees = _package_and_benchmark()
    read = set().union(*(_reads(t) | _imported(t) for t in trees.values()))
    unread = [f"{p.name}: {name}" for p in sources
              for name in _module_level_names(trees[p]) if name not in read]
    assert unread == [], f"module-level names nothing reads: {unread}"

    unused = []
    for p in sources:
        own = _reads(trees[p])
        if p.name == "__init__.py":
            own |= set(hiermem.__all__)     # a re-export counts as read
        for node in ast.walk(trees[p]):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{p.name}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name.split(".")[0])
                           not in own]
    assert unused == [], f"imports their module never reads: {unused}"


# parameters the package accepts and ignores, each with its reason
IGNORED_PARAMETERS = {
    # perfbench/test_perfbench.py passes it; a change to the benchmark
    # deletes both
    "training.py: score_graphs(batch_size)",
}


def test_every_parameter_is_read_in_its_own_body():
    # a parameter no body reads is a knob that silently does nothing
    sources, trees = _package_and_benchmark()
    ignored = set()
    for p in sources:
        for node in ast.walk(trees[p]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                      + [a.vararg, a.kwarg] if x is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            # names alone: an attribute such as `config.seed` reads no
            # parameter called seed
            read = {n.id for b in body for n in ast.walk(b)
                    if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
            name = getattr(node, "name", f"<lambda at line {node.lineno}>")
            ignored |= {f"{p.name}: {name}({x})" for x in params if x not in read}
    assert ignored == IGNORED_PARAMETERS, (
        f"parameters their function never reads: "
        f"{sorted(ignored - IGNORED_PARAMETERS)}; listed but now read: "
        f"{sorted(IGNORED_PARAMETERS - ignored)}")


# ---------------------------------------------------------------------------
# exit codes

def test_missing_dataset_is_usage_error(tmp_path, capsys):
    assert main(["cv", "--out-dir", str(tmp_path)]) == 2
    assert "dataset" in capsys.readouterr().err


def test_unparseable_dataset_is_usage_error(tmp_path, capsys):
    code = main(["cv", "--dataset", "NOPE", "--data-dir", str(tmp_path),
                 "--out-dir", str(tmp_path / "runs")])
    assert code == 2
    assert "NOPE" in capsys.readouterr().err


def test_bad_flag_value_is_usage_error(disk_dataset, tmp_path, capsys):
    code = main(run_cv_args(disk_dataset, tmp_path, ["--p", "zzz"]))
    assert code == 2


def test_a_run_whose_last_step_diverges_exits_1_naming_a_graph(
        disk_dataset, tmp_path, capsys):
    # one step per epoch, and the loss is checked before each step: only
    # the scores see what the last step did
    with np.errstate(all="ignore"):
        code = main(run_cv_args(disk_dataset, tmp_path, ["--lr", "1e30"]))
    assert code == 1
    assert re.search(r"graph \d+: non-finite score", capsys.readouterr().err)


def _diverged_run_stderr(disk_dataset, out_dir, jobs: str) -> str:
    """The stderr of a diverged cv run, which must lead with its error line
    and show numpy's overflow warnings after it; in a fresh interpreter,
    whose warnings filters show them."""
    done = subprocess.run(
        [sys.executable, "-m", "hiermem.cli",
         *run_cv_args(disk_dataset, out_dir, ["--lr", "1e30", "--jobs", jobs])],
        env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert re.match(r"error: graph \d+: non-finite score$", lines[0])
    assert any("RuntimeWarning" in line for line in lines[1:])
    return done.stderr


def test_a_diverged_runs_error_line_comes_before_numpys_warnings(
        disk_dataset, tmp_path):
    _diverged_run_stderr(disk_dataset, tmp_path, "1")


def test_a_diverged_jobs_run_shows_its_workers_warnings_after_the_error(
        disk_dataset, tmp_path):
    # each worker records its fold's warnings and the parent issues them
    # again in fold order, so the stderr is the serial run's
    assert (_diverged_run_stderr(disk_dataset, tmp_path / "jobs", "2")
            == _diverged_run_stderr(disk_dataset, tmp_path / "serial", "1"))


def test_a_warning_of_a_run_that_does_not_diverge_reaches_the_filters(
        tmp_path, capsys, monkeypatch):
    from hiermem import gradcheck as gc

    def warning_suite(seeds):
        warnings.warn("planted", RuntimeWarning)
        return [gc.CheckResult("relu", 0, 0.0, True, {"a": 0.0})]

    monkeypatch.setattr(cli, "check_suite", warning_suite)
    argv = ["gradcheck", "--seeds", "1", "--out-dir", str(tmp_path)]
    with pytest.warns(RuntimeWarning, match="planted"):
        assert main(argv) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="planted"):
            main(argv)


@pytest.mark.parametrize("command", [["cv", "--dataset", "synthetic-er"],
                                     ["gradcheck", "--seeds", "1"]])
def test_a_run_directory_that_cannot_be_made_is_refused_before_the_work(
        tmp_path, capsys, monkeypatch, command):
    def work(*args, **kwargs):
        pytest.fail("the work started before the run directory was made")

    monkeypatch.setattr(cli, "run_cv", work)
    monkeypatch.setattr(cli, "check_suite", work)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    code = main([*command, "--out-dir", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create the run directory "
                          f"{blocker / 'sub'}")


def test_multivalue_flag_rejected_for_cv(disk_dataset, tmp_path, capsys):
    code = main(run_cv_args(disk_dataset, tmp_path, ["--tau", "0,8"]))
    assert code == 2
    assert "single value" in capsys.readouterr().err


def test_a_bad_config_fails_before_the_data_is_read(tmp_path, capsys):
    code = main(["cv", "--variant", "bogus", "--dataset", "NOPE",
                 "--data-dir", str(tmp_path / "missing"),
                 "--out-dir", str(tmp_path / "runs")])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown variant 'bogus'" in err and "NOPE" not in err


@pytest.mark.parametrize("argv, named", [
    (["cv", "--dataset", "synthetic-er", "--folds", "abc"], "--folds"),
    (["cv", "--dataset", "synthetic-er", "--lr", "x"], "--lr"),
    (["cv", "--dataset", "synthetic-er", "--jobs", "two"], "--jobs"),
    (["cv", "--dataset", "synthetic-er", "--seed", "-1"], "--seed"),
    (["gradcheck", "--seeds", "x"], "--seeds"),
    (["gradcheck", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["cv", "--dataset", "X", "--lr", "nan"], "--lr must be > 0"),
    (["cv", "--dataset", "X", "--folds", "0"], "--folds must be >= 2"),
    (["cv", "--dataset", "X", "--folds", "1"], "--folds must be >= 2"),
    (["cv", "--dataset", "X", "--jobs", "0"], "--jobs must be >= 1"),
    (["cv", "--dataset", "X", "--tau", "400"], "--tau must be <= 100, got 400.0"),
    (["cv", "--dataset", "X", "--tau", "nan"], "--tau must be >= 0, got nan"),
    (["sweep", "contamination", "--dataset", "X", "--tau", "0,400"],
     "--tau must be <= 100, got 400.0"),
    (["sweep", "memory", "--dataset", "X", "--p", "1,0"],
     "--p must be >= 1, got 0"),
    (["sweep", "memory", "--dataset", "X", "--q", "0"], "--q must be >= 1, got 0"),
    (["sweep", "contamination", "--dataset", "X", "--jobs", "0"],
     "--jobs must be >= 1, got 0"),
    (["sweep", "ablation", "--dataset", "X", "--jobs", "-2"],
     "--jobs must be >= 1, got -2"),
    (["cv", "--dataset", "X", "--shrink-lambda", "1.5"],
     "--shrink-lambda must be < 1, got 1.5"),
    (["cv", "--dataset", "X", "--shrink-lambda", "-0.1"],
     "--shrink-lambda must be >= 0, got -0.1"),
    # a repeated item would run one cell twice and overwrite its report
    (["sweep", "ablation", "--dataset", "X", "--variant", "full,full"],
     "--variant lists full more than once"),
    (["sweep", "contamination", "--dataset", "X", "--tau", "0,0"],
     "--tau lists 0.0 more than once"),
    (["sweep", "contamination", "--dataset", "X", "--tau", "8,8.0"],
     "--tau lists 8.0 more than once"),
    (["sweep", "memory", "--dataset", "X", "--p", "1..3,2"],
     "--p lists 2 more than once"),
    (["cv", "--dataset", "X", "--lr", "inf"],
     "learning_rate must be positive and finite"),
    # a list item is named the way a scalar is
    (["sweep", "memory", "--dataset", "X", "--p", "1..y"],
     "--p: expected an integer, got 'y'"),
    (["sweep", "contamination", "--dataset", "X", "--tau", "0,a"],
     "--tau: expected a number, got 'a'"),
])
def test_a_bad_scalar_flag_is_named_before_the_data_is_read(tmp_path, capsys,
                                                            argv, named):
    code = main(argv + ["--data-dir", str(tmp_path / "missing"),
                        "--out-dir", str(tmp_path / "runs")]
                if argv[0] != "gradcheck" else argv + ["--out-dir", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err and "missing dataset" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line, named", [
    ("folds=abc", "key 'folds': expected an integer, got 'abc'"),
    ("jobs=0", "key 'jobs' must be >= 1, got 0"),
    ("tau=-1", "key 'tau' must be >= 0, got -1.0"),
    ("shrink-lambda=1", "key 'shrink-lambda' must be < 1, got 1.0"),
    ("variant=full,no_node,full", "key 'variant' lists full more than once"),
    ("epochs=1\nepochs=0", "key 'epochs' is set on lines 2 and 3"),
])
def test_a_bad_scalar_config_key_is_named(tmp_path, capsys, line, named):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"dataset=synthetic-er\n{line}\n")
    assert main(["cv", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "runs")]) == 2
    assert f"{cfg}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    (None, "config file not found: {cfg}"),
    (b"dataset=synthetic-er\nepochs=\xff\xfe1\n",
     "{cfg}:2: not utf-8 text (invalid start byte)"),
    (b"dataset=synthetic-er\nepochs\n", "{cfg}:2: expected key=value"),
    (b"seeds=3\n", "{cfg}:1: key 'seeds' does not apply to this command"),
])
def test_a_config_file_that_cannot_be_read_is_refused_naming_it(
        tmp_path, capsys, monkeypatch, text, named):
    monkeypatch.setattr(cli, "load_dataset", lambda values: pytest.fail(
        "the data was read before the config file was refused"))
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_bytes(text)
    assert main(["cv", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "runs")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {named.format(cfg=cfg)}\n"


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0


# ---------------------------------------------------------------------------
# cv command artifacts

def test_cv_writes_reports_and_manifest(disk_dataset, tmp_path, capsys):
    assert main(run_cv_args(disk_dataset, tmp_path)) == 0
    out = capsys.readouterr().out
    assert "mean AUC" in out and "fold 0" in out

    run_dir = tmp_path / "cv-ERS-s0"
    for name in ("report.json", "report.csv", "history-report.csv",
                 "folds.csv", "resolved.cfg", "manifest.json"):
        assert (run_dir / name).is_file(), name

    report = json.loads((run_dir / "report.json").read_text())
    assert report["config"]["folds"] == 2
    assert len(report["per_fold_auc"]) == 2
    assert report["schema_version"] == 2

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "cv"
    assert manifest["schema_version"] == 2
    assert manifest["resolved_config"]["dataset"] == "ERS"
    assert len(manifest["dataset_checksum"]) == 64
    assert manifest["outputs"] == sorted(manifest["outputs"])
    assert manifest["provenance"]["epochs"] == "flag"
    assert manifest["provenance"]["lr"] == "default"
    assert manifest["resolved_config"]["folds"] == 2
    threads = manifest["blas_threads"]
    assert threads == "unknown" or (isinstance(threads, int) and threads >= 1)
    assert manifest["blas_core"] == (blas.core() or "unknown")
    assert manifest["heap_kept"] is training._keep_heap()


def test_manifest_records_blas_threads_and_heap_setting(disk_dataset, tmp_path,
                                                        capsys, monkeypatch):
    monkeypatch.setattr(training, "_keep_heap", lambda: False)
    monkeypatch.setattr(blas, "threads", lambda: 3)
    monkeypatch.setattr(blas, "core", lambda: None)
    assert main(run_cv_args(disk_dataset, tmp_path)) == 0
    manifest = json.loads((tmp_path / "cv-ERS-s0" / "manifest.json").read_text())
    assert manifest["blas_threads"] == 3
    assert manifest["blas_core"] == "unknown"
    assert manifest["heap_kept"] is False


def test_blas_threads_reads_the_bundled_openblas():
    threads = blas.threads()
    name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if name == "scipy-openblas":
        assert isinstance(threads, int) and threads >= 1
    else:
        assert threads is None


def test_threads_and_pinned_work_without_the_kernel_name_getter(monkeypatch):
    if blas.threads() is None:
        pytest.skip("numpy bundles no OpenBLAS")
    load = blas.ctypes.CDLL

    class ThreadsOnly:
        """The library with its thread-count functions alone."""
        def __init__(self, path):
            lib = load(path)
            self.scipy_openblas_get_num_threads64_ = \
                lib.scipy_openblas_get_num_threads64_
            self.scipy_openblas_set_num_threads64_ = \
                lib.scipy_openblas_set_num_threads64_

    monkeypatch.setattr(blas.ctypes, "CDLL", ThreadsOnly)
    blas._openblas.cache_clear()
    try:
        before = blas.threads()
        assert blas.core() is None
        with blas.pinned(1):
            assert blas.threads() == 1
        assert blas.threads() == before
    finally:
        monkeypatch.undo()
        blas._openblas.cache_clear()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cv_rejects_a_job_count_below_one(disk_dataset, tmp_path, capsys, jobs):
    code = main(run_cv_args(disk_dataset, tmp_path, ["--jobs", jobs]))
    assert code == 2
    assert f"got {jobs}" in capsys.readouterr().err


def test_cv_synthetic_dataset_needs_no_files(tmp_path, capsys):
    code = main(["cv", "--dataset", "synthetic-er", "--folds", "2",
                 "--epochs", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    manifest = json.loads(
        (tmp_path / "cv-synthetic-er-s0" / "manifest.json").read_text())
    assert manifest["dataset_checksum"].startswith("synthetic-er:")


def test_cv_config_file_and_flag_precedence(disk_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n"
                   "dataset=ERS\n"
                   f"data-dir={disk_dataset}\n"
                   "epochs=1\n"
                   "folds=3\n"
                   f"out-dir={tmp_path}\n")
    assert main(["cv", "--config", str(cfg), "--folds", "2"]) == 0
    manifest = json.loads(
        (tmp_path / "cv-ERS-s0" / "manifest.json").read_text())
    assert manifest["resolved_config"]["folds"] == 2      # flag beats config
    assert manifest["provenance"]["folds"] == "flag"
    assert manifest["provenance"]["epochs"] == "config"
    assert manifest["provenance"]["seed"] == "default"


def test_cv_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not-a-flag=1\n")
    assert main(["cv", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_an_old_gradcheck_config_setting_the_step_is_refused(tmp_path, capsys):
    # the finite-difference step is gradcheck.EPS; a resolved.cfg written
    # while it was a flag still holds it
    cfg = tmp_path / "resolved.cfg"
    cfg.write_text(f"eps=1e-05\nseeds=1\nseed=0\nout-dir={tmp_path}\n")
    assert main(["gradcheck", "--config", str(cfg)]) == 2
    assert f"{cfg}:1: unknown key 'eps'" in capsys.readouterr().err
    assert not (tmp_path / "gradcheck-s0").exists()


def test_cv_folds_csv_records_what_each_fold_trained_on(disk_dataset, tmp_path,
                                                        capsys, monkeypatch):
    trained = []

    def recording(graphs, config, **kwargs):
        trained.append({g.graph_id for g in graphs})
        return training.train(graphs, config, **kwargs)

    monkeypatch.setattr(evaluation, "train", recording)
    assert main(run_cv_args(disk_dataset, tmp_path, ["--tau", "50"])) == 0
    path = tmp_path / "cv-ERS-s0" / "folds.csv"
    with path.open(newline="") as fh:
        rows = [(int(r["graph_id"]), int(r["fold"]), r["role"])
                for r in csv.DictReader(fh)]
    ds = parse_tudataset(disk_dataset, "ERS")
    normals = {g.graph_id for g in ds.graphs if g.label == 0}
    anomalies = {g.graph_id for g in ds.graphs if g.label == 1}
    assert len(trained) == 2
    for f, fold_trained in enumerate(trained):
        role = {r: {g for g, fold, rr in rows if fold == f and rr == r}
                for r in ("train", "test", "pool")}
        assert role["train"] == fold_trained
        assert role["train"] & normals == normals - role["test"]
        held_out = anomalies - role["test"]      # the pool before contamination
        mixed_in = role["train"] & anomalies
        assert len(mixed_in) == math.floor(0.5 * len(held_out)) > 0
        assert role["pool"] == held_out - mixed_in
    expected = tmp_path / "expected.csv"
    export_folds_csv(make_folds(ds, 2, 0, 50.0), expected)
    assert path.read_bytes() == expected.read_bytes()


def test_cv_replay_from_resolved_cfg(disk_dataset, tmp_path, capsys):
    first = tmp_path / "first"
    assert main(run_cv_args(disk_dataset, first)) == 0
    resolved = first / "cv-ERS-s0" / "resolved.cfg"

    second = tmp_path / "second"
    assert main(["cv", "--config", str(resolved),
                 "--out-dir", str(second)]) == 0
    r1 = json.loads((first / "cv-ERS-s0" / "report.json").read_text())
    r2 = json.loads((second / "cv-ERS-s0" / "report.json").read_text())
    assert r1["per_fold_auc"] == r2["per_fold_auc"]
    assert r1["per_graph_scores"] == r2["per_graph_scores"]


# ---------------------------------------------------------------------------
# sweep command

def test_sweep_ablation_index_and_reports(disk_dataset, tmp_path, capsys):
    code = main(run_sweep_args(disk_dataset, tmp_path, "ablation",
                               ["--variant", "full,gae_only"]))
    assert code == 0
    run_dir = tmp_path / "sweep-ablation-ERS-s0"
    index = json.loads((run_dir / "index.json").read_text())
    assert index["protocol"] == "ablation"
    assert [c["variant"] for c in index["cells"]] == ["full", "gae_only"]
    for cell in index["cells"]:
        assert (run_dir / cell["report"]).is_file()
        report = json.loads((run_dir / cell["report"]).read_text())
        assert report["config"]["variant"] == cell["variant"]


def run_sweep_args(disk_dataset, out_dir, protocol, extra=()):
    return ["sweep", protocol, "--dataset", "ERS", "--data-dir",
            str(disk_dataset), "--folds", "2", "--epochs", "1",
            "--out-dir", str(out_dir), *extra]


def test_sweep_memory_grid_cells(disk_dataset, tmp_path, capsys):
    code = main(run_sweep_args(disk_dataset, tmp_path, "memory",
                               ["--p", "1..2", "--q", "1,3"]))
    assert code == 0
    run_dir = tmp_path / "sweep-memory-ERS-s0"
    index = json.loads((run_dir / "index.json").read_text())
    # (p, 1) for each p, then (1, q) for each q, without the repeated (1, 1)
    assert [(c["p"], c["q"]) for c in index["cells"]] == [(1, 1), (2, 1), (1, 3)]
    for cell in index["cells"]:
        report = json.loads((run_dir / cell["report"]).read_text())
        assert cell["report"] == f"report-p{cell['p']}-q{cell['q']}.json"
        assert report["config"]["num_node_memory"] == cell["p"]
        assert report["config"]["num_graph_memory"] == cell["q"]
    assert "p=1 q=3: mean AUC" in capsys.readouterr().out


def test_sweep_contamination_rates(disk_dataset, tmp_path, capsys):
    code = main(run_sweep_args(disk_dataset, tmp_path, "contamination",
                               ["--tau", "50,0"]))
    assert code == 0
    run_dir = tmp_path / "sweep-contamination-ERS-s0"
    index = json.loads((run_dir / "index.json").read_text())
    assert [c["tau"] for c in index["cells"]] == [50.0, 0.0]  # as given
    for cell in index["cells"]:
        report = json.loads((run_dir / cell["report"]).read_text())
        assert report["config"]["tau"] == cell["tau"]
    out = capsys.readouterr().out
    assert out.index("tau=50.0%") < out.index("tau=0.0%")


def test_sweep_rejects_bad_rate(disk_dataset, tmp_path, capsys):
    for rates, named in [("0,400", "<= 100, got 400.0"),
                         ("0,120", "<= 100, got 120.0"),
                         ("-1", ">= 0, got -1.0"), ("0,nan", ">= 0, got nan")]:
        code = main(run_sweep_args(disk_dataset, tmp_path, "contamination",
                                   ["--tau", rates]))
        assert code == 2
        assert f"--tau must be {named}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("protocol", ["memory", "ablation"])
def test_sweep_takes_a_single_tau_outside_contamination(disk_dataset, tmp_path,
                                                        capsys, protocol):
    code = main(run_sweep_args(disk_dataset, tmp_path, protocol,
                               ["--tau", "0,8"]))
    assert code == 2
    assert "--tau takes a single value here" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("protocol", ["memory", "ablation"])
def test_sweep_applies_its_tau_to_every_cell(disk_dataset, tmp_path, capsys,
                                             protocol):
    code = main(run_sweep_args(disk_dataset, tmp_path, protocol,
                               ["--epochs", "0", "--tau", "50"]))
    assert code == 0
    run_dir = tmp_path / f"sweep-{protocol}-ERS-s0"
    cells = json.loads((run_dir / "index.json").read_text())["cells"]
    for cell in cells:
        report = json.loads((run_dir / cell["report"]).read_text())
        assert report["config"]["tau"] == 50.0


def test_sweep_ablation_checks_every_variant_before_the_first_cv(tmp_path,
                                                                 capsys):
    code = main(["sweep", "ablation", "--dataset", "synthetic-er",
                 "--variant", "full,bogus", "--epochs", "1", "--folds", "2",
                 "--out-dir", str(tmp_path)])
    assert code == 2
    assert "unknown variant 'bogus'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cv_is_its_own_one_cell_sweep(disk_dataset, tmp_path, capsys):
    assert main(run_cv_args(disk_dataset, tmp_path, ["--tau", "50"])) == 0
    cv_out = capsys.readouterr().out
    assert main(run_sweep_args(disk_dataset, tmp_path, "contamination",
                               ["--tau", "50"])) == 0
    sweep_out = capsys.readouterr().out
    cv_dir = tmp_path / "cv-ERS-s0"
    sweep_dir = tmp_path / "sweep-contamination-ERS-s0"

    def report(path):
        return {k: v for k, v in json.loads(path.read_text()).items()
                if k != "wall_clock_seconds"}

    assert report(cv_dir / "report.json") == report(
        sweep_dir / "report-tau50.0.json")
    for stem in ("report", "history-report"):
        assert ((cv_dir / f"{stem}.csv").read_bytes()
                == (sweep_dir / f"{stem}-tau50.0.csv").read_bytes()), stem
    # one tau, so one folds file under the plain name
    assert ((cv_dir / "folds.csv").read_bytes()
            == (sweep_dir / "folds.csv").read_bytes())
    expected = tmp_path / "expected.csv"
    export_folds_csv(make_folds(parse_tudataset(disk_dataset, "ERS"), 2, 0,
                                50.0), expected)
    assert (cv_dir / "folds.csv").read_bytes() == expected.read_bytes()

    def cell_lines(out, label):
        first, *folds, last = out.splitlines()
        assert first.startswith(f"{label}: mean AUC ")
        assert last.startswith("outputs: ")
        return [first[len(label):]] + folds

    lines = cell_lines(cv_out, "cv ERS")
    assert lines == cell_lines(sweep_out, "tau=50.0%")
    assert lines[0].endswith("over 2 folds")
    assert [line.split(":")[0] for line in lines[1:]] == ["  fold 0", "  fold 1"]


# ---------------------------------------------------------------------------
# gradcheck command

def test_gradcheck_command_passes_and_reports(tmp_path, capsys):
    code = main(["gradcheck", "--seeds", "1", "--out-dir", str(tmp_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert payload["seeds"] == 1
    assert "full_loss" in payload["cases"]
    assert all(c["max_rel_err"] < payload["tolerance"]
               for c in payload["cases"].values())
    run_dir = tmp_path / "gradcheck-s0"
    assert json.loads((run_dir / "gradcheck.json").read_text()) == payload
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["command"] == "gradcheck"


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_gradcheck_without_a_seed_is_usage_error(tmp_path, capsys, seeds):
    code = main(["gradcheck", "--seeds", seeds, "--out-dir", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert f"--seeds must be >= 1, got {seeds}" in captured.err
    assert captured.out == ""


def test_gradcheck_failure_exit_code(tmp_path, capsys, monkeypatch):
    import numpy as np

    from hiermem import gradcheck as gc

    asked = []

    def fake_suite(seeds):
        asked.append(list(seeds))
        return [gc.CheckResult("relu", 5, 0.5, False, {"a": 0.5}),
                gc.CheckResult("sigmoid", 4, 0.0, True, {"a": 0.0})]

    monkeypatch.setattr(cli, "check_suite", fake_suite)
    code = main(["gradcheck", "--seed", "4", "--seeds", "3",
                 "--out-dir", str(tmp_path)])
    assert code == 1
    assert asked == [[4, 5, 6]]
    captured = capsys.readouterr()
    assert "FAILED: relu" in captured.err
    kept = json.loads((tmp_path / "gradcheck-s4" / "gradcheck.json").read_text())
    assert kept == json.loads(captured.out)
    assert kept["all_passed"] is False
    assert kept["eps"] == gc.EPS
    # each case's verdict is check_suite's, key for key
    assert kept["cases"]["relu"] == {"max_rel_err": 0.5, "passed": False,
                                     "per_param": {"a": 0.5}, "worst_seed": 5}
    assert kept["cases"]["sigmoid"]["worst_seed"] == 4


@pytest.mark.parametrize("command", [
    ["cv"], ["sweep", "contamination", "--tau", "0,50"],
    ["sweep", "memory", "--p", "1..2", "--q", "1,3"],
    ["sweep", "ablation", "--variant", "full,gae_only"],
    ["gradcheck", "--seeds", "1"]])
def test_a_manifest_lists_exactly_its_run_directory(disk_dataset, tmp_path,
                                                    capsys, command):
    # each distinct --tau writes one folds file: the memory and ablation
    # cells share the run's single tau, so they share folds.csv
    folds_files = ({"folds-tau0.0.csv", "folds-tau50.0.csv"} if "0,50" in command
                   else set() if command[0] == "gradcheck" else {"folds.csv"})
    if command[0] != "gradcheck":
        command = command + ["--dataset", "ERS", "--data-dir",
                             str(disk_dataset), "--folds", "2", "--epochs", "1"]
    assert main(command + ["--out-dir", str(tmp_path)]) == 0
    (run_dir,) = tmp_path.iterdir()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert len(manifest["outputs"]) == len(set(manifest["outputs"]))
    assert set(os.listdir(run_dir)) == set(manifest["outputs"]) | {"manifest.json"}
    assert {f for f in os.listdir(run_dir) if f.startswith("folds")} == folds_files
    # each setting is stated once: in resolved_config, and in a report's config
    assert not set(manifest) & set(manifest["resolved_config"])
    for name in manifest["outputs"]:
        if name.startswith("report") and name.endswith(".json"):
            report = json.loads((run_dir / name).read_text())
            assert not set(report) & set(report["config"]), name
    if (run_dir / "index.json").is_file():
        cells = json.loads((run_dir / "index.json").read_text())["cells"]
        assert {c["folds"] for c in cells} == folds_files
        for cell in cells:
            report = json.loads((run_dir / cell["report"]).read_text())
            expected = tmp_path / "expected.csv"
            export_folds_csv(make_folds(parse_tudataset(disk_dataset, "ERS"),
                                        2, 0, report["config"]["tau"]),
                             expected)
            assert (run_dir / cell["folds"]).read_bytes() == expected.read_bytes()


# ---------------------------------------------------------------------------
# allocator

_REFAULT_SCRIPT = """
import resource
from hiermem import training
from hiermem.data import make_er_dataset

assert training._keep_heap()
graphs = make_er_dataset(80, 0, seed=0, n_range=(10, 30)).graphs
config = training.TrainConfig(epochs=1, batch_size=40, seed=0)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    training.train(graphs, config)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[0], faults[1])
"""


def _faults_of_two_runs(script: str) -> tuple[int, int]:
    """Run `script` in a fresh interpreter; it prints the minor page faults
    of two runs of the same work."""
    done = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    first, second = map(int, done.stdout.split())
    return first, second


@pytest.mark.skipif(not training._keep_heap(),
                    reason="the C library does not take the heap settings")
def test_kept_heap_does_not_fault_a_repeated_training_in_again():
    # without the heap kept, the second training faults in about as many
    # pages as the first, because glibc gave the freed ones back
    first, second = _faults_of_two_runs(_REFAULT_SCRIPT)
    assert second < 0.1 * first, (first, second)


# parse and score through the library alone: no cli.main, no train
_LIBRARY_SCORE_SCRIPT = """
import resource, tempfile
import numpy as np
from hiermem import data, model, training

with tempfile.TemporaryDirectory() as root:
    data.write_tudataset(data.make_er_dataset(200, 40, seed=0, n_range=(10, 40)),
                         root)
    dataset = data.parse_tudataset(root, "synthetic-er")
cfg = training.make_model_config(training.TrainConfig(), dataset.attribute_dim,
                                 dataset.n_max)
params = model.init_params(cfg, np.random.default_rng(0), dtype=np.float32)
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    training.score_graphs(params, cfg, dataset.graphs)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[0], faults[1])
"""


@pytest.mark.skipif(not training._keep_heap(),
                    reason="the C library does not take the heap settings")
def test_library_scoring_keeps_the_heap():
    # score_graphs keeps the heap itself: with glibc's defaults the second
    # scoring faults in about two thirds of the first's pages again
    first, second = _faults_of_two_runs(_LIBRARY_SCORE_SCRIPT)
    assert second < 0.1 * first, (first, second)
