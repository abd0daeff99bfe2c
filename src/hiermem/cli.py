"""Command-line interface.

Subcommands: `cv` (cross-validation), `sweep contamination|memory|ablation`
(experiment protocols), `gradcheck` (gradient verification). Every value is
resolved as flag > config file > built-in default, and parsed and
range-checked, each item of a list too, before any data is read. `cv` and
every sweep are one list of cells (`cv` one cell, a sweep one per --tau,
memory-grid point or --variant) run through `run_cv` in one loop, which
writes each cell's report, training history and folds file; a sweep also
writes `index.json`. Every run writes a manifest recording the resolved
configuration with per-field provenance and every output file, plus a
`resolved.cfg` that replays the run bit-identically (wall-clock aside) when
passed back through --config.

Human-readable text goes to stdout, diagnostics to stderr, reports only to
files. Exit codes: 0 success, 1 failed checks or runtime errors, 2 bad
configuration or unreadable data.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import __version__, blas, training
from .data import (atomic_open, dataset_checksum, export_folds_csv,
                   make_er_dataset, make_folds, parse_tudataset, write_json)
from .errors import (CheckpointError, ConfigurationError, DatasetParseError,
                     StructuralError, TrainingDiverged)
from .evaluation import (run_cv, write_history_csv, write_report_csv,
                         write_report_json)
from .gradcheck import DEFAULT_TOL, EPS, check_suite
from .model import VARIANTS
from .training import TrainConfig

MANIFEST_SCHEMA_VERSION = 2


def parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"expected an integer, got {text!r}") from None


def parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(f"expected a number, got {text!r}") from None


def parse_str_list(text: str) -> list[str]:
    """The comma-separated items of a list value, the tokens every list
    parser reads; none may be empty."""
    tokens = [t.strip() for t in text.split(",")]
    if "" in tokens:
        raise ConfigurationError(f"empty item in list {text!r}")
    return tokens


def parse_int_list(text: str) -> list[int]:
    """Comma-separated integers, each token optionally a 'lo..hi' range."""
    out: list[int] = []
    for token in parse_str_list(text):
        lo_text, dots, hi_text = token.partition("..")
        lo = parse_int(lo_text)
        hi = parse_int(hi_text) if dots else lo
        if hi < lo:
            raise ConfigurationError(f"empty range {token!r}")
        out.extend(range(lo, hi + 1))
    return out


def parse_float_list(text: str) -> list[float]:
    return [parse_float(t) for t in parse_str_list(text)]


def _fmt(value) -> str:
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Field:
    name: str                      # flag spelling, without leading dashes
    parse: Callable[[str], object]
    default: object
    help: str
    at_least: float | None = None  # the range of the value, or of each
    above: float | None = None     # item of a list value, where it has one
    at_most: float | None = None
    below: float | None = None


FIELDS: dict[str, Field] = {f.name: f for f in [
    Field("dataset", str, None, "dataset name (TUDataset directory name)"),
    Field("data-dir", str, "data", "directory holding dataset directories"),
    Field("folds", parse_int, 5, "number of cross-validation folds",
          at_least=2),
    Field("seed", parse_int, TrainConfig.seed,
          "run seed; fold f trains under seed+f", at_least=0),
    Field("epochs", parse_int, TrainConfig.epochs, "training epochs per fold",
          at_least=0),
    Field("lr", parse_float, TrainConfig.learning_rate, "Adam learning rate",
          above=0),
    Field("batch-size", parse_int, TrainConfig.batch_size, "training batch size",
          at_least=1),
    Field("alpha", parse_float, TrainConfig.alpha,
          "entropy term weight in the training loss", at_least=0),
    Field("shrink-lambda", parse_float, TrainConfig.shrink_lambda,
          "attention hard-shrink threshold", at_least=0, below=1),
    Field("p", parse_int_list, [TrainConfig.num_node_memory],
          "node memory block count(s), e.g. 3 or 1..6", at_least=1),
    Field("q", parse_int_list, [TrainConfig.num_graph_memory],
          "graph memory block count(s)", at_least=1),
    Field("tau", parse_float_list, [0.0],
          "contamination rate(s): percent of each fold's held-out anomaly "
          "pool moved into its training set", at_least=0, at_most=100),
    Field("variant", parse_str_list, [TrainConfig.variant],
          "model variant(s): " + ", ".join(VARIANTS)),
    Field("jobs", parse_int, 1,
          "worker processes for fold-parallel training; each inherits the "
          "BLAS thread count and oversubscribes the cores, so set "
          "OPENBLAS_NUM_THREADS=1 with it (README 'Reproducibility')",
          at_least=1),
    Field("out-dir", str, "runs", "directory for run outputs"),
    Field("seeds", parse_int, 10, "number of random seeds (gradcheck)",
          at_least=1),
]}

_COMMON = ["dataset", "data-dir", "folds", "seed", "epochs", "lr",
           "batch-size", "alpha", "shrink-lambda", "p", "q", "tau", "variant",
           "jobs", "out-dir"]
_GRADCHECK = ["seeds", "seed", "out-dir"]


def read_config_file(path, allowed: list[str]) -> dict[str, str]:
    """Flat `key=value` lines; keys mirror flag names, each set at most
    once; # starts a comment."""
    p = Path(path)
    if not p.is_file():
        raise ConfigurationError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except UnicodeDecodeError as e:
        line = e.object[:e.start].count(b"\n") + 1
        raise ConfigurationError(
            f"{p}:{line}: not {e.encoding} text ({e.reason})") from None
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(f"{p}:{lineno}: expected key=value")
        key, _, raw = stripped.partition("=")
        key = key.strip().lstrip("-")
        if key not in FIELDS:
            raise ConfigurationError(f"{p}:{lineno}: unknown key {key!r}")
        if key not in allowed:
            raise ConfigurationError(
                f"{p}:{lineno}: key {key!r} does not apply to this command")
        if key in values:
            raise ConfigurationError(f"{p}: key {key!r} is set on lines "
                                     f"{first_line[key]} and {lineno}")
        values[key], first_line[key] = raw.strip(), lineno
    return values


def _parse_field(field: Field, text: str, source: str):
    """One field's value from its text, range-checked item by item for a
    list, whose items must differ; an error names `source`, the flag or the
    config file's key."""
    try:
        value = field.parse(text)
    except ConfigurationError as e:
        raise ConfigurationError(f"{source}: {e}") from None
    items = value if isinstance(value, list) else [value]
    for i, v in enumerate(items):
        if field.at_least is not None and not v >= field.at_least:
            raise ConfigurationError(
                f"{source} must be >= {field.at_least}, got {v}")
        if field.above is not None and not v > field.above:
            raise ConfigurationError(f"{source} must be > {field.above}, got {v}")
        if field.at_most is not None and not v <= field.at_most:
            raise ConfigurationError(
                f"{source} must be <= {field.at_most}, got {v}")
        if field.below is not None and not v < field.below:
            raise ConfigurationError(f"{source} must be < {field.below}, got {v}")
        if v in items[:i]:
            raise ConfigurationError(f"{source} lists {_fmt(v)} more than once")
    return value


def resolve_fields(args: argparse.Namespace,
                   names: list[str]) -> tuple[dict, dict]:
    """Apply flag > config-file > default; returns (values, provenance).

    Every value is parsed and range-checked here, before any data is read.
    """
    file_values = {}
    if getattr(args, "config", None):
        file_values = read_config_file(args.config, names)
    values: dict[str, object] = {}
    provenance: dict[str, str] = {}
    for name in names:
        field = FIELDS[name]
        flag_val = getattr(args, name.replace("-", "_"), None)
        if flag_val is not None:
            values[name] = _parse_field(field, flag_val, f"--{name}")
            provenance[name] = "flag"
        elif name in file_values:
            values[name] = _parse_field(field, file_values[name],
                                        f"{args.config}: key {name!r}")
            provenance[name] = "config"
        else:
            values[name] = field.default
            provenance[name] = "default"
    return values, provenance


def _add_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    parser.add_argument("--config", default=None,
                        help="flat key=value config file (flags still win)")
    for name in names:
        field = FIELDS[name]
        parser.add_argument(f"--{name}", type=str, default=None,
                            help=field.help + f" (default: {_fmt(field.default)})")


def build_train_config(values: dict, p: int, q: int, variant: str) -> TrainConfig:
    return TrainConfig(
        epochs=values["epochs"], batch_size=values["batch-size"],
        learning_rate=values["lr"], alpha=values["alpha"],
        shrink_lambda=values["shrink-lambda"], num_node_memory=p,
        num_graph_memory=q, seed=values["seed"], variant=variant)


def load_dataset(values: dict):
    name = values["dataset"]
    if not name:
        raise ConfigurationError("--dataset is required")
    if name == "synthetic-er":
        ds = make_er_dataset(100, 40, seed=values["seed"])
        checksum = f"synthetic-er:normal=100,anomalous=40,seed={values['seed']}"
        return ds, checksum
    ds = parse_tudataset(values["data-dir"], name)
    return ds, dataset_checksum(values["data-dir"], name)


def write_resolved_cfg(path: Path, values: dict) -> None:
    lines = [f"{name}={_fmt(val)}" for name, val in values.items()]
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_manifest(out_dir: Path, command: str, values: dict, provenance: dict,
                   checksum: str, outputs: list[str]) -> None:
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "command": command,
        "version": __version__,
        "dataset_checksum": checksum,
        "resolved_config": dict(values),
        "provenance": provenance,
        "outputs": sorted(outputs),
        "blas_threads": blas.threads() or "unknown",
        "blas_core": blas.core() or "unknown",
        "heap_kept": training._keep_heap(),
    }
    write_json(out_dir / "manifest.json", manifest)


def sweep_cells(protocol: str, values: dict) -> list[tuple]:
    """The (tau, config, file suffix, printed label, index fields) of each
    cell, in order.

    `cv` is one cell; contamination has one cell per --tau, memory the
    (p, 1) then (1, q) grid without repeats, ablation one cell per
    --variant; every other list flag takes a single value. Each config is
    built, and so checked, here.
    """
    def one(key: str):
        if len(values[key]) != 1:
            raise ConfigurationError(
                f"--{key} takes a single value here, got {_fmt(values[key])}")
        return values[key][0]

    if protocol in ("cv", "contamination"):
        config = build_train_config(values, one("p"), one("q"), one("variant"))
        if protocol == "cv":
            return [(one("tau"), config, "", f"cv {values['dataset']}", {})]
        return [(t, config, f"-tau{_fmt(t)}", f"tau={_fmt(t)}%", {"tau": t})
                for t in values["tau"]]
    tau = one("tau")
    if protocol == "memory":
        grid = dict.fromkeys([(p, 1) for p in values["p"]]
                             + [(1, q) for q in values["q"]])
        return [(tau, build_train_config(values, p, q, one("variant")),
                 f"-p{p}-q{q}", f"p={p} q={q}", {"p": p, "q": q})
                for p, q in grid]
    return [(tau, build_train_config(values, one("p"), one("q"), v), f"-{v}",
             f"variant={v}", {"variant": v}) for v in values["variant"]]


def _make_run_dir(path: Path) -> None:
    """Create the run directory before any fold trains or any case runs, so
    a bad --out-dir is found before the work rather than after it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigurationError(
            f"cannot create the run directory {path}: {e}") from None


def cmd_run(args: argparse.Namespace) -> int:
    """`cv` and every `sweep` protocol: run each cell's cross-validation and
    write its report and history files, and the folds file of each distinct
    tau."""
    values, provenance = resolve_fields(args, _COMMON)
    cells = sweep_cells(args.protocol, values)
    dataset, checksum = load_dataset(values)
    command = "cv" if args.protocol == "cv" else f"sweep {args.protocol}"
    out_dir = (Path(values["out-dir"]) / f"{command.replace(' ', '-')}-"
               f"{values['dataset']}-s{values['seed']}")
    _make_run_dir(out_dir)
    k = values["folds"]
    # the folds depend on tau alone, so each distinct tau writes one file
    taus = dict.fromkeys(cell[0] for cell in cells)
    folds_file = {t: "folds.csv" if len(taus) == 1 else f"folds-tau{_fmt(t)}.csv"
                  for t in taus}
    outputs: list[str] = []
    index: list[dict] = []
    for tau, config, suffix, label, fields in cells:
        report = run_cv(dataset, config, k, tau=tau, jobs=values["jobs"])
        names = [f"report{suffix}.json", f"report{suffix}.csv",
                 f"history-report{suffix}.csv"]
        write_report_json(report, out_dir / names[0])
        write_report_csv(report, out_dir / names[1])
        write_history_csv(report, out_dir / names[2])
        if folds_file[tau] not in outputs:
            export_folds_csv(make_folds(dataset, k, config.seed, tau),
                             out_dir / folds_file[tau])
            names.append(folds_file[tau])
        outputs += names
        index.append({**fields, "mean_auc": report.mean_auc,
                      "std_auc": report.std_auc, "report": names[0],
                      "folds": folds_file[tau]})
        print(f"{label}: mean AUC {report.mean_auc:.4f} "
              f"+/- {report.std_auc:.4f} over {k} folds")
        for f, auc in enumerate(report.per_fold_auc):
            print(f"  fold {f}: auc={auc:.4f}")

    if args.protocol != "cv":
        write_json(out_dir / "index.json",
                   {"protocol": args.protocol, "cells": index})
        outputs.append("index.json")
    write_resolved_cfg(out_dir / "resolved.cfg", values)
    outputs.append("resolved.cfg")
    write_manifest(out_dir, command, values, provenance, checksum, outputs)
    print(f"outputs: {out_dir}")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    values, provenance = resolve_fields(args, _GRADCHECK)
    base = values["seed"]
    out_dir = Path(values["out-dir"]) / f"gradcheck-s{base}"
    _make_run_dir(out_dir)
    verdicts = check_suite(range(base, base + values["seeds"]))
    cases = {v.name: {"max_rel_err": v.max_rel_err, "passed": v.passed,
                      "per_param": v.per_param, "worst_seed": v.worst_seed}
             for v in verdicts}
    payload = {"eps": EPS, "seeds": values["seeds"],
               "base_seed": base, "tolerance": DEFAULT_TOL, "cases": cases,
               "all_passed": all(v.passed for v in verdicts)}
    print(write_json(out_dir / "gradcheck.json", payload))
    write_resolved_cfg(out_dir / "resolved.cfg", values)
    write_manifest(out_dir, "gradcheck", values, provenance, "",
                   ["gradcheck.json", "resolved.cfg"])
    if not payload["all_passed"]:
        offenders = [v.name for v in verdicts if not v.passed]
        print("FAILED: " + ", ".join(sorted(offenders)), file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiermem",
        description="Graph-level anomaly detection with a memory-augmented "
                    "graph autoencoder")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation on one dataset")
    _add_flags(p_cv, _COMMON)
    p_cv.set_defaults(func=cmd_run, protocol="cv")

    p_sweep = sub.add_parser("sweep", help="experiment protocols")
    p_sweep.add_argument("protocol",
                         choices=["contamination", "memory", "ablation"])
    _add_flags(p_sweep, _COMMON)
    p_sweep.set_defaults(func=cmd_run)

    p_gc = sub.add_parser("gradcheck",
                          help="verify gradients against finite differences")
    _add_flags(p_gc, _GRADCHECK)
    p_gc.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    training._keep_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning passes the filters when it is raised (a --jobs worker's, in
    # the worker), but is shown after the command, so a diverged run's error
    # line comes first
    deferred, show = [], warnings.showwarning
    try:
        with warnings.catch_warnings():
            warnings.showwarning = lambda *shown: deferred.append(shown)
            return args.func(args)
    except (ConfigurationError, DatasetParseError, StructuralError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingDiverged, CheckpointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        for shown in deferred:
            show(*shown)


if __name__ == "__main__":
    sys.exit(main())
