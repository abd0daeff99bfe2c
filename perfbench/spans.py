"""Spans and counters recorded from outside hiermem.

`Instrumentation` replaces functions of the hiermem modules with wrappers
that time each call as a span (name, start, end, parent span) and count the
work it was handed. Nothing in hiermem is edited: the wrappers are bound in
place of the originals in every hiermem module namespace that holds them,
and `uninstall` puts the originals back.

Two depths exist. Untraced, only the few top-level calls the end-to-end
metrics need are wrapped (dataset load, train, score_graphs, the manifest
write). Traced, every public function of data, model, autodiff, optim,
training, evaluation and cli is wrapped, plus the model's two attention
helpers, and every backward closure an autodiff op returns is swapped for a
timed one labelled with its op and with the model layer that built it.

A `Recorder` keeps spans in memory. A forked worker process starts with an
empty recorder and writes its spans out each time its outermost span ends;
the owning process writes once, when the invocation is over.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = ("data", "model", "autodiff", "optim", "training", "evaluation",
           "cli")

# private helpers that are still model layers of their own
PRIVATE_SPANS = {"model": ("_attend_nodes", "_attend_graph")}
METHOD_SPANS = {"optim": {"Adam": ("step", "zero_grad")}}

# spans the untraced run needs for its end-to-end numbers
PROBES = ("cli.load_dataset", "cli.write_manifest", "training.train",
          "training.score_graphs")

# the model layer an op belongs to, by the innermost span that called it.
# forward_batch's only op of its own is the masked-mean graph readout, and
# train's is the batch mean of the per-graph losses.
LAYER_OF_SPAN = {
    "model.encode": "enc",
    "model.attend_nodes": "node_mem",
    "model.attend_graph": "graph_mem",
    "model.decode_structure": "dec_struct",
    "model.decode_attributes": "dec_attr",
    "model.batch_losses": "losses",
    "model.forward_batch": "graph_mem",
    "training.train": "losses",
}
ENCODER_WEIGHTS = ("enc1", "enc2", "enc3")


class Recorder:
    """Spans, counters and samples of one process, held until `flush`."""

    def __init__(self, path=None, clock=time.perf_counter):
        self.path = path
        self.clock = clock
        self.flush_on_root = False
        self.spans: list[tuple] = []        # (id, name, start, end, parent)
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.marks: dict[str, float] = {}
        self._next_id = 0
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self):
        # cleared in place: the wrappers hold on to these containers
        for box in (self.spans, self.stack, self.counts, self.samples,
                    self.marks):
            box.clear()

    def _forked(self):
        # a worker inherits the parent's open spans and buffer; neither is its own
        self._reset()
        self.flush_on_root = True

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def mark(self, name: str) -> None:
        self.marks[name] = self.clock()

    def flush(self) -> None:
        """Append everything recorded so far as one JSON line, then forget it."""
        if self.path is not None and (self.spans or self.counts or self.samples
                                      or self.marks):
            payload = {"pid": os.getpid(), "spans": self.spans,
                       "counts": self.counts, "samples": self.samples,
                       "marks": self.marks}
            with open(f"{self.path}.{os.getpid()}", "a") as fh:
                fh.write(json.dumps(payload) + "\n")
        self._reset()


def read_records(path) -> list[dict]:
    """Every flushed payload of every process that wrote under `path`."""
    base = Path(path)
    records = []
    for p in sorted(base.parent.glob(base.name + ".*")):
        with open(p) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records


# ---------------------------------------------------------------------------
# arithmetic on recorded spans

def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, total duration and self time.

    Self time is a span's duration minus the part of it that its child spans
    cover; overlapping children are counted once. Spans are tuples
    (id, name, start, end, parent id); ids are unique within `spans`.
    """
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, dict] = {}
    for sid, name, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
    return out


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank q-th percentile and the sample count it was taken from."""
    ordered = sorted(values)
    if not ordered:
        return math.nan, 0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


# ---------------------------------------------------------------------------
# wrappers

class _ModelState:
    """What the op wrappers need to know about the call they sit in."""

    def __init__(self):
        self.layers: list[str] = []
        self.weights: dict[int, str] = {}
        self.encoder_layer = "enc1"
        self.train_depth = 0
        self.step = None                 # (start, tape nodes, flop) when open
        self.score = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Instrumentation:
    """Installs span wrappers into the imported hiermem modules."""

    def __init__(self, recorder: Recorder, traced: bool):
        self.rec = recorder
        self.traced = traced
        self.state = _ModelState()
        self.captured: dict[str, object] = {}
        self._restore: list[tuple] = []

    # -- hooks run at span boundaries ------------------------------------
    def _enter(self, name, args, kwargs):
        st, counts = self.state, self.rec.counts
        if name == "training.train":
            graphs = _arg(args, kwargs, 0, "train_graphs")
            config = _arg(args, kwargs, 1, "config")
            counts["training.graph_epochs"] += len(graphs) * config.epochs
            st.train_depth += 1
        elif name == "training.score_graphs":
            counts["training.graphs_scored"] += len(_arg(args, kwargs, 2, "graphs"))
        elif not self.traced:
            return
        elif name == "model.forward_batch":
            params = _arg(args, kwargs, 0, "params")
            st.weights = {id(t): n for n, t in params.named_tensors()}
            if st.train_depth and st.step is None:
                st.step = (self.rec.clock(), counts["autodiff.tape_nodes"],
                           counts["autodiff.matmul_flop"])
        elif name == "model.score_batch":
            st.score = (self.rec.clock(), counts["autodiff.tape_nodes"])
        elif name == "model.encode":
            st.encoder_layer = "enc1"
        elif name == "data.pad_batch":
            graphs = _arg(args, kwargs, 0, "graphs")
            width = _arg(args, kwargs, 1, "n_max")
            sizes = [g.node_count for g in graphs]
            counts["data.pad.real_nodes"] += sum(sizes)
            counts["data.pad.node_slots"] += len(sizes) * width
            counts["data.pad.real_cells"] += sum(n * n for n in sizes)
            counts["data.pad.cells"] += len(sizes) * width * width

    def _exit(self, name, result):
        st, rec = self.state, self.rec
        if name == "training.train":
            st.train_depth -= 1
        elif name == "cli.load_dataset":
            self.captured["dataset"] = result[0]
        elif name == "optim.Adam.step" and st.step is not None:
            t0, nodes, flop = st.step
            rec.samples["training.step_ms"].append((rec.clock() - t0) * 1e3)
            rec.samples["autodiff.tape_nodes_per_step"].append(
                rec.counts["autodiff.tape_nodes"] - nodes)
            rec.samples["autodiff.matmul_flop_per_step"].append(
                rec.counts["autodiff.matmul_flop"] - flop)
            st.step = None
        elif name == "model.score_batch" and st.score is not None:
            t0, nodes = st.score
            rec.samples["model.score_batch_ms"].append((rec.clock() - t0) * 1e3)
            rec.samples["autodiff.tape_nodes_per_score_batch"].append(
                rec.counts["autodiff.tape_nodes"] - nodes)
            st.score = None

    # -- wrapper factories ---------------------------------------------
    def _span(self, name, fn):
        rec, label = self.rec, LAYER_OF_SPAN.get(name) if self.traced else None
        layers = self.state.layers
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name, args, kwargs)
            parent = rec.stack[-1] if rec.stack else None
            sid = rec.new_id()
            rec.stack.append(sid)
            if label:
                layers.append(label)
            start = rec.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = rec.clock()
                if label:
                    layers.pop()
                rec.stack.pop()
                rec.spans.append((sid, name, start, end, parent))
            exit_(name, result)
            if rec.flush_on_root and not rec.stack:
                rec.flush()
            return result
        return wrapper

    def _op(self, op, fn):
        rec, st = self.rec, self.state
        counts = rec.counts
        Tensor = sys.modules["hiermem.autodiff"].Tensor

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            bw = out._backward
            flop = 0
            if op == "matmul":
                a, b = (np.shape(x.data if isinstance(x, Tensor) else x)
                        for x in args[:2])
                batch = math.prod(np.broadcast_shapes(a[:-2], b[:-2]))
                flop = 2 * batch * a[-2] * a[-1] * b[-1]
                counts["autodiff.matmul_flop"] += flop
            if bw is None or getattr(bw, "_perfbench", False):
                return out
            counts["autodiff.tape_nodes"] += 1
            layer = st.layers[-1] if st.layers else "other"
            if layer == "enc":
                if op == "matmul":
                    for x in args[:2]:
                        weight = st.weights.get(id(x))
                        if weight in ENCODER_WEIGHTS:
                            st.encoder_layer = weight
                layer = st.encoder_layer
            if op == "matmul":
                flop *= sum(bool(getattr(x, "requires_grad", False))
                            for x in args[:2])
            out._backward = self._timed_closure(
                f"autodiff.bw.{layer}.{op}", bw, flop)
            return out
        return wrapper

    def _timed_closure(self, name, bw, flop):
        rec = self.rec

        def timed():
            parent = rec.stack[-1] if rec.stack else None
            sid = rec.new_id()
            start = rec.clock()
            bw()
            rec.spans.append((sid, name, start, rec.clock(), parent))
            if flop:
                rec.counts["autodiff.matmul_flop"] += flop
        timed._perfbench = True
        return timed

    # -- install / uninstall -------------------------------------------
    def _targets(self):
        """(owner, attribute, span name, is op) for everything to wrap."""
        for short in MODULES:
            mod = sys.modules[f"hiermem.{short}"]
            private = PRIVATE_SPANS.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if (not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__
                        or attr == "as_tensor"
                        or (attr.startswith("_") and attr not in private)):
                    continue
                name = f"{short}.{attr.lstrip('_')}"
                if self.traced or name in PROBES:
                    yield mod, attr, name, (short == "autodiff"
                                            and attr != "backward")
            if self.traced:
                for cls_name, methods in METHOD_SPANS.get(short, {}).items():
                    for m in methods:
                        yield (vars(mod)[cls_name], m,
                               f"{short}.{cls_name}.{m}", False)

    def install(self) -> "Instrumentation":
        import hiermem.cli  # noqa: F401  (the package does not import cli)
        replaced = {}
        for owner, attr, name, is_op in list(self._targets()):
            original = vars(owner)[attr]
            wrapper = (self._op(attr, original) if is_op
                       else self._span(name, original))
            replaced[id(original)] = (original, wrapper)
            if isinstance(owner, type):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        # rebind every module-level name that refers to a wrapped function,
        # including the names other modules imported with `from .x import f`
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hiermem"
                                   or mod_name.startswith("hiermem.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
