"""In-memory span tracer that wraps dgnnrec's public entry points from outside.

Each wrapped call records one span (name, start, end, parent). Wrapping
goes by module attribute: the original function object is replaced in
every loaded ``dgnnrec`` module namespace that binds it, so calls made
through ``from .model import forward`` style imports are traced too.
An entry point that no longer exists is reported as absent instead of
failing the run, so the benchmark survives renames and deletions in the
package; the per-layer figure for it then reads zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "dgnnrec"

# (module, attribute path, span name). Two entries may share a span name:
# their calls are then reported as one layer.
ENTRY_POINTS = (
    ("hetgraph", "load_edge_file", "hetgraph.load_edge_file"),
    ("hetgraph", "build_graph", "hetgraph.build_graph"),
    ("hetgraph", "split_leave_one_out", "hetgraph.split_leave_one_out"),
    ("hetgraph", "sample_bpr_batch", "hetgraph.sample_bpr_batch"),
    ("model", "EdgeCache", "model.EdgeCache"),
    ("model", "ModelParams.init", "model.ModelParams.init"),
    ("model", "ModelParams.to_vector", "model.params_roundtrip"),
    ("model", "ModelParams.with_vector", "model.params_roundtrip"),
    ("model", "forward", "model.forward"),
    ("model", "layer_step", "model.layer_step"),
    ("model", "final_embeddings", "model.final_embeddings"),
    ("model", "recalibrated_users", "model.recalibrated_users"),
    ("model", "backward", "model.backward"),
    ("diffengine", "layer_normalize", "diffengine.layer_normalize"),
    ("diffengine", "layer_normalize_backward", "diffengine.layer_normalize_backward"),
    ("diffengine", "adam_step", "diffengine.adam_step"),
    ("diffengine", "finite_diff_check", "diffengine.finite_diff_check"),
    ("training", "bpr_batch_grad", "training.bpr_batch_grad"),
    ("training", "bpr_batch_loss", "training.bpr_batch_loss"),
    ("training", "train_epoch", "training.train_epoch"),
    ("training", "train_model", "training.train_model"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("training", "check_model_gradients", "training.check_model_gradients"),
    ("evaluation", "evaluate", "evaluation.evaluate"),
    ("evaluation", "export_memory_attention", "evaluation.export_memory_attention"),
)


class Tracer:
    """Append-only span store; one parent stack, as the benchmark is single-threaded.

    ``busy`` is set while a span is being opened or closed, so that a
    signal handler which records spans of its own can tell the store is
    mid-update and leave it alone.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.busy = False

    def _open(self, name: str) -> int:
        self.busy = True
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        self.busy = False
        return idx

    def _close(self, idx: int) -> None:
        self.busy = True
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self.busy = False

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.start, dtype=np.float64).copy(),
                np.frombuffer(self.end, dtype=np.float64).copy())

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur - child

    def roots(self) -> np.ndarray:
        """Index of the outermost span enclosing each span (itself for a root)."""
        _, parent, _, _ = self.arrays()
        out = np.arange(parent.size)
        for i in range(parent.size):  # a parent is always recorded before its children
            if parent[i] >= 0:
                out[i] = out[parent[i]]
        return out

    def write_tsv(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        t0 = start.min() if start.size else 0.0
        rows = ["span\tname\tparent\tstart_s\tend_s"]
        rows += [f"{i}\t{self.names[n]}\t{p}\t{s - t0:.9f}\t{e - t0:.9f}"
                 for i, (n, p, s, e) in enumerate(zip(name_id.tolist(), parent.tolist(),
                                                      start.tolist(), end.tolist()))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute, raw value) or None when the entry point is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def install(tracer: Tracer, entry_points=ENTRY_POINTS):
    """Wrap every entry point that exists; returns (restore, absent names)."""
    undo: list[tuple[object, str, object]] = []
    absent: list[str] = []
    for module_name, attr_path, span_name in entry_points:
        found = _resolve(module_name, attr_path)
        if found is None:
            absent.append(f"{module_name}.{attr_path}")
            continue
        owner, attr, raw = found
        if isinstance(raw, type):
            # A class: its construction is the traced call.
            undo.append((raw, "__init__", raw.__dict__.get("__init__")))
            setattr(raw, "__init__", tracer.wrap(span_name, raw.__init__))
        elif isinstance(owner, type):
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(tracer.wrap(span_name, raw.__func__))
            else:
                wrapped = tracer.wrap(span_name, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        else:
            wrapped = tracer.wrap(span_name, raw)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        undo.append((mod, key, raw))
                        setattr(mod, key, wrapped)

    def restore() -> None:
        for target, attr, original in reversed(undo):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)

    return restore, absent
