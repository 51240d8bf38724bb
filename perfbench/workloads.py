"""The benchmark's four workloads: inputs, set-up, one iteration and its checks.

Inputs come from the workload seed alone and reach the library only as
edge files (the gradient-check workload builds its own 14-node instances
inside the harness). Every call into the library goes through a module
attribute (``training.train_model``, not a name imported here), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from dgnnrec import evaluation, hetgraph, model, training
from dgnnrec import synthetic
from dgnnrec.seeding import PARAM_INIT, rng_for

CUTOFFS = (5, 10, 20)
GRAD_TOL = 1e-4
NUM_CANDIDATES = hetgraph.NUM_EVAL_NEGATIVES + 1
# One held-out positive among 101 candidates: a random ranking hits top 10
# with probability 10/101.
RANDOM_HR10 = 10 / NUM_CANDIDATES

CIAO_SHAPE = dict(num_users=1925, num_items=15053, num_relations=28,
                  num_interactions=30370, num_social=32000, num_item_relations=15053)


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is what the benchmark measures, TINY is for smoke tests."""

    planted: dict
    ciao: dict
    planted_epochs: int
    grid: tuple  # (dims, memory_units, layers) of the gradient-check sub-grid


FULL = Scale(planted={}, ciao=CIAO_SHAPE, planted_epochs=10,
             grid=((2, 4), (1, 2), (0, 1, 2)))
TINY = Scale(planted=dict(num_users=30, num_items=160, num_relations=5,
                          interactions_per_user=12),
             ciao=dict(num_users=40, num_items=200, num_relations=4, num_interactions=300,
                       num_social=120, num_item_relations=200),
             planted_epochs=2, grid=((2,), (1,), (0, 1)))


@dataclass
class Inputs:
    """Generated edge files plus the node counts that go with them."""

    files: dict
    num_users: int
    num_items: int
    num_relations: int


@dataclass
class Ready:
    """Everything set-up produces; an iteration starts from this."""

    seed: int
    config: training.TrainingConfig | None = None
    graph: object = None
    split: object = None
    cache: object = None
    params: object = None
    checkpoint: Path | None = None
    export_path: Path | None = None
    grid: tuple = ()
    instances: list = field(default_factory=list)
    # Times operations; the runner swaps in a clock that leaves out the
    # reference kernel's sampling.
    clock: Callable[[], float] = time.perf_counter


@dataclass
class Iteration:
    """One repetition of a workload's work; ``ops`` lists (kind, failure or None)."""

    op_seconds: list
    ops: list
    digest: str
    quality: dict


# ---------------------------------------------------------------------------
# inputs


def _write_edges(path: Path, pairs) -> None:
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    path.write_text("".join(f"{a}\t{b}\n" for a, b in pairs.tolist()), encoding="utf-8")


def generate(workload: str, seed: int, workdir: Path, scale: Scale) -> Inputs | None:
    """Write the workload's edge files; untimed. None for gradcheck."""
    if workload == "gradcheck":
        return None
    if workload == "planted-train":
        ds = synthetic.make_planted_dataset(seed=seed, **scale.planted)
        pairs = (ds.interactions, ds.social, ds.item_relations)
        counts = (ds.num_users, ds.num_items, ds.num_relations)
    else:
        g = synthetic.make_random_graph(seed=seed, **scale.ciao)
        social = g.social_pairs()
        pairs = (g.interaction_pairs(), social[social[:, 0] < social[:, 1]],
                 g.item_relation_pairs())
        counts = (g.num_users, g.num_items, g.num_relations)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for kind, edges in zip(hetgraph.EDGE_KINDS, pairs):
        files[kind] = workdir / f"{kind}.tsv"
        _write_edges(files[kind], edges)
    return Inputs(files, *counts)


# ---------------------------------------------------------------------------
# set-up: from edge files on disk to ready-to-run


def setup(workload: str, seed: int, inputs: Inputs | None, workdir: Path,
          scale: Scale) -> Ready:
    """From edge files on disk to ready-to-run: the work setup_s times."""
    if workload == "gradcheck":
        return Ready(seed, grid=scale.grid, instances=_grad_instances(seed, scale))
    config = training.TrainingConfig(seed=seed, epochs=scale.planted_epochs
                                     if workload == "planted-train" else 1)
    edges = [hetgraph.load_edge_file(inputs.files[kind], kind) for kind in hetgraph.EDGE_KINDS]
    graph = hetgraph.build_graph(*edges, inputs.num_users, inputs.num_items,
                                 inputs.num_relations)
    split = hetgraph.split_leave_one_out(graph, seed)
    cache = model.EdgeCache(split.train_graph)
    params = model.ModelParams.init(graph.num_nodes, config.dim, config.memory_units,
                                    config.layers, rng_for(seed, PARAM_INIT))
    ready = Ready(seed, config, graph, split, cache, params)
    if workload == "ciao-score":
        ready.checkpoint = workdir / "model.ckpt"
        ready.export_path = workdir / "attention.tsv"
        training.save_checkpoint(ready.checkpoint, params, graph.num_users,
                                 graph.num_items, graph.num_relations)
    return ready


def _grad_grid(grid: tuple):
    dims, units, layers = grid
    return [(d, m, l) for d in dims for m in units for l in layers]


def _grad_instances(seed: int, scale: Scale) -> list:
    """Draw and kink-screen the sub-grid's instances, as the harness does first."""
    out = []
    for d, m, l in _grad_grid(scale.grid):
        graph, params, _ = training._random_instance(d, m, l, seed)
        training._kink_margin(graph, params, model.FULL_VARIANT)
        model.EdgeCache(graph)
        out.append((graph, params.num_params))
    return out


# ---------------------------------------------------------------------------
# checks and digests


def _params_digest(params, h) -> None:
    h.update(np.ascontiguousarray(params.embeddings).tobytes())
    for bank in params.banks:
        for arr in (bank.transforms, bank.keys, bank.biases):
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.ascontiguousarray(params.ln_scale).tobytes())
    h.update(np.ascontiguousarray(params.ln_shift).tobytes())


def _score(ready: Ready, params, ops: list, quality: dict, h, min_hr10: float | None):
    """forward + evaluate with the correctness gate; returns seconds taken."""
    started = ready.clock()
    state = model.forward(ready.split.train_graph, params, edge_cache=ready.cache)
    if not np.all(np.isfinite(state.hstar)):
        # evaluate would rank an all-NaN H* as a perfect score.
        ops.append(("score", "non-finite H*"))
        return ready.clock() - started, state
    report = evaluation.evaluate(state.hstar, ready.split, ready.split.train_graph, CUTOFFS)
    seconds = ready.clock() - started
    h.update(evaluation.report_lines(report).encode())
    quality.update(hr10=report.hr[10], ndcg10=report.ndcg[10])
    values = list(report.hr.values()) + list(report.ndcg.values())
    problem = None
    if not all(0.0 <= v <= 1.0 for v in values):
        problem = "metric outside [0, 1]"
    elif not (report.hr[5] <= report.hr[10] <= report.hr[20]
              and all(report.ndcg[n] <= report.hr[n] for n in CUTOFFS)):
        problem = "metrics not monotone in the cutoff"
    elif min_hr10 is not None and report.hr[10] <= min_hr10:
        problem = f"hr10 {report.hr[10]:.4f} not above the random baseline {min_hr10:.4f}"
    ops.append(("score", problem))
    return seconds, state


def _check_export(path: Path, num_users: int, num_units: int) -> str | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != 2 * num_users:
        return f"export has {len(lines)} rows, expected {2 * num_users}"
    for line in lines:
        values = line.split("\t")[-1].split(",")
        if len(values) != num_units or not all(math.isfinite(float(v)) for v in values):
            return f"bad export row {line[:60]!r}"
    return None


# ---------------------------------------------------------------------------
# one iteration per workload


def _train_iteration(ready: Ready, min_hr10: float | None) -> Iteration:
    marks = [ready.clock()]
    params, _, losses = training.train_model(
        ready.split.train_graph, ready.config, initial=ready.params,
        on_epoch=lambda *_: marks.append(ready.clock()))
    h = hashlib.sha256()
    _params_digest(params, h)
    h.update(repr(losses).encode())
    steps = max(1, math.ceil(ready.split.train_graph.num_interactions / ready.config.batch_size))
    ops = [("step", None)] * (steps * len(losses))
    if len(losses) != ready.config.epochs or not all(math.isfinite(x) for x in losses):
        ops.append(("step", "missing or non-finite epoch loss"))
    quality = {"train_loss": losses[-1] if losses else float("nan")}
    score_s, _ = _score(ready, params, ops, quality, h, min_hr10)
    quality["score_s"] = score_s
    epochs = np.diff(marks).tolist()
    return Iteration(epochs, ops, h.hexdigest(), quality)


def planted_train(ready: Ready) -> Iteration:
    return _train_iteration(ready, RANDOM_HR10)


def ciao_train(ready: Ready) -> Iteration:
    # A uniform random graph carries no signal to learn, so no hr10 floor.
    return _train_iteration(ready, None)


def ciao_score(ready: Ready) -> Iteration:
    started = ready.clock()
    ops: list = []
    quality: dict = {}
    h = hashlib.sha256()
    ckpt = training.load_checkpoint(ready.checkpoint)
    g = ready.graph
    if (ckpt.num_users, ckpt.num_items, ckpt.num_relations) != (
            g.num_users, g.num_items, g.num_relations):
        ops.append(("load", "checkpoint node counts do not match the graph"))
    score_s, state = _score(ready, ckpt.params, ops, quality, h, None)
    export_started = ready.clock()
    evaluation.export_memory_attention(state, ready.split.train_graph, ckpt.params.banks,
                                       ready.export_path)
    done = ready.clock()
    _params_digest(ckpt.params, h)
    ops.append(("export", _check_export(ready.export_path, g.num_users,
                                        ckpt.params.num_units)))
    h.update(ready.export_path.read_bytes())
    quality.update(score_s=score_s, export_s=done - export_started)
    return Iteration([done - started], ops, h.hexdigest(), quality)


def gradcheck(ready: Ready) -> Iteration:
    dims, units, layers = ready.grid
    started = ready.clock()
    cases = training.check_model_gradients(dims, units, layers, seed=ready.seed,
                                           tol=GRAD_TOL).cases
    seconds = ready.clock() - started
    h = hashlib.sha256()
    ops = []
    for case in cases:
        r = case.report
        h.update(f"{case.dim} {case.memory_units} {case.layers} {r.max_rel_err!r} "
                 f"{r.worst_coord} {r.num_coords}\n".encode())
        ops.append(("instance", None if r.max_rel_err <= GRAD_TOL
                    else f"d={case.dim} M={case.memory_units} L={case.layers} "
                         f"max_rel_err {r.max_rel_err:.3e} > {GRAD_TOL:g}"))
    expected = len(_grad_grid(ready.grid))
    if len(cases) != expected:
        ops.append(("instance", f"{len(cases)} cases, expected {expected}"))
    coords = sum(c.report.num_coords for c in cases)
    quality = {"max_rel_err": max(c.report.max_rel_err for c in cases),
               "checked_coords": coords, "checked_coords_per_s": coords / seconds}
    return Iteration([seconds], ops, h.hexdigest(), quality)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str
    iterate: Callable[[Ready], Iteration]


WORKLOADS = {w.name: w for w in (
    Workload("planted-train",
             "the paper's acceptance run; high in-degree on user and relation targets "
             "(UI ~29, RI ~50), where per-target mixing pays most and fixed per-call "
             "cost is a visible share of a step",
             "one train_model epoch (3 Adam steps)", planted_train),
    Workload("ciao-train",
             "Ciao-shaped, edge-dominated training where backward is ~70% of a step; "
             "item in-degree ~1-2 is where aggregate-first mixing does not pay",
             "one train_model epoch (14 Adam steps)", ciao_train),
    Workload("ciao-score",
             "the read path behind eval and export-attn: no backward and no Adam, so "
             "work moved from training into forward shows here as a cost",
             "load_checkpoint + forward + evaluate + export_memory_attention", ciao_score),
    Workload("gradcheck",
             "14-node graphs where per-call dispatch dominates and edges barely matter; "
             "the only workload that runs the gradient-check harness",
             "check_model_gradients over d in {2,4} x M in {1,2} x L in {0,1,2}", gradcheck),
)}


# ---------------------------------------------------------------------------
# counts that give per-layer ratios a base


def graph_counts(ready: Ready) -> dict:
    """Edge, in-degree, message and parameter counts of the workload's graph(s)."""
    graphs = ([g for g, _ in ready.instances] if ready.instances
              else [ready.split.train_graph])
    num_params = (sum(n for _, n in ready.instances) if ready.instances
                  else ready.params.num_params)
    edges = {"ui": 0, "uu": 0, "ir": 0}
    types = {"uu": ("uu", "num_users"), "ui": ("ui", "num_users"), "iu": ("iu", "num_items"),
             "ir": ("ir", "num_items"), "ri": ("ri", "num_relations")}
    msg = {t: 0 for t in types}
    tgt = {t: 0 for t in types}
    for g in graphs:
        for kind in edges:
            edges[kind] += getattr(g, kind).num_edges
        for t, (adj, n) in types.items():
            msg[t] += getattr(g, adj).num_edges
            tgt[t] += getattr(g, n)
    out = {f"hetgraph.edges.{k}": v for k, v in edges.items()}
    out.update({f"model.in_degree.{t}": msg[t] / tgt[t] if tgt[t] else 0.0 for t in types})
    out["model.messages_per_layer"] = sum(msg.values())
    out["model.params"] = num_params
    out["nodes"] = sum(g.num_nodes for g in graphs)
    out["graphs"] = len(graphs)
    if ready.config is not None:
        out["training.steps_per_epoch"] = max(
            1, math.ceil(ready.split.train_graph.num_interactions / ready.config.batch_size))
        out["evaluation.test_users"] = int(ready.split.test_users.size)
    return out
