"""Scaling benchmark: propagation-layer cost vs edge count and unit count.

The per-layer work is a neighbour sum per edge, taken one in-degree run
at a time, plus one mixing of the memory-unit transforms per target node
that has a neighbour, linear in the edge count and in the unit count
respectively, so doubling either should at most double the time
(ratio <= 2.5 with measurement slack). Times are process CPU seconds, so
that time spent waiting for a core does not count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .model import FULL_VARIANT, ModelParams, layer_step
from .seeding import PARAM_INIT, rng_for
from .synthetic import make_random_graph


@dataclass
class BenchRow:
    label: str
    num_edges: int
    memory_units: int
    seconds: float
    ratio: float  # vs previous row of the same sweep; nan for the first


def time_layer_step(graph, dim: int = 16, memory_units: int = 8,
                    reps: int = 5, seed: int = 0) -> float:
    """Median process CPU seconds (all threads) of one propagation layer.

    CPU time leaves out the time the process waits while another one holds
    the core. On a shared 2-core host, 40 draws of the two doubling ratios
    when quiet and 40 beside two busy processes peaked at x2.05 for the
    CPU-time median, against x2.47 for the wall-clock minimum and x2.79 for
    the wall-clock median.
    """
    params = ModelParams.init(graph.num_nodes, dim, memory_units, 1,
                              rng_for(seed, PARAM_INIT))
    layer_step(params.embeddings, graph, params, 0, FULL_VARIANT)  # warmup, builds the layout
    samples = []
    for _ in range(reps):
        started = time.process_time()
        layer_step(params.embeddings, graph, params, 0, FULL_VARIANT)
        samples.append(time.process_time() - started)
    return float(np.median(samples))


def _graph_with_edges(num_interactions: int, seed: int):
    g = make_random_graph(num_users=1500, num_items=2500, num_relations=50,
                          num_interactions=num_interactions,
                          num_social=num_interactions // 4,
                          num_item_relations=num_interactions // 8,
                          seed=seed)
    total = 2 * (g.ui.num_edges + g.ir.num_edges) + g.uu.num_edges
    return g, total


def scaling_table(base_edges: int = 30000, reps: int = 5, seed: int = 0) -> list[BenchRow]:
    """Two sweeps at d = 16: |E| doubling at M = 8, then M doubling from 4 at fixed |E|."""
    rows: list[BenchRow] = []
    prev = None
    for mult in (1, 2, 4):
        g, total = _graph_with_edges(base_edges * mult, seed)
        secs = time_layer_step(g, 16, 8, reps, seed)
        rows.append(BenchRow(f"edges x{mult}", total, 8, secs,
                             secs / prev if prev else float("nan")))
        prev = secs
    g, total = _graph_with_edges(base_edges, seed)
    prev = None
    for units in (4, 8, 16):
        secs = time_layer_step(g, 16, units, reps, seed)
        rows.append(BenchRow(f"units {units}", total, units, secs,
                             secs / prev if prev else float("nan")))
        prev = secs
    return rows


def format_bench_table(rows: list[BenchRow]) -> str:
    out = [f"{'sweep':<12s} {'edges':>8s} {'M':>4s} {'cpu_s':>10s} {'ratio':>7s}"]
    for r in rows:
        ratio = f"{r.ratio:.2f}" if np.isfinite(r.ratio) else "-"
        out.append(f"{r.label:<12s} {r.num_edges:>8d} {r.memory_units:>4d} "
                   f"{r.seconds:>10.5f} {ratio:>7s}")
    return "\n".join(out) + "\n"
