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


def time_layer_steps(settings, reps: int, seed: int = 0) -> list[float]:
    """Median process CPU seconds (all threads) of one propagation layer per setting.

    The helper thread counts too: a layer's multi-block kernel calls run
    on the caller and the helper (``model._run_blocks``), and the time is
    the CPU of both.

    ``settings`` are (graph, dim, memory_units). The settings are timed in
    alternation, one rep of each in turn, so a burst of load on the host
    lands on every side of a ratio alike rather than on one setting's reps.
    CPU time leaves out the time the process waits while another one holds
    the core. On a shared 2-core host, 40 draws of the two doubling ratios
    when quiet and 40 beside two busy processes peaked at x2.05 for the
    CPU-time median, against x2.47 for the wall-clock minimum and x2.79 for
    the wall-clock median. Beside one busy process, 20 runs of the
    acceptance test's two ratios peaked at x2.83 with each side timed after
    the other and at x1.79 with the two sides in alternation.
    """
    steps = []
    for graph, dim, memory_units in settings:
        params = ModelParams.init(graph.num_nodes, dim, memory_units, 1,
                                  rng_for(seed, PARAM_INIT))
        layer_step(params.embeddings, graph, params, 0, FULL_VARIANT)  # warmup, builds the layout
        steps.append((graph, params))
    samples = [[] for _ in steps]
    for _ in range(reps):
        for (graph, params), times in zip(steps, samples):
            started = time.process_time()
            layer_step(params.embeddings, graph, params, 0, FULL_VARIANT)
            times.append(time.process_time() - started)
    return [float(np.median(times)) for times in samples]


def _graph_with_edges(num_interactions: int, seed: int):
    g = make_random_graph(num_users=1500, num_items=2500, num_relations=50,
                          num_interactions=num_interactions,
                          num_social=num_interactions // 4,
                          num_item_relations=num_interactions // 8,
                          seed=seed)
    total = 2 * (g.ui.num_edges + g.ir.num_edges) + g.uu.num_edges
    return g, total


def scaling_table(base_edges: int, reps: int, seed: int) -> list[BenchRow]:
    """Two sweeps at d = 16: |E| doubling at M = 8, then M doubling from 4 at fixed |E|.

    The rows of one sweep are timed in alternation (``time_layer_steps``).
    """
    graphs = [_graph_with_edges(base_edges * mult, seed) for mult in (1, 2, 4)]
    sweeps = ([(f"edges x{mult}", g, total, 8) for mult, (g, total) in zip((1, 2, 4), graphs)],
              [(f"units {units}", *graphs[0], units) for units in (4, 8, 16)])
    rows: list[BenchRow] = []
    for sweep in sweeps:
        times = time_layer_steps([(graph, 16, units) for _, graph, _, units in sweep], reps, seed)
        prev = None
        for (label, _, edges, units), secs in zip(sweep, times):
            rows.append(BenchRow(label, edges, units, secs,
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
