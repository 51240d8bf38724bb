"""Top-N evaluation, sparsity breakdown, ablations and attention export.

Each test user ranks their held-out positive against 100 fixed
negatives. Ties are broken by ascending item id so reports are
reproducible byte for byte. With a single relevant item per user,
HR@N counts positives ranked within the top N and NDCG@N credits
1/log2(rank+1) for a hit (ideal DCG is 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .hetgraph import NUM_EVAL_NEGATIVES, Adjacency, HeteroGraph, Split
from .model import (EdgeType, FULL_VARIANT, LayerState, ModelVariant,
                    _batch_attention, _row_blocks, _run_blocks, forward,
                    recalibrated_users)
from .training import TrainingConfig, train_model

DEFAULT_CUTOFFS = (5, 10, 20)


class EvaluationError(ValueError):
    pass


@dataclass
class GroupMetrics:
    label: str
    user_count: int
    mean_train_interactions: float
    hr: dict
    ndcg: dict


@dataclass
class EvalReport:
    cutoffs: tuple
    tested_users: int
    hr: dict
    ndcg: dict
    groups: list


# ---------------------------------------------------------------------------
# ranking


def _candidate_ranks(q_users: np.ndarray, hstar: np.ndarray, num_users: int,
                     users: np.ndarray, positives: np.ndarray,
                     negatives: np.ndarray) -> np.ndarray:
    """1-based rank of each user's positive among positive + negatives.

    Users are scored in blocks (``model._row_blocks``, ``model._run_blocks``)
    whose gathered (users, candidates, d) embeddings hold about
    ``model.BLOCK_FLOATS`` float64: at once, the Ciao-shaped test users'
    were 9.9 MB.
    """
    cands = np.concatenate([positives[:, None], negatives], axis=1)
    ordered = np.sort(cands, axis=1)
    dup = ordered[:, 1:] == ordered[:, :-1]
    if dup.any():
        raise EvaluationError(f"duplicate candidate ids for user {users[np.argwhere(dup)[0][0]]} "
                              f"(positive overlaps negatives?)")
    scores = np.empty(cands.shape)

    def score(b):
        np.einsum("ud,ucd->uc", q_users[users[b]], hstar[num_users + cands[b]], out=scores[b])

    _run_blocks(_row_blocks(users.size, cands.shape[1] * hstar.shape[-1]), score)
    # NaN compares false both ways, so a NaN score would rank the positive first.
    bad = ~np.isfinite(scores)
    if bad.any():
        raise EvaluationError(f"non-finite score for user {users[np.argwhere(bad)[0][0]]}")
    pos_score = scores[:, 0][:, None]
    pos_id = cands[:, 0][:, None]
    better = (scores > pos_score) | ((scores == pos_score) & (cands < pos_id))
    return 1 + better[:, 1:].sum(axis=1)


def _metrics_at(ranks: np.ndarray, cutoffs) -> tuple[dict, dict]:
    hr, ndcg = {}, {}
    gains = 1.0 / np.log2(ranks + 1.0)
    for n in cutoffs:
        hit = ranks <= n
        hr[n] = float(hit.mean())
        ndcg[n] = float(np.where(hit, gains, 0.0).mean())
    return hr, ndcg


def evaluate(hstar: np.ndarray, split: Split, graph: HeteroGraph,
             cutoffs=DEFAULT_CUTOFFS, variant: ModelVariant = FULL_VARIANT) -> EvalReport:
    """HR@N and NDCG@N averaged over every test user, overall and per sparsity group.

    Deterministic; each user's positive is ranked against exactly
    NUM_EVAL_NEGATIVES distinct negatives.
    """
    if split.test_users.size == 0:
        raise EvaluationError("empty test set")
    if split.eval_negatives.shape != (split.test_users.size, NUM_EVAL_NEGATIVES):
        raise EvaluationError(f"expected {NUM_EVAL_NEGATIVES} negatives per test user, "
                              f"got shape {split.eval_negatives.shape}")
    ranks = _candidate_ranks(recalibrated_users(hstar, graph, variant), hstar, graph.num_users,
                             split.test_users, split.test_items, split.eval_negatives)
    hr, ndcg = _metrics_at(ranks, cutoffs)
    groups = (_group_metrics(ranks, split, cutoffs)
              if split.test_users.size >= 4 else [])
    return EvalReport(tuple(cutoffs), int(split.test_users.size), hr, ndcg, groups)


# ---------------------------------------------------------------------------
# sparsity groups


def _group_metrics(ranks: np.ndarray, split: Split, cutoffs) -> list:
    """Quartile groups of test users by training-interaction count."""
    counts = split.train_graph.ui.degrees()[split.test_users]
    order = np.lexsort((split.test_users, counts))  # ascending count, ties by user id
    groups = []
    for gi, idx in enumerate(np.array_split(order, 4)):
        hr, ndcg = _metrics_at(ranks[idx], cutoffs)
        groups.append(GroupMetrics(f"q{gi + 1}", int(idx.size),
                                   float(counts[idx].mean()), hr, ndcg))
    return groups


# ---------------------------------------------------------------------------
# ablations


class AblationVariant(Enum):
    FULL = "full"
    NO_MEMORY = "-M"
    NO_RECALIBRATION = "-tau"
    NO_LAYER_NORM = "-LN"
    NO_ITEM_RELATIONS = "-T"
    NO_SOCIAL = "-S"
    NO_SOCIAL_NO_RELATIONS = "-ST"

    @classmethod
    def parse(cls, token: str) -> "AblationVariant":
        norm = token.strip().lstrip("-").lower()
        table = {v.value.lstrip("-").lower(): v for v in cls}
        if norm not in table:
            raise ValueError(f"unknown ablation variant {token!r}; "
                             f"expected one of {[v.value for v in cls]}")
        return table[norm]

    def apply(self, split: Split, config: TrainingConfig):
        """(``split`` on this variant's graph, its ``ModelVariant``, its training config)."""
        V = AblationVariant
        graph = strip_graph(split.train_graph, self in (V.NO_SOCIAL, V.NO_SOCIAL_NO_RELATIONS),
                            self in (V.NO_ITEM_RELATIONS, V.NO_SOCIAL_NO_RELATIONS))
        switches = ModelVariant(memory_attention=self is not V.NO_MEMORY,
                                layer_norm=self is not V.NO_LAYER_NORM,
                                recalibration=self is not V.NO_RECALIBRATION)
        if self is V.NO_MEMORY:
            config = replace(config, memory_units=1)
        return replace(split, train_graph=graph), switches, config


def strip_graph(graph: HeteroGraph, drop_social: bool, drop_relations: bool) -> HeteroGraph:
    """The graph with S and/or T removed; node counts are preserved."""
    empty = np.empty((0, 2), dtype=np.int64)
    if drop_social:
        graph = replace(graph, uu=Adjacency.from_pairs(empty, graph.num_users))
    if drop_relations:
        graph = replace(graph, ir=Adjacency.from_pairs(empty, graph.num_items),
                        ri=Adjacency.from_pairs(empty, graph.num_relations))
    return graph


def run_ablation(variant: AblationVariant, split: Split, config: TrainingConfig,
                 cutoffs=DEFAULT_CUTOFFS) -> EvalReport:
    """Train the variant from scratch on (possibly stripped) data and evaluate.

    -ST is by construction the Full model run on a graph built with empty
    social and item-relation inputs, with the identical seed and split.
    """
    split, model_variant, config = variant.apply(split, config)
    params, _, _ = train_model(split.train_graph, config, model_variant)
    state = forward(split.train_graph, params, model_variant)
    return evaluate(state.hstar, split, split.train_graph, cutoffs, model_variant)


# ---------------------------------------------------------------------------
# attention export


def export_memory_attention(state: LayerState, graph: HeteroGraph, banks,
                            path, variant: ModelVariant = FULL_VARIANT) -> None:
    """Per user, the unit-attention vector under the social and item banks.

    Rows are `user_id<TAB>bank<TAB>eta_1,...,eta_M` with bank in {uu, ui}:
    the weights the last propagation layer applied, conditioned on that
    layer's input H^(L-1). Raw numbers only. A non-finite weight raises
    EvaluationError, naming the first such user, before anything is written.
    """
    if state.num_layers == 0:
        raise EvaluationError("the model has no propagation layer, so no attention to export")
    targets = state.layers[-2][:graph.num_users]
    att = [_batch_attention(targets, banks[et], variant)[0] for et in (EdgeType.UU, EdgeType.UI)]
    bad = ~np.isfinite(np.hstack(att)).all(axis=1)
    if bad.any():
        raise EvaluationError(f"non-finite attention for user {int(np.argmax(bad))}")
    lines = [f"{u}\tuu\t{uu}\n{u}\tui\t{ui}"
             for u, (uu, ui) in enumerate(zip(*(_comma_rows(eta) for eta in att)))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _comma_rows(values: np.ndarray) -> list[str]:
    """Each row of a 2-D float array as its values in ``%.17g``, comma-separated.

    ``%.17g`` round-trips every float64 and prints as ``format(x, ".17g")``
    does; one ``%`` per row formats the whole row at once.
    """
    template = ",".join(["%.17g"] * values.shape[1])
    return [template % tuple(row) for row in values.tolist()]


# ---------------------------------------------------------------------------
# report serialization


def report_lines(report: EvalReport) -> str:
    """Machine-readable `metric<TAB>N<TAB>group<TAB>value` lines."""
    rows = []
    for metric, table in (("hr", report.hr), ("ndcg", report.ndcg)):
        for n in report.cutoffs:
            rows.append(f"{metric}\t{n}\tall\t{table[n]:.10f}")
    for g in report.groups:
        for metric, table in (("hr", g.hr), ("ndcg", g.ndcg)):
            for n in report.cutoffs:
                rows.append(f"{metric}\t{n}\t{g.label}\t{table[n]:.10f}")
    return "\n".join(rows) + "\n"


def report_table(report: EvalReport) -> str:
    """Human-readable summary table."""
    out = [f"tested users: {report.tested_users}"]
    out.append("group     users  mean|Y|  " + "  ".join(
        f"HR@{n:<3d}   NDCG@{n:<3d}" for n in report.cutoffs))

    def row(label, count, mean_y, hr, ndcg):
        cells = "  ".join(f"{hr[n]:.4f}  {ndcg[n]:.4f} " for n in report.cutoffs)
        return f"{label:<8s} {count:>6d}  {mean_y:>7s}  {cells}"

    out.append(row("all", report.tested_users, "-", report.hr, report.ndcg))
    for g in report.groups:
        out.append(row(g.label, g.user_count, f"{g.mean_train_interactions:.2f}",
                       g.hr, g.ndcg))
    return "\n".join(out) + "\n"
