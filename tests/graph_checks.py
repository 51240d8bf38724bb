"""Structural checks on a built graph that only the tests need.

``validate`` re-checks every invariant ``build_graph`` promises, and
``neighbors`` reads one CSR row; the naive references and the graph tests
use them, the library does not.
"""

import numpy as np

from dgnnrec.hetgraph import GraphBuildError


def neighbors(adj, i: int) -> np.ndarray:
    """The sorted neighbour ids of row ``i`` of a CSR ``Adjacency``."""
    return adj.indices[adj.indptr[i]:adj.indptr[i + 1]]


def _sorted_pairs(pairs: np.ndarray) -> np.ndarray:
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def validate(graph) -> None:
    """Re-check every structural invariant of ``graph``; raises GraphBuildError."""
    for name, adj, n_src, n_dst in (
        ("ui", graph.ui, graph.num_users, graph.num_items),
        ("iu", graph.iu, graph.num_items, graph.num_users),
        ("uu", graph.uu, graph.num_users, graph.num_users),
        ("ir", graph.ir, graph.num_items, graph.num_relations),
        ("ri", graph.ri, graph.num_relations, graph.num_items),
    ):
        if adj.num_rows != n_src:
            raise GraphBuildError(f"{name}: row count {adj.num_rows} != {n_src}")
        if adj.indices.size and (adj.indices.min() < 0 or adj.indices.max() >= n_dst):
            raise GraphBuildError(f"{name}: neighbor id out of range")
        row_of = adj.pairs()[:, 0]
        bad = np.flatnonzero((np.diff(adj.indices) <= 0) & (np.diff(row_of) == 0))
        if bad.size:
            raise GraphBuildError(f"{name}: row {row_of[bad[0]]} not strictly ascending")
    uu_pairs = graph.uu.pairs()
    if uu_pairs.size and np.any(uu_pairs[:, 0] == uu_pairs[:, 1]):
        raise GraphBuildError("uu: self-loop present")
    for name, fwd, rev in (("ui/iu", graph.ui, graph.iu),
                           ("ir/ri", graph.ir, graph.ri),
                           ("uu/uu", graph.uu, graph.uu)):
        a = fwd.pairs()
        b = rev.pairs()[:, ::-1]
        if a.shape != b.shape or (a.size and not np.array_equal(_sorted_pairs(a),
                                                                _sorted_pairs(b))):
            raise GraphBuildError(f"{name}: directions inconsistent")
