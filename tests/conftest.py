import sys
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # dense_reference import

from dgnnrec.hetgraph import EDGE_KINDS, HeteroGraph, build_graph
from dgnnrec.model import FULL_VARIANT, ModelParams, recalibrated_users
from dgnnrec.seeding import PARAM_INIT, rng_for


def random_small_graph(rng, max_users=6, max_items=8, max_relations=4):
    """Random typed graph with <= ~20 nodes; may contain isolated nodes."""
    I = int(rng.integers(2, max_users + 1))
    J = int(rng.integers(2, max_items + 1))
    R = int(rng.integers(1, max_relations + 1))
    ui = {(int(rng.integers(I)), int(rng.integers(J)))
          for _ in range(int(rng.integers(2, 2 * I + 2)))}
    uu = set()
    for _ in range(int(rng.integers(0, I + 2))):
        a, b = int(rng.integers(I)), int(rng.integers(I))
        if a != b:
            uu.add((a, b))
    ir = {(int(rng.integers(J)), int(rng.integers(R)))
          for _ in range(int(rng.integers(0, J + 2)))}
    return build_graph(sorted(ui), sorted(uu), sorted(ir), I, J, R)


def write_edge_files(root, dataset, rng=None) -> dict:
    """Write ``dataset``'s three edge files under ``root``; edge kind -> path.

    With ``rng`` the files are messy copies: each line appears one to three
    times, the lines are shuffled, every seventh line is followed by an
    indented ``#`` comment line and a blank line, and every line ends in
    ``\\r\\n``. Without it each line ends in ``\\n``.
    """
    root.mkdir(parents=True, exist_ok=True)
    files = {}
    for kind, pairs in zip(EDGE_KINDS, (dataset.interactions, dataset.social,
                                        dataset.item_relations)):
        if rng is not None:
            pairs = rng.permutation(np.repeat(pairs, rng.integers(1, 4, len(pairs)), axis=0))
        lines = [f"{a}\t{b}" for a, b in pairs.tolist()]
        if rng is not None:
            lines[::7] = [line + "\n  # a comment\n" for line in lines[::7]]
        files[kind] = root / f"{kind}.tsv"
        files[kind].write_text("".join(line + "\n" for line in lines), encoding="utf-8",
                               newline="\n" if rng is None else "\r\n")
    return files


# The cached properties that make up a graph's edge layout.
LAYOUT = ("type_rows", "typed_edges", "node_denom", "every_member")


def count_layout_builds(monkeypatch) -> list:
    """From here on, each build of a layout property appends (name, graph) to the list returned."""
    builds = []
    for name in LAYOUT:
        build = getattr(HeteroGraph, name).func

        def counted(graph, build=build, name=name):
            builds.append((name, graph))
            return build(graph)

        prop = cached_property(counted)
        prop.__set_name__(HeteroGraph, name)
        monkeypatch.setattr(HeteroGraph, name, prop)
    return builds


def random_params(graph, dim, num_units, num_layers, seed=0):
    return ModelParams.init(graph.num_nodes, dim, num_units, num_layers,
                            rng_for(seed, PARAM_INIT, dim, num_units, num_layers))


def score(u, v, hstar, graph, variant=FULL_VARIANT):
    """Preference xi(u, v) through the batched scoring path; v is a type-local item id."""
    return float(recalibrated_users(hstar, graph, variant)[u] @ hstar[graph.num_users + v])


@pytest.fixture
def tiny_graph():
    # 3 users, 4 items, 2 relation nodes; every node type connected.
    return build_graph(
        interactions=[(0, 1), (0, 2), (1, 0), (1, 3), (2, 2)],
        social=[(0, 1), (1, 2)],
        item_relations=[(0, 0), (1, 1), (2, 0), (3, 1)],
        num_users=3, num_items=4, num_relations=2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
