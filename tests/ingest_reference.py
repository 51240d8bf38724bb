"""Independent line-by-line reference for edge-file parsing and eval negatives.

Deliberately naive: reads an edge file one line at a time with Python's
own string and integer rules, and draws each user's negatives one
candidate at a time into a ``set``. Shares no code path with the numpy
implementation in ``dgnnrec.hetgraph`` that it is used to check.
"""

import numpy as np

from graph_checks import neighbors
from dgnnrec.hetgraph import EdgeFileError

CHUNK = 128


def edge_lines(path, kind):
    """Yield (line number, src, dst) for each edge line in file order; raises EdgeFileError.

    Ids are Python ints and may exceed int64; the caller decides about them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise EdgeFileError(f"expected 'src<TAB>dst' in {kind} file, got {line!r}", lineno)
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeFileError(f"non-integer id in {line!r}", lineno) from None
            if src < 0 or dst < 0:
                raise EdgeFileError(f"negative id in {line!r}", lineno)
            yield lineno, src, dst


def draw_negatives(graph, users, num_negatives, rng):
    """Per user in order, 128-candidate chunks until ``num_negatives`` fresh ones.

    Returns the negatives and the number of chunks each user took.
    """
    out = np.empty((len(users), num_negatives), dtype=np.int64)
    chunks = np.zeros(len(users), dtype=np.int64)
    for row, u in enumerate(users):
        seen = set(neighbors(graph.ui, u).tolist())
        chosen = []
        while len(chosen) < num_negatives:
            chunks[row] += 1
            for cand in rng.integers(0, graph.num_items, size=CHUNK).tolist():
                if cand not in seen:
                    seen.add(cand)
                    chosen.append(cand)
                    if len(chosen) == num_negatives:
                        break
        out[row] = chosen
    return out, chunks
