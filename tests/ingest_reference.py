"""Independent line-by-line reference for edge-file parsing and eval negatives.

Deliberately naive: reads an edge file one line at a time with Python's
own string rules and a regular expression, and draws each user's negatives
one candidate at a time into a ``set``. Shares no code path with the numpy
implementation in ``dgnnrec.hetgraph`` that it is used to check.
"""

import re

import numpy as np

from graph_checks import neighbors
from dgnnrec.hetgraph import EdgeFileError

CHUNK = 128


def edge_lines(path, kind):
    """Yield (line number, src, dst) for each edge line in file order; raises EdgeFileError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.strip().startswith("#"):
                continue
            if not re.fullmatch(r"[0-9]{1,18}\t[0-9]{1,18}", line):
                raise EdgeFileError(f"expected 'src<TAB>dst' in {kind} file, two non-negative ids "
                                    f"of 1 to 18 ASCII digits joined by one tab, got {line!r}",
                                    lineno)
            src, dst = line.split("\t")
            yield lineno, int(src), int(dst)


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
