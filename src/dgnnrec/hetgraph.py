"""Collaborative heterogeneous graph over users, items and relation nodes.

The graph unifies three binary relations: user-item interactions,
user-user social ties (kept symmetric, no self-loops) and item to
meta-relation-node links. Adjacency is CSR with sorted, deduplicated
neighbor lists and is frozen after construction, so a built graph can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum
from functools import cached_property
from pathlib import Path

import numpy as np

from .seeding import NEGATIVES, SPLIT, rng_for

EDGE_KINDS = ("interaction", "social", "item_relation")
NUM_EVAL_NEGATIVES = 100


class EdgeFileError(ValueError):
    """Malformed edge file; carries the 1-based offending line number."""

    def __init__(self, msg: str, line: int):
        super().__init__(f"line {line}: {msg}")
        self.line = line


class GraphBuildError(ValueError):
    pass


class SplitError(ValueError):
    pass


class SamplingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# adjacency


@dataclass(frozen=True)
class Adjacency:
    """CSR adjacency for one edge direction; rows sorted and duplicate-free."""

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.setflags(write=False)
        self.indices.setflags(write=False)

    @classmethod
    def from_pairs(cls, pairs: np.ndarray, num_rows: int) -> "Adjacency":
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        rows, cols = pairs[:, 0], pairs[:, 1]
        if pairs.shape[0]:
            if pairs.min() < 0:
                raise GraphBuildError("adjacency pairs must be non-negative")
            # One int64 key per pair sorts exactly as the (row, col) pairs do.
            width = int(cols.max()) + 1
            keys = np.sort(rows * width + cols)
            rows, cols = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], width)
        counts = np.bincount(rows, minlength=num_rows)
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, cols.copy())

    @property
    def num_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def _closed_degrees(self) -> np.ndarray:
        """deg + 1.0 per row, a read-only float64 (rows, 1) column; built once.

        The size of each row's closed neighbourhood (its neighbours and
        itself): the denominator of the social recalibration average.
        """
        out = (self.degrees() + 1.0)[:, None]
        out.setflags(write=False)
        return out

    def pairs(self) -> np.ndarray:
        src = np.repeat(np.arange(self.num_rows, dtype=np.int64), self.degrees())
        return np.column_stack([src, self.indices])

    @cached_property
    def plan(self) -> "DegreeRuns":
        """The rows that have neighbours and their edges grouped by degree; built once."""
        deg = self.degrees()
        rows = np.flatnonzero(deg)
        order = np.argsort(deg[rows], kind="stable")  # by degree, ascending row within one
        degs, starts, counts = np.unique(deg[rows[order]], return_index=True, return_counts=True)
        runs, ends, sources, e0 = [], [], [], 0
        for k, r0, n in zip(degs.tolist(), starts.tolist(), counts.tolist()):
            first = self.indptr[rows[order[r0:r0 + n]]]
            # Edge-major: the j-th neighbours of all n rows lie together, so the
            # run sums as k contiguous (n * width) slabs.
            sources.append(self.indices[(np.arange(k)[:, None] + first).ravel()])
            runs.append((k, slice(r0, r0 + n), slice(e0, e0 + n * k)))
            e0 += n * k
            ends.append(e0)
        sources = np.concatenate(sources) if sources else np.empty(0, dtype=np.int64)
        unsort = None
        if np.any(order[1:] < order[:-1]):
            unsort = np.empty_like(order)
            unsort[order] = np.arange(order.size)
        # A slice when every row has a neighbour: with index arrays everywhere,
        # gradcheck op_s rose 1.953 -> 2.101 s (+7.6%) and planted-train 0.0508
        # -> 0.0542 s (+6.8%) in alternating perfbench pairs.
        targets = slice(0, self.num_rows) if rows.size == self.num_rows else rows
        for arr in (rows, sources, unsort):
            if arr is not None:
                arr.setflags(write=False)
        return DegreeRuns(targets, rows.size, sources, tuple(runs), tuple(ends), unsort)


@dataclass(frozen=True)
class DegreeRuns:
    """An adjacency's rows that have neighbours, with their edges regrouped by degree.

    ``targets`` lists those rows in ascending order; it is a slice when
    every row has a neighbour. The rows are also grouped into one run per
    distinct degree k: ``runs`` holds ``(k, run rows, run edges)`` slices,
    the run rows indexing the rows sorted by degree (ascending row within a
    run) and the run edges indexing ``sources``, where the run's neighbour
    ids lie edge-major, as a (k, rows) array; ``run_ends`` holds where each
    run's edges end. A neighbour sum gathers ``sources`` a chunk of whole
    runs at a time and sums each run as k slabs; ``unsort`` takes the
    degree-sorted rows back to ascending order (None when they already are).
    """

    targets: slice | np.ndarray
    num_targets: int
    sources: np.ndarray
    runs: tuple
    run_ends: tuple
    unsort: np.ndarray | None


def _reverse_pairs(pairs: np.ndarray) -> np.ndarray:
    return pairs[:, ::-1] if pairs.size else pairs.reshape(-1, 2)


def _in_sorted(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Mask of the ``query`` values that occur in the ascending ``keys``."""
    if not keys.size:
        return np.zeros(np.shape(query), dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, query), keys.size - 1)] == query


# ---------------------------------------------------------------------------
# the graph


class EdgeType(IntEnum):
    """Fixed order: checkpoints and parameter vectors serialize banks this way."""

    UU = 0            # user <- user (social)
    UI = 1            # user <- item
    IU = 2            # item <- user
    IR = 3            # item <- relation node
    RI = 4            # relation node <- item
    SELF_USER = 5
    SELF_ITEM = 6
    SELF_RELATION = 7


@dataclass
class TypedEdges:
    """One message type's rows in the global node table and its adjacencies."""

    tgt: slice          # target rows in the global node table
    src: slice          # source rows in the global node table
    adj: Adjacency      # target -> sources
    rev: Adjacency      # source -> targets, the transpose of ``adj``

    @cached_property
    def receivers(self):
        """Global rows of the targets that have a neighbour, ascending."""
        return _shift(self.adj.plan.targets, self.tgt.start)

    @cached_property
    def senders(self):
        """Global rows of the sources that have a neighbour, ascending."""
        return _shift(self.rev.plan.targets, self.src.start)


def _shift(rows, offset: int):
    if isinstance(rows, slice):
        return slice(rows.start + offset, rows.stop + offset)
    return rows + offset


@dataclass(frozen=True)
class HeteroGraph:
    num_users: int
    num_items: int
    num_relations: int
    ui: Adjacency  # user -> items
    iu: Adjacency  # item -> users
    uu: Adjacency  # user -> users, symmetric
    ir: Adjacency  # item -> relation nodes
    ri: Adjacency  # relation node -> items

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items + self.num_relations

    # The edge layout, built once per graph object; a copy made by ``replace`` builds its own.
    @cached_property
    def type_rows(self) -> dict:
        """Self-loop EdgeType -> the rows of its node type, in EdgeType order."""
        I, J, R = self.num_users, self.num_items, self.num_relations
        return {EdgeType.SELF_USER: slice(0, I), EdgeType.SELF_ITEM: slice(I, I + J),
                EdgeType.SELF_RELATION: slice(I + J, I + J + R)}

    @cached_property
    def typed_edges(self) -> dict:
        """Message EdgeType -> its TypedEdges, in EdgeType order."""
        users, items, rels = self.type_rows.values()
        return {
            EdgeType.UU: TypedEdges(users, users, self.uu, self.uu),
            EdgeType.UI: TypedEdges(users, items, self.ui, self.iu),
            EdgeType.IU: TypedEdges(items, users, self.iu, self.ui),
            EdgeType.IR: TypedEdges(items, rels, self.ir, self.ri),
            EdgeType.RI: TypedEdges(rels, items, self.ri, self.ir),
        }

    @cached_property
    def node_denom(self) -> np.ndarray:
        """Per node, its typed in-degree: the count its messages are averaged over. Read-only."""
        denom = np.concatenate([self.uu.degrees() + self.ui.degrees(),
                                self.iu.degrees() + self.ir.degrees(), self.ri.degrees()],
                               dtype=np.float64)
        denom.setflags(write=False)
        return denom

    @cached_property
    def every_member(self):
        """Every node, grouped as a layer works through them (see ``model.RowSet.members``)."""
        messages = [(et, te, slice(None), te.receivers, te.receivers)
                    for et, te in self.typed_edges.items() if te.adj.num_edges]
        selves = [(et, sl, sl) for et, sl in self.type_rows.items() if sl.start != sl.stop]
        return messages, selves

    @property
    def num_interactions(self) -> int:
        return self.ui.num_edges

    def interaction_pairs(self) -> np.ndarray:
        return self.ui.pairs()

    def social_pairs(self) -> np.ndarray:
        """Directed pairs; both orientations of every tie are present."""
        return self.uu.pairs()

    def item_relation_pairs(self) -> np.ndarray:
        return self.ir.pairs()

    def interaction_keys(self) -> np.ndarray:
        """Sorted u*J+item keys for O(log E) membership tests."""
        pairs = self.ui.pairs()
        return pairs[:, 0] * self.num_items + pairs[:, 1]


# ---------------------------------------------------------------------------
# ingestion


_NEWLINE, _TAB, _ZERO = ord("\n"), ord("\t"), ord("0")
# Up to 18 digits always fit int64 (10**18 - 1 < 2**63 - 1).
_PLAIN_DIGITS = 18


def load_edge_file(path, kind: str) -> np.ndarray:
    """Parse a `src<TAB>dst` edge file into (N, 2) int64 pairs, one per edge line, in file order.

    Lines end as in any text file read as UTF-8 (``\\n``, ``\\r\\n`` or ``\\r``).
    A line that is blank or starts with '#' once surrounding whitespace is
    stripped is skipped. Every other line is an edge line: exactly two ids of
    1 to 18 ASCII digits joined by one tab, nothing around them. Spaces or
    tabs around an id, a sign, ``_`` between digits, non-ASCII digits and
    ids of 19 or more digits are refused (an id of 11 or more digits is at
    least 2**31, which ``build_graph`` refuses anyway). The first line
    breaking a rule, or holding a byte that is not UTF-8, raises
    EdgeFileError with its line number. The pairs are neither sorted nor
    deduplicated; ``build_graph`` does both.
    """
    if kind not in EDGE_KINDS:
        raise ValueError(f"unknown edge kind {kind!r}, expected one of {EDGE_KINDS}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = fh.read().encode("utf-8")
        except UnicodeDecodeError as exc:  # exc.object holds the whole file's bytes
            head = exc.object[:exc.start]
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise EdgeFileError(f"byte {exc.object[exc.start]:#04x} in {kind} file "
                                f"is not UTF-8", line) from None
    if raw and not raw.endswith(b"\n"):
        raw += b"\n"
    text = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(text == _NEWLINE)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    plain = _plain_lines(text, starts, ends)
    # numpy reads the plain lines; every other line must be a skipped one.
    for i in np.flatnonzero(~plain).tolist():
        line = raw[starts[i]:ends[i]].decode("utf-8")
        if line.strip()[:1] not in ("", "#"):
            raise EdgeFileError(f"expected 'src<TAB>dst' in {kind} file, two non-negative ids "
                                f"of 1 to {_PLAIN_DIGITS} ASCII digits joined by one tab, "
                                f"got {line!r}", i + 1)
    plain_text = raw if plain.all() else text[np.repeat(plain, ends - starts + 1)].tobytes()
    return np.fromstring(plain_text, dtype=np.int64, sep=" ").reshape(-1, 2)


def _plain_lines(text: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Lines that are exactly ``digits<TAB>digits`` with 1 to 18 digits per id."""
    tabs = np.flatnonzero(text == _TAB)
    line_of_tab = np.searchsorted(ends, tabs)
    plain = np.bincount(line_of_tab, minlength=ends.size) == 1
    tab = np.zeros_like(ends)
    tab[line_of_tab] = tabs
    for length in (tab - starts, ends - tab - 1):
        plain &= (length >= 1) & (length <= _PLAIN_DIGITS)
    other = ((text - np.uint8(_ZERO)) > 9) & (text != _TAB) & (text != _NEWLINE)
    plain[np.searchsorted(ends, np.flatnonzero(other))] = False
    return plain


def _check_range(pairs: np.ndarray, n_src: int, n_dst: int, label: str) -> None:
    if not pairs.size:
        return
    bad = (pairs[:, 0] < 0) | (pairs[:, 0] >= n_src) | (pairs[:, 1] < 0) | (pairs[:, 1] >= n_dst)
    if np.any(bad):
        u, v = pairs[np.flatnonzero(bad)[0]]
        raise GraphBuildError(f"{label} edge ({u}, {v}) out of range ({n_src} x {n_dst})")


def _as_pairs(edges) -> np.ndarray:
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    return arr.reshape(-1, 2)


def build_graph(interactions, social, item_relations,
                num_users: int, num_items: int, num_relations: int) -> HeteroGraph:
    """Assemble the immutable graph from edge pairs in any order, duplicates allowed.

    Social ties are symmetrized here; ``Adjacency.from_pairs`` sorts and
    deduplicates each adjacency's pairs. Each node count must be below
    2**31, so that its int64 keys (row * width + col) stay below 2**63.
    """
    for kind, count in (("users", num_users), ("items", num_items),
                        ("relation nodes", num_relations)):
        if not 0 <= count < 2 ** 31:
            raise GraphBuildError(f"{count} {kind}: node counts must be non-negative "
                                  f"and below 2**31")
    ui_pairs = _as_pairs(interactions)
    uu_pairs = _as_pairs(social)
    ir_pairs = _as_pairs(item_relations)
    _check_range(ui_pairs, num_users, num_items, "interaction")
    _check_range(uu_pairs, num_users, num_users, "social")
    _check_range(ir_pairs, num_items, num_relations, "item_relation")
    if uu_pairs.size and np.any(uu_pairs[:, 0] == uu_pairs[:, 1]):
        u = uu_pairs[np.flatnonzero(uu_pairs[:, 0] == uu_pairs[:, 1])[0], 0]
        raise GraphBuildError(f"social edge ({u}, {u}) is a self-loop")
    if uu_pairs.size:
        uu_pairs = np.vstack([uu_pairs, _reverse_pairs(uu_pairs)])
    return HeteroGraph(
        num_users=num_users, num_items=num_items, num_relations=num_relations,
        ui=Adjacency.from_pairs(ui_pairs, num_users),
        iu=Adjacency.from_pairs(_reverse_pairs(ui_pairs), num_items),
        uu=Adjacency.from_pairs(uu_pairs, num_users),
        ir=Adjacency.from_pairs(ir_pairs, num_items),
        ri=Adjacency.from_pairs(_reverse_pairs(ir_pairs), num_relations),
    )


# ---------------------------------------------------------------------------
# leave-one-out split


@dataclass(frozen=True)
class Split:
    """Train graph plus held-out positives and their fixed eval negatives."""

    train_graph: HeteroGraph
    test_users: np.ndarray       # (M,)
    test_items: np.ndarray       # (M,)
    eval_negatives: np.ndarray   # (M, NUM_EVAL_NEGATIVES)
    num_skipped: int
    seed: int

    def __post_init__(self):
        for a in (self.test_users, self.test_items, self.eval_negatives):
            a.setflags(write=False)


def split_leave_one_out(graph: HeteroGraph, seed: int) -> Split:
    """Hold out one uniformly chosen interaction per user with >= 2.

    Users with a single interaction stay train-only and are counted in
    ``num_skipped``. NUM_EVAL_NEGATIVES negatives, the count ``evaluate`` and
    the manifest take, are drawn once per test user from items the user
    never interacted with (train or test) and are fixed thereafter.
    """
    deg = graph.ui.degrees()
    eligible = np.flatnonzero(deg >= 2)
    num_skipped = int(np.count_nonzero(deg == 1))
    if eligible.size == 0:
        raise SplitError("no user has >= 2 interactions; nothing to hold out")
    too_many = np.flatnonzero(graph.num_items - deg[eligible] < NUM_EVAL_NEGATIVES)
    if too_many.size:
        u = eligible[too_many[0]]
        raise SplitError(
            f"user {u} interacted with {deg[u]} of {graph.num_items} items; "
            f"cannot draw {NUM_EVAL_NEGATIVES} negatives")

    hold_rng = rng_for(seed, SPLIT)
    picks = np.floor(hold_rng.random(eligible.size) * deg[eligible]).astype(np.int64)
    held_pos = graph.ui.indptr[eligible] + picks
    held_items = graph.ui.indices[held_pos]

    negatives = _draw_negatives(graph, eligible, NUM_EVAL_NEGATIVES, rng_for(seed, NEGATIVES))
    keep = np.ones(graph.num_interactions, dtype=bool)
    keep[held_pos] = False
    pairs = graph.interaction_pairs()[keep]
    train = replace(graph, ui=Adjacency.from_pairs(pairs, graph.num_users),
                    iu=Adjacency.from_pairs(_reverse_pairs(pairs), graph.num_items))
    return Split(train, eligible.astype(np.int64), held_items.astype(np.int64), negatives,
                 num_skipped, int(seed))


# Candidates drawn per chunk; a user's negatives are the first fresh
# candidates of its chunks, and it takes chunks until it has enough.
_NEGATIVE_CHUNK = 128
# Users whose first chunks are drawn and checked together. A block's arrays
# (64 x 128 int64, 64 KiB) stay in cache, and a user who needs a second
# chunk makes at most one block be redrawn and checked again.
_NEGATIVE_BLOCK = 64


def _draw_negatives(graph: HeteroGraph, users: np.ndarray, num_negatives: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Each user's negatives, drawn from ``rng`` chunk by chunk in user order.

    A block of users' first chunks comes from one call, which yields the
    same values as drawing them one chunk at a time. At the first user of a
    block that needs more, the stream is rewound and replayed up to the end
    of that user's first chunk, its further chunks are drawn, and the next
    block starts after it.
    """
    keys = graph.interaction_keys()
    num_items = graph.num_items
    out = np.empty((users.size, num_negatives), dtype=np.int64)
    done = 0
    while done < users.size:
        state = rng.bit_generator.state
        block = users[done:done + _NEGATIVE_BLOCK]
        chunks = rng.integers(0, num_items, size=(block.size, _NEGATIVE_CHUNK))
        fresh = _fresh_candidates(chunks, block, keys, num_items)
        short = np.flatnonzero(np.count_nonzero(fresh, axis=1) < num_negatives)
        served = short[0] if short.size else block.size
        out[done:done + served] = _first_fresh(chunks[:served], fresh[:served], num_negatives)
        done += served
        if short.size:
            rng.bit_generator.state = state
            rng.integers(0, num_items, size=(served + 1, _NEGATIVE_CHUNK))
            row, fresh = chunks[served:served + 1], fresh[served:served + 1]
            while np.count_nonzero(fresh) < num_negatives:
                more = rng.integers(0, num_items, size=(1, _NEGATIVE_CHUNK))
                row = np.concatenate([row, more], axis=1)
                fresh = _fresh_candidates(row, users[done:done + 1], keys, num_items)
            out[done] = _first_fresh(row, fresh, num_negatives)
            done += 1
    return out


def _fresh_candidates(chunks: np.ndarray, users: np.ndarray, keys: np.ndarray,
                      num_items: int) -> np.ndarray:
    """Mask of candidates that are neither the row user's interaction nor an earlier repeat."""
    width = chunks.shape[1]
    shift = (width - 1).bit_length()
    # value << shift | place sorts equal values by place, as a stable sort would.
    ranked = np.sort((chunks << shift) | np.arange(width), axis=1)
    value, place = ranked >> shift, ranked & ((1 << shift) - 1)
    fresh = ~_in_sorted(keys, users[:, None] * num_items + value)
    fresh[:, 1:] &= value[:, 1:] != value[:, :-1]
    out = np.empty_like(fresh)
    np.put_along_axis(out, place, fresh, axis=1)
    return out


def _first_fresh(chunks: np.ndarray, fresh: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` fresh candidates of each row; every row has that many."""
    take = fresh & (np.cumsum(fresh, axis=1) <= count)
    return chunks[take].reshape(chunks.shape[0], count)


# ---------------------------------------------------------------------------
# split manifest (text, one test user per line)

_MANIFEST_HEADER = "# dgnnrec split manifest v1"


def _manifest(split: Split) -> bytes:
    """The bytes of ``split``'s manifest; the one source of the format, written and checked."""
    row = "%d\t%d\t" + ",".join(["%d"] * split.eval_negatives.shape[1])
    ids = np.column_stack([split.test_users, split.test_items, split.eval_negatives])
    lines = [_MANIFEST_HEADER, f"seed\t{split.seed}", f"skipped\t{split.num_skipped}"]
    return ("\n".join(lines + [row % tuple(r) for r in ids.tolist()]) + "\n").encode()


def save_split_manifest(split: Split, path) -> None:
    Path(path).write_bytes(_manifest(split))


def check_split_manifest(split: Split, path) -> None:
    """Raise SplitError unless the file at ``path`` holds exactly ``split``'s manifest.

    The error names the first line that differs, what the file holds there
    and what the split has there; a differing seed line names the seed the
    file was written with when it is readable.
    """
    got, want = Path(path).read_bytes(), _manifest(split)
    if got == want:
        return
    n = min(len(got), len(want))
    diff = np.flatnonzero(np.frombuffer(got, np.uint8, n) != np.frombuffer(want, np.uint8, n))
    at = int(diff[0]) if diff.size else n
    lineno = got.count(b"\n", 0, at) + 1
    start = got.rfind(b"\n", 0, at) + 1
    held, has = (text[start:text.find(b"\n", start) + 1 or None] for text in (got, want))
    shown = [repr(line)[1:] if line else "nothing" for line in (held, has)]  # no b prefix
    hint = ""
    if lineno == 2 and held.startswith(b"seed\t") and held[5:].rstrip(b"\n").isdigit():
        hint = f"; rebuild it or use --seed {int(held[5:])}"
    raise SplitError(f"{path}: line {lineno}: holds {shown[0]}, but the split of seed "
                     f"{split.seed} has {shown[1]} there{hint}")


# ---------------------------------------------------------------------------
# BPR triplet sampling


def sample_bpr_batch(train_graph: HeteroGraph, rng: np.random.Generator, size: int):
    """``size`` triplets (u, j+, j-): a uniform observed edge, j- by rejection.

    Each negative is redrawn until it is not one of u's interactions. A
    triplet still pending after every 50 rounds has its edge resampled, in
    case its user interacts with every item; after 200 rounds a
    SamplingError is raised.
    """
    num_edges = train_graph.num_interactions
    if num_edges == 0:
        raise SamplingError("graph has no interactions to sample from")
    keys = train_graph.interaction_keys()
    J = train_graph.num_items

    edges = rng.integers(0, num_edges, size=size)
    users = np.searchsorted(train_graph.ui.indptr, edges, side="right") - 1
    pos = train_graph.ui.indices[edges]
    neg = np.empty(size, dtype=np.int64)
    pending = np.arange(size)
    for round_no in range(200):
        cand = rng.integers(0, J, size=pending.size)
        observed = _in_sorted(keys, users[pending] * J + cand)
        neg[pending[~observed]] = cand[~observed]
        pending = pending[observed]
        if pending.size == 0:
            return users, pos, neg.copy()
        if round_no and round_no % 50 == 0:
            edges_new = rng.integers(0, num_edges, size=pending.size)
            users[pending] = np.searchsorted(train_graph.ui.indptr, edges_new, side="right") - 1
            pos[pending] = train_graph.ui.indices[edges_new]
    raise SamplingError("exhausted retry budget; users appear to interact with all items")
