"""Memory-augmented heterogeneous message passing over the typed graph.

Node layout is one global embedding table: users first, then items, then
meta relation nodes. Each edge type (including the per-type self loops)
owns a memory bank of (transform, key, bias) units; a message on an edge
mixes the bank's transforms with attention conditioned on the *target*
node's embedding and applies the mixture to the *source* embedding:

    message(t <- s) = (sum_m eta_m(t) W_m) x_s,
    eta_m(t) = leaky_relu(<x_t, k_m> + b_m)

Attention weights are deliberately unnormalized (no softmax) and may be
negative. Per layer, each node averages incoming messages over the total
typed-neighbor count, is layer-normalized and activated, and adds a
self-loop message through its type's own bank. The final representation
layer-normalizes the concatenation of all per-layer embeddings.

Because eta depends on the target only, the messages into t sum to
``(sum_m eta_m(t) W_m) (sum_s x_s)``. So each layer's per-edge work is a
neighbour sum per edge type, and the mixing happens once per target node
that has a neighbour of that type (a target without one receives
nothing); a self loop mixes the node's own row the same way. A neighbour
sum goes by in-degree run (``Adjacency.plan``): one gather of all the
neighbours, then the targets of one degree k are summed as k contiguous
(targets, d) slabs. ``forward`` computes everything vectorized per edge
type; ``backward`` walks the same schedule in reverse with analytical
gradients, sending the sum's gradient back to the sources through the
transpose adjacency. Which rows each type covers, its adjacencies and
the in-degree denominators are the graph's own edge layout
(``HeteroGraph.type_rows``, ``typed_edges`` and ``node_denom``), built
once per graph.

The last layer and H* work row by row, so ``forward`` can compute them
on a ``RowSet`` only: a training batch reads the H* of every user and of
its sampled items, and when those are few it passes just them. The
earlier layers stay whole, as their neighbours feed the last one. The
last layer's work and dL/dH* hold one row per member; only the last
layer and H* that ``forward`` returns are full height, NaN where skipped.
A computed row is the full forward's bit for bit where BLAS rounds each
row of a product on its own: at d <= 4, and at d = 16 with M = 2, 4 and
8 (the tests pin these). At other shapes (M = 1, or d = 32 and 64) BLAS
rounds a row by its place in the block; rows agree to about 1e-14.

The forward also runs on a stack of K parameter sets (a ``ModelParams``
over a (K, P) buffer), as the gradient check does for its perturbed
vectors. There is one code path for one set and for a stack: each array
carries the stack's axis in front, node rows are indexed as
``x[..., rows, :]`` and products broadcast over the leading axis. numpy
runs a stacked product as one BLAS call per set, and every other step
works row by row, so each set of a stack is computed bit for bit as it
would be alone.

A forward keeps what ``backward`` reads (each layer's LN input and
output, attention pre-activations and neighbour sums) only when its
caller asks, with ``for_backward=True``: the training step and the
gradient check's kink screen. Every read path (scoring, the attention
export, the gradient check's stacked objective) keeps none of them: a
layer drops each message type's neighbour sum and pre-activations
before it makes the next type's, normalizes its aggregation in place and
applies the affine to that same buffer, and H* is its concatenation
normalized in place. So a read path holds one copy of each full-height
array: on the Ciao-shaped graph a layer peaks ~10.5 MB above its start
(17.2 MB when it held every type's caches and normalized into a second
array) and H* ~6.5 MB (12.7 MB; tracemalloc). ``backward`` takes one
set only, so a stack cannot ask for them. ``backward`` consumes the
state it is given: it drops H* once dL/d(concat) is known and the top
layer, which it never reads, before its first step, and it pops each
layer's caches and input as it reaches them, so they die when that
layer's backward step returns.

Every temporary that grows with the rows stays within ``BLOCK_FLOATS``
float64 (1 MB; K times fewer rows for a stack of K). The mixing's
(rows, M*d) products, forward and backward, are made block by block, and
a neighbour sum gathers its sources a chunk of whole degree runs at a
time (what each cost unblocked is measured at
``BLOCK_FLOATS``). Forward and backward cut their rows with the same
``_row_blocks``: the blocks start at multiples of a power of two and none
is short, so each forward row gets the bits that one product over all
rows gives it: at the default budget for d <= 64 and M <= 8, and at any
budget for d <= 16. A chunked gather adds every sum in the same order as
one gather.

A call of two or more blocks (the mixing, forward and backward, a
neighbour sum and the candidate scoring) shares them between the caller
and one helper thread when the process may run on two CPUs
(``_run_blocks``); numpy releases the GIL inside the products and
gathers. Each block makes its own temporaries and writes output rows that
no other block writes, so no bit depends on which thread ran a block, and
two blocks in flight hold what one block of a 2 MB budget held.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import diffengine as de
from .hetgraph import Adjacency, EdgeType, HeteroGraph

DEFAULT_LN_EPS = 1e-6
# Every row-blocked temporary on the hot path holds about this many float64
# (1 MB): the mixing's (rows, M*d) products, forward and backward, a
# neighbour sum's gathered sources and the candidate scoring's gathered
# embeddings. Measured on the Ciao-shaped graph (d = 16, M = 8, one BLAS
# thread): one backward pass over all rows cost ciao-train op_s 2.816 ->
# 3.177 s (+12.8%) and peak_rss_mb 149.2 -> 165.7 (+11%) in alternating
# perfbench pairs, and unblocked, the gathers of the user recalibration and
# of the candidate scoring were 24 MB and 9.9 MB. The budget is half of the
# 2 MB those figures were taken at, as the caller and the helper thread each
# hold a block (``_run_blocks``): with both, three Ciao-shaped epochs peaked
# at 106.8-109.2 MB RSS at 2 MB and 100.7-101.0 MB here, and the item self
# loop's _mix and _mix_backward took 2.4-2.7 ms and 6.8-8.0 ms here against
# 3.8-4.1 and 11.4-11.8 ms on one thread. On one thread, 1 MB took
# 0.93-0.97x the epoch CPU of 2 MB, and that loop's product (15,053 x 16 @
# 16 x 128) took 1.75-1.78 ms in fresh 1 MB blocks against 2.4-2.6 ms as one
# 15.4 MB array. Another value regroups the backward's dW sums, which
# changes the bits of a trained checkpoint.
BLOCK_FLOATS = 1 << 17


@dataclass(frozen=True)
class ModelVariant:
    """Structural switches used by the ablation harness.

    memory_attention=False forces eta=1 for every unit (use with M=1);
    layer_norm=False drops the per-layer normalization but keeps the
    activation and self loop; recalibration=False scores without the
    social-neighbor average.
    """

    memory_attention: bool = True
    layer_norm: bool = True
    recalibration: bool = True


FULL_VARIANT = ModelVariant()


@dataclass
class MemoryBank:
    edge_type: EdgeType
    transforms: np.ndarray  # (M, d, d), or (K, M, d, d) in a stack
    keys: np.ndarray        # (M, d), or (K, M, d)
    biases: np.ndarray      # (M,), or (K, M)

    @property
    def num_units(self) -> int:
        return self.transforms.shape[-3]

    @property
    def dim(self) -> int:
        return self.transforms.shape[-1]

    def draw(self, rng: np.random.Generator) -> None:
        """Overwrite transforms, then keys, with their initial uniform draws."""
        # Keys start two orders below fan scale: unit gates open near-neutral,
        # so early propagation is not modulated by random attention noise.
        a_w = np.sqrt(6.0 / (self.dim + self.dim))
        a_k = 0.05 * np.sqrt(6.0 / (self.dim + 1))
        self.transforms[...] = rng.uniform(-a_w, a_w, size=self.transforms.shape)
        self.keys[...] = rng.uniform(-a_k, a_k, size=self.keys.shape)


class ModelParams:
    """All trainable state: layer-0 embeddings, 8 banks, per-layer LN affine.

    Every array is a view of ``vector``, one contiguous float64 buffer in the
    order of ``_arrays`` (the checkpoint layout); every bank has ``num_units``
    units, and the layer count follows from the vector's size. A vector that
    cannot be viewed so raises ShapeError.

    ``vector`` may also be a C-contiguous (K, P) stack of K parameter
    vectors. Every view then gains that leading axis (embeddings
    (K, N, d), transforms (K, M, d, d), ``ln_scale`` (K, L, d)), and the
    forward computes all K sets in one pass, each row as it would alone.
    The sizes (``dim``, ``num_nodes``, ``num_layers``, ``num_units`` and
    ``num_params``) are per set. Only the forward read path takes a stack;
    what trains, differentiates or saves parameters raises ShapeError on one.
    """

    def __init__(self, vector: np.ndarray, num_nodes: int, dim: int, num_units: int,
                 ln_eps: float = DEFAULT_LN_EPS):
        if (vector.ndim not in (1, 2) or vector.dtype != np.float64
                or not vector.flags.c_contiguous):
            raise de.ShapeError("parameters need a contiguous float64 vector or (K, P) stack")
        lead, width = vector.shape[:-1], vector.shape[-1]
        tail = width - self._size(num_nodes, dim, num_units, 0)
        if num_nodes < 0 or dim < 1 or num_units < 1 or tail < 0 or tail % (2 * dim):
            raise de.ShapeError(f"{width} parameters fit no layer count for "
                                f"{num_nodes} nodes, d={dim} and M={num_units}")
        self.vector, self.ln_eps = vector, ln_eps
        stop = num_nodes * dim
        self.embeddings = vector[..., :stop].reshape(*lead, num_nodes, dim)
        banks = []
        for et in EdgeType:
            keys, biases = stop + num_units * dim * dim, stop + num_units * dim * (dim + 1)
            banks.append(MemoryBank(et, vector[..., stop:keys].reshape(*lead, num_units, dim, dim),
                                    vector[..., keys:biases].reshape(*lead, num_units, dim),
                                    vector[..., biases:biases + num_units]))
            stop = biases + num_units
        self.banks = tuple(banks)
        # scale and shift interleave per layer
        ln = vector[..., stop:].reshape(*lead, tail // (2 * dim), 2, dim)
        self.ln_scale, self.ln_shift = ln[..., 0, :], ln[..., 1, :]

    @staticmethod
    def _size(nodes: int, dim: int, units: int, layers: int) -> int:
        return nodes * dim + len(EdgeType) * units * (dim * dim + dim + 1) + 2 * layers * dim

    @property
    def dim(self) -> int:
        return self.embeddings.shape[-1]

    @property
    def num_nodes(self) -> int:
        return self.embeddings.shape[-2]

    @property
    def num_layers(self) -> int:
        return self.ln_scale.shape[-2]

    @property
    def num_units(self) -> int:
        return self.banks[0].num_units

    def require_one_set(self, caller: str) -> None:
        """Raise ShapeError when these parameters are a stack, which ``caller`` cannot take."""
        if self.vector.ndim != 1:
            raise de.ShapeError(f"{caller} takes one parameter set, "
                                f"not a stack of {self.vector.shape[0]}")

    @classmethod
    def init(cls, num_nodes: int, dim: int, num_units: int, num_layers: int,
             rng: np.random.Generator) -> "ModelParams":
        # Draw order is part of the reproducibility contract:
        # embeddings, then banks in EdgeType order, then nothing (LN is 1/0).
        out = cls.zeros(num_nodes, dim, num_units, num_layers)
        a_e = np.sqrt(6.0 / (dim + dim))
        out.embeddings[...] = rng.uniform(-a_e, a_e, size=(num_nodes, dim))
        for bank in out.banks:
            bank.draw(rng)
        out.ln_scale[...] = 1.0
        return out

    @classmethod
    def zeros(cls, num_nodes: int, dim: int, num_units: int, num_layers: int,
              ln_eps: float = DEFAULT_LN_EPS) -> "ModelParams":
        return cls(np.zeros(cls._size(num_nodes, dim, num_units, num_layers)),
                   num_nodes, dim, num_units, ln_eps)

    def zeros_like(self) -> "ModelParams":
        return ModelParams(np.zeros(self.vector.shape), self.num_nodes, self.dim,
                           self.num_units, self.ln_eps)

    def _arrays(self):
        """(name, view) in canonical order: the order of ``vector`` and of checkpoints."""
        yield "embeddings", self.embeddings
        for bank in self.banks:
            tag = bank.edge_type.name.lower()
            yield f"bank.{tag}.transforms", bank.transforms
            yield f"bank.{tag}.keys", bank.keys
            yield f"bank.{tag}.biases", bank.biases
        for layer in range(self.num_layers):
            yield f"ln.{layer}.scale", self.ln_scale[..., layer, :]
            yield f"ln.{layer}.shift", self.ln_shift[..., layer, :]

    def group_slices(self) -> list[tuple[str, slice]]:
        """(name, slice of one parameter vector) per array, in ``_arrays`` order."""
        out, start, lead = [], 0, self.vector.ndim - 1
        for name, arr in self._arrays():
            size = math.prod(arr.shape[lead:])
            out.append((name, slice(start, start + size)))
            start += size
        return out

    @property
    def num_params(self) -> int:
        return self.vector.shape[-1]

    def to_vector(self) -> np.ndarray:
        """The parameter buffer itself, not a copy: writing to it writes the parameters."""
        return self.vector

    def with_vector(self, vec: np.ndarray) -> "ModelParams":
        """Parameters viewing ``vec``; a contiguous float64 ``vec`` is not copied.

        One set only: a stacked ``self`` or a ``vec`` that is not 1-D raises ShapeError.
        """
        self.require_one_set("with_vector")
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != self.vector.shape:
            raise de.ShapeError(f"parameter vector has shape {vec.shape}, "
                                f"expected ({self.num_params},)")
        return ModelParams(vec, self.num_nodes, self.dim, self.num_units, self.ln_eps)


# ---------------------------------------------------------------------------
# row sets and neighbour sums


def _take(rows, keep):
    """``rows`` (ascending, a slice or an array) at the positions ``keep``; slice(None) keeps all."""
    if isinstance(keep, slice):
        return rows
    if isinstance(rows, slice):
        return keep + rows.start
    return rows[keep]


class RowSet:
    """The node rows that the last layer and H* compute, ascending.

    ``RowSet(graph, mask)`` holds the rows of a boolean mask over the
    graph's nodes; ``ALL_ROWS`` holds every row of any graph. ``index``
    picks the rows out of a full-height array (a view for ALL_ROWS), and a
    compact array holds one row per member in that order.
    """

    def __init__(self, graph: HeteroGraph | None = None, mask: np.ndarray | None = None):
        self.mask, self.index = None, slice(None)
        if mask is None:
            return
        N = graph.num_nodes
        if not isinstance(mask, np.ndarray) or mask.shape != (N,) or mask.dtype != bool:
            raise de.ShapeError(f"a row set needs a boolean mask over the {N} nodes")
        index = mask.nonzero()[0]
        if index.size < N:
            self.mask, self.index = mask, index

    def position(self, nodes: np.ndarray) -> np.ndarray:
        """The row of each of ``nodes`` in a compact array; ShapeError for a non-member."""
        if self.mask is None:
            return nodes
        at = np.searchsorted(self.index, nodes)
        # searchsorted alone would hand a non-member its neighbour's row
        if (at == self.index.size).any() or (self.index[at] != nodes).any():
            raise de.ShapeError("a node outside the row set has no compact row")
        return at

    def members(self, graph: HeteroGraph):
        """The members, grouped as a layer of ``graph`` works through them.

        Returns (messages, selves): per message type that reaches a member,
        (type, edges, positions of the members among its receivers, their
        compact rows, their full-height rows); per node type with a member,
        (type, compact slice, full-height rows). Both in EdgeType order.
        For every row this is the graph's own ``every_member``.
        """
        if self.mask is None:
            return graph.every_member
        every_message, every_self = graph.every_member
        messages = []
        for et, te, _, _, receivers in every_message:
            keep = self.mask[receivers].nonzero()[0]
            if keep.size:
                receivers = _take(receivers, keep)
                messages.append((et, te, keep, self.position(receivers), receivers))
        selves = []
        for et, sl, _ in every_self:
            lo, hi = np.searchsorted(self.index, (sl.start, sl.stop)).tolist()
            if lo < hi:
                selves.append((et, slice(lo, hi), self.index[lo:hi]))
        return messages, selves


ALL_ROWS = RowSet()


def EdgeCache(graph: HeteroGraph) -> HeteroGraph:
    """Returns ``graph``, which owns its edge layout; kept only for the benchmark harness."""
    return graph


def _row_blocks(n: int, width: int) -> list[slice]:
    """Slices that cover ``range(n)`` in blocks of about BLOCK_FLOATS / ``width`` rows.

    Rows that fit the budget are one block. Otherwise a block holds the
    largest power of two rows the budget holds (at least 2), so every
    block starts at a multiple of it, and a last block of under half that
    many rows joins the block before it. BLAS then rounds each row of a
    blocked product as in one product over all rows: it multiplies one
    row with a matrix-vector kernel, and at d >= 32 a product of a few
    rows (8 at d = 32, M = 1) with a small-matrix kernel, whose last bits
    differ.
    """
    if n * width <= BLOCK_FLOATS:
        return [slice(0, n)]
    block = 1 << max(1, (BLOCK_FLOATS // width).bit_length() - 1)
    cuts = range(block, n - max(2, block // 2) + 1, block)
    return list(map(slice, [0, *cuts], [*cuts, n]))


def _usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` narrows them)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool_lock = threading.Lock()
_pool = None  # the helper thread's executor, made on the first shared call


def _forget_helper() -> None:
    """In a forked child: the helper thread did not come along, so start afresh."""
    global _pool_lock, _pool
    _pool_lock, _pool = threading.Lock(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _run_blocks(blocks: list, work) -> list:
    """``[work(block) for block in blocks]``, shared with one helper thread.

    With two or more blocks and two or more usable CPUs the caller and one
    long-lived helper thread take the blocks from a shared counter;
    otherwise the caller runs them all, in order. A block must write only
    rows of the outputs that no other block writes, so no bit depends on
    which thread ran it. Once a block has raised, no block is claimed
    again. The caller's own error is raised here, or else the helper's,
    with its own type, once every claimed block has finished. A helper
    busy with another call when this one's blocks are all done ran none of
    them, so the caller does not wait for it.
    """
    if len(blocks) == 1:  # most calls; cheaper than the loop below
        return [work(blocks[0])]
    if len(blocks) < 2 or _usable_cpus() < 2:
        return [work(b) for b in blocks]
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: it loads logging, which a process of one-block calls never needs
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(1, thread_name_prefix="dgnnrec-blocks")
    n = len(blocks)
    results, lock, claimed = [None] * n, threading.Lock(), 0

    def take():
        nonlocal claimed
        while True:
            with lock:
                i, claimed = claimed, claimed + 1
            if i >= n:
                return
            try:
                results[i] = work(blocks[i])
            except BaseException:
                with lock:
                    claimed = n  # no thread claims again
                raise

    # the caller's numpy error state (np.errstate) holds on the helper too
    helper = _pool.submit(contextvars.copy_context().run, take)
    try:
        take()
    finally:
        if not helper.cancel():
            helper.exception()  # waits until the helper's claimed blocks are done
        del work  # the helper's done job can outlive this call: it must not hold the inputs
    if not helper.cancelled():
        helper.result()  # the helper's error, with its own type
    return results


def _neighbor_sum(rows: np.ndarray, adj: Adjacency) -> np.ndarray:
    """Sum of ``rows[..., s, :]`` over the neighbours s of each of ``adj.plan.targets``.

    One output row per target that has a neighbour, in ascending order;
    leading axes (a parameter stack's) are kept. The sources are gathered
    a chunk of whole degree runs at a time (``_run_blocks``), a chunk
    holding about BLOCK_FLOATS float64 unless one run is larger. Each run
    adds its k slabs in edge order, so a row's sum does not depend on the
    other rows or on the chunks.
    """
    plan = adj.plan
    lead, d = rows.shape[:-2], rows.shape[-1]
    budget = BLOCK_FLOATS // (d * math.prod(lead))  # edges per chunk
    ends = plan.run_ends
    chunks, first = [], 0
    while first < len(ends):  # a chunk: run ``first`` and the whole runs after it that fit
        lo = plan.runs[first][2].start
        stop = bisect_right(ends, max(ends[first], lo + budget))
        chunks.append((lo, plan.runs[first:stop]))
        first = stop
    out = np.empty((*lead, plan.num_targets, d))

    def gather_and_sum(chunk):
        lo, runs = chunk
        gathered = rows.take(plan.sources[lo:runs[-1][2].stop], axis=-2)
        for k, run_rows, run_edges in runs:
            run = gathered[..., run_edges.start - lo:run_edges.stop - lo, :]
            np.add.reduce(run.reshape(*lead, k, -1, d), axis=-3, out=out[..., run_rows, :])

    _run_blocks(chunks, gather_and_sum)
    return out if plan.unsort is None else out[..., plan.unsort, :]


def _place(compact: np.ndarray, rows, height: int, fill: float) -> np.ndarray:
    """``compact`` on the ascending ``rows`` of a ``height``-row array, ``fill`` elsewhere.

    Rows are the second-to-last axis. ``rows`` is an array or, for every
    row, a slice; then this is ``compact`` itself.
    """
    if isinstance(rows, slice):
        return compact
    out = np.full((*compact.shape[:-2], height, compact.shape[-1]), fill)
    out[..., rows, :] = compact
    return out


# ---------------------------------------------------------------------------
# vectorized layer


@dataclass
class _StepCache:
    rows: RowSet                        # the rows the layer computed; the arrays below hold only those
    xhat: np.ndarray | None             # normalized aggregation; None without LN
    inv: np.ndarray | None              # its (n, 1) 1/sqrt(var + eps); None without LN
    normed: np.ndarray                  # activation input: LN output, or the aggregation without LN
    pre: dict                           # EdgeType -> (n_receivers or n_type, M) pre-activations
    sums: dict                          # EdgeType -> (n_receivers, d) neighbour sums


def _batch_attention(rows: np.ndarray, bank: MemoryBank, variant: ModelVariant):
    """(eta, pre-activation) of every unit, each row taken as a target.

    Without memory attention eta is all ones and pre is None.
    """
    if not variant.memory_attention:
        return np.ones((*rows.shape[:-1], bank.num_units)), None
    pre = rows @ bank.keys.swapaxes(-1, -2) + bank.biases[..., None, :]
    return de.leaky_relu(pre), pre


def _mix(rows: np.ndarray, sums: np.ndarray, bank: MemoryBank, variant: ModelVariant):
    """(sum_m eta_m(rows) W_m sums, pre-activation), row by row.

    ``sums`` is a neighbour sum for a message type and ``rows`` itself for
    a self loop; attention depends on the target only, so mixing the sum
    equals summing the mixed messages. BLAS multiplies a single row with
    a matrix-vector kernel whose last bits differ from the matrix-matrix
    kernel's, so one row is mixed as two: a row set that leaves one row
    of a type gets it as the full forward does. The (rows, M*d) product
    of the sums with the transforms is made block by block
    (``_row_blocks``, ``_run_blocks``).
    """
    if rows.shape[-2] == 1:
        mixed, pre = _mix(np.repeat(rows, 2, axis=-2), np.repeat(sums, 2, axis=-2),
                          bank, variant)
        return mixed[..., :1, :], None if pre is None else pre[..., :1, :]
    att, pre = _batch_attention(rows, bank, variant)
    M, d = bank.num_units, bank.dim
    lead, n = sums.shape[:-2], sums.shape[-2]
    flat_t = bank.transforms.reshape(*lead, M * d, d).swapaxes(-1, -2)
    mixed = np.empty(sums.shape)

    def mix(b):
        trans = sums[..., b, :] @ flat_t
        np.einsum("...nm,...nmd->...nd", att[..., b, :], trans.reshape(*trans.shape[:-1], M, d),
                  out=mixed[..., b, :])

    _run_blocks(_row_blocks(n, math.prod(lead) * M * d), mix)
    return mixed, pre


def layer_step(emb: np.ndarray, graph: HeteroGraph, params: ModelParams, step: int,
               variant: ModelVariant = FULL_VARIANT, _record: list | None = None,
               rows: RowSet = ALL_ROWS) -> np.ndarray:
    """One propagation layer: aggregate, normalize, activate, add self loop.

    Only the ``rows`` are computed, each as the full layer computes it (bit
    for bit where BLAS allows, see the module docstring); the other rows of
    the result are NaN. A message type mixes only the members it reaches.
    """
    messages, selves = rows.members(graph)
    denom = graph.node_denom[rows.index, None]
    agg = np.zeros((*emb.shape[:-2], len(denom), emb.shape[-1]))
    record = _record is not None
    pre: dict = {}
    sums: dict = {}
    # Without a record, each type's sums, pre-activations and mixing die
    # before the next type's are made (the ``del``s).
    for et, te, keep, part, receivers in messages:
        summed = _neighbor_sum(emb[..., te.src, :], te.adj)[..., keep, :]
        mixed, pre_act = _mix(emb[..., receivers, :], summed, params.banks[et], variant)
        agg[..., part, :] += mixed
        if record:
            sums[et], pre[et] = summed, pre_act
        del summed, mixed, pre_act
    np.divide(agg, denom, out=agg, where=denom > 0)

    xhat = inv = None
    if variant.layer_norm:
        xhat, inv = de.layer_normalize(agg, params.ln_eps)  # agg, normalized in place
        # A record keeps xhat beside the affine output, so that is a new array.
        agg = np.multiply(params.ln_scale[..., step, None, :], xhat,
                          out=None if record else xhat)
        agg += params.ln_shift[..., step, None, :]
    if record:
        _record.append(_StepCache(rows, xhat, inv, agg, pre, sums))  # pre gains the self loops'
    del xhat, inv
    out = de.leaky_relu(agg)
    del agg

    for et, part, type_rows in selves:
        x = emb[..., type_rows, :]
        mixed, pre_act = _mix(x, x, params.banks[et], variant)
        out[..., part, :] += mixed
        if record:
            pre[et] = pre_act
        del x, mixed, pre_act
    return _place(out, rows.index, emb.shape[-2], np.nan)


@dataclass
class LayerState:
    """Per-layer embeddings H^(0)..H^(L) and the normalized concatenation H*.

    A forward over a row set computes H^(L) and H* on those rows only; their
    other rows are NaN, so a read of one poisons whatever it reaches.
    ``final_inv_std`` holds the computed rows only, as ``backward``'s
    dL/dH* does. ``step_caches`` holds one ``_StepCache`` per layer for
    ``backward`` after ``forward(..., for_backward=True)``, and is empty
    after any other forward.

    ``backward`` consumes the state: it frees each part once its walk down
    is past it, and leaves ``hstar`` and ``final_inv_std`` None, no step
    caches and ``layers`` holding H^(0) alone. Read what you need of it
    before the backward; a second backward on it raises ShapeError.
    """

    layers: list[np.ndarray]
    hstar: np.ndarray
    final_inv_std: np.ndarray = field(repr=False, default=None)
    step_caches: list = field(repr=False, default_factory=list)
    rows: RowSet = field(repr=False, default=ALL_ROWS)

    @property
    def num_layers(self) -> int:
        return len(self.layers) - 1


def final_embeddings(layers, eps: float = DEFAULT_LN_EPS, rows: RowSet = ALL_ROWS):
    """(H*, inv): the per-node concatenation layer-normalized with scale 1, shift 0.

    Only the ``rows`` are normalized: H* is NaN on the others and ``inv``
    holds the computed rows only. The concatenation is a new array, also
    for one layer, and is normalized in place, so over every row H* is
    the one full-height array made here and no layer is written.
    """
    conc = np.concatenate([layer[..., rows.index, :] for layer in layers], axis=-1)
    xhat, inv = de.layer_normalize(conc, eps)
    return _place(xhat, rows.index, layers[0].shape[-2], np.nan), inv


def forward(graph: HeteroGraph, params: ModelParams,
            variant: ModelVariant = FULL_VARIANT,
            rows: RowSet = ALL_ROWS, edge_cache=None, *,
            for_backward: bool = False) -> LayerState:
    """Run all propagation layers from the initial embeddings, then H*.

    ``rows`` are the rows of H* to compute. Since the last layer and H*
    work row by row, only the last layer is cut to them; the earlier
    layers stay whole, as their neighbours feed it. For a stack of K
    parameter sets every array of the state gains a leading K axis.
    ``for_backward=True`` keeps a step cache per layer for ``backward``;
    otherwise each layer's caches are freed as soon as it is done, and a
    stack, which ``backward`` refuses, raises ShapeError when it asks.
    ``edge_cache`` is unused and is kept only for the benchmark harness.
    """
    if params.num_nodes != graph.num_nodes:
        raise de.ShapeError(
            f"params cover {params.num_nodes} nodes but graph has {graph.num_nodes}")
    records = None
    if for_backward:
        params.require_one_set("forward(for_backward=True)")
        records = []
    layers = [params.embeddings]
    for step in range(params.num_layers):
        last = rows if step == params.num_layers - 1 else ALL_ROWS
        layers.append(layer_step(layers[-1], graph, params, step, variant, records, last))
    hstar, inv = final_embeddings(layers, params.ln_eps, rows)
    return LayerState(layers, hstar, inv, records or [], rows)


# ---------------------------------------------------------------------------
# scoring


def recalibrated_users(hstar: np.ndarray, graph: HeteroGraph,
                       variant: ModelVariant = FULL_VARIANT) -> np.ndarray:
    """Per-user scoring vector q_u = H*[u] + tau(H*[u]) for all users at once."""
    users = hstar[..., :graph.num_users, :]
    if not variant.recalibration:
        return users.copy()
    uu = graph.uu
    neigh = _place(_neighbor_sum(users, uu), uu.plan.targets, graph.num_users, 0.0)
    return users + (neigh + users) / uu._closed_degrees


def recalibrated_users_backward(d_q: np.ndarray, graph: HeteroGraph,
                                variant: ModelVariant) -> np.ndarray:
    """dL/dH* on the user rows given dL/dq of ``recalibrated_users``; one parameter set."""
    if not variant.recalibration:
        return d_q
    # q_u = H*[u] + (sum_neighbors + H*[u]) / (deg_u + 1)
    uu = graph.uu
    w = d_q / uu._closed_degrees
    # uu is symmetric, so summing w over neighbours is its transpose.
    return d_q + w + _place(_neighbor_sum(w, uu), uu.plan.targets, graph.num_users, 0.0)


# ---------------------------------------------------------------------------
# backward


def _mix_backward(g: np.ndarray, rows: np.ndarray, sums: np.ndarray, pre,
                 bank: MemoryBank, gbank: MemoryBank):
    """Backward of ``_mix`` given dL/d(mixed) ``g``; adds into ``gbank``.

    Returns (dL/d rows through the attention, dL/d sums). The rows are
    worked through in the forward's blocks (``_row_blocks``, one pass when
    they fit; ``_run_blocks``), each block making its own (rows, M*d)
    temporaries. Each block returns its parts of the bank's
    gradient, which are added into ``gbank`` in block order: the blocks
    fix how the dW sums group, and with it the bits of a trained
    checkpoint. The caller passes only the rows it needs: in the last
    layer those of the forward's row set.
    """
    M, d = bank.num_units, bank.dim
    flat = bank.transforms.reshape(M * d, d)
    d_rows = np.zeros_like(rows)
    d_sums = np.empty_like(sums)

    def step(b):
        gb, sb = g[b], sums[b]
        n = gb.shape[0]
        att = de.leaky_relu(pre[b]) if pre is not None else np.ones((n, M))
        d_trans = np.einsum("nm,nd->nmd", att, gb).reshape(n, M * d)
        d_w = d_trans.T @ sb
        np.matmul(d_trans, flat, out=d_sums[b])
        if pre is None:
            return d_w, None, None
        trans = (sb @ flat.T).reshape(n, M, d)
        d_pre = de.leaky_relu_backward(pre[b], np.einsum("nmd,nd->nm", trans, gb))
        d_rows[b] = d_pre @ bank.keys
        return d_w, d_pre.T @ rows[b], d_pre.sum(axis=0)

    for d_w, d_keys, d_biases in _run_blocks(_row_blocks(g.shape[0], M * d), step):
        gbank.transforms += d_w.reshape(M, d, d)
        if d_keys is not None:
            gbank.keys += d_keys
            gbank.biases += d_biases
    return d_rows, d_sums


def _step_backward(d_out: np.ndarray, emb: np.ndarray, scache: _StepCache,
                   graph: HeteroGraph, params: ModelParams, step: int,
                   variant: ModelVariant, grads: ModelParams) -> np.ndarray:
    """Backward of one layer_step; returns gradient w.r.t. the layer input.

    ``d_out`` holds the rows the layer computed (``scache.rows``) and is
    overwritten.
    """
    rows = scache.rows
    messages, selves = rows.members(graph)
    d_emb = np.zeros_like(emb)

    # Self-loop path: the row is both the attention target and the "sum".
    for et, part, type_rows in selves:
        x = emb[type_rows]
        d_rows, d_sums = _mix_backward(d_out[part], x, x, scache.pre[et],
                                       params.banks[et], grads.banks[et])
        d_emb[type_rows] += d_rows + d_sums

    # Activation and normalization path.
    d_y = de.leaky_relu_backward(scache.normed, d_out)
    if variant.layer_norm:
        grads.ln_scale[step] += np.einsum("nd,nd->d", d_y, scache.xhat)
        grads.ln_shift[step] += np.einsum("nd->d", d_y)
        d_agg = de.layer_normalize_backward(scache.xhat, scache.inv, d_y * params.ln_scale[step])
    else:
        d_agg = d_y

    # dL/d(message sum), in place: a row with no message is in no group below.
    denom = graph.node_denom[rows.index, None]
    np.divide(d_agg, denom, out=d_agg, where=denom > 0)

    # Message path per edge type; sources get dL/d sums through the transpose.
    for et, te, keep, part, receivers in messages:
        d_rows, d_sums = _mix_backward(d_agg[part], emb[receivers], scache.sums[et],
                                       scache.pre[et], params.banks[et], grads.banks[et])
        d_emb[receivers] += d_rows
        d_sums = _place(d_sums, _take(te.adj.plan.targets, keep), te.adj.num_rows, 0.0)
        d_emb[te.senders] += _neighbor_sum(d_sums, te.rev)
    return d_emb


def backward(graph: HeteroGraph, params: ModelParams, state: LayerState,
             d_hstar: np.ndarray, variant: ModelVariant = FULL_VARIANT) -> ModelParams:
    """Gradients of a scalar loss w.r.t. every parameter, given dL/dH*.

    ``d_hstar`` holds a row per computed row (``RowSet.position``); another
    shape, a stack, the state of a stacked forward, or a state without step
    caches (a forward not asked ``for_backward``) raises ShapeError.
    ``params`` and ``state`` are of one set.

    The state is consumed: H* goes once dL/d(concat) is known, the top
    layer before the first step, and each layer's step cache and input
    (above H^(0)) with that layer's step, so each dies as the walk down
    passes it unless the caller holds it. A refused call consumes
    nothing; a consumed state keeps H^(0) only, and a second backward on
    it raises ShapeError.
    """
    params.require_one_set("backward")
    if state.hstar is None:
        raise de.ShapeError("this state was consumed by an earlier backward; "
                            "run forward(..., for_backward=True) again")
    if state.hstar.ndim != 2:
        raise de.ShapeError("backward takes the state of a one-set forward, not of a stack")
    if len(state.step_caches) != state.num_layers:
        raise de.ShapeError("backward needs the step caches of forward(..., for_backward=True); "
                            "this state keeps none")
    grads = params.zeros_like()
    d = params.dim
    rows, num_layers = state.rows, state.num_layers

    # H* is the final normalization's xhat. Its gradient and the last layer's
    # hold the forward's rows; the layers below the last are whole. The
    # shape check of d_hstar comes first, before anything is consumed.
    d_conc = de.layer_normalize_backward(state.hstar[rows.index], state.final_inv_std, d_hstar)
    state.hstar = state.final_inv_std = None
    del state.layers[max(1, num_layers):]  # the top layer: nothing below reads it
    d_layer, held = d_conc[:, num_layers * d:].copy(), rows.index
    for step in reversed(range(num_layers)):
        # popped, so the layer's input and cache die when its step returns
        d_layer, held = _step_backward(d_layer, state.layers.pop() if step else state.layers[0],
                                       state.step_caches.pop(), graph, params, step, variant,
                                       grads), slice(None)
        d_layer[rows.index] += d_conc[:, step * d:(step + 1) * d]
    grads.embeddings[held] += d_layer
    return grads
