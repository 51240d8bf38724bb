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
transpose adjacency. The backward of a mixing works only through the
targets whose upstream gradient is non-zero: in the last layer these are
a batch's users, their social neighbours and its sampled items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property

import numpy as np

from . import diffengine as de
from .hetgraph import Adjacency, HeteroGraph

DEFAULT_LN_EPS = 1e-6
# _mix_backward works through its live rows (those with a non-zero upstream
# gradient) in blocks whose (rows, M*d) temporaries hold about this many
# float64, so its passes stay in cache.
MIX_BLOCK_FLOATS = 1 << 18


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


MESSAGE_TYPES = (EdgeType.UU, EdgeType.UI, EdgeType.IU, EdgeType.IR, EdgeType.RI)
SELF_TYPES = (EdgeType.SELF_USER, EdgeType.SELF_ITEM, EdgeType.SELF_RELATION)


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
    transforms: np.ndarray  # (M, d, d)
    keys: np.ndarray        # (M, d)
    biases: np.ndarray      # (M,)

    @property
    def num_units(self) -> int:
        return self.transforms.shape[0]

    @property
    def dim(self) -> int:
        return self.transforms.shape[1]

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
    """

    def __init__(self, vector: np.ndarray, num_nodes: int, dim: int, num_units: int,
                 ln_eps: float = DEFAULT_LN_EPS):
        if vector.ndim != 1 or vector.dtype != np.float64 or not vector.flags.c_contiguous:
            raise de.ShapeError("parameters need a 1-D contiguous float64 vector")
        tail = vector.size - self._size(num_nodes, dim, num_units, 0)
        if num_nodes < 0 or dim < 1 or num_units < 1 or tail < 0 or tail % (2 * dim):
            raise de.ShapeError(f"{vector.size} parameters fit no layer count for "
                                f"{num_nodes} nodes, d={dim} and M={num_units}")
        self.vector, self.ln_eps = vector, ln_eps
        stop = num_nodes * dim
        self.embeddings = vector[:stop].reshape(num_nodes, dim)
        banks = []
        for et in EdgeType:
            keys, biases = stop + num_units * dim * dim, stop + num_units * dim * (dim + 1)
            banks.append(MemoryBank(et, vector[stop:keys].reshape(num_units, dim, dim),
                                    vector[keys:biases].reshape(num_units, dim),
                                    vector[biases:biases + num_units]))
            stop = biases + num_units
        self.banks = tuple(banks)
        ln = vector[stop:].reshape(-1, 2, dim)  # scale and shift interleave per layer
        self.ln_scale, self.ln_shift = ln[:, 0], ln[:, 1]

    @staticmethod
    def _size(nodes: int, dim: int, units: int, layers: int) -> int:
        return nodes * dim + len(EdgeType) * units * (dim * dim + dim + 1) + 2 * layers * dim

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def num_nodes(self) -> int:
        return self.embeddings.shape[0]

    @property
    def num_layers(self) -> int:
        return self.ln_scale.shape[0]

    @property
    def num_units(self) -> int:
        return self.banks[0].num_units

    @classmethod
    def init(cls, num_nodes: int, dim: int, num_units: int, num_layers: int,
             rng: np.random.Generator, ln_eps: float = DEFAULT_LN_EPS) -> "ModelParams":
        # Draw order is part of the reproducibility contract:
        # embeddings, then banks in EdgeType order, then nothing (LN is 1/0).
        out = cls.zeros(num_nodes, dim, num_units, num_layers, ln_eps)
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
        return ModelParams(np.zeros(self.vector.size), self.num_nodes, self.dim,
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
            yield f"ln.{layer}.scale", self.ln_scale[layer]
            yield f"ln.{layer}.shift", self.ln_shift[layer]

    def group_slices(self) -> list[tuple[str, slice]]:
        out, start = [], 0
        for name, arr in self._arrays():
            out.append((name, slice(start, start + arr.size)))
            start += arr.size
        return out

    @property
    def num_params(self) -> int:
        return self.vector.size

    def to_vector(self) -> np.ndarray:
        """The parameter buffer itself, not a copy: writing to it writes the parameters."""
        return self.vector

    def with_vector(self, vec: np.ndarray) -> "ModelParams":
        """Parameters viewing ``vec``; a contiguous float64 ``vec`` is not copied."""
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != self.vector.shape:
            raise de.ShapeError(f"parameter vector has {vec.size} entries, expected {self.num_params}")
        return ModelParams(vec, self.num_nodes, self.dim, self.num_units, self.ln_eps)


# ---------------------------------------------------------------------------
# edge tensors derived from the graph (built once, reused across layers)


@dataclass
class _TypedEdges:
    tgt: slice          # target rows in the global embedding table
    src: slice          # source rows in the global embedding table
    adj: Adjacency      # target -> sources
    rev: Adjacency      # source -> targets, the transpose of ``adj``

    @property
    def num_edges(self) -> int:
        return self.adj.num_edges

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


class EdgeCache:
    """Per-edge-type row slices and adjacencies plus aggregation denominators."""

    def __init__(self, graph: HeteroGraph):
        I, J, R = graph.num_users, graph.num_items, graph.num_relations
        users, items, rels = slice(0, I), slice(I, I + J), slice(I + J, I + J + R)
        self.slices = {
            EdgeType.SELF_USER: users,
            EdgeType.SELF_ITEM: items,
            EdgeType.SELF_RELATION: rels,
        }
        self.edges = {
            EdgeType.UU: _TypedEdges(users, users, graph.uu, graph.uu),
            EdgeType.UI: _TypedEdges(users, items, graph.ui, graph.iu),
            EdgeType.IU: _TypedEdges(items, users, graph.iu, graph.ui),
            EdgeType.IR: _TypedEdges(items, rels, graph.ir, graph.ri),
            EdgeType.RI: _TypedEdges(rels, items, graph.ri, graph.ir),
        }
        denom = np.zeros(I + J + R)
        denom[users] = graph.uu.degrees() + graph.ui.degrees()
        denom[items] = graph.iu.degrees() + graph.ir.degrees()
        denom[rels] = graph.ri.degrees()
        self.node_denom = denom


def _neighbor_sum(rows: np.ndarray, adj: Adjacency) -> np.ndarray:
    """Sum of ``rows[s]`` over the neighbours s of each of ``adj.plan.targets``.

    One output row per target that has a neighbour, in ascending order.
    """
    plan = adj.plan
    gathered = np.take(rows, plan.sources, axis=0)
    out = np.empty((plan.num_targets, rows.shape[1]))
    for k, run_rows, run_edges in plan.runs:
        gathered[run_edges].reshape(k, -1).sum(axis=0, out=out[run_rows].reshape(-1))
    return out if plan.unsort is None else out[plan.unsort]


def _spread(sums: np.ndarray, adj: Adjacency) -> np.ndarray:
    """``sums`` (one row per ``adj.plan.targets``) on all rows, zeros elsewhere."""
    targets = adj.plan.targets
    if isinstance(targets, slice):
        return sums
    out = np.zeros((adj.num_rows, sums.shape[1]))
    out[targets] = sums
    return out


# ---------------------------------------------------------------------------
# vectorized layer


@dataclass
class _StepCache:
    xhat: np.ndarray | None             # normalized aggregation; None without LN
    inv: np.ndarray | None              # its (n, 1) 1/sqrt(var + eps); None without LN
    normed: np.ndarray                  # activation input: LN output, or the aggregation without LN
    att_pre: dict                       # EdgeType -> (n_receivers, M) pre-activations
    self_pre: dict                      # EdgeType -> (n_type, M)
    sums: dict                          # EdgeType -> (n_receivers, d) neighbour sums


def _batch_attention(rows: np.ndarray, bank: MemoryBank, variant: ModelVariant):
    """(eta, pre-activation) of every unit, each row taken as a target.

    Without memory attention eta is all ones and pre is None.
    """
    if not variant.memory_attention:
        return np.ones((rows.shape[0], bank.num_units)), None
    pre = rows @ bank.keys.T + bank.biases
    return de.leaky_relu(pre), pre


def _mix(rows: np.ndarray, sums: np.ndarray, bank: MemoryBank, variant: ModelVariant):
    """(sum_m eta_m(rows) W_m sums, pre-activation), row by row.

    ``sums`` is a neighbour sum for a message type and ``rows`` itself for
    a self loop; attention depends on the target only, so mixing the sum
    equals summing the mixed messages.
    """
    att, pre = _batch_attention(rows, bank, variant)
    M, d = bank.num_units, bank.dim
    trans = (sums @ bank.transforms.reshape(M * d, d).T).reshape(-1, M, d)
    return np.einsum("nm,nmd->nd", att, trans), pre


def layer_step(emb: np.ndarray, graph: HeteroGraph, params: ModelParams, step: int,
               variant: ModelVariant = FULL_VARIANT, edge_cache: EdgeCache | None = None,
               _record: list | None = None) -> np.ndarray:
    """One propagation layer: aggregate, normalize, activate, add self loop."""
    cache = edge_cache if edge_cache is not None else EdgeCache(graph)
    agg = np.zeros_like(emb)
    att_pre: dict = {}
    sums: dict = {}
    for et in MESSAGE_TYPES:
        te = cache.edges[et]
        if te.num_edges == 0:
            continue
        sums[et] = _neighbor_sum(emb[te.src], te.adj)
        mixed, att_pre[et] = _mix(emb[te.receivers], sums[et], params.banks[et], variant)
        agg[te.receivers] += mixed
    denom = cache.node_denom[:, None]
    np.divide(agg, denom, out=agg, where=denom > 0)

    if variant.layer_norm:
        xhat, inv = de.layer_normalize(agg, params.ln_eps)
        y = np.multiply(params.ln_scale[step], xhat, out=agg)  # agg is not needed again
        y += params.ln_shift[step]
    else:
        xhat = inv = None
        y = agg
    out = de.leaky_relu(y)

    self_pre: dict = {}
    for et in SELF_TYPES:
        sl = cache.slices[et]
        rows = emb[sl]
        if rows.shape[0] == 0:
            continue
        mixed, self_pre[et] = _mix(rows, rows, params.banks[et], variant)
        out[sl] += mixed
    if _record is not None:
        _record.append(_StepCache(xhat, inv, y, att_pre, self_pre, sums))
    return out


@dataclass
class LayerState:
    """Per-layer embeddings H^(0)..H^(L) and the normalized concatenation H*."""

    layers: list[np.ndarray]
    hstar: np.ndarray
    final_inv_std: np.ndarray = field(repr=False, default=None)
    step_caches: list = field(repr=False, default_factory=list)

    @property
    def num_layers(self) -> int:
        return len(self.layers) - 1


def final_embeddings(layers, eps: float = DEFAULT_LN_EPS):
    """(H*, inv): the per-node concatenation layer-normalized with scale 1, shift 0."""
    conc = layers[0] if len(layers) == 1 else np.concatenate(layers, axis=1)
    return de.layer_normalize(conc, eps)


def forward(graph: HeteroGraph, params: ModelParams,
            variant: ModelVariant = FULL_VARIANT,
            edge_cache: EdgeCache | None = None) -> LayerState:
    """Run all propagation layers from the initial embeddings, then H*."""
    if params.num_nodes != graph.num_nodes:
        raise de.ShapeError(
            f"params cover {params.num_nodes} nodes but graph has {graph.num_nodes}")
    cache = edge_cache if edge_cache is not None else EdgeCache(graph)
    records: list = []
    layers = [params.embeddings]
    for step in range(params.num_layers):
        layers.append(layer_step(layers[-1], graph, params, step, variant, cache, records))
    hstar, inv = final_embeddings(layers, params.ln_eps)
    return LayerState(layers, hstar, inv, records)


# ---------------------------------------------------------------------------
# scoring


def recalibrated_users(hstar: np.ndarray, graph: HeteroGraph,
                       variant: ModelVariant = FULL_VARIANT) -> np.ndarray:
    """Per-user scoring vector q_u = H*[u] + tau(H*[u]) for all users at once."""
    users = hstar[:graph.num_users]
    if not variant.recalibration:
        return users.copy()
    neigh = _spread(_neighbor_sum(users, graph.uu), graph.uu)
    deg = graph.uu.degrees()[:, None]
    return users + (neigh + users) / (deg + 1.0)


# ---------------------------------------------------------------------------
# backward


def _mix_backward(g: np.ndarray, rows: np.ndarray, sums: np.ndarray, pre,
                 bank: MemoryBank, gbank: MemoryBank):
    """Backward of ``_mix`` given dL/d(mixed) ``g``; adds into ``gbank``.

    Returns (dL/d rows through the attention, dL/d sums). Only the rows
    where ``g`` is non-zero are worked through (a zero row adds exactly
    zero everywhere; NaN counts as non-zero), in blocks of about
    MIX_BLOCK_FLOATS / (M*d), one pass when they fit; the other rows of
    both results are 0.
    """
    M, d = bank.num_units, bank.dim
    flat = bank.transforms.reshape(M * d, d)
    d_rows = np.zeros_like(rows)
    d_sums = np.zeros_like(sums)
    live = np.flatnonzero(g.any(axis=1))
    whole = live.size == g.shape[0]
    block = max(1, MIX_BLOCK_FLOATS // (M * d))
    for lo in range(0, live.size, block):
        b = slice(lo, lo + block) if whole else live[lo:lo + block]
        gb, sb = g[b], sums[b]
        att = de.leaky_relu(pre[b]) if pre is not None else np.ones((gb.shape[0], M))
        d_trans = np.einsum("nm,nd->nmd", att, gb).reshape(-1, M * d)
        gbank.transforms += (d_trans.T @ sb).reshape(M, d, d)
        d_sums[b] = d_trans @ flat
        if pre is None:
            continue
        trans = (sb @ flat.T).reshape(-1, M, d)
        d_pre = de.leaky_relu_backward(pre[b], np.einsum("nmd,nd->nm", trans, gb))
        gbank.keys += d_pre.T @ rows[b]
        gbank.biases += d_pre.sum(axis=0)
        d_rows[b] = d_pre @ bank.keys
    return d_rows, d_sums


def _step_backward(d_out: np.ndarray, emb: np.ndarray, scache: _StepCache,
                   params: ModelParams, step: int, variant: ModelVariant,
                   cache: EdgeCache, grads: ModelParams) -> np.ndarray:
    """Backward of one layer_step; returns gradient w.r.t. the layer input.

    ``d_out`` is overwritten.
    """
    d_emb = np.zeros_like(emb)

    # Self-loop path: the row is both the attention target and the "sum".
    for et in SELF_TYPES:
        sl = cache.slices[et]
        rows = emb[sl]
        if rows.shape[0] == 0:
            continue
        d_rows, d_sums = _mix_backward(d_out[sl], rows, rows, scache.self_pre[et],
                                       params.banks[et], grads.banks[et])
        d_emb[sl] += d_rows + d_sums

    # Activation and normalization path.
    d_y = de.leaky_relu_backward(scache.normed, d_out)
    if variant.layer_norm:
        grads.ln_scale[step] += np.einsum("nd,nd->d", d_y, scache.xhat)
        grads.ln_shift[step] += np.einsum("nd->d", d_y)
        d_agg = de.layer_normalize_backward(scache.xhat, scache.inv, d_y * params.ln_scale[step])
    else:
        d_agg = d_y

    denom = cache.node_denom[:, None]
    d_msum = np.zeros_like(d_agg)
    np.divide(d_agg, denom, out=d_msum, where=denom > 0)

    # Message path per edge type; sources get dL/d sums through the transpose.
    for et in MESSAGE_TYPES:
        te = cache.edges[et]
        if te.num_edges == 0:
            continue
        rows = te.receivers
        d_rows, d_sums = _mix_backward(d_msum[rows], emb[rows], scache.sums[et],
                                       scache.att_pre[et], params.banks[et], grads.banks[et])
        d_emb[rows] += d_rows
        d_emb[te.senders] += _neighbor_sum(_spread(d_sums, te.adj), te.rev)
    return d_emb


def backward(graph: HeteroGraph, params: ModelParams, state: LayerState,
             d_hstar: np.ndarray, variant: ModelVariant = FULL_VARIANT,
             edge_cache: EdgeCache | None = None) -> ModelParams:
    """Gradients of a scalar loss w.r.t. every parameter, given dL/dH*."""
    cache = edge_cache if edge_cache is not None else EdgeCache(graph)
    grads = params.zeros_like()
    num_layers = state.num_layers
    d = params.dim

    # H* is the final normalization's xhat.
    d_conc = de.layer_normalize_backward(state.hstar, state.final_inv_std, d_hstar)
    d_layers = [d_conc[:, l * d:(l + 1) * d].copy() for l in range(num_layers + 1)]

    for step in reversed(range(num_layers)):
        d_layers[step] += _step_backward(
            d_layers[step + 1], state.layers[step], state.step_caches[step],
            params, step, variant, cache, grads)
    grads.embeddings += d_layers[0]
    return grads
