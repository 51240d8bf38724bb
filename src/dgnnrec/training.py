"""Pairwise ranking optimization: BPR loss, epoch loop, checkpoints.

A batch runs one forward, which computes the final representation
only on the rows its objective reads (every user and the sampled items)
when those are under half of the nodes, scores its sampled triplets, and
takes a single Adam step on the mean pairwise loss plus weight decay
over the whole parameter vector. Every batch reads the train graph's
edge layout, which its first forward builds. Per-epoch RNG streams are
derived from (seed, epoch).
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .hetgraph import HeteroGraph, sample_bpr_batch
from .model import (ALL_ROWS, FULL_VARIANT, ModelParams, ModelVariant, RowSet, backward,
                    forward, recalibrated_users, recalibrated_users_backward)
from .seeding import PARAM_INIT, TRIPLETS, rng_for


@dataclass(frozen=True)
class TrainingConfig:
    dim: int = 16
    layers: int = 2
    memory_units: int = 8
    lr: float = 0.01
    batch_size: int = 2048
    reg: float = 1e-4
    epochs: int = 80
    seed: int = 0

    def __post_init__(self):
        # lr/reg/epochs of 0 are allowed for no-op diagnostics runs.
        if self.dim < 1 or self.layers < 0 or self.memory_units < 1:
            raise ValueError("dim and memory_units must be >= 1, layers >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if not (0 <= self.lr < math.inf and 0 <= self.reg < math.inf):
            raise ValueError(f"lr and reg must be finite and >= 0, "
                             f"not {self.lr!r} and {self.reg!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, not {self.seed!r}")


# ---------------------------------------------------------------------------
# objective


def bpr_loss(score_pos, score_neg):
    """-log sigmoid(pos - neg), overflow-safe; ``_batch_objective`` adds the weight decay."""
    core = np.logaddexp(0.0, -(np.asarray(score_pos, dtype=np.float64)
                               - np.asarray(score_neg, dtype=np.float64)))
    return float(core) if np.ndim(core) == 0 else core


def _batch_objective(graph: HeteroGraph, params: ModelParams, users, pos, neg, reg: float,
                     variant: ModelVariant, for_backward: bool = False):
    """(objective value, forward state, pos - neg scores, scoring vectors of ``users``).

    For a stack of K parameter sets the value is a (K,) array and every
    other part gains a leading K axis; for one set the value is a float.
    The state keeps the step caches ``backward`` reads only ``for_backward``.

    The objective reads H* on every user (recalibration averages social
    neighbours) and on the sampled items. When the users and both item
    lists come to under half of the nodes, the forward computes H* on
    those rows only. Leaving rows out costs a few dozen numpy calls per
    forward, which pays only when most of the last layer is skipped: a
    Ciao-shaped batch reads a third of the nodes and its step gets about
    a fifth faster, while on a 14-node gradient-check instance the calls
    cost more than the rows they would skip.
    """
    rows = ALL_ROWS
    if 2 * (graph.num_users + len(pos) + len(neg)) < graph.num_nodes:
        mask = np.zeros(graph.num_nodes, dtype=bool)
        mask[:graph.num_users] = True
        mask[graph.num_users + np.concatenate([pos, neg])] = True
        rows = RowSet(graph, mask)
    state = forward(graph, params, variant, rows, for_backward=for_backward)
    hstar, num_users = state.hstar, graph.num_users
    qp = recalibrated_users(hstar, graph, variant)[..., users, :]
    s_pos = np.einsum("...nd,...nd->...n", qp, hstar[..., num_users + pos, :])
    s_neg = np.einsum("...nd,...nd->...n", qp, hstar[..., num_users + neg, :])
    vec = params.to_vector()
    # A (1, P) @ (P, 1) product is a dot per set, bitwise ``vec @ vec``; an
    # einsum over the stack rounds the decay differently.
    decay = (vec[..., None, :] @ vec[..., :, None])[..., 0, 0]
    # A stack's (K, B) losses are not C-contiguous, and numpy's pairwise sum
    # groups a strided row differently from one set's 1-D mean from B = 8 on.
    loss = np.ascontiguousarray(bpr_loss(s_pos, s_neg)).mean(axis=-1) + reg * decay
    return (float(loss) if loss.ndim == 0 else loss), state, s_pos - s_neg, qp


def bpr_batch_loss(graph: HeteroGraph, params: ModelParams,
                   users, pos, neg, reg: float,
                   variant: ModelVariant = FULL_VARIANT) -> float | np.ndarray:
    """Forward-only objective value for a fixed triplet batch.

    A float for one parameter set; a (K,) array for a stack of K, each
    entry bitwise the value its set gives alone.
    """
    return _batch_objective(graph, params, users, pos, neg, reg, variant)[0]


def _scatter_rows(rows: np.ndarray, values: np.ndarray, shape: tuple) -> np.ndarray:
    """Zeros of ``shape`` with each ``values[k]`` added to row ``rows[k]``, in input order.

    Bitwise equal to ``np.add.at`` on zeros: bincount sums each bin in input order too.
    """
    width = shape[1]
    flat = (rows[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=shape[0] * width).reshape(shape)


def bpr_batch_grad(graph: HeteroGraph, params: ModelParams,
                   users, pos, neg, reg: float,
                   variant: ModelVariant = FULL_VARIANT):
    """(loss, flat gradient) of the batch objective; exact analytical backward.

    A non-finite loss comes with an all-NaN gradient and runs no backward.
    One parameter set only: a stack raises ShapeError.
    """
    params.require_one_set("bpr_batch_grad")
    users = np.asarray(users, dtype=np.int64)
    pos = np.asarray(pos, dtype=np.int64)
    neg = np.asarray(neg, dtype=np.int64)
    num_users = graph.num_users

    loss, state, margin, qp = _batch_objective(graph, params, users, pos, neg, reg, variant,
                                               for_backward=True)
    if not math.isfinite(loss):  # e.g. it read a row the forward skipped: no dL/dH* row
        return loss, np.full(params.num_params, np.nan)
    hstar = state.hstar

    # d(mean softplus(-margin))/d margin = -sigmoid(-margin)/B
    g_margin = -de.sigmoid(-margin) / margin.size
    d_q = _scatter_rows(users,
                        g_margin[:, None] * (hstar[num_users + pos] - hstar[num_users + neg]),
                        (num_users, hstar.shape[1]))
    # At the rows the forward computed, users first; pos then neg: np.add.at's order.
    d_hstar = _scatter_rows(state.rows.position(np.concatenate([pos, neg]) + num_users),
                            np.concatenate([g_margin[:, None] * qp, -g_margin[:, None] * qp]),
                            (len(state.final_inv_std), hstar.shape[1]))

    d_hstar[:num_users] += recalibrated_users_backward(d_q, graph, variant)

    # backward consumes the state; with these gone, H* dies inside it
    del hstar, qp, d_q
    grads = backward(graph, params, state, d_hstar, variant)
    grads.vector += (2.0 * reg) * params.vector
    return loss, grads.vector


# ---------------------------------------------------------------------------
# epoch loop


def train_epoch(graph: HeteroGraph, params: ModelParams, config: TrainingConfig,
                rng: np.random.Generator, adam_state: de.AdamState,
                variant: ModelVariant = FULL_VARIANT) -> float:
    """ceil(|Y|/batch) batches of sampled triplets, one Adam step each.

    Updates ``params.vector`` and ``adam_state`` in place and returns the
    mean batch loss. On an error the steps already taken stay applied.
    """
    num_batches = max(1, math.ceil(graph.num_interactions / config.batch_size))
    losses = []
    for batch_no in range(num_batches):
        users, pos, neg = sample_bpr_batch(graph, rng, config.batch_size)
        loss, grad = bpr_batch_grad(graph, params, users, pos, neg, config.reg, variant)
        if not np.isfinite(loss):
            raise de.NonFiniteError(f"non-finite loss in batch {batch_no}; parameter norm "
                                    f"{float(np.linalg.norm(params.vector)):.6g}")
        de.adam_step(params.vector, grad, adam_state, config.lr)
        # ``grad`` lives until the next batch replaces it: freed here, it took up to 2x the
        # minor faults of a Ciao-shaped epoch (glibc malloc) for 2-5 MB less peak RSS.
        losses.append(loss)
    return float(np.mean(losses))


def train_model(train_graph: HeteroGraph, config: TrainingConfig,
                variant: ModelVariant = FULL_VARIANT,
                initial: ModelParams | None = None,
                on_epoch=None):
    """Full training run from a copy of ``initial`` (default ``ModelParams.init`` of
    the config's seed; ``initial`` is never written) and a zero Adam state, which
    every epoch updates in place; per-epoch RNG derives from (seed, epoch).

    ``on_epoch(epoch, params, mean_loss, seconds)`` fires after each epoch.
    Returns (params, final adam_state, list of mean epoch losses).
    """
    params = (initial.with_vector(initial.vector.copy()) if initial is not None else
              ModelParams.init(train_graph.num_nodes, config.dim, config.memory_units,
                               config.layers, rng_for(config.seed, PARAM_INIT)))
    adam_state = de.AdamState.zeros(params.num_params)
    losses = []
    for epoch in range(1, config.epochs + 1):
        rng = rng_for(config.seed, TRIPLETS, epoch)
        started = time.perf_counter()
        try:
            mean_loss = train_epoch(train_graph, params, config, rng, adam_state, variant)
        except de.NonFiniteError as exc:
            raise de.NonFiniteError(f"epoch {epoch}: {exc}") from None
        losses.append(mean_loss)
        if on_epoch is not None:
            on_epoch(epoch, params, mean_loss, time.perf_counter() - started)
    return params, adam_state, losses


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"DGNNCKPT"
CHECKPOINT_VERSION = 1
_HEADER = struct.Struct("<8s9Idd")  # magic, version, I, J, R, d, L, M, flags, epoch, loss, ln_eps
# Flags bit 0 marks an older file that carries an optimizer section after the
# parameters, a 28-byte header and two moment vectors; the loader skips it.
_FLAG_OPTIMIZER = 1


class CheckpointError(ValueError):
    pass


class CheckpointMagicError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


@dataclass
class Checkpoint:
    params: ModelParams
    num_users: int
    num_items: int
    num_relations: int
    epoch: int
    loss: float


def save_checkpoint(path, params: ModelParams, num_users: int, num_items: int,
                    num_relations: int, *, epoch: int = 0, loss: float = float("nan")) -> None:
    """Header and parameters, little-endian; see README for the exact layout.

    The file holds the model only, no optimizer state (flags 0). A stack raises ShapeError.
    """
    params.require_one_set("save_checkpoint")
    if params.num_nodes != num_users + num_items + num_relations:
        raise CheckpointError("params do not cover num_users + num_items + num_relations nodes")
    header = _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                          num_users, num_items, num_relations,
                          params.dim, params.num_layers, params.num_units,
                          0, epoch, loss, params.ln_eps)
    with open(path, "wb") as fh:
        fh.write(header + params.vector.astype("<f8", copy=False).tobytes())


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at ``path``; a file that carries the old optimizer section
    (flags bit 0) loads its parameters, and the section is skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _HEADER.size:
        raise CheckpointTruncatedError(f"{path}: {len(data)} bytes is shorter than the header")
    magic, version, n_users, n_items, n_rel, dim, layers, units, flags, epoch, loss, ln_eps = \
        _HEADER.unpack_from(data, 0)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointMagicError(f"{path}: bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"{path}: unsupported version {version}")
    if flags & ~_FLAG_OPTIMIZER:
        raise CheckpointError(f"{path}: unknown flags {flags:#x}; only bit 0 is defined")

    # Check the header against the file size in Python ints before any array exists.
    num_nodes = n_users + n_items + n_rel
    if dim < 1 or units < 1 or num_nodes < 1:
        raise CheckpointError(f"{path}: header has d={dim}, M={units} and {num_nodes} nodes")
    if not (math.isfinite(ln_eps) and ln_eps > 0.0):
        raise CheckpointError(f"{path}: header has ln_eps={ln_eps!r}, not a finite value > 0")
    count = ModelParams._size(num_nodes, dim, units, layers)
    expected = _HEADER.size + 8 * count + (flags & _FLAG_OPTIMIZER) * (28 + 16 * count)
    if len(data) < expected:
        raise CheckpointTruncatedError(f"{path}: {len(data)} bytes, the header needs {expected}")
    if len(data) > expected:
        raise CheckpointError(f"{path}: {len(data) - expected} trailing bytes")
    params = ModelParams(np.frombuffer(data, "<f8", count, _HEADER.size).copy(),
                         num_nodes, dim, units, ln_eps)
    return Checkpoint(params, n_users, n_items, n_rel, epoch, loss)


# ---------------------------------------------------------------------------
# gradient verification of the full objective

# The checked objective's weight decay, and the least |pre-activation| an instance may have.
GRAD_CHECK_REG = 1e-3
GRAD_CHECK_KINK_MARGIN = 1e-4
# The layer-0 embeddings' scale in the second screen, for a shape where no draw
# passes as drawn. Without LN the layer-2 activations of d = 8, M = 1 peak at
# ~0.08, and no draw keeps them off the kink; x 3 passes 76 of 101 draws
# there. A larger scale is no better: at x 10 the full variant's d = 2,
# M = 4, L = 2 instance fails by finite-difference truncation.
GRAD_CHECK_RESCALE = 3.0


@dataclass
class GradCheckCase:
    dim: int
    memory_units: int
    layers: int
    report: de.FiniteDiffReport
    group_errors: dict


@dataclass
class GradCheckResult:
    cases: list
    tol: float

    @property
    def max_rel_err(self) -> float:
        return max(c.report.max_rel_err for c in self.cases)

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol

    def worst_by_group(self) -> dict:
        worst: dict = {}
        for case in self.cases:
            for name, err in case.group_errors.items():
                worst[name] = max(worst.get(name, 0.0), err)
        return worst


def _random_instance(dim: int, num_units: int, num_layers: int, seed: int,
                     emb_scale: float = 1.0):
    """(graph, params, triplets) of a 14-node instance; the layer-0 embeddings
    are multiplied by ``emb_scale`` after every draw."""
    from .hetgraph import build_graph
    rng = rng_for(seed, PARAM_INIT, dim, num_units, num_layers)
    n_users, n_items, n_rel = 5, 6, 3
    # Cover every node with at least one edge so no aggregation row is
    # exactly zero (zero rows sit on activation kinks, where central
    # differences are undefined).
    interactions = {(u, u % n_items) for u in range(n_users)}
    interactions.add((0, 5))
    for u in range(n_users):
        interactions.add((u, int(rng.integers(n_items))))
    social = {(0, 1), (1, 2), (3, 4), (2, 4)}
    item_rel = {(j, j % n_rel) for j in range(n_items)}
    for j in range(n_items):
        item_rel.add((j, int(rng.integers(n_rel))))
    graph = build_graph(interactions, social, item_rel, n_users, n_items, n_rel)
    params = ModelParams.init(graph.num_nodes, dim, num_units, num_layers, rng)
    # Test at fan-scale keys (init keeps them small) so the attention path
    # is exercised away from zero, and with a soft normalization floor so
    # 1/sqrt(var+eps) cannot amplify perturbations past the kink margin.
    for bank in params.banks:
        bank.keys *= 20.0
    params.ln_eps = 1e-2
    users, pos, neg = sample_bpr_batch(graph, rng, 3)
    params.embeddings *= emb_scale  # x 1.0 leaves every bit as drawn
    return graph, params, (users, pos, neg)


def _kink_margin(graph, params, variant) -> float:
    """Smallest |pre-activation| anywhere in the forward pass.

    Central differences are only meaningful where the objective is
    differentiable; instances whose activations sit on a leaky_relu kink
    are rejected and redrawn.
    """
    state = forward(graph, params, variant, for_backward=True)
    margin = np.inf
    for cache in state.step_caches:
        for pre in cache.pre.values():
            if pre is not None and pre.size:
                margin = min(margin, float(np.min(np.abs(pre))))
        margin = min(margin, float(np.min(np.abs(cache.normed))))
    return margin


def _screened_instance(dim: int, num_units: int, num_layers: int, seed: int, variant):
    """The first of 101 draws whose kink margin is at least GRAD_CHECK_KINK_MARGIN.

    Only when none passes are the 101 draws screened again with their
    layer-0 embeddings times GRAD_CHECK_RESCALE; a shape that passes as
    drawn keeps its instance. RuntimeError when no draw passes either way.
    """
    margins = []
    for scale in (1.0, GRAD_CHECK_RESCALE):
        for attempt in range(101):
            instance = _random_instance(dim, num_units, num_layers, seed + 1000 * attempt, scale)
            margins.append(_kink_margin(*instance[:2], variant))
            if margins[-1] >= GRAD_CHECK_KINK_MARGIN:
                return instance
    raise RuntimeError(
        f"could not draw a kink-free instance at d={dim}, M={num_units}, L={num_layers} "
        f"for {variant}: the best of {len(margins)} draws (half of them with the "
        f"embeddings x {GRAD_CHECK_RESCALE:g}) has margin {max(margins):.3g} "
        f"< {GRAD_CHECK_KINK_MARGIN:g}")


def _vector_objective(graph, params, users, pos, neg, reg, variant):
    """``stack -> bpr_batch_loss`` of each row of a (K, P) stack, for ``finite_diff_check``.

    Each call views the stack, without a copy, as a ``ModelParams`` of K
    sets shaped as ``params`` and evaluates them in one stacked forward.
    """
    def objective(stack):
        return bpr_batch_loss(graph, ModelParams(stack, params.num_nodes, params.dim,
                                                 params.num_units, params.ln_eps),
                              users, pos, neg, reg, variant)

    return objective


def check_model_gradients(dims=(2, 4, 8), memory_units=(1, 2, 4), layers=(0, 1, 2),
                          seed: int = 0, h: float = 1e-5, tol: float = 1e-4,
                          variant: ModelVariant = FULL_VARIANT) -> GradCheckResult:
    """Check analytical gradients of the batch objective on a (d, M, L) grid.

    ``h`` and ``tol`` must be finite and > 0, as ``finite_diff_check``
    requires; any other value is a ValueError before an instance is drawn.
    """
    de.check_step_and_tolerance(h, tol)
    cases = []
    for dim in dims:
        for units in memory_units:
            for num_layers in layers:
                graph, params, (users, pos, neg) = _screened_instance(
                    dim, units, num_layers, seed, variant)
                _, grad = bpr_batch_grad(graph, params, users, pos, neg, GRAD_CHECK_REG, variant)
                objective = _vector_objective(graph, params, users, pos, neg, GRAD_CHECK_REG,
                                              variant)
                report = de.finite_diff_check(objective, params.to_vector(), grad, h, tol)
                group_errors = {name: float(report.errors[sl].max())
                                for name, sl in params.group_slices() if sl.stop > sl.start}
                cases.append(GradCheckCase(dim, units, num_layers, report, group_errors))
    return GradCheckResult(cases, tol)
