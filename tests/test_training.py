import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgnnrec
from conftest import LAYOUT, count_layout_builds, score
from dgnnrec import diffengine as de
from dgnnrec import training
from dgnnrec.hetgraph import build_graph, sample_bpr_batch, split_leave_one_out
from dgnnrec.model import (ALL_ROWS, FULL_VARIANT, ModelParams, ModelVariant, RowSet,
                           forward)
from dgnnrec.seeding import PARAM_INIT, rng_for
from dgnnrec.synthetic import make_planted_dataset, make_random_graph
from dgnnrec.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _HEADER, CheckpointError,
                              CheckpointMagicError, CheckpointTruncatedError,
                              CheckpointVersionError, TrainingConfig, _kink_margin,
                              _random_instance, _scatter_rows, _vector_objective,
                              bpr_batch_grad, bpr_batch_loss, bpr_loss, load_checkpoint,
                              save_checkpoint, train_epoch, train_model)


# ---------------------------------------------------------------------------
# loss


def test_bpr_loss_equal_scores_is_ln2():
    assert bpr_loss(1.7, 1.7) == pytest.approx(math.log(2.0), abs=1e-12)


def test_bpr_loss_reference_margin_one():
    # -ln(sigmoid(1))
    assert bpr_loss(2.0, 1.0) == pytest.approx(0.31326168751822286, abs=1e-12)


def test_bpr_loss_huge_margin_no_overflow():
    with np.errstate(over="raise"):
        assert bpr_loss(1000.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert bpr_loss(0.0, 1000.0) == pytest.approx(1000.0, rel=1e-9)


def test_bpr_loss_nonnegative_and_decay_adds():
    # The decay half lives on bpr_batch_loss (test_gradients.py).
    assert bpr_loss(0.3, -0.2) > 0


# ---------------------------------------------------------------------------
# train_epoch


def _small_world(seed=0, num_items=30):
    rng = np.random.default_rng(seed)
    edges = set()
    for u in range(12):
        for j in rng.choice(num_items, size=4, replace=False):
            edges.add((u, int(j)))
    return build_graph(sorted(edges), [(0, 1), (2, 3), (4, 5)],
                       [(j, j % 3) for j in range(num_items)], 12, num_items, 3)


def test_scatter_rows_is_add_at_bit_for_bit():
    # Repeated rows sum in input order: first block (pos), then second (neg).
    rng = np.random.default_rng(5)
    pos, neg = rng.integers(0, 7, size=300), rng.integers(0, 7, size=300)
    a = rng.normal(size=(300, 5)) * 10.0 ** rng.integers(-8, 8, size=(300, 1))
    b = rng.normal(size=(300, 5))
    want = np.zeros((9, 5))
    np.add.at(want, pos, a)
    np.add.at(want, neg, -b)
    got = _scatter_rows(np.concatenate([pos, neg]), np.concatenate([a, -b]), (9, 5))
    assert got.tobytes() == want.tobytes()


def test_train_epoch_zero_lr_keeps_params():
    g = _small_world()
    cfg = TrainingConfig(dim=4, layers=1, memory_units=2, lr=0.0, reg=0.0,
                         batch_size=16, epochs=1, seed=0)
    params = ModelParams.init(g.num_nodes, 4, 2, 1, rng_for(0, PARAM_INIT))
    out, _, loss = train_epoch(g, params, cfg, rng_for(0, 4))
    assert np.array_equal(out.to_vector(), params.to_vector())
    assert np.isfinite(loss) and loss > 0


def test_train_epoch_deterministic_given_seed():
    g = _small_world()
    cfg = TrainingConfig(dim=4, layers=1, memory_units=2, batch_size=16,
                         epochs=3, seed=7)
    _, _, losses_a = train_model(g, cfg)
    _, _, losses_b = train_model(g, cfg)
    assert losses_a == losses_b


def test_training_reduces_loss_on_planted_data():
    ds = make_planted_dataset(num_users=60, num_items=120, num_relations=8,
                              interactions_per_user=12, seed=1)
    g = ds.build()
    cfg = TrainingConfig(dim=8, layers=1, memory_units=2, batch_size=256,
                         epochs=20, seed=0)
    _, _, losses = train_model(g, cfg)
    assert losses[19] < losses[0]


def test_margin_grows_with_embeddings_only():
    # 1 user, 2 items, single observed edge; all groups frozen except
    # embeddings; plain gradient descent must push sigmoid(margin) toward 1.
    g = build_graph([(0, 0)], [], [], 1, 2, 0)
    params = ModelParams.init(g.num_nodes, 4, 1, 1, rng_for(3, PARAM_INIT))
    users, pos, neg = np.array([0]), np.array([0]), np.array([1])
    emb_slice = dict(params.group_slices())["embeddings"]

    def margin_of(p):
        state = forward(g, p)
        return score(0, 0, state.hstar, g) - score(0, 1, state.hstar, g)

    margins = [margin_of(params)]
    vec = params.to_vector()
    for _ in range(100):
        _, grad = bpr_batch_grad(g, params.with_vector(vec), users, pos, neg,
                                 0.0, FULL_VARIANT)
        masked = np.zeros_like(grad)
        masked[emb_slice] = grad[emb_slice]
        vec = vec - 0.05 * masked
        margins.append(margin_of(params.with_vector(vec)))
    deltas = np.diff(margins)
    assert np.all(deltas > -1e-9)
    assert de.sigmoid(margins[-1]) > de.sigmoid(margins[0])
    assert de.sigmoid(margins[-1]) > 0.9


def test_nonfinite_loss_aborts_with_diagnostic():
    g = _small_world()
    cfg = TrainingConfig(dim=4, layers=1, memory_units=2, batch_size=8,
                         epochs=1, seed=0)
    params = ModelParams.init(g.num_nodes, 4, 2, 1, rng_for(0, PARAM_INIT))
    params.embeddings[0, 0] = np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(de.NonFiniteError):
            train_epoch(g, params, cfg, rng_for(0, 4))


# ---------------------------------------------------------------------------
# the batch objective's row set

VARIANTS = {"full": FULL_VARIANT, "-M": ModelVariant(memory_attention=False),
            "-LN": ModelVariant(layer_norm=False), "-tau": ModelVariant(recalibration=False)}
CIAO_SHAPE = dict(num_users=1925, num_items=15053, num_relations=28, num_interactions=30370,
                  num_social=32000, num_item_relations=15053)


def _live_and_full(graph, params, triplets, reg, variant):
    """``bpr_batch_grad`` forwarding its row set, then every row.

    Returns per run (loss, gradient, H*, the row set the objective asked for).
    """
    runs = []
    for every_row in (False, True):
        seen = []

        def recording(g, p, v, rows):
            seen.append((rows, forward(g, p, v, ALL_ROWS if every_row else rows)))
            return seen[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "forward", recording)
            loss, grad = bpr_batch_grad(graph, params, *triplets, reg, variant)
        (rows, state), = seen
        runs.append((loss, grad, state.hstar, rows))
    return runs


def _assert_row_set_is_exact(graph, params, triplets, reg, variant):
    """Checks the objective's row set and that it changes no read row; returns the set."""
    (loss, grad, hstar, rows), (full_loss, full_grad, full_hstar, _) = _live_and_full(
        graph, params, triplets, reg, variant)
    read = np.zeros(graph.num_nodes, dtype=bool)
    read[:graph.num_users] = True  # recalibration reads every user
    read[graph.num_users + np.concatenate(triplets[1:])] = True
    if 2 * (graph.num_users + 2 * len(triplets[1])) >= graph.num_nodes:
        assert rows is ALL_ROWS  # the batch may read half of the nodes or more
        assert np.isfinite(hstar).all()
    else:
        assert np.array_equal(rows.mask, read)
        assert np.isnan(hstar[~read]).all()
    assert loss == full_loss
    assert np.array_equal(hstar[read], full_hstar[read])
    # Only the gradient's column sums run over fewer rows.
    assert np.abs(grad - full_grad).max() <= 1e-12 * np.abs(full_grad).max()
    return rows


@pytest.mark.parametrize("name", list(VARIANTS))
def test_row_set_objective_is_exact_on_a_ciao_shaped_batch(name):
    variant = VARIANTS[name]
    graph = split_leave_one_out(make_random_graph(seed=21, **CIAO_SHAPE), 21).train_graph
    params = ModelParams.init(graph.num_nodes, 16, 1 if name == "-M" else 8, 2,
                              rng_for(21, PARAM_INIT))
    triplets = sample_bpr_batch(graph, rng_for(21, 4), 2048)
    rows = _assert_row_set_is_exact(graph, params, triplets, 1e-4, variant)
    assert rows.index.size < graph.num_nodes / 3


@pytest.mark.parametrize("num_layers", [0, 1, 2])
@pytest.mark.parametrize("name", list(VARIANTS))
def test_row_set_objective_is_exact_on_a_planted_batch(name, num_layers):
    variant = VARIANTS[name]
    graph = split_leave_one_out(make_planted_dataset(seed=0).build(), 0).train_graph
    params = ModelParams.init(graph.num_nodes, 16, 1 if name == "-M" else 8, num_layers,
                              rng_for(0, PARAM_INIT))
    triplets = sample_bpr_batch(graph, rng_for(0, 4), 2048)
    assert _assert_row_set_is_exact(graph, params, triplets, 1e-4, variant) is ALL_ROWS


@pytest.mark.parametrize("name", list(VARIANTS))
def test_row_set_objective_is_exact_on_the_gradient_check_instances(name):
    for dim in (2, 4):
        for units in (1, 2):
            for num_layers in (0, 1, 2):
                graph, params, triplets = _random_instance(dim, units, num_layers, 0)
                rows = _assert_row_set_is_exact(graph, params, triplets, 1e-3, VARIANTS[name])
                assert rows is ALL_ROWS


@pytest.mark.parametrize("num_layers", [0, 1, 2])
@pytest.mark.parametrize("name", list(VARIANTS))
def test_row_set_gradient_matches_finite_differences(name, num_layers):
    """Two triplets sample at most 4 of 60 items, so the last layer computes few item rows."""
    variant = VARIANTS[name]
    n_users, n_items, n_rel = 5, 60, 4
    interactions = {(j % n_users, j) for j in range(n_items)} | {(0, 7), (1, 30), (3, 2)}
    item_rel = {(j, j % n_rel) for j in range(n_items)} | {(5, 1), (17, 2)}
    graph = build_graph(sorted(interactions), [(0, 1), (1, 2), (2, 3), (3, 4)],
                        sorted(item_rel), n_users, n_items, n_rel)
    for seed in range(50):
        params = ModelParams.init(graph.num_nodes, 2, 1 if name == "-M" else 2, num_layers,
                                  np.random.default_rng(seed))
        for bank in params.banks:
            bank.keys *= 20.0
        params.ln_shift[...] = 0.3  # keeps -LN's aggregates off the activation kink
        params.ln_eps = 1e-2
        if _kink_margin(graph, params, variant) >= 1e-4:
            break
    else:
        pytest.fail("no kink-free parameters drawn")
    users, pos, neg = sample_bpr_batch(graph, np.random.default_rng(3), 2)
    assert len(set(pos.tolist()) | set(neg.tolist())) <= 4
    _, grad = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, variant)

    objective = _vector_objective(graph, params, users, pos, neg, 1e-3, variant)
    report = de.finite_diff_check(objective, params.to_vector(), grad)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_coord}"


def test_an_item_missing_from_the_row_set_poisons_the_loss(monkeypatch):
    g = _small_world(num_items=120)  # a batch of 4 reads under half of the nodes
    cfg = TrainingConfig(dim=4, layers=2, memory_units=2, batch_size=4, epochs=1, seed=0)
    params = ModelParams.init(g.num_nodes, 4, 2, 2, rng_for(0, PARAM_INIT))

    def dropping_an_item(graph, p, variant, rows):
        mask = rows.mask.copy()
        mask[graph.num_users + np.flatnonzero(mask[graph.num_users:])[0]] = False
        return forward(graph, p, variant, RowSet(graph, mask))

    monkeypatch.setattr(training, "forward", dropping_an_item)
    with np.errstate(invalid="ignore"):
        with pytest.raises(de.NonFiniteError, match="non-finite loss in batch 0"):
            train_epoch(g, params, cfg, rng_for(0, 4))


# ---------------------------------------------------------------------------
# a stack of parameter sets: each row is evaluated as it would be alone


def _stacked(params, stack):
    return ModelParams(stack, params.num_nodes, params.dim, params.num_units, params.ln_eps)


def _bitwise_equal(a, b) -> bool:
    """Equal bits, except that a NaN's sign bit is not compared."""
    a, b = np.asarray(a), np.asarray(b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def _assert_stack_rows_are_single_evaluations(graph, params, triplets, reg, variant, stack,
                                              rows=ALL_ROWS):
    """The stacked loss and H* against one-set evaluations, row by row, bit for bit."""
    losses = bpr_batch_loss(graph, _stacked(params, stack), *triplets, reg, variant)
    hstar = forward(graph, _stacked(params, stack), variant, rows).hstar
    assert losses.shape == (len(stack),) and hstar.shape == (len(stack), graph.num_nodes,
                                                             params.dim * (params.num_layers + 1))
    for k, vec in enumerate(stack):
        one = params.with_vector(vec)
        loss = bpr_batch_loss(graph, one, *triplets, reg, variant)
        assert isinstance(loss, float)
        assert _bitwise_equal(losses[k], loss), k
        assert _bitwise_equal(hstar[k], forward(graph, one, variant, rows).hstar), k
    return losses


@pytest.mark.parametrize("name", list(VARIANTS))
def test_stacked_rows_equal_single_evaluations_on_gradient_check_instances(name):
    """14-node instances, where the objective computes every row."""
    for dim, units, num_layers in ((2, 1, 0), (2, 2, 1), (4, 2, 2), (3, 1, 2), (8, 4, 2)):
        graph, params, triplets = _random_instance(dim, units, num_layers, 0)
        rng = np.random.default_rng(dim * units + num_layers)
        for count in (1, 2, 5):
            stack = params.vector + rng.normal(scale=1e-3, size=(count, params.num_params))
            _assert_stack_rows_are_single_evaluations(graph, params, triplets, 1e-3,
                                                      VARIANTS[name], stack)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_stacked_rows_equal_single_evaluations_on_a_row_set_batch(name):
    """A planted batch that reads under half of the nodes takes the masked row set.

    The rows it leaves out are NaN in each set's H*, and a NaN parameter in
    one set poisons that set's loss only.
    """
    graph = split_leave_one_out(make_planted_dataset(num_users=30, num_items=300,
                                                     num_relations=5, seed=2).build(),
                                2).train_graph
    params = ModelParams.init(graph.num_nodes, 4, 1 if name == "-M" else 2, 2,
                              rng_for(2, PARAM_INIT))
    users, pos, neg = triplets = sample_bpr_batch(graph, rng_for(2, 4), 6)
    assert 2 * (graph.num_users + len(pos) + len(neg)) < graph.num_nodes
    mask = np.zeros(graph.num_nodes, dtype=bool)
    mask[:graph.num_users] = True
    mask[graph.num_users + np.concatenate([pos, neg])] = True
    rows = RowSet(graph, mask)
    stack = params.vector + np.random.default_rng(1).normal(scale=1e-3,
                                                            size=(4, params.num_params))
    variant = VARIANTS[name]
    _assert_stack_rows_are_single_evaluations(graph, params, triplets, 1e-3, variant, stack,
                                              rows)
    hstar = forward(graph, _stacked(params, stack), variant, rows).hstar
    assert np.isnan(hstar[:, ~mask]).all() and np.isfinite(hstar[:, mask]).all()

    stack[1, 0] = np.nan  # user 0's embedding in the second set
    with np.errstate(invalid="ignore"):
        losses = _assert_stack_rows_are_single_evaluations(graph, params, triplets, 1e-3,
                                                           variant, stack, rows)
    assert np.isnan(losses[1]) and np.isfinite(np.delete(losses, 1)).all()


@pytest.mark.parametrize("num_layers", [0, 1, 2])
def test_a_stacked_forward_keeps_no_step_caches(num_layers):
    """One set records a step cache per layer for backward; a stack, which
    backward refuses, records none."""
    graph, params, _ = _random_instance(3, 2, num_layers, 0)
    one = forward(graph, params)
    assert len(one.step_caches) == num_layers
    assert all(cache.normed.shape == (graph.num_nodes, 3) for cache in one.step_caches)
    state = forward(graph, _stacked(params, np.stack([params.vector, params.vector])))
    assert state.step_caches == [] and len(state.layers) == num_layers + 1
    assert _bitwise_equal(state.hstar[1], one.hstar)


def test_what_trains_or_saves_refuses_a_stack(tmp_path):
    graph, params, (users, pos, neg) = _random_instance(2, 1, 1, 0)
    stacked = _stacked(params, np.stack([params.vector, params.vector]))
    state = forward(graph, stacked)
    assert state.hstar.shape[0] == 2
    with pytest.raises(de.ShapeError, match="bpr_batch_grad takes one parameter set"):
        bpr_batch_grad(graph, stacked, users, pos, neg, 1e-3)
    with pytest.raises(de.ShapeError, match="backward takes one parameter set"):
        training.backward(graph, stacked, state, np.zeros_like(state.hstar))
    with pytest.raises(de.ShapeError, match="not of a stack"):
        training.backward(graph, params, state, np.zeros_like(state.hstar))
    with pytest.raises(de.ShapeError, match="save_checkpoint takes one parameter set"):
        save_checkpoint(tmp_path / "model.ckpt", stacked, graph.num_users, graph.num_items,
                        graph.num_relations)
    assert not (tmp_path / "model.ckpt").exists()


# ---------------------------------------------------------------------------
# checkpoints


def _trained(tmp_path, epochs=2):
    g = _small_world()
    cfg = TrainingConfig(dim=4, layers=2, memory_units=2, batch_size=16,
                         epochs=epochs, seed=5)
    params, adam, losses = train_model(g, cfg)
    return g, cfg, params, adam, losses


def test_checkpoint_round_trip_bitwise(tmp_path):
    g, cfg, params, adam, losses = _trained(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, g.num_users, g.num_items, g.num_relations,
                    adam, epoch=2, loss=losses[-1])
    ckpt = load_checkpoint(path)
    assert np.array_equal(ckpt.params.to_vector(), params.to_vector())
    assert ckpt.params.ln_eps == params.ln_eps
    assert np.array_equal(ckpt.adam_state.m, adam.m)
    assert np.array_equal(ckpt.adam_state.v, adam.v)
    assert ckpt.adam_state.step == adam.step
    assert (ckpt.epoch, ckpt.loss) == (2, losses[-1])
    assert (ckpt.num_users, ckpt.num_items, ckpt.num_relations) == (12, 30, 3)
    # byte-for-byte stable on re-save
    save_checkpoint(tmp_path / "again.ckpt", ckpt.params, 12, 30, 3,
                    ckpt.adam_state, epoch=2, loss=losses[-1])
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_without_adam(tmp_path):
    g, cfg, params, _, _ = _trained(tmp_path)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, params, 12, 30, 3)
    assert load_checkpoint(path).adam_state is None


def test_checkpoint_truncated(tmp_path):
    g, cfg, params, adam, _ = _trained(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, 12, 30, 3, adam)
    data = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(data[:-1])
    with pytest.raises(CheckpointTruncatedError):
        load_checkpoint(tmp_path / "cut.ckpt")


def test_checkpoint_bad_magic(tmp_path):
    g, cfg, params, _, _ = _trained(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, 12, 30, 3)
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTMAGIC"
    (tmp_path / "bad.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointMagicError):
        load_checkpoint(tmp_path / "bad.ckpt")


def test_checkpoint_unsupported_version(tmp_path):
    import struct
    g, cfg, params, _, _ = _trained(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, 12, 30, 3)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8, 999)
    (tmp_path / "v999.ckpt").write_bytes(bytes(data))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(tmp_path / "v999.ckpt")


def _header(users, dim, layers, units):
    return _HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, users, 0, 0, dim, layers, units,
                        0, 0, float("nan"), 1e-6)


def test_checkpoint_header_too_large_for_the_file_fails_before_allocating(tmp_path):
    # I = 2^32 - 1 and d = 2^16 would ask for ~2 PiB; the file has 64 payload bytes.
    path = tmp_path / "huge.ckpt"
    path.write_bytes(_header(2**32 - 1, 2**16, 1, 1) + bytes(64))
    assert path.stat().st_size == 124
    with pytest.raises(CheckpointTruncatedError, match="the header needs"):
        load_checkpoint(path)


@pytest.mark.parametrize("users, dim, units", [(3, 2, 0), (3, 0, 1), (0, 2, 1)])
def test_checkpoint_header_without_units_dims_or_nodes_is_refused(tmp_path, users, dim, units):
    # The payload matches the header, so only the header check can refuse it.
    count = users * dim + 8 * units * (dim * dim + dim + 1) + 2 * dim
    path = tmp_path / "empty.ckpt"
    path.write_bytes(_header(users, dim, 1, units) + bytes(8 * count))
    with pytest.raises(CheckpointError, match=f"d={dim}, M={units} and {users} nodes"):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_are_refused(tmp_path):
    g, cfg, params, adam, _ = _trained(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, 12, 30, 3, adam)
    (tmp_path / "long.ckpt").write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="8 trailing bytes"):
        load_checkpoint(tmp_path / "long.ckpt")


_TRAIN_AND_SAVE = """
import sys
from dgnnrec.hetgraph import split_leave_one_out
from dgnnrec.synthetic import make_planted_dataset
from dgnnrec.training import TrainingConfig, save_checkpoint, train_model
g = make_planted_dataset(seed=0).build()
split = split_leave_one_out(g, seed=0)
params, adam, losses = train_model(split.train_graph, TrainingConfig(epochs=3, seed=0))
save_checkpoint(sys.argv[1], params, g.num_users, g.num_items, g.num_relations, adam,
                epoch=3, loss=losses[-1])
"""


def test_planted_checkpoint_bytes_are_pinned(tmp_path):
    # Pins the checkpoint layout and the training arithmetic. The BLAS thread
    # count changes the last bits of some products, so a child process trains
    # on one thread; the value also assumes this OpenBLAS build's CPU kernel
    # (unverified on other CPUs).
    path = tmp_path / "model.ckpt"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(dgnnrec.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-c", _TRAIN_AND_SAVE, str(path)], env=env, check=True)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "b3d8862acbfaa73fe5df643b07b0c9aab2ad3c309420fa65d5477dc90a8e87d5")
    ckpt = load_checkpoint(path)
    assert ckpt.params.vector.flags.writeable
    save_checkpoint(tmp_path / "again.ckpt", ckpt.params, ckpt.num_users, ckpt.num_items,
                    ckpt.num_relations, ckpt.adam_state, ckpt.epoch, ckpt.loss)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_train_model_leaves_initial_params_untouched():
    g = _small_world()
    cfg = TrainingConfig(dim=4, layers=2, memory_units=2, batch_size=16, epochs=2, seed=3)
    initial = ModelParams.init(g.num_nodes, 4, 2, 2, rng_for(3, PARAM_INIT))
    before = initial.to_vector().tobytes()
    out, _, _ = train_model(g, cfg, initial=initial)
    assert initial.to_vector().tobytes() == before
    assert not np.shares_memory(out.vector, initial.vector)
    again, _, _ = train_model(g, cfg, initial=initial)
    assert again.to_vector().tobytes() == out.to_vector().tobytes()


def test_training_and_scoring_build_the_layout_once(monkeypatch):
    g = _small_world()
    builds = count_layout_builds(monkeypatch)
    cfg = TrainingConfig(dim=4, layers=2, memory_units=2, batch_size=16, epochs=3, seed=0)
    params, _, _ = train_model(g, cfg)
    forward(g, params)
    assert sorted(name for name, _ in builds) == sorted(LAYOUT)
    assert all(graph is g for _, graph in builds)


def test_resume_reproduces_loss_trajectory(tmp_path):
    g = _small_world()
    cfg = TrainingConfig(dim=4, layers=1, memory_units=2, batch_size=16,
                         epochs=4, seed=11)
    params_full, adam_full, losses_full = train_model(g, cfg)

    half = TrainingConfig(dim=4, layers=1, memory_units=2, batch_size=16,
                          epochs=2, seed=11)
    params_h, adam_h, losses_h = train_model(g, half)
    path = tmp_path / "mid.ckpt"
    save_checkpoint(path, params_h, 12, 30, 3, adam_h, epoch=2)
    ckpt = load_checkpoint(path)
    params_r, adam_r, losses_r = train_model(
        g, cfg, initial=ckpt.params, initial_adam=ckpt.adam_state,
        start_epoch=ckpt.epoch)
    assert losses_h + losses_r == losses_full
    assert np.array_equal(params_r.to_vector(), params_full.to_vector())
