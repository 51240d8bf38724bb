import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dgnnrec
from conftest import score
from dgnnrec import diffengine as de
from dgnnrec.hetgraph import build_graph, split_leave_one_out
from dgnnrec.model import EdgeCache, FULL_VARIANT, ModelParams, forward
from dgnnrec.seeding import PARAM_INIT, rng_for
from dgnnrec.synthetic import make_planted_dataset
from dgnnrec.training import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _HEADER, CheckpointError,
                              CheckpointMagicError, CheckpointTruncatedError,
                              CheckpointVersionError, TrainingConfig,
                              _scatter_rows, bpr_batch_grad, bpr_loss, load_checkpoint,
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


def _small_world(seed=0):
    rng = np.random.default_rng(seed)
    edges = set()
    for u in range(12):
        for j in rng.choice(30, size=4, replace=False):
            edges.add((u, int(j)))
    return build_graph(sorted(edges), [(0, 1), (2, 3), (4, 5)],
                       [(j, j % 3) for j in range(30)], 12, 30, 3)


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
    cache = EdgeCache(g)
    users, pos, neg = np.array([0]), np.array([0]), np.array([1])
    emb_slice = dict(params.group_slices())["embeddings"]

    def margin_of(p):
        state = forward(g, p, FULL_VARIANT, cache)
        return score(0, 0, state.hstar, g) - score(0, 1, state.hstar, g)

    margins = [margin_of(params)]
    vec = params.to_vector()
    for _ in range(100):
        _, grad = bpr_batch_grad(g, params.with_vector(vec), users, pos, neg,
                                 0.0, FULL_VARIANT, cache)
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
        "02b885fe7e55b50582086a03cc7c414d0cc36310dda6696c0ac9d3321c3b35c9")
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
