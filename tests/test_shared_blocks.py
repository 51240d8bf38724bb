"""The blocked kernels on the caller and the helper thread (``model._run_blocks``).

A budget of a few floats splits every planted-sized call into many
blocks. ``model._usable_cpus`` then decides the path: 2 shares the
blocks with the helper thread whatever the host has, 1 runs them all on
the caller.
"""

import hashlib
import multiprocessing
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_params
from dgnnrec import evaluation as ev
from dgnnrec import model, training
from dgnnrec.hetgraph import sample_bpr_batch, split_leave_one_out
from dgnnrec.model import ModelParams, backward, forward
from dgnnrec.synthetic import make_planted_dataset
from dgnnrec.training import TrainingConfig, bpr_batch_grad, train_epoch

TINY_BUDGET = 2 * 2 * 4  # 2-row mixing blocks at d = 4, M = 2; 1-edge chunks


@pytest.fixture
def fast_switching():
    """A short interpreter switch interval, so that the helper gets the GIL between tiny blocks.

    At the default 5 ms a planted-sized call of tiny blocks can end before
    the woken helper is scheduled, and the caller then runs every block.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _planted():
    return make_planted_dataset(num_users=30, num_items=160, num_relations=5,
                                interactions_per_user=12, seed=0).build()


def _record_block_threads(monkeypatch) -> set:
    """From here on, the id of every thread that runs a block is added to the set returned."""
    threads = set()
    share = model._SharedBlocks.__init__

    def recording(job, blocks, work, scratch):
        def run(block, buf):
            threads.add(threading.get_ident())
            return work(block, buf)
        share(job, blocks, run, scratch)

    monkeypatch.setattr(model._SharedBlocks, "__init__", recording)
    return threads


def _outputs(graph, split) -> list:
    """Bytes of the outputs that run through the blocked kernels, in a fixed order."""
    one = random_params(graph, 4, 2, 2)
    stack = ModelParams(np.stack([one.vector, 0.5 * one.vector]), graph.num_nodes, 4, 2)
    out = []
    for p in (one, stack):
        state = forward(graph, p)
        out += [a.tobytes() for a in state.layers + [state.hstar]]
    state = forward(graph, one, for_backward=True)
    hstar = state.hstar
    out.append(backward(graph, one, state, np.cos(hstar)).vector.tobytes())
    users, pos, neg = sample_bpr_batch(graph, np.random.default_rng(1), 64)
    out.append(bpr_batch_grad(graph, one, users, pos, neg, 1e-3, model.FULL_VARIANT)[1].tobytes())
    cfg = TrainingConfig(dim=4, layers=2, memory_units=2, batch_size=128, epochs=1)
    trained, _, loss = train_epoch(split.train_graph, random_params(split.train_graph, 4, 2, 2),
                                   cfg, np.random.default_rng(2))
    out += [trained.vector.tobytes(), repr(loss).encode()]
    q = model.recalibrated_users(hstar, graph)
    out.append(ev._candidate_ranks(q, hstar, graph.num_users, split.test_users,
                                   split.test_items, split.eval_negatives).tobytes())
    return out


def test_the_helper_changes_no_bit(monkeypatch, fast_switching):
    graph = _planted()
    split = split_leave_one_out(graph, seed=0)
    monkeypatch.setattr(model, "BLOCK_FLOATS", TINY_BUDGET)
    threads = _record_block_threads(monkeypatch)
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    serial = _outputs(graph, split)
    assert not threads  # one CPU: the caller runs every block itself
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    shared = _outputs(graph, split)
    assert len(threads) == 2  # the caller and the helper both ran blocks
    assert len(shared) == len(serial)
    for i, (a, b) in enumerate(zip(shared, serial)):
        assert a == b, f"output {i} differs"


class BlockFailed(RuntimeError):
    pass


def test_an_error_in_a_helper_block_reaches_the_caller(monkeypatch, fast_switching):
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    main = threading.get_ident()
    helper_failed = threading.Event()

    def work(block, _):
        if threading.get_ident() == main:
            helper_failed.wait(10)  # hold the caller until the helper has raised
            return block
        helper_failed.set()
        raise BlockFailed(f"block {block}")

    with pytest.raises(BlockFailed, match="block"):
        model._run_blocks(list(range(8)), work)
    assert helper_failed.is_set()
    # the helper survives its error: the next call shares its blocks again
    threads = _record_block_threads(monkeypatch)
    graph = _planted()
    monkeypatch.setattr(model, "BLOCK_FLOATS", TINY_BUDGET)
    got = forward(graph, random_params(graph, 4, 2, 2)).hstar
    assert len(threads) == 2
    monkeypatch.setattr(model, "_usable_cpus", lambda: 1)
    assert got.tobytes() == forward(graph, random_params(graph, 4, 2, 2)).hstar.tobytes()


def test_an_error_in_a_caller_block_waits_for_the_helper(monkeypatch):
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    main = threading.get_ident()
    helper_started, helper_done = threading.Event(), threading.Event()

    def work(block, _):
        if threading.get_ident() != main:
            helper_started.set()
            time.sleep(0.05)
            helper_done.set()
            return block
        helper_started.wait(10)
        raise BlockFailed(f"block {block}")

    with pytest.raises(BlockFailed):
        model._run_blocks(list(range(8)), work)
    assert helper_done.is_set()  # no block is still running once the error is raised


def test_the_callers_numpy_error_state_holds_on_the_helper(monkeypatch):
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    main = threading.get_ident()
    helper_ran = threading.Event()

    def work(block, _):
        if threading.get_ident() == main:
            helper_ran.wait(10)
            return None
        helper_ran.set()
        return np.sqrt(np.array([-1.0]))  # invalid: raises only under the caller's errstate

    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            model._run_blocks(list(range(8)), work)
    assert helper_ran.is_set()


def _forward_in_a_child():
    """A forked child's body: a multi-block forward whose blocks the child's own helper shares."""
    threads = _record_block_threads(pytest.MonkeyPatch())
    graph = _planted()
    hstar = forward(graph, random_params(graph, 4, 2, 2)).hstar
    if not np.isfinite(hstar).all() or len(threads) != 2:
        sys.exit(3)


def test_a_forked_child_starts_its_own_helper(monkeypatch, fast_switching):
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(model, "BLOCK_FLOATS", TINY_BUDGET)
    graph = _planted()
    forward(graph, random_params(graph, 4, 2, 2))  # the helper thread is up in this process
    assert any(t.name == "dgnnrec-blocks" for t in threading.enumerate())
    # the child inherits the patched budget and CPU count and the switch
    # interval, but not the helper thread
    child = multiprocessing.get_context("fork").Process(target=_forward_in_a_child)
    child.start()
    child.join(120)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("the forked child hung in a multi-block forward")
    assert child.exitcode == 0


def test_no_traced_entry_point_runs_on_the_helper(tmp_path, monkeypatch, fast_switching):
    """The benchmark's tracer keeps one span stack, so every traced call must be the caller's."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer as tracing

    opened = set()

    class ThreadTracer(tracing.Tracer):
        def _open(self, name):
            opened.add((name, threading.get_ident()))
            return super()._open(name)

    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(model, "BLOCK_FLOATS", TINY_BUDGET)
    threads = _record_block_threads(monkeypatch)
    restore, _ = tracing.install(ThreadTracer())
    try:
        graph = _planted()
        split = split_leave_one_out(graph, seed=0)
        cfg = TrainingConfig(dim=4, layers=2, memory_units=2, batch_size=256, epochs=1)
        params, _, _ = training.train_model(split.train_graph, cfg)
        training.save_checkpoint(tmp_path / "m.ckpt", params, graph.num_users,
                                 graph.num_items, graph.num_relations)
        params = training.load_checkpoint(tmp_path / "m.ckpt").params
        state = forward(split.train_graph, params)
        ev.evaluate(state.hstar, split, split.train_graph)
        ev.export_memory_attention(state, split.train_graph, params.banks, tmp_path / "attn")
    finally:
        restore()
    assert len(threads) == 2
    names = {name for name, _ in opened}
    assert {"model.forward", "model.backward", "evaluation.evaluate"} <= names
    assert {thread for _, thread in opened} == {threading.get_ident()}


def test_serial_and_shared_training_write_equal_parameters(monkeypatch):
    """A whole planted run at a small budget: the parameter bytes do not depend on the helper."""
    graph = _planted()
    cfg = TrainingConfig(dim=4, layers=2, memory_units=2, batch_size=256, epochs=2)
    monkeypatch.setattr(model, "BLOCK_FLOATS", 4 * TINY_BUDGET)
    digests = []
    for cpus in (1, 2):
        monkeypatch.setattr(model, "_usable_cpus", lambda cpus=cpus: cpus)
        params, _, losses = training.train_model(graph, cfg)
        digests.append((hashlib.sha256(params.vector.tobytes()).hexdigest(), losses))
    assert digests[0] == digests[1]


def test_concurrent_callers_run_every_block_once(monkeypatch):
    """Four caller threads share the one helper; each block of each call runs exactly once."""
    monkeypatch.setattr(model, "_usable_cpus", lambda: 2)
    errors = []

    def caller(seed):
        try:
            for call in range(100):
                runs = [0] * 37
                def work(block, _):
                    runs[block] += 1
                    return block * seed
                assert model._run_blocks(list(range(37)), work) == [b * seed for b in range(37)]
                assert runs == [1] * 37, f"call {call}: {runs}"
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(1, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]
