"""The package's public surface: what ``dgnnrec.__all__`` promises must exist."""

import dataclasses
import inspect

import pytest

import dgnnrec
from dgnnrec import bench, cli, diffengine, hetgraph, model, synthetic, training

REMOVED = ("predict", "recalibrate", "sample_bpr_triplet", "sparsity_report")


def test_public_names_resolve_once_and_removed_names_are_gone():
    assert len(dgnnrec.__all__) == len(set(dgnnrec.__all__))
    missing = [name for name in dgnnrec.__all__ if not hasattr(dgnnrec, name)]
    assert missing == []
    assert [name for name in REMOVED
            if name in dgnnrec.__all__ or hasattr(dgnnrec, name)] == []


def test_the_cli_has_one_config_reader():
    """Every command reads a config file through ``_config_values``; nothing writes one."""
    assert [name for name in ("save_config", "load_config") if hasattr(cli, name)] == []


def test_a_graph_stores_one_adjacency_per_relation():
    """``iu`` and ``ri`` are derived from ``ui`` and ``ir``, so no constructor takes them."""
    assert [f.name for f in dataclasses.fields(hetgraph.HeteroGraph)] == [
        "num_users", "num_items", "num_relations", "ui", "uu", "ir"]


def test_the_graph_owns_its_edge_layout():
    """No entry point takes an edge cache: each reads the graph's own layout."""
    for fn in (model.layer_step, model.backward, training.bpr_batch_loss,
               training.bpr_batch_grad, training.train_epoch):
        assert "edge_cache" not in inspect.signature(fn).parameters, fn.__name__


@pytest.mark.parametrize("fn, names", [
    (diffengine.leaky_relu, ["x"]),
    (diffengine.leaky_relu_backward, ["x", "grad"]),
    (diffengine.finite_diff_check, ["f", "params", "grad", "h", "tol"]),
    (bench.scaling_table, ["base_edges", "reps", "seed"]),
    (diffengine.AdamState.zeros, ["shape"]),
    (diffengine.AdamState, ["m", "v", "step"]),
    (model.ModelParams.init, ["num_nodes", "dim", "num_units", "num_layers", "rng"]),
    (hetgraph.sample_bpr_batch, ["train_graph", "rng", "size"]),
    (hetgraph.split_leave_one_out, ["graph", "seed"]),
    (training.check_model_gradients, ["dims", "memory_units", "layers", "seed", "h", "tol",
                                      "variant"]),
    (training.train_model, ["train_graph", "config", "variant", "initial", "on_epoch"]),
    (training.train_epoch, ["graph", "params", "config", "rng", "adam_state", "variant"]),
    (diffengine.adam_step, ["params", "grads", "state", "lr"]),
    (training.save_checkpoint, ["path", "params", "num_users", "num_items", "num_relations",
                                "epoch", "loss"]),
    (synthetic.make_planted_dataset, ["num_users", "num_items", "num_relations", "seed",
                                      "interactions_per_user"]),
], ids=lambda x: x.__qualname__ if callable(x) else "")
def test_settings_no_caller_sets_are_constants(fn, names):
    """These take only the parameters their callers set; the rest are module constants."""
    assert list(inspect.signature(fn).parameters) == names


def test_training_calls_no_private_model_helper():
    private = [name for name, obj in vars(training).items()
               if name.startswith("_") and getattr(obj, "__module__", None) == model.__name__]
    assert private == []
