"""The package's public surface: what ``dgnnrec.__all__`` promises must exist."""

import inspect

import dgnnrec
from dgnnrec import model, training

REMOVED = ("predict", "recalibrate", "sample_bpr_triplet", "sparsity_report")


def test_public_names_resolve_once_and_removed_names_are_gone():
    assert len(dgnnrec.__all__) == len(set(dgnnrec.__all__))
    missing = [name for name in dgnnrec.__all__ if not hasattr(dgnnrec, name)]
    assert missing == []
    assert [name for name in REMOVED
            if name in dgnnrec.__all__ or hasattr(dgnnrec, name)] == []


def test_the_graph_owns_its_edge_layout():
    """No entry point takes an edge cache: each reads the graph's own layout."""
    for fn in (model.layer_step, model.backward, training.bpr_batch_loss,
               training.bpr_batch_grad, training.train_epoch):
        assert "edge_cache" not in inspect.signature(fn).parameters, fn.__name__
