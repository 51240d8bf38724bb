"""The package's public surface: what ``dgnnrec.__all__`` promises must exist."""

import dgnnrec

REMOVED = ("predict", "recalibrate", "sample_bpr_triplet", "sparsity_report")


def test_public_names_resolve_once_and_removed_names_are_gone():
    assert len(dgnnrec.__all__) == len(set(dgnnrec.__all__))
    missing = [name for name in dgnnrec.__all__ if not hasattr(dgnnrec, name)]
    assert missing == []
    assert [name for name in REMOVED
            if name in dgnnrec.__all__ or hasattr(dgnnrec, name)] == []
