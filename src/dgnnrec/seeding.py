"""Deterministic RNG derivation: one root seed, one stream per purpose.

Every source of randomness in the package (parameter init, train/test
split, eval negatives, triplet sampling, synthetic data) draws from its
own child stream of a single root seed, so any component can be
reproduced in isolation.
"""

from __future__ import annotations

import numpy as np

# Purpose tags. Never renumber: manifests and checkpoints written by old
# runs must stay reproducible.
SPLIT = 1
NEGATIVES = 2
PARAM_INIT = 3
TRIPLETS = 4
DATASET = 5


def rng_for(seed: int, purpose: int, *extra: int) -> np.random.Generator:
    """Generator for (root seed, purpose, optional sub-keys like epoch); ValueError for a seed < 0."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed!r}")
    entropy = [int(seed), int(purpose)] + [int(x) for x in extra]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
