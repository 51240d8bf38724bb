"""Synthetic worlds: planted multi-order factor preferences, random graphs.

The planted generator draws 5-dimensional latent factor vectors and
scores each user-item pair with a spectrum of factor interactions:
a first-order term, a second-order term (two user aspect vectors
modulating each other on the item factors) and a third-order term, plus
per-item popularity. The higher-order terms give the preference matrix
an effective rank well above the model's embedding width, so ranking
quality depends on what message passing can reconstruct, not just on
per-node free embeddings. Social ties connect users with similar factor
aspects and relation nodes group items by factor prototypes, so both
auxiliary structures carry real signal about the interaction process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hetgraph import HeteroGraph, build_graph
from .seeding import DATASET, rng_for


@dataclass(frozen=True)
class PlantedDataset:
    interactions: np.ndarray     # (E, 2) user, item
    social: np.ndarray           # (E, 2) undirected pairs, one orientation
    item_relations: np.ndarray   # (E, 2) item, relation node
    num_users: int
    num_items: int
    num_relations: int

    def build(self) -> HeteroGraph:
        return build_graph(self.interactions, self.social, self.item_relations,
                           self.num_users, self.num_items, self.num_relations)


NUM_FACTORS = 5
ORDER_WEIGHTS = (0.35, 0.5, 0.9)
POPULARITY_WEIGHT = 0.3
CHOICE_NOISE = 0.3
SOCIAL_DEGREE = 6
RELATIONS_PER_ITEM = 2


def make_planted_dataset(num_users: int = 200, num_items: int = 500,
                         num_relations: int = 20, seed: int = 0,
                         interactions_per_user: int = 30) -> PlantedDataset:
    rng = rng_for(seed, DATASET)
    f = NUM_FACTORS
    aspect1 = rng.normal(size=(num_users, f))
    aspect2 = rng.normal(size=(num_users, f))
    aspect3 = rng.normal(size=(num_users, f))
    item_f = rng.normal(size=(num_items, f))
    popularity = rng.normal(size=num_items)

    w1, w2, w3 = ORDER_WEIGHTS
    s1 = aspect1 @ item_f.T
    s2 = aspect2 @ item_f.T
    s3 = aspect3 @ item_f.T
    affinity = (w3 * s1 * s2 * s3 / f
                + w2 * s1 * s2 / np.sqrt(f)
                + w1 * s1
                + POPULARITY_WEIGHT * popularity)

    noisy = affinity + CHOICE_NOISE * rng.gumbel(size=affinity.shape)
    interactions = _top_pairs(noisy, interactions_per_user)

    # Social ties to the most factor-similar users; symmetrized at build time.
    user_f = np.concatenate([aspect1, aspect2, aspect3], axis=1)
    sim = user_f @ user_f.T
    np.fill_diagonal(sim, -np.inf)
    social = np.unique(np.sort(_top_pairs(sim, SOCIAL_DEGREE), axis=1), axis=0)

    prototypes = rng.normal(size=(num_relations, f))
    item_relations = _top_pairs(item_f @ prototypes.T, RELATIONS_PER_ITEM)
    return PlantedDataset(interactions, social, item_relations,
                          num_users, num_items, num_relations)


def _top_pairs(scores: np.ndarray, k: int) -> np.ndarray:
    """The sorted, distinct (row, column) pairs of each row's k highest scores."""
    top = np.argpartition(-scores, k, axis=1)[:, :k]
    rows = np.repeat(np.arange(scores.shape[0], dtype=np.int64), k)
    return np.unique(np.column_stack([rows, top.ravel()]), axis=0)


def make_random_graph(num_users: int, num_items: int, num_relations: int,
                      num_interactions: int, num_social: int, num_item_relations: int,
                      seed: int = 0) -> HeteroGraph:
    """Uniform random graph; duplicate draws collapse, so counts are upper bounds."""
    rng = rng_for(seed, DATASET, num_users, num_items, num_relations)
    ui = np.column_stack([rng.integers(0, num_users, num_interactions),
                          rng.integers(0, num_items, num_interactions)])
    uu = np.column_stack([rng.integers(0, num_users, num_social),
                          rng.integers(0, num_users, num_social)])
    uu = uu[uu[:, 0] != uu[:, 1]]
    ir = np.column_stack([rng.integers(0, num_items, num_item_relations),
                          rng.integers(0, num_relations, num_item_relations)])
    return build_graph(ui, uu, ir, num_users, num_items, num_relations)
