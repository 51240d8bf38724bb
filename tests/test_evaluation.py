import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dgnnrec import evaluation as ev
from dgnnrec import model
from dgnnrec.hetgraph import Split, build_graph, split_leave_one_out
from dgnnrec.model import EdgeType, forward
from dgnnrec.synthetic import make_planted_dataset
from dgnnrec.training import TrainingConfig, train_model


def _flat_graph(num_users, num_items):
    # one interaction per user keeps scoring free of social terms
    return build_graph([(u, 0) for u in range(num_users)], [], [],
                       num_users, num_items, 0)


def _hstar_with_item_scores(num_users, item_scores):
    """H* where user rows are e1 and item rows encode desired scores/2."""
    num_items = len(item_scores)
    hstar = np.zeros((num_users + num_items, 2))
    hstar[:num_users, 0] = 1.0
    hstar[num_users:, 0] = np.asarray(item_scores) / 2.0
    hstar[num_users:, 1] = 1.0
    return hstar


def _split_for(graph, users, positives, negatives):
    return Split(graph, np.asarray(users, dtype=np.int64),
                 np.asarray(positives, dtype=np.int64),
                 np.asarray(negatives, dtype=np.int64),
                 num_skipped=0, seed=0)


def _one_user(item_scores, positive, negatives, n=10):
    """(HR@n, NDCG@n) that ``evaluate`` gives user 0 of a one-user split."""
    g = _flat_graph(1, len(item_scores))
    report = ev.evaluate(_hstar_with_item_scores(1, item_scores),
                         _split_for(g, [0], [positive], [negatives]), g, (n,))
    return report.hr[n], report.ndcg[n]


# ---------------------------------------------------------------------------
# one user's rank


def test_rank_one_scores_full_credit():
    scores = np.zeros(101)
    scores[0] = 10.0
    assert _one_user(scores, 0, np.arange(1, 101)) == (1, 1.0)


def test_rank_three_ndcg_is_half():
    scores = np.zeros(101)
    scores[1], scores[2], scores[0] = 9.0, 8.0, 7.0  # positive item 0 at rank 3
    hit, ndcg = _one_user(scores, 0, np.arange(1, 101))
    assert hit == 1
    assert ndcg == pytest.approx(0.5)  # 1/log2(4)


def test_rank_outside_cutoff_scores_zero():
    scores = -np.arange(101.0)  # positive item 0 first... invert below
    scores[0] = -200.0           # positive dead last
    assert _one_user(scores, 0, np.arange(1, 101)) == (0, 0.0)


def test_rank_ties_break_by_ascending_item_id():
    scores = np.zeros(102)
    # all scores equal: positive=5 has ids 1..4 ahead of it
    negs = np.setdiff1d(np.arange(1, 102), [5])[:100]
    hit, ndcg = _one_user(scores, 5, negs)
    assert hit == 1
    assert ndcg == pytest.approx(1.0 / np.log2(6.0))  # rank 5
    # positive=0 wins every tie
    assert _one_user(scores, 0, np.arange(1, 101)) == (1, 1.0)


def test_rank_and_score_rejects_duplicates():
    scores = np.zeros(101)
    negs = np.arange(1, 101)
    negs[3] = 50  # duplicate
    with pytest.raises(ev.EvaluationError, match="duplicate candidate ids for user 0"):
        _one_user(scores, 0, negs)
    with pytest.raises(ev.EvaluationError, match="expected 100 negatives"):
        _one_user(scores, 0, np.arange(1, 50))  # wrong count
    # evaluate checks every row, not only the first
    g3 = _flat_graph(3, 101)
    for clash_at in (0, 99):
        negs3 = np.tile(np.arange(1, 101), (3, 1))
        negs3[2, clash_at] = 0 if clash_at else 50  # positive or another negative again
        split = _split_for(g3, [0, 1, 2], [0, 0, 0], negs3)
        with pytest.raises(ev.EvaluationError, match="duplicate candidate ids for user 2"):
            ev.evaluate(_hstar_with_item_scores(3, np.zeros(101)), split, g3)


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_two_users_mean():
    g = _flat_graph(2, 102)
    scores = np.zeros(102)
    scores[0] = 5.0    # user 0's positive: top
    scores[1] = -5.0   # user 1's positive: bottom
    hstar = _hstar_with_item_scores(2, scores)
    split = _split_for(g, [0, 1], [0, 1],
                       [np.arange(2, 102), np.arange(2, 102)])
    report = ev.evaluate(hstar, split, g, cutoffs=(10,))
    assert report.hr[10] == pytest.approx(0.5)
    assert report.tested_users == 2


def test_evaluate_perfect_ranking_everywhere():
    g = _flat_graph(4, 120)
    scores = np.zeros(120)
    scores[:4] = 100.0  # each user's positive u scores highest
    hstar = _hstar_with_item_scores(4, scores)
    negs = [np.arange(10, 110)] * 4
    split = _split_for(g, [0, 1, 2, 3], [0, 1, 2, 3], negs)
    report = ev.evaluate(hstar, split, g)
    for n in (5, 10, 20):
        assert report.hr[n] == 1.0
        assert report.ndcg[n] == 1.0


def test_evaluate_empty_test_set_errors():
    g = _flat_graph(2, 102)
    hstar = _hstar_with_item_scores(2, np.zeros(102))
    split = _split_for(g, [], [], np.empty((0, 100)))
    with pytest.raises(ev.EvaluationError):
        ev.evaluate(hstar, split, g)


def test_evaluate_random_scores_hit_rate_near_uniform():
    # uniform-rank oracle: positive lands in the top 10 of 101 w.p. 10/101
    rng = np.random.default_rng(7)
    num_users, num_items = 1000, 400
    g = _flat_graph(num_users, num_items)
    dstar = 8
    hstar = rng.normal(size=(num_users + num_items, dstar))
    positives = rng.integers(0, num_items, size=num_users)
    negatives = np.empty((num_users, 100), dtype=np.int64)
    for i, p in enumerate(positives):
        pool = np.setdiff1d(np.arange(num_items), [p])
        negatives[i] = rng.choice(pool, size=100, replace=False)
    split = _split_for(g, np.arange(num_users), positives, negatives)
    report = ev.evaluate(hstar, split, g, cutoffs=(10,))
    assert abs(report.hr[10] - 10 / 101) < 0.03


def test_metrics_monotone_in_cutoff_and_ndcg_below_hr():
    rng = np.random.default_rng(3)
    g = _flat_graph(50, 130)
    hstar = rng.normal(size=(180, 6))
    positives = rng.integers(0, 130, size=50)
    negatives = np.empty((50, 100), dtype=np.int64)
    for i, p in enumerate(positives):
        pool = np.setdiff1d(np.arange(130), [p])
        negatives[i] = rng.choice(pool, size=100, replace=False)
    split = _split_for(g, np.arange(50), positives, negatives)
    report = ev.evaluate(hstar, split, g, cutoffs=(5, 10, 20))
    assert report.hr[5] <= report.hr[10] <= report.hr[20]
    assert report.ndcg[5] <= report.ndcg[10] <= report.ndcg[20]
    for n in (5, 10, 20):
        assert report.ndcg[n] <= report.hr[n] <= 1.0


@settings(max_examples=25, deadline=None)
@given(st.floats(0.1, 50.0), st.floats(-20.0, 20.0))
def test_metrics_invariant_under_affine_score_transform(a, b):
    # score' = a*score + b realized through augmented embeddings
    rng = np.random.default_rng(11)
    num_users, num_items = 12, 140
    g = _flat_graph(num_users, num_items)
    users_rows = rng.normal(size=(num_users, 4))
    item_rows = rng.normal(size=(num_items, 4))
    base = np.vstack([np.hstack([users_rows, np.ones((num_users, 1))]),
                      np.hstack([item_rows, np.zeros((num_items, 1))])])
    shifted = np.vstack([np.hstack([users_rows, np.ones((num_users, 1))]),
                         np.hstack([a * item_rows, np.full((num_items, 1), b / 2.0)])])
    positives = rng.integers(0, num_items, size=num_users)
    negatives = np.empty((num_users, 100), dtype=np.int64)
    for i, p in enumerate(positives):
        pool = np.setdiff1d(np.arange(num_items), [p])
        negatives[i] = rng.choice(pool, size=100, replace=False)
    split = _split_for(g, np.arange(num_users), positives, negatives)
    r1 = ev.evaluate(base, split, g)
    r2 = ev.evaluate(shifted, split, g)
    assert r1.hr == r2.hr and r1.ndcg == r2.ndcg


def test_evaluate_rejects_non_finite_scores():
    g = _flat_graph(2, 102)
    split = _split_for(g, [0, 1], [0, 1], [np.arange(2, 102), np.arange(2, 102)])
    # NaN compares false, so an all-NaN H* used to rank every positive first.
    with pytest.raises(ev.EvaluationError, match="non-finite"):
        ev.evaluate(np.full((104, 2), np.nan), split, g)
    hstar = _hstar_with_item_scores(2, np.arange(102.0))
    hstar[2 + 57] = np.nan  # one negative of both users
    with pytest.raises(ev.EvaluationError, match="non-finite score for user 0"):
        ev.evaluate(hstar, split, g)
    with pytest.raises(ev.EvaluationError, match="non-finite score for user 1"):
        ev.evaluate(hstar, _split_for(g, [1], [1], [np.arange(2, 102)]), g)


def test_blocked_scoring_matches_one_block_and_names_later_users(monkeypatch):
    rng = np.random.default_rng(5)
    g = _flat_graph(5, 103)
    negs = np.tile(np.arange(1, 101), (5, 1))
    negs[3] += 2  # item 101 and 102 are negatives of user 3 alone
    split = _split_for(g, range(5), [0] * 5, negs)
    hstar = rng.standard_normal((5 + 103, 4))
    one_block = ev.evaluate(hstar, split, g)
    monkeypatch.setattr(model, "BLOCK_FLOATS", 2 * 101 * 4)  # 2 users' candidates per block
    assert ev.evaluate(hstar, split, g) == one_block
    bad = hstar.copy()
    bad[5 + 102] = np.inf
    with pytest.raises(ev.EvaluationError, match="non-finite score for user 3"):
        ev.evaluate(bad, split, g)
    negs = negs.copy()
    negs[4, 10] = negs[4, 11]
    with pytest.raises(ev.EvaluationError, match="duplicate candidate ids for user 4"):
        ev.evaluate(hstar, _split_for(g, range(5), [0] * 5, negs), g)


@pytest.mark.parametrize("blocks, users_per_block, num_users",
                         [(1, 64, 33), (2, 16, 33), (3, 8, 20), (18, 2, 37)])
def test_candidate_ranks_do_not_depend_on_the_blocks(blocks, users_per_block, num_users,
                                                     monkeypatch):
    """Blocks of 1, 2, 3 and many users rank as one; at 2 and many a one-user tail joins on."""
    rng = np.random.default_rng(blocks)
    num_items, d = 130, 4
    hstar = rng.standard_normal((num_users + num_items, d))
    hstar[num_users + 1::7] = hstar[num_users]  # exact ties, broken by item id
    q = rng.standard_normal((num_users, d))
    users = rng.permutation(num_users)
    cands = np.stack([rng.choice(num_items, 101, replace=False) for _ in users])
    positives, negatives = cands[:, 0], cands[:, 1:]
    monkeypatch.setattr(model, "BLOCK_FLOATS", users_per_block * 101 * d)
    assert len(model._row_blocks(num_users, 101 * d)) == blocks
    got = ev._candidate_ranks(q, hstar, num_users, users, positives, negatives)
    # each user alone: candidates ordered by score, then by ascending id
    want = []
    for u, row in zip(users, cands):
        scores = hstar[num_users + row] @ q[u]
        order = sorted(range(101), key=lambda c: (-scores[c], row[c]))
        want.append(1 + order.index(0))
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# sparsity groups


def _split_with_counts(counts, num_items=200):
    # user u gets counts[u] train interactions
    edges = [(u, j) for u, c in enumerate(counts) for j in range(c)]
    g = build_graph(edges, [], [], len(counts), num_items, 0)
    rng = np.random.default_rng(0)
    positives = np.full(len(counts), num_items - 1)
    negatives = np.tile(np.arange(90, 190), (len(counts), 1))
    return g, _split_for(g, np.arange(len(counts)), positives, negatives)


def test_sparsity_groups_quartiles_by_count():
    g, split = _split_with_counts([1, 2, 3, 4, 5, 6, 7, 8])
    hstar = np.random.default_rng(1).normal(size=(g.num_nodes, 4))
    groups = ev.evaluate(hstar, split, g).groups
    assert [g_.user_count for g_ in groups] == [2, 2, 2, 2]
    assert [g_.mean_train_interactions for g_ in groups] == [1.5, 3.5, 5.5, 7.5]
    means = [g_.mean_train_interactions for g_ in groups]
    assert means == sorted(means)


def test_sparsity_groups_tie_break_by_user_id():
    g, split = _split_with_counts([3, 3, 3, 3, 3, 3, 3, 3])
    hstar = np.random.default_rng(2).normal(size=(g.num_nodes, 4))
    groups = ev.evaluate(hstar, split, g).groups
    assert [g_.user_count for g_ in groups] == [2, 2, 2, 2]


def test_sparsity_needs_four_users():
    g, split = _split_with_counts([2, 3, 4])
    hstar = np.zeros((g.num_nodes, 4))
    report = ev.evaluate(hstar, split, g)
    assert report.tested_users == 3 and report.groups == []


def test_group_counts_sum_to_tested_users():
    ds = make_planted_dataset(num_users=40, num_items=120, num_relations=5,
                              interactions_per_user=8, seed=3)
    g = ds.build()
    split = split_leave_one_out(g, seed=1)
    cfg = TrainingConfig(dim=4, layers=1, memory_units=2, batch_size=64,
                         epochs=2, seed=0)
    params, _, _ = train_model(split.train_graph, cfg)
    state = forward(split.train_graph, params)
    report = ev.evaluate(state.hstar, split, split.train_graph)
    assert sum(grp.user_count for grp in report.groups) == report.tested_users


# ---------------------------------------------------------------------------
# ablations


def test_variant_parsing():
    assert ev.AblationVariant.parse("-M") is ev.AblationVariant.NO_MEMORY
    assert ev.AblationVariant.parse("tau") is ev.AblationVariant.NO_RECALIBRATION
    assert ev.AblationVariant.parse("full") is ev.AblationVariant.FULL
    assert ev.AblationVariant.parse("-ST") is ev.AblationVariant.NO_SOCIAL_NO_RELATIONS
    with pytest.raises(ValueError) as err:  # a usage error (exit 2), not an evaluation one
        ev.AblationVariant.parse("bogus")
    assert not isinstance(err.value, ev.EvaluationError)


def test_strip_graph_removes_structures(tiny_graph):
    g2 = ev.strip_graph(tiny_graph, drop_social=True, drop_relations=False)
    assert g2.uu.num_edges == 0
    assert g2.ir.num_edges == tiny_graph.ir.num_edges
    g3 = ev.strip_graph(tiny_graph, drop_social=False, drop_relations=True)
    assert g3.ir.num_edges == 0 and g3.ri.num_edges == 0
    assert g3.num_relations == tiny_graph.num_relations  # nodes preserved


def test_no_memory_variant_has_fewer_parameters():
    cfg = TrainingConfig(dim=8, layers=1, memory_units=8, epochs=1, seed=0)
    g = make_planted_dataset(num_users=20, num_items=150, seed=0).build()
    _, switches, small = ev.AblationVariant.NO_MEMORY.apply(split_leave_one_out(g, 0), cfg)
    assert small.memory_units == 1 and not switches.memory_attention
    from dgnnrec.model import ModelParams
    from dgnnrec.seeding import PARAM_INIT, rng_for
    full_p = ModelParams.init(20, cfg.dim, cfg.memory_units, cfg.layers,
                              rng_for(0, PARAM_INIT))
    small_p = ModelParams.init(20, small.dim, small.memory_units, small.layers,
                               rng_for(0, PARAM_INIT))
    assert small_p.num_params < full_p.num_params


def test_st_ablation_equals_full_on_stripped_graph():
    ds = make_planted_dataset(num_users=30, num_items=200, num_relations=4,
                              interactions_per_user=6, seed=5)
    g = ds.build()
    split = split_leave_one_out(g, seed=2)
    cfg = TrainingConfig(dim=4, layers=1, memory_units=2, batch_size=64,
                         epochs=3, seed=1)
    rep_ablate = ev.run_ablation(ev.AblationVariant.NO_SOCIAL_NO_RELATIONS, split, cfg)

    stripped = build_graph(g.interaction_pairs(), [], [],
                           g.num_users, g.num_items, g.num_relations)
    split2 = split_leave_one_out(stripped, seed=2)
    assert np.array_equal(split2.test_users, split.test_users)
    assert np.array_equal(split2.test_items, split.test_items)
    rep_direct = ev.run_ablation(ev.AblationVariant.FULL, split2, cfg)
    assert ev.report_lines(rep_ablate) == ev.report_lines(rep_direct)


# ---------------------------------------------------------------------------
# attention export


def test_export_zero_banks_write_zero_rows(tmp_path, tiny_graph):
    from dgnnrec.model import ModelParams
    from dgnnrec.seeding import PARAM_INIT, rng_for
    params = ModelParams.init(tiny_graph.num_nodes, 3, 2, 1, rng_for(0, PARAM_INIT))
    for et in (EdgeType.UU, EdgeType.UI):
        params.banks[et].keys[:] = 0.0
        params.banks[et].biases[:] = 0.0
    state = forward(tiny_graph, params)
    path = tmp_path / "attn.tsv"
    ev.export_memory_attention(state, tiny_graph, params.banks, path)
    lines = path.read_text().splitlines()
    assert len(lines) == tiny_graph.num_users * 2
    for line in lines:
        user, bank, vec = line.split("\t")
        assert bank in ("uu", "ui")
        assert all(float(x) == 0.0 for x in vec.split(","))


@pytest.mark.parametrize("num_layers", [1, 2])
def test_export_is_the_attention_the_last_layer_applied(tmp_path, tiny_graph, num_layers):
    from dgnnrec import diffengine as de
    from dgnnrec.model import ModelParams
    from dgnnrec.seeding import PARAM_INIT, rng_for
    params = ModelParams.init(tiny_graph.num_nodes, 3, 2, num_layers, rng_for(2, PARAM_INIT))
    for bank in params.banks:
        bank.keys *= 20.0  # move attention away from the neutral init
    # The export reads a plain forward; the attention the last layer applied
    # is in the step caches of a forward kept for backward.
    ev.export_memory_attention(forward(tiny_graph, params), tiny_graph, params.banks,
                               tmp_path / "attn.tsv")
    applied = forward(tiny_graph, params, for_backward=True).step_caches[-1].pre
    rows = [line.split("\t") for line in (tmp_path / "attn.tsv").read_text().splitlines()]
    for user, label, vec in rows:
        expected = de.leaky_relu(applied[EdgeType[label.upper()]][int(user)])
        assert np.array_equal([float(x) for x in vec.split(",")], expected)


def test_export_without_layers_errors(tmp_path, tiny_graph):
    from dgnnrec.model import ModelParams
    from dgnnrec.seeding import PARAM_INIT, rng_for
    params = ModelParams.init(tiny_graph.num_nodes, 3, 2, 0, rng_for(0, PARAM_INIT))
    with pytest.raises(ev.EvaluationError, match="no propagation layer"):
        ev.export_memory_attention(forward(tiny_graph, params), tiny_graph,
                                   params.banks, tmp_path / "attn.tsv")
    assert not (tmp_path / "attn.tsv").exists()


def test_export_is_deterministic(tmp_path, tiny_graph):
    from dgnnrec.model import ModelParams
    from dgnnrec.seeding import PARAM_INIT, rng_for
    params = ModelParams.init(tiny_graph.num_nodes, 3, 2, 1, rng_for(1, PARAM_INIT))
    state = forward(tiny_graph, params)
    ev.export_memory_attention(state, tiny_graph, params.banks, tmp_path / "a.tsv")
    ev.export_memory_attention(state, tiny_graph, params.banks, tmp_path / "b.tsv")
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


@pytest.mark.parametrize("width", [1, 8])
def test_comma_rows_print_each_value_as_format_does(width):
    specials = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
                1e300, -1e-300, 1.0 / 3.0, 1e16, 123.0]
    values = np.concatenate([specials, np.random.default_rng(0).normal(size=4 * width)])
    values = np.resize(values, (-(-values.size // width), width))
    expected = [",".join(format(x, ".17g") for x in row) for row in values]
    assert ev._comma_rows(values) == expected


def test_report_serialization_round_trip_format():
    report = ev.EvalReport((5, 10), 7, {5: 0.25, 10: 0.5}, {5: 0.2, 10: 0.3},
                           [ev.GroupMetrics("q1", 7, 3.0, {5: 0.1, 10: 0.2},
                                            {5: 0.05, 10: 0.1})])
    lines = ev.report_lines(report).splitlines()
    assert "hr\t5\tall\t0.2500000000" in lines
    assert "ndcg\t10\tq1\t0.1000000000" in lines
    table = ev.report_table(report)
    assert "tested users: 7" in table
