import numpy as np
import pytest

from conftest import LAYOUT, random_params, random_small_graph, score
from dense_reference import dense_forward, dense_predict, mixed_transform
from dgnnrec import diffengine as de
from dgnnrec import model
from dgnnrec.evaluation import strip_graph
from dgnnrec.hetgraph import Adjacency, build_graph, sample_bpr_batch, split_leave_one_out
from dgnnrec.model import (EdgeType, FULL_VARIANT, MemoryBank, ModelParams,
                           ModelVariant, RowSet, _batch_attention, _mix_backward, _neighbor_sum,
                           _place, final_embeddings, forward, layer_step,
                           recalibrated_users)
from dgnnrec.synthetic import make_planted_dataset, make_random_graph
from dgnnrec.training import _kink_margin, _vector_objective, bpr_batch_grad


def bank_of(et, transforms, keys, biases):
    return MemoryBank(et, np.asarray(transforms, float), np.asarray(keys, float),
                      np.asarray(biases, float))


def identity_bank(et, dim):
    # eta = leaky_relu(0 + 1) = 1 and W = I: messages transport the source.
    return bank_of(et, [np.eye(dim)], [np.zeros(dim)], [1.0])


def zero_bank(et, dim, units=1):
    return ModelParams.zeros(0, dim, units, 0).banks[et]


def row_norm(x, eps):
    """Rows centred and scaled to unit variance, written apart from diffengine."""
    return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + eps)


def params_with_banks(graph, dim, banks, num_layers=1, emb=None):
    """Parameters holding ``banks``, each padded with zero units up to the largest M.

    A zero unit has eta = leaky_relu(0) = 0 and W = 0, so it adds nothing.
    """
    p = ModelParams.init(graph.num_nodes, dim, max(b.num_units for b in banks), num_layers,
                         np.random.default_rng(0))
    if emb is not None:
        p.embeddings[...] = emb
    for dst, src in zip(p.banks, banks):
        for a, b in ((dst.transforms, src.transforms), (dst.keys, src.keys),
                     (dst.biases, src.biases)):
            a[...] = 0.0
            a[:src.num_units] = b
    return p


def zero_out(bank):
    for a in (bank.transforms, bank.keys, bank.biases):
        a[...] = 0.0


def _identity_banks(dim, **overrides):
    return tuple(overrides.get(et.name, identity_bank(et, dim)) for et in EdgeType)


def aggregation(graph, emb, banks):
    """Mean of each node's incoming messages (the layer-norm input) in one layer_step."""
    p = params_with_banks(graph, np.shape(emb)[1], banks, emb=emb)
    record = []
    layer_step(p.embeddings, graph, p, 0, ModelVariant(layer_norm=False), _record=record)
    return record[0].normed


# ---------------------------------------------------------------------------
# memory attention / message encoding


def test_attention_zero_bank_gives_zero_weights():
    bank = zero_bank(EdgeType.UU, 2, units=3)
    att, _ = _batch_attention(np.array([[1.0, -2.0]]), bank, FULL_VARIANT)
    assert np.array_equal(att, np.zeros((1, 3)))


def test_attention_reference_values():
    bank = bank_of(EdgeType.UU, [np.eye(2)], [[0.5, 0.5]], [0.1])
    att, pre = _batch_attention(np.array([[1.0, 2.0], [-1.0, -2.0]]), bank, FULL_VARIANT)
    # <[1,2],[.5,.5]> + .1 = 1.6, positive branch
    # <[-1,-2],[.5,.5]> + .1 = -1.4 -> 0.2 * -1.4
    assert pre[:, 0] == pytest.approx([1.6, -1.4])
    assert att[:, 0] == pytest.approx([1.6, -0.28])
    ones, none = _batch_attention(np.array([[1.0, 2.0]]), bank,
                                  ModelVariant(memory_attention=False))
    assert np.array_equal(ones, [[1.0]]) and none is None


# One interaction: the user's aggregation is the single UI message from the item.
SINGLE_EDGE = build_graph([(0, 0)], [], [], 1, 1, 0)


def test_encode_message_identity_transport():
    src = np.array([0.3, -1.0, 2.0])
    agg = aggregation(SINGLE_EDGE, [np.ones(3), src], _identity_banks(3))
    assert np.allclose(agg[0], src)


def test_encode_message_zero_attention_annihilates():
    bank = zero_bank(EdgeType.UI, 3, units=2)
    bank.transforms[:] = np.eye(3)
    agg = aggregation(SINGLE_EDGE, np.ones((2, 3)), _identity_banks(3, UI=bank))
    assert np.array_equal(agg[0], np.zeros(3))


def test_encode_message_mixture_reference():
    # eta = (1, 0.5) via zero keys and biases (1, 0.5); W1=I, W2=2I -> 2*src
    bank = bank_of(EdgeType.UI, [np.eye(2), 2 * np.eye(2)],
                   np.zeros((2, 2)), [1.0, 0.5])
    src = np.array([3.0, -1.0])
    agg = aggregation(SINGLE_EDGE, [np.zeros(2), src], _identity_banks(2, UI=bank))
    assert np.allclose(agg[0], 2 * src)


def test_encode_message_attention_is_target_conditioned():
    rng = np.random.default_rng(5)
    bank = zero_bank(EdgeType.UI, 4, units=3)
    bank.draw(rng)
    t1, t2, s = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4)
    banks = _identity_banks(4, UI=bank)
    m1, m2 = aggregation(SINGLE_EDGE, [t1, s], banks), aggregation(SINGLE_EDGE, [t2, s], banks)
    assert not np.allclose(m1[0], m2[0])


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_user_identity_transport_mean():
    g = build_graph([(0, 0)], [(0, 1)], [], 2, 1, 0)
    emb = np.arange(9.0).reshape(3, 3)  # users 0,1 then item 0
    agg = aggregation(g, emb, _identity_banks(3))
    assert np.allclose(agg[0], (emb[1] + emb[2]) / 2)


def test_aggregate_user_isolated_returns_zero():
    g = build_graph([(1, 0)], [], [], 2, 1, 0)
    agg = aggregation(g, np.ones((3, 2)), _identity_banks(2))
    assert np.array_equal(agg[0], np.zeros(2))


def test_aggregate_item_identity_transport():
    g = build_graph([(0, 0)], [], [(0, 0)], 1, 1, 1)
    emb = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])  # user, item, relation
    agg = aggregation(g, emb, _identity_banks(2))
    assert np.allclose(agg[1], (emb[0] + emb[2]) / 2)


def test_aggregate_item_denominator_counts_both_types():
    g = build_graph([(0, 0), (1, 0)], [], [(0, 0), (0, 1)], 2, 1, 2)
    agg = aggregation(g, np.ones((5, 2)), _identity_banks(2))
    # 4 identity messages of ones / 4 neighbors
    assert np.allclose(agg[2], np.ones(2))


def test_aggregate_relation_single_item():
    g = build_graph([(0, 0)], [], [(0, 0)], 1, 1, 1)
    emb = np.array([[5.0, 5.0], [1.0, -2.0], [0.0, 0.0]])
    agg = aggregation(g, emb, _identity_banks(2))
    assert np.allclose(agg[2], emb[1])


def test_aggregate_relation_isolated_returns_zero():
    g = build_graph([(0, 0)], [], [], 1, 1, 2)
    agg = aggregation(g, np.ones((4, 2)), _identity_banks(2))
    assert np.array_equal(agg[3], np.zeros(2))


def test_mean_property_equal_messages():
    # every incoming message equals m -> every node's aggregation is m
    g = build_graph([(0, 0), (0, 1)], [(0, 1)], [], 2, 2, 0)
    m_vec = np.array([0.7, -0.2, 1.5])
    agg = aggregation(g, np.tile(m_vec, (4, 1)), _identity_banks(3))
    assert np.allclose(agg, m_vec)


# ---------------------------------------------------------------------------
# layer step / final embeddings


def test_layer_step_no_edges_is_self_plus_activated_norm_of_zero(tiny_graph):
    g = build_graph([(0, 0)], [], [], 2, 2, 1)  # user 1, item 1, relation 0 isolated
    dim = 3
    p = params_with_banks(g, dim, _identity_banks(dim), num_layers=1)
    out = layer_step(p.embeddings, g, p, 0)
    # isolated user 1: aggregation is zero; LN(0) = shift (=0 at init) -> lrelu(0)=0
    assert np.allclose(out[1], p.embeddings[1])


def test_layer_step_self_prop_only_when_ln_params_zero(tiny_graph):
    g = tiny_graph
    dim = 4
    p = params_with_banks(g, dim, _identity_banks(dim), num_layers=1)
    p.ln_scale[0] = 0.0
    p.ln_shift[0] = 0.0
    out = layer_step(p.embeddings, g, p, 0)
    assert np.allclose(out, p.embeddings)


def test_final_embeddings_single_layer_is_row_norm(rng):
    x = rng.normal(size=(5, 4))
    hstar, _ = final_embeddings([x], eps=1e-6)
    assert np.allclose(hstar, row_norm(x, 1e-6))


def test_final_embeddings_constant_rows_collapse():
    x = np.full((3, 4), 2.5)
    hstar, _ = final_embeddings([x, x.copy()], eps=1e-6)
    assert np.max(np.abs(hstar)) < 1e-2


def test_final_embeddings_rows_have_zero_mean(rng):
    layers = [rng.normal(size=(6, 3)) for _ in range(3)]
    hstar, _ = final_embeddings(layers)
    assert np.max(np.abs(hstar.mean(axis=1))) < 1e-10


def test_layer_state_invariant_hstar_is_normalized_concat(tiny_graph):
    p = random_params(tiny_graph, 3, 2, 2)
    st = forward(tiny_graph, p)
    conc = np.concatenate(st.layers, axis=1)
    assert np.allclose(st.hstar, row_norm(conc, p.ln_eps), atol=1e-12)


# ---------------------------------------------------------------------------
# recalibration / prediction


def test_recalibrate_no_neighbors_is_identity():
    g = build_graph([(0, 0)], [], [], 2, 1, 0)
    hstar = np.array([[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    # q_u = H*[u] + tau(u), and tau(u) = H*[u] without friends
    assert np.array_equal(recalibrated_users(hstar, g)[0], 2 * hstar[0])


def test_recalibrate_equal_neighbor_is_fixed_point():
    g = build_graph([(0, 0)], [(0, 1)], [], 2, 1, 0)
    hstar = np.array([[1.0, -1.0], [1.0, -1.0], [0.0, 0.0]])
    assert np.allclose(recalibrated_users(hstar, g)[0], 2 * hstar[0])


def test_recalibrate_reference_average():
    g = build_graph([(0, 0)], [(0, 1)], [], 2, 1, 0)
    hstar = np.array([[1.0, 0.0], [0.0, 1.0], [9.0, 9.0]])
    # tau(0) = ([1,0] + [0,1]) / 2
    assert np.allclose(recalibrated_users(hstar, g)[0], hstar[0] + [0.5, 0.5])
    no_tau = recalibrated_users(hstar, g, ModelVariant(recalibration=False))
    assert np.array_equal(no_tau, hstar[:2])


def test_predict_without_social_doubles_dot():
    g = build_graph([(0, 0)], [], [], 1, 1, 0)
    hstar = np.array([[0.5, 1.0], [2.0, -1.0]])
    assert score(0, 0, hstar, g) == pytest.approx(2 * float(hstar[0] @ hstar[1]))


def test_predict_reference_with_friend():
    g = build_graph([(0, 0)], [(0, 1)], [], 2, 1, 0)
    hstar = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    assert score(0, 0, hstar, g) == pytest.approx(2.0)


def test_predict_orthogonal_item_scores_zero():
    g = build_graph([(0, 0)], [(0, 1)], [], 2, 1, 0)
    hstar = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert score(0, 0, hstar, g) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# forward: purity, oracle equivalence, structural properties


def test_forward_is_bitwise_deterministic(tiny_graph):
    p = random_params(tiny_graph, 4, 2, 2)
    a = forward(tiny_graph, p)
    b = forward(tiny_graph, p)
    assert np.array_equal(a.hstar, b.hstar)


def test_forward_zero_layers(tiny_graph):
    p = random_params(tiny_graph, 4, 2, 0)
    st = forward(tiny_graph, p)
    assert np.allclose(st.hstar, row_norm(p.embeddings, p.ln_eps))


def test_forward_handles_missing_relation_nodes():
    g = build_graph([(0, 0), (1, 1), (0, 1)], [(0, 1)], [], 2, 2, 0)
    p = random_params(g, 3, 2, 2)
    st = forward(g, p)
    assert st.hstar.shape == (4, 9)
    assert np.all(np.isfinite(st.hstar))


def test_forward_rejects_mismatched_params(tiny_graph):
    p = random_params(tiny_graph, 4, 2, 1)
    bad = ModelParams.zeros(2, 4, 2, 1)
    with pytest.raises(de.ShapeError):
        forward(tiny_graph, bad)


def test_every_graph_reads_its_own_edge_layout():
    a, b = (make_random_graph(num_users=12, num_items=20, num_relations=3, num_interactions=40,
                              num_social=15, num_item_relations=20, seed=seed) for seed in (1, 2))
    assert a.num_nodes == b.num_nodes and a.ui.pairs().tolist() != b.ui.pairs().tolist()
    p = random_params(a, 4, 2, 2)
    want = forward(a, p)
    # The argument is unused: another graph's layout cannot leak into the forward.
    got = forward(a, p, edge_cache=model.EdgeCache(b))
    for x, y in zip(got.layers + [got.hstar], want.layers + [want.hstar]):
        assert x.tobytes() == y.tobytes()
    assert not np.array_equal(forward(b, p).hstar, want.hstar)
    for name in LAYOUT:
        assert getattr(a, name) is getattr(a, name), name

    # The train graph of a split counts the held-out interactions out of its denominators.
    split = split_leave_one_out(a, seed=0, num_negatives=5)
    held = a.node_denom.copy()
    np.subtract.at(held, split.test_users, 1.0)
    np.subtract.at(held, a.num_users + split.test_items, 1.0)
    assert split.test_users.size and np.array_equal(split.train_graph.node_denom, held)

    users, items, rels = a.type_rows.values()
    for drop_social, drop_relations in ((True, False), (False, True), (True, True)):
        g = strip_graph(a, drop_social, drop_relations)
        assert all(getattr(g, name) is not getattr(a, name) for name in LAYOUT)
        denom = a.node_denom.copy()
        if drop_social:
            denom[users] -= a.uu.degrees()
        if drop_relations:
            denom[items] -= a.ir.degrees()
            denom[rels] = 0.0
        assert np.array_equal(g.node_denom, denom), (drop_social, drop_relations)
        assert [et for et, *_ in g.every_member[0]] == [
            et for et, te in g.typed_edges.items() if te.adj.num_edges]


VARIANTS = {"full": FULL_VARIANT, "-M": ModelVariant(memory_attention=False),
            "-LN": ModelVariant(layer_norm=False), "-tau": ModelVariant(recalibration=False)}


@pytest.mark.parametrize("num_layers", [0, 1, 2])
@pytest.mark.parametrize("name", list(VARIANTS))
def test_row_set_forward_is_bitwise_the_full_forward(name, num_layers):
    variant = VARIANTS[name]
    rng = np.random.default_rng(5 + num_layers)
    for trial in range(20):
        g = random_small_graph(rng)
        p = random_params(g, dim=2 + trial % 3, num_units=1 if name == "-M" else 1 + trial % 2,
                          num_layers=num_layers, seed=trial)
        rows = rng.random(g.num_nodes) < 0.4
        full = forward(g, p, variant)
        part = forward(g, p, variant, rows=RowSet(g, rows))
        assert np.array_equal(part.hstar[rows], full.hstar[rows])
        assert np.isnan(part.hstar[~rows]).all()
        for got, want in zip(part.layers[:-1], full.layers[:-1]):
            assert np.array_equal(got, want)
        if num_layers:
            assert np.array_equal(part.layers[-1][rows], full.layers[-1][rows])
            assert np.isnan(part.layers[-1][~rows]).all()
        every = forward(g, p, variant, rows=RowSet(g, np.ones(g.num_nodes, dtype=bool)))
        for got, want in zip(every.layers + [every.hstar], full.layers + [full.hstar]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dim, units, bitwise", [(16, 2, True), (16, 4, True), (16, 8, True),
                                                 (16, 1, False), (32, 4, False), (64, 8, False)])
def test_row_set_forward_at_wider_shapes(dim, units, bitwise):
    """Bit for bit at d = 16; where BLAS rounds a row by its place in the block, to 1e-13."""
    g = make_planted_dataset(num_users=30, num_items=160, num_relations=5,
                             interactions_per_user=12, seed=0).build()
    rows = np.zeros(g.num_nodes, dtype=bool)
    rows[:g.num_users] = True
    rows[g.num_users + np.arange(0, g.num_items, 3)] = True
    p = random_params(g, dim, units, 2)
    full, part = forward(g, p), forward(g, p, rows=RowSet(g, rows))
    if bitwise:
        assert np.array_equal(part.hstar[rows], full.hstar[rows])
    np.testing.assert_allclose(part.hstar[rows], full.hstar[rows], rtol=0, atol=1e-13)
    assert np.isnan(part.hstar[~rows]).all()


def test_row_set_must_be_a_mask_over_the_nodes(tiny_graph):
    for bad in (np.ones(tiny_graph.num_nodes - 1, dtype=bool), np.ones(tiny_graph.num_nodes)):
        with pytest.raises(de.ShapeError, match="boolean mask"):
            RowSet(tiny_graph, bad)


def _members_by_hand(graph, mask):
    """RowSet(graph, mask).members(graph) as plain lists, grouped one row at a time."""
    nodes, index = np.arange(graph.num_nodes), np.flatnonzero(mask)
    messages = []
    for et, te, _, receivers in graph.every_member[0]:
        keep = [k for k, row in enumerate(nodes[receivers]) if mask[row]]
        if keep:
            messages.append((et, te, keep, nodes[receivers][keep].tolist()))
    selves = []
    for et, sl, _ in graph.every_member[1]:
        part = [k for k, row in enumerate(index) if sl.start <= row < sl.stop]
        if part:
            selves.append((et, part, index[part].tolist()))
    return messages, selves


@pytest.mark.parametrize("case", ["batch", "type_left_out", "single_row", "whole_type"])
def test_row_set_groups_its_members_as_the_rows_do(case):
    rng = np.random.default_rng(len(case))
    for trial in range(30):
        g = random_small_graph(rng)
        users, items, rels = g.type_rows.values()
        mask = rng.random(g.num_nodes) < 0.5
        picked = [users, items, rels][trial % 3]
        if case == "batch":  # every user and some items, as a training batch reads
            mask[users], mask[rels] = True, False
        elif case == "type_left_out":
            mask[picked] = False
        elif case == "single_row":
            mask[picked] = False
            mask[rng.integers(picked.start, picked.stop)] = True
        else:
            mask[picked] = True
        if mask.all():  # every row is ALL_ROWS's grouping, the graph's own
            assert RowSet(g, mask).members(g) is g.every_member
            continue
        messages, selves = RowSet(g, mask).members(g)
        nodes, positions = np.arange(g.num_nodes), np.arange(np.count_nonzero(mask))
        got = ([(et, te, list(keep), nodes[receivers].tolist())
                for et, te, keep, receivers in messages],
               [(et, positions[part].tolist(), nodes[rows].tolist())
                for et, part, rows in selves])
        assert got == _members_by_hand(g, mask), (case, trial)
        assert all(isinstance(part, slice) for _, part, _ in selves)


def test_place_is_a_dense_scatter(rng):
    for height, count, fill in ((9, 4, np.nan), (9, 0, 0.0), (1, 1, 0.0), (40, 39, -1.5)):
        compact = rng.normal(size=(count, 3))
        rows = np.sort(rng.choice(height, size=count, replace=False))
        want = np.full((height, 3), fill)
        for row, values in zip(rows, compact):
            want[row] = values
        assert _place(compact, rows, height, fill).tobytes() == want.tobytes()
        every = rng.normal(size=(height, 3))
        for sl in (slice(None), slice(0, height)):
            assert _place(every, sl, height, fill) is every


def test_reading_a_row_the_forward_skipped_fails_loudly(tiny_graph):
    p = random_params(tiny_graph, 3, 2, 2)
    rows = np.zeros(tiny_graph.num_nodes, dtype=bool)
    rows[:tiny_graph.num_users + 2] = True  # users and items 0, 1
    hstar = forward(tiny_graph, p, rows=RowSet(tiny_graph, rows)).hstar
    assert np.isfinite(score(0, 1, hstar, tiny_graph))
    assert np.isnan(score(0, 2, hstar, tiny_graph))


@pytest.mark.parametrize("variant", [
    FULL_VARIANT,
    ModelVariant(memory_attention=False),
    ModelVariant(layer_norm=False),
])
def test_forward_matches_dense_oracle(variant):
    rng = np.random.default_rng(99)
    for trial in range(25):
        g = random_small_graph(rng)
        p = random_params(g, dim=3, num_units=2, num_layers=2, seed=trial)
        st = forward(g, p, variant)
        layers_d, hstar_d = dense_forward(g, p, variant)
        for ours, ref in zip(st.layers, layers_d):
            assert np.max(np.abs(ours - ref)) <= 1e-10
        assert np.max(np.abs(st.hstar - hstar_d)) <= 1e-10
        assert abs(score(0, 0, st.hstar, g, variant)
                   - dense_predict(0, 0, hstar_d, g, variant)) <= 1e-10


def test_single_node_aggregates_match_dense_rows():
    rng = np.random.default_rng(3)
    for trial in range(10):
        g = random_small_graph(rng)
        p = random_params(g, dim=3, num_units=2, num_layers=1, seed=trial)
        emb = p.embeddings
        I = g.num_users
        agg = aggregation(g, emb, p.banks)
        for u in range(I):
            msgs = []
            for u2 in g.uu.neighbors(u):
                msgs.append(mixed_transform(emb[u], p.banks[EdgeType.UU]) @ emb[int(u2)])
            for j in g.ui.neighbors(u):
                msgs.append(mixed_transform(emb[u], p.banks[EdgeType.UI]) @ emb[I + int(j)])
            ref = sum(msgs) / len(msgs) if msgs else np.zeros(3)
            assert np.max(np.abs(agg[u] - ref)) <= 1e-10


def test_permutation_equivariance():
    rng = np.random.default_rng(17)
    g = random_small_graph(rng)
    p = random_params(g, dim=4, num_units=2, num_layers=2, seed=0)
    I, J, R = g.num_users, g.num_items, g.num_relations

    perm_u = rng.permutation(I)
    perm_j = rng.permutation(J)
    perm_r = rng.permutation(R)
    node_perm = np.concatenate([perm_u, I + perm_j, I + J + perm_r])

    ui = [(int(perm_u[a]), int(perm_j[b])) for a, b in g.interaction_pairs()]
    uu = [(int(perm_u[a]), int(perm_u[b])) for a, b in g.social_pairs()]
    ir = [(int(perm_j[a]), int(perm_r[b])) for a, b in g.item_relation_pairs()]
    g2 = build_graph(ui, uu, ir, I, J, R)

    p2 = p.with_vector(p.to_vector().copy())
    p2.embeddings[node_perm] = p.embeddings

    h1 = forward(g, p).hstar
    h2 = forward(g2, p2).hstar
    # summation order differs, so equality is up to float round-off
    assert np.max(np.abs(h2[node_perm] - h1)) < 1e-9


def test_social_disentanglement_with_zero_uu_bank():
    # With the UU bank zeroed, H* is bitwise identical across graphs whose
    # social structure differs but keeps every user's social degree (the
    # aggregation denominator) fixed.
    dim = 3
    ui = [(u, u % 3) for u in range(4)]
    g1 = build_graph(ui, [(0, 1), (2, 3)], [(0, 0)], 4, 3, 1)
    g2 = build_graph(ui, [(0, 2), (1, 3)], [(0, 0)], 4, 3, 1)
    p = random_params(g1, dim, 2, 2, seed=4)
    zero_out(p.banks[EdgeType.UU])
    assert np.array_equal(forward(g1, p).hstar, forward(g2, p).hstar)


def test_relation_disentanglement_with_zero_ir_ri_banks():
    dim = 3
    ui = [(0, 0), (1, 1)]
    g1 = build_graph(ui, [(0, 1)], [(0, 0), (1, 1)], 2, 2, 2)
    g2 = build_graph(ui, [(0, 1)], [(0, 1), (1, 0)], 2, 2, 2)
    p = random_params(g1, dim, 2, 2, seed=8)
    zero_out(p.banks[EdgeType.IR])
    zero_out(p.banks[EdgeType.RI])
    assert np.array_equal(forward(g1, p).hstar, forward(g2, p).hstar)


def test_parameter_vector_round_trip(tiny_graph):
    p = random_params(tiny_graph, 3, 2, 2)
    vec = p.to_vector()
    q = p.with_vector(vec)
    assert np.array_equal(q.to_vector(), vec)
    assert np.array_equal(q.embeddings, p.embeddings)
    for bp, bq in zip(p.banks, q.banks):
        assert np.array_equal(bp.transforms, bq.transforms)
        assert np.array_equal(bp.keys, bq.keys)
        assert np.array_equal(bp.biases, bq.biases)


def _adjacency_case(case, rng):
    num_src = 11
    if case == "no_edges":
        return Adjacency.from_pairs(np.empty((0, 2)), 5), num_src
    if case == "no_rows":
        return Adjacency.from_pairs(np.empty((0, 2)), 0), num_src
    if case == "isolated_targets":
        pairs = [(r, s) for r in (0, 2, 5) for s in rng.choice(num_src, r + 1, replace=False)]
        return Adjacency.from_pairs(pairs, 7), num_src
    if case == "single_run":
        pairs = [(r, s) for r in range(6) for s in rng.choice(num_src, 3, replace=False)]
        return Adjacency.from_pairs(pairs, 6), num_src
    degrees = rng.integers(0, num_src + 1, size=40)
    pairs = [(r, s) for r, k in enumerate(degrees) for s in rng.choice(num_src, k, replace=False)]
    return Adjacency.from_pairs(pairs, 40), num_src


@pytest.mark.parametrize("width", [16, 48])
@pytest.mark.parametrize("case", ["no_edges", "no_rows", "isolated_targets", "single_run",
                                  "many_runs"])
def test_neighbor_sum_matches_dense_product(case, width):
    rng = np.random.default_rng(width)
    adj, num_src = _adjacency_case(case, rng)
    dense = np.zeros((adj.num_rows, num_src))
    pairs = adj.pairs()
    dense[pairs[:, 0], pairs[:, 1]] = 1.0
    x = rng.standard_normal((num_src, width))
    expected = dense @ x
    plan = adj.plan
    assert adj.plan is plan
    has_neighbors = np.flatnonzero(adj.degrees())
    assert np.array_equal(np.arange(adj.num_rows)[plan.targets], has_neighbors)
    assert isinstance(plan.targets, slice) == (has_neighbors.size == adj.num_rows)
    runs = {"single_run": 1, "no_edges": 0, "no_rows": 0}
    if case in runs:
        assert len(plan.runs) == runs[case]
    else:
        assert len(plan.runs) > 1
    if case == "many_runs":
        assert plan.unsort is not None  # degree order differs from row order
    sums = _neighbor_sum(x, adj)
    assert sums.shape == (has_neighbors.size, width)
    np.testing.assert_allclose(sums, expected[has_neighbors], rtol=0, atol=1e-12)
    np.testing.assert_allclose(_place(sums, plan.targets, adj.num_rows, 0.0), expected,
                               rtol=0, atol=1e-12)


def test_take_is_fancy_indexing_bit_for_bit(rng):
    # _neighbor_sum gathers with np.take; it must be rows[sources] exactly.
    table = rng.normal(size=(60, 16))
    table[3, :4] = [np.nan, np.inf, -0.0, 5e-324]
    rows = table[10:50]  # a view, as emb[te.src] is
    sources = rng.integers(0, rows.shape[0], size=500)
    assert np.take(rows, sources, axis=0).tobytes() == rows[sources].tobytes()


# ---------------------------------------------------------------------------
# the mixing backward


def test_einsum_outer_product_is_the_broadcast_product_bit_for_bit(rng):
    # Except for the sign of zero: einsum adds each product onto +0.0, so a
    # -0.0 product comes out as +0.0 (which `want + 0.0` does too).
    att = rng.normal(size=(300, 8))
    g = rng.normal(size=(300, 16))
    att[0, :4] = [np.nan, np.inf, -0.0, 5e-324]
    g[1, :4] = [-np.inf, -0.0, 1e-300, np.nan]
    with np.errstate(invalid="ignore"):
        want = att[:, :, None] * g[:, None, :]
        got = np.einsum("nm,nd->nmd", att, g)
    assert np.signbit(want[0, 2]).any() and not np.signbit(got[0, 2]).any()
    assert got.tobytes() == (want + 0.0).tobytes()


def _mix_backward_reference(g, rows, sums, pre, bank):
    """(d_rows, d_sums, d_transforms, d_keys, d_biases) over every row, apart from model.py."""
    att = de.leaky_relu(pre) if pre is not None else np.ones((g.shape[0], bank.num_units))
    d_sums = np.einsum("nm,mde,nd->ne", att, bank.transforms, g)
    d_transforms = np.einsum("nm,nd,ne->mde", att, g, sums)
    if pre is None:
        return (np.zeros_like(rows), d_sums, d_transforms, np.zeros_like(bank.keys),
                np.zeros_like(bank.biases))
    d_pre = (np.einsum("mde,ne,nd->nm", bank.transforms, sums, g)
             * np.where(pre >= 0, 1.0, de.LEAKY_SLOPE))
    return d_pre @ bank.keys, d_sums, d_transforms, d_pre.T @ rows, d_pre.sum(axis=0)


@pytest.mark.parametrize("rows_per_block", [None, 4])
@pytest.mark.parametrize("attention", [True, False])
@pytest.mark.parametrize("case", ["some_dead", "nan_row", "all_dead", "all_live"])
def test_mix_backward_skips_dead_rows(case, attention, rows_per_block, monkeypatch):
    n, d, units = 37, 4, 3
    rng = np.random.default_rng(7)
    bank = ModelParams.init(0, d, units, 0, rng).banks[EdgeType.IU]
    bank.keys *= 20.0
    rows, sums = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    pre = rows @ bank.keys.T + bank.biases if attention else None
    g = rng.normal(size=(n, d))
    dead = np.zeros(n, dtype=bool)
    if case in ("some_dead", "nan_row"):
        dead[[0, 1, 2, 9, 20, 21, 36]] = True
    elif case == "all_dead":
        dead[:] = True
    g[dead] = 0.0
    g[5, :2] = [0.0, -0.0]  # zeros in some columns do not make a row dead
    if case == "nan_row":
        g[12] = 0.0
        g[12, 2] = np.nan  # NaN is non-zero: the row stays live
    if rows_per_block is not None:
        monkeypatch.setattr(model, "MIX_BLOCK_FLOATS", rows_per_block * units * d)

    gbank = ModelParams.zeros(0, d, units, 0).banks[EdgeType.IU]
    d_rows, d_sums = _mix_backward(g, rows, sums, pre, bank, gbank)
    want = _mix_backward_reference(g, rows, sums, pre, bank)
    assert not np.any(d_rows[dead]) and not np.any(d_sums[dead])
    assert not np.isnan(d_rows[dead]).any() and not np.isnan(d_sums[dead]).any()
    if case == "nan_row":
        assert np.isnan(d_sums[12]).all()
    for got, expected in zip((d_rows, d_sums, gbank.transforms, gbank.keys, gbank.biases),
                             want):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_batch_gradient_with_most_items_unsampled(monkeypatch):
    """Two triplets touch at most 4 of 40 items: the last layer computes only those item rows."""
    n_users, n_items, n_rel = 4, 40, 3
    interactions = {(j % n_users, j) for j in range(n_items)} | {(0, 7), (1, 30), (3, 2)}
    item_rel = {(j, j % n_rel) for j in range(n_items)} | {(5, 1), (17, 2)}
    graph = build_graph(sorted(interactions), [(0, 1), (1, 2), (2, 3)], sorted(item_rel),
                        n_users, n_items, n_rel)
    for seed in range(50):
        params = ModelParams.init(graph.num_nodes, 2, 2, 2, np.random.default_rng(seed))
        for bank in params.banks:
            bank.keys *= 20.0
        params.ln_eps = 1e-2
        if _kink_margin(graph, params, FULL_VARIANT) >= 1e-4:
            break
    else:
        pytest.fail("no kink-free parameters drawn")
    users, pos, neg = sample_bpr_batch(graph, np.random.default_rng(3), 2)
    assert len(set(pos.tolist()) | set(neg.tolist())) <= 4

    mixed_rows = []

    def recording(g, *args):
        mixed_rows.append(g.shape[0])
        return _mix_backward(g, *args)

    monkeypatch.setattr(model, "_mix_backward", recording)
    _, grad = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    assert min(mixed_rows) <= 4

    objective = _vector_objective(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    report = de.finite_diff_check(objective, params.to_vector(), grad)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_coord}"


# ---------------------------------------------------------------------------
# the flat parameter buffer


def test_every_array_is_a_view_of_the_buffer(tiny_graph):
    p = random_params(tiny_graph, 3, 2, 2)
    for q in (p, p.zeros_like(), p.with_vector(p.to_vector() * 2.0),
              ModelParams.zeros(tiny_graph.num_nodes, 3, 2, 2)):
        assert q.to_vector() is q.vector
        assert q.vector.dtype == np.float64 and q.vector.flags.c_contiguous
        slices = q.group_slices()
        assert [name for name, _ in slices] == [name for name, _ in q._arrays()]
        assert slices[-1][1].stop == q.num_params == q.vector.size
        for (name, arr), (_, sl) in zip(q._arrays(), slices):
            assert np.shares_memory(arr, q.vector), name
            assert np.array_equal(q.vector[sl], arr.ravel()), name
        q.vector[:] = np.arange(q.vector.size)
        assert np.array_equal(np.concatenate([a.ravel() for _, a in q._arrays()]), q.vector)


def test_with_vector_binds_without_copy_and_never_detaches(tiny_graph):
    p = random_params(tiny_graph, 3, 2, 2)
    vec = p.to_vector() + 1.0
    q = p.with_vector(vec)
    assert q.vector is vec
    q.banks[EdgeType.UI].keys[1, 2] = 5.0
    q.ln_shift[1] = -3.0
    slices = dict(q.group_slices())
    assert vec[slices["bank.ui.keys"]][-1] == 5.0
    assert np.all(vec[slices["ln.1.shift"]] == -3.0)

    strided = np.repeat(vec, 2)[::2]
    r = p.with_vector(strided)
    assert r.vector.flags.c_contiguous and np.array_equal(r.vector, vec)
    r.embeddings[0, 0] = -7.0
    r.banks[EdgeType.SELF_RELATION].biases[:] = 9.0
    assert r.vector[0] == -7.0
    assert np.all(r.vector[dict(r.group_slices())["bank.self_relation.biases"]] == 9.0)
    for name, arr in r._arrays():
        assert np.shares_memory(arr, r.vector), name
    with pytest.raises(de.ShapeError):
        p.with_vector(vec[:-1])


def test_constructor_refuses_a_vector_it_cannot_view(tiny_graph):
    n = tiny_graph.num_nodes
    vec = random_params(tiny_graph, 3, 2, 2).to_vector()
    assert ModelParams(vec.copy(), n, 3, 2).num_layers == 2
    assert ModelParams(np.zeros(vec.size + 6), n, 3, 2).num_layers == 3
    assert ModelParams(vec.reshape(1, -1), n, 3, 2).num_layers == 2  # a stack of one
    stack = np.stack([vec, vec])
    for bad in (vec.astype(np.float32), vec[:-1], vec[:-13], np.repeat(vec, 2)[::2],
                vec.reshape(1, 1, -1), np.asfortranarray(stack),
                np.repeat(stack, 2, axis=1)[:, ::2], stack[:, :-1], stack[:, :-13]):
        with pytest.raises(de.ShapeError):
            ModelParams(bad, n, 3, 2)


def test_a_stack_views_one_parameter_set_per_row(tiny_graph):
    n = tiny_graph.num_nodes
    one = random_params(tiny_graph, 3, 2, 2)
    stack = np.stack([one.vector, 2.0 * one.vector, -one.vector])
    p = ModelParams(stack, n, 3, 2)
    assert (p.num_nodes, p.dim, p.num_units, p.num_layers, p.num_params) == (
        one.num_nodes, one.dim, one.num_units, one.num_layers, one.num_params)
    assert p.group_slices() == one.group_slices()
    assert p.embeddings.shape == (3, n, 3) and p.ln_scale.shape == (3, 2, 3)
    assert p.banks[EdgeType.UI].transforms.shape == (3, 2, 3, 3)
    assert p.zeros_like().vector.shape == stack.shape
    for k in range(3):
        row = ModelParams(stack[k], n, 3, 2)
        for (name, arr), (_, want) in zip(p._arrays(), row._arrays()):
            assert np.shares_memory(arr, stack), name
            assert np.array_equal(arr[k], want), name
    with pytest.raises(de.ShapeError, match="with_vector takes one parameter set"):
        p.with_vector(stack)
    with pytest.raises(de.ShapeError, match=r"shape \(3, "):
        one.with_vector(stack)
