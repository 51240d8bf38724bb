"""Gradient contract of the full ranking objective.

The exhaustive (d, M, L) grid lives in the acceptance suite; here we keep
a fast smoke grid plus coverage of the ablation variants' backward paths.
"""

import numpy as np
import pytest

from dgnnrec import diffengine as de
from dgnnrec import model, training
from dgnnrec.evaluation import strip_graph
from dgnnrec.hetgraph import build_graph
from dgnnrec.model import FULL_VARIANT, ModelParams, ModelVariant
from dgnnrec.training import (bpr_batch_grad, bpr_batch_loss, check_model_gradients,
                              _kink_margin, _random_instance, _vector_objective)


def test_gradients_smoke_grid():
    result = check_model_gradients(dims=(2, 4), memory_units=(1, 2), layers=(0, 1, 2))
    assert result.passed, f"max rel err {result.max_rel_err}"


@pytest.mark.parametrize("variant", [
    ModelVariant(memory_attention=False),
    ModelVariant(layer_norm=False),
    ModelVariant(recalibration=False),
    ModelVariant(memory_attention=False, layer_norm=False, recalibration=False),
])
def test_gradients_cover_ablation_variants(variant):
    result = check_model_gradients(dims=(3,), memory_units=(1, 2), layers=(1, 2),
                                   variant=variant)
    assert result.passed, f"{variant}: max rel err {result.max_rel_err}"


@pytest.mark.parametrize("num_layers", [0, 1, 2])
def test_gradients_without_layer_norm_at_d8(num_layers):
    # At L = 2, M = 1 no draw passes the -LN kink screen as drawn; the second
    # screen, with the layer-0 embeddings x 3, does.
    result = check_model_gradients(dims=(8,), memory_units=(1, 2), layers=(num_layers,),
                                   variant=ModelVariant(layer_norm=False))
    assert len(result.cases) == 2
    assert result.passed, f"max rel err {result.max_rel_err}"


def test_the_rescaled_screen_runs_only_when_no_draw_passes_as_drawn(monkeypatch):
    scales = []

    def recording_instance(*args):
        scales.append(args[4])
        return _random_instance(*args)

    monkeypatch.setattr(training, "_random_instance", recording_instance)
    variant = ModelVariant(layer_norm=False)
    check_model_gradients(dims=(8,), memory_units=(1,), layers=(2,), variant=variant)
    assert scales[:101] == [1.0] * 101 and set(scales[101:]) == {training.GRAD_CHECK_RESCALE}
    scales.clear()
    check_model_gradients(dims=(2,), memory_units=(1, 2), layers=(1, 2))
    assert set(scales) == {1.0}


def test_every_parameter_group_receives_gradient():
    graph, params, (users, pos, neg) = _random_instance(4, 2, 2, seed=3)
    _, grad = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    for name, sl in params.group_slices():
        assert np.any(grad[sl] != 0.0), f"group {name} got no gradient"


def test_objective_matches_between_loss_and_grad_paths():
    graph, params, (users, pos, neg) = _random_instance(3, 2, 1, seed=8)
    loss_a = bpr_batch_loss(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    loss_b, _ = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    assert loss_a == loss_b


def test_zero_regularization_drops_decay_term():
    graph, params, (users, pos, neg) = _random_instance(3, 1, 1, seed=2)
    with_reg = bpr_batch_loss(graph, params, users, pos, neg, 1e-2, FULL_VARIANT)
    without = bpr_batch_loss(graph, params, users, pos, neg, 0.0, FULL_VARIANT)
    vec = params.to_vector()
    assert with_reg == pytest.approx(without + 1e-2 * float(vec @ vec))


def _without_relation_nodes(graph, params):
    graph = build_graph(graph.interaction_pairs(), graph.social_pairs(), [],
                        graph.num_users, graph.num_items, 0)
    out = ModelParams.zeros(graph.num_nodes, params.dim, params.num_units, params.num_layers,
                            params.ln_eps)
    out.embeddings[...] = params.embeddings[:graph.num_nodes]
    out.vector[out.embeddings.size:] = params.vector[params.embeddings.size:]
    return graph, out


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("reduce", ["strip_social_and_relations", "no_relation_nodes"])
def test_gradients_on_graphs_with_empty_edge_types(reduce, num_layers):
    """Banks whose edge type has no edges get no gradient, and the rest stay exact."""
    graph, params, (users, pos, neg) = _random_instance(3, 2, num_layers, seed=4)
    if reduce == "strip_social_and_relations":
        graph = strip_graph(graph, True, True)
    else:
        graph, params = _without_relation_nodes(graph, params)
    # Nodes without incoming edges aggregate to zero; a non-zero LN shift
    # keeps their activation off the leaky_relu kink.
    params.ln_shift[:] = 0.3
    assert _kink_margin(graph, params, FULL_VARIANT) >= 1e-4
    _, grad = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    empty = {et.name.lower() for et, te in graph.typed_edges.items() if te.adj.num_edges == 0}
    assert empty >= {"ir", "ri"}
    decay = (2.0 * 1e-3) * params.to_vector()
    for name, sl in params.group_slices():
        if name.startswith("bank.") and name.split(".")[1] in empty:
            assert np.array_equal(grad[sl], decay[sl]), f"{name} got a model gradient"
    objective = _vector_objective(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    report = de.finite_diff_check(objective, params.to_vector(), grad)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_coord}"


def test_blocked_mix_backward_matches_one_block(monkeypatch):
    """The oracle and grad-check graphs fit in one block; force several here."""
    dim, units = 3, 2
    graph, params, (users, pos, neg) = _random_instance(dim, units, 2, seed=6)
    assert graph.num_items > 3
    _, whole = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    monkeypatch.setattr(model, "BLOCK_FLOATS", 3 * units * dim)  # 3 rows per block
    _, blocked = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=1e-12)
    objective = _vector_objective(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    report = de.finite_diff_check(objective, params.to_vector(), blocked, tol=1e-4)
    assert report.passed, f"max rel err {report.max_rel_err} at {report.worst_coord}"


def _objective_per_evaluation(graph, params, users, pos, neg, reg, variant):
    """The reference objective: one-set ``bpr_batch_loss`` on each row of the stack in turn."""
    def objective(stack):
        return np.array([bpr_batch_loss(graph, params.with_vector(vec), users, pos, neg, reg,
                                        variant) for vec in stack])
    return objective


@pytest.mark.parametrize("variant", [
    FULL_VARIANT,
    ModelVariant(memory_attention=False),
    ModelVariant(recalibration=False),
    ModelVariant(layer_norm=False),
])
def test_probe_objective_reports_equal_the_per_evaluation_reference(variant, monkeypatch):
    grid = dict(dims=(2, 3), memory_units=(1, 2), layers=(0, 2), seed=5, variant=variant)
    result = check_model_gradients(**grid)
    monkeypatch.setattr(training, "_vector_objective", _objective_per_evaluation)
    reference = check_model_gradients(**grid)
    assert len(result.cases) == len(reference.cases) == 8
    for case, ref in zip(result.cases, reference.cases):
        assert case.report.errors.tobytes() == ref.report.errors.tobytes()
        assert case.report.max_rel_err == ref.report.max_rel_err
        assert case.report.worst_coord == ref.report.worst_coord


def test_sweep_leaves_the_instance_parameters_untouched(monkeypatch):
    drawn = []

    def recording_instance(*args):
        graph, params, triplets = _random_instance(*args)
        drawn.append((params, params.vector.tobytes()))
        return graph, params, triplets

    monkeypatch.setattr(training, "_random_instance", recording_instance)
    check_model_gradients(dims=(2, 3), memory_units=(2,), layers=(1, 2))
    assert len(drawn) >= 4
    for params, before in drawn:
        assert params.vector.tobytes() == before


def test_objective_views_the_stack_with_one_parameter_set_per_call(monkeypatch):
    graph, params, (users, pos, neg) = _random_instance(3, 2, 2, seed=0)
    _, grad = bpr_batch_grad(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    objective = _vector_objective(graph, params, users, pos, neg, 1e-3, FULL_VARIANT)
    stacks, built = [], []
    init = ModelParams.__init__

    def recording_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording_objective(stack):
        stacks.append(stack)
        return objective(stack)

    monkeypatch.setattr(ModelParams, "__init__", recording_init)
    monkeypatch.setattr(de, "FD_BLOCK_FLOATS", 2 * params.num_params * 7)  # 7 coordinates
    report = de.finite_diff_check(recording_objective, params.to_vector(), grad)
    assert report.passed
    assert len(stacks) == -(-params.num_params // 7) > 2
    assert len(built) == len(stacks)
    for view, stack in zip(built, stacks):
        assert view.vector is stack
        assert np.shares_memory(view.embeddings, stack)
        assert np.shares_memory(view.banks[-1].biases, stack)


def test_a_screen_that_never_passes_names_the_shape_variant_and_best_margin(monkeypatch):
    # Without LN the layer-2 activations of d = 8, M = 1 peak at ~0.08; a
    # margin of 1 is out of reach as drawn and with the embeddings x 3.
    monkeypatch.setattr(training, "GRAD_CHECK_KINK_MARGIN", 1.0)
    variant = ModelVariant(layer_norm=False)
    best = max(_kink_margin(*_random_instance(8, 1, 2, 1000 * attempt, scale)[:2], variant)
               for scale in (1.0, 3.0) for attempt in range(101))
    assert best < 1.0
    with pytest.raises(RuntimeError) as raised:
        check_model_gradients(dims=(8,), memory_units=(1,), layers=(2,), variant=variant)
    assert str(raised.value) == (
        f"could not draw a kink-free instance at d=8, M=1, L=2 for {variant}: "
        f"the best of 202 draws (half of them with the embeddings x 3) "
        f"has margin {best:.3g} < 1")


@pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0, -1e-5])
def test_gradient_check_refuses_a_bad_step_before_drawing(h, monkeypatch):
    """The step goes through the same check as finite_diff_check's, before any instance."""
    drawn = []
    monkeypatch.setattr(training, "_random_instance", lambda *args: drawn.append(args))
    with pytest.raises(ValueError, match="step h .*: expected a finite number > 0"):
        check_model_gradients(h=h)
    assert drawn == []
