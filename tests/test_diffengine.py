import numpy as np
import pytest

from dgnnrec import diffengine as de


# ---------------------------------------------------------------------------
# activations


def test_leaky_relu_values():
    assert np.array_equal(de.leaky_relu(np.array([2.0, -5.0])), [2.0, -1.0])
    assert np.array_equal(de.leaky_relu(np.array([0.0])), [0.0])


@pytest.mark.parametrize("alpha", [0.01, 0.2, 1.0])
def test_leaky_relu_is_the_slope_form_bit_for_bit(alpha):
    x = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 3.5, -3.5, 5e-324, -5e-324])
    with np.errstate(invalid="ignore"):
        want = np.where(x >= 0.0, x, alpha * x)
    assert de.leaky_relu(x, alpha).tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, np.nan])
def test_leaky_relu_rejects_slopes_the_max_form_gets_wrong(alpha):
    with pytest.raises(ValueError, match="alpha"):
        de.leaky_relu(np.array([1.0]), alpha)


def test_leaky_relu_backward_negative_slope():
    assert np.array_equal(de.leaky_relu_backward(np.array([-1.0, 3.0]), np.ones(2)), [0.2, 1.0])


def test_leaky_relu_derivative_at_zero_is_one():
    assert de.leaky_relu_backward(np.array([0.0, -0.0]), np.ones(2)).tolist() == [1.0, 1.0]


_SPECIALS = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 3.5, -3.5, 5e-324, -5e-324])


@pytest.mark.parametrize("alpha", [0.01, 0.2, 0.3, 0.7, 1.0])
def test_leaky_relu_backward_is_the_where_product_bit_for_bit(alpha, rng):
    # Every pairing of a special x with a special or random gradient value.
    x = np.repeat(_SPECIALS, _SPECIALS.size + 3)
    g = np.tile(np.concatenate([_SPECIALS, rng.normal(size=3)]), _SPECIALS.size)
    with np.errstate(invalid="ignore"):
        want = g * np.where(x >= 0, 1, alpha)
        got = de.leaky_relu_backward(x, g, alpha)
    assert got is g  # written in place
    assert got.tobytes() == want.tobytes()


def test_leaky_relu_backward_factor_is_exactly_one_or_alpha(rng):
    for alpha in np.concatenate([rng.uniform(0.0, 1.0, 2000), [1e-300, 0.5, 1.0]]):
        if alpha > 0.0:
            got = de.leaky_relu_backward(np.array([2.0, -2.0]), np.ones(2), alpha)
            assert got.tolist() == [1.0, alpha]


@pytest.mark.parametrize("alpha", [0.0, -0.2, 1.5, np.nan])
def test_leaky_relu_backward_rejects_the_slopes_leaky_relu_rejects(alpha):
    with pytest.raises(ValueError, match="alpha"):
        de.leaky_relu_backward(np.array([1.0]), np.array([1.0]), alpha)


def test_sigmoid_values():
    assert de.sigmoid(0.0) == 0.5
    assert float(de.sigmoid(1.0)) == pytest.approx(0.7310585786300049, abs=1e-12)


def test_sigmoid_extremes_no_overflow():
    with np.errstate(over="raise"):
        assert float(de.sigmoid(1000.0)) == 1.0
        assert float(de.sigmoid(-1000.0)) == 0.0


# ---------------------------------------------------------------------------
# layer normalization


def test_layer_normalize_constant_input_collapses():
    out, _ = de.layer_normalize(np.full(5, 3.7), eps=1e-6)
    assert np.max(np.abs(out)) <= np.sqrt(1e-6)


def test_layer_normalize_reference_value():
    out, inv = de.layer_normalize(np.array([1.0, -1.0]), eps=1e-12)
    assert np.allclose(out, [1.0, -1.0], atol=1e-6)
    assert inv.shape == (1,) and inv[0] == pytest.approx(1.0, abs=1e-6)


def test_layer_normalize_zero_mean_identity(rng):
    for _ in range(10):
        x = rng.normal(size=8) * 10
        out, _ = de.layer_normalize(x, eps=1e-6)
        assert abs(out.mean()) < 1e-12


@pytest.mark.parametrize("width", [1, 16, 48])
def test_layer_normalize_matches_the_mean_form(width, rng):
    # Row means are products with a 1/d column; they may differ from mean() in the last bits.
    x = rng.normal(size=(300, width)) * 5 + rng.normal(size=(300, 1)) * 3
    xhat, inv = de.layer_normalize(x, 1e-6)
    mu = x.mean(-1, keepdims=True)
    want_inv = 1.0 / np.sqrt(x.var(-1, keepdims=True) + 1e-6)
    np.testing.assert_allclose(inv, want_inv, rtol=1e-13)
    np.testing.assert_allclose(xhat, (x - mu) * want_inv, rtol=0, atol=1e-12)
    g = rng.normal(size=x.shape)
    want = want_inv * (g - g.mean(-1, keepdims=True)
                       - xhat * (g * xhat).mean(-1, keepdims=True))
    np.testing.assert_allclose(de.layer_normalize_backward(xhat, inv, g), want,
                               rtol=0, atol=1e-12)


def test_layer_normalize_requires_positive_eps():
    with pytest.raises(de.ShapeError):
        de.layer_normalize(np.ones(3), eps=0.0)


# ---------------------------------------------------------------------------
# finite differences


# ``finite_diff_check`` hands its objective a (K, P) stack and reads K values.


def test_finite_diff_quadratic_passes():
    report = de.finite_diff_check(lambda s: s[:, 0] ** 2, np.array([3.0]),
                                  np.array([6.0]), h=1e-5)
    assert report.passed and report.max_rel_err < 1e-6


def test_finite_diff_constant_function_passes():
    report = de.finite_diff_check(lambda s: np.full(len(s), 7.0), np.ones(4), np.zeros(4))
    assert report.passed


def test_finite_diff_detects_doubled_gradient():
    report = de.finite_diff_check(lambda s: s[:, 0] ** 2, np.array([3.0]),
                                  np.array([12.0]), h=1e-5)
    assert not report.passed
    assert report.max_rel_err == pytest.approx(0.5, abs=1e-4)
    # f = |x|^2 at (3, 1, 0), true gradient (6, 2, 0): only the doubled
    # middle coordinate errs; the zero one sits below the denominator floor.
    report = de.finite_diff_check(lambda s: (s * s).sum(axis=1), np.array([3.0, 1.0, 0.0]),
                                  np.array([6.0, 4.0, 0.0]), h=1e-5)
    assert report.errors.shape == (3,)
    assert report.errors[0] < 1e-6 and report.errors[2] < 1e-6
    assert report.errors[1] == pytest.approx(0.5, abs=1e-4)
    assert report.worst_coord == 1 and report.max_rel_err == report.errors[1]


def test_finite_diff_nonfinite_names_coordinate():
    def f(stack):
        return np.where(stack[:, 1] > 1.5, np.inf, stack.sum(axis=1))
    with pytest.raises(de.NonFiniteError, match="coordinate 1"):
        de.finite_diff_check(f, np.array([0.0, 1.5]), np.ones(2))
    # Within one block, the first bad coordinate is named, not a later one.
    with pytest.raises(de.NonFiniteError, match="coordinate 2$"):
        de.finite_diff_check(lambda s: np.where(s.max(axis=1) > 1.5, np.inf, 0.0),
                             np.array([0.0, 1.0, 1.5, 1.5]), np.zeros(4))


@pytest.mark.parametrize("budget", [2 * 7, 2 * 7 * 3, 1 << 16])
def test_finite_diff_blocks_perturb_one_coordinate_per_row(budget, monkeypatch):
    """Rows of a block hold ``params`` with one coordinate at +h, then the same at -h."""
    monkeypatch.setattr(de, "FD_BLOCK_FLOATS", budget)
    x = np.linspace(-1.0, 2.0, 7)
    w = np.arange(1.0, 8.0)
    seen = []

    def f(stack):
        seen.append(stack.copy())
        return np.sin(stack) @ w

    report = de.finite_diff_check(f, x, np.cos(x) * w, h=1e-5)
    assert report.passed and report.num_coords == 7
    block = min(7, budget // 14)
    assert [len(s) for s in seen] == [2 * min(block, 7 - lo) for lo in range(0, 7, block)]
    rows = np.concatenate([np.concatenate([s[:len(s) // 2], s[len(s) // 2:]], axis=1)
                           for s in seen])
    for i, (plus, minus) in enumerate(zip(rows[:, :7], rows[:, 7:])):
        want = x.copy()
        want[i] = x[i] + 1e-5
        assert plus.tobytes() == want.tobytes()
        want[i] = x[i] - 1e-5
        assert minus.tobytes() == want.tobytes()
    # One coordinate at a time gives the same errors bit for bit.
    monkeypatch.setattr(de, "FD_BLOCK_FLOATS", 1)
    single = de.finite_diff_check(lambda s: np.sin(s) @ w, x, np.cos(x) * w, h=1e-5)
    assert single.errors.tobytes() == report.errors.tobytes()


def test_finite_diff_refuses_an_objective_that_is_not_stacked():
    with pytest.raises(de.ShapeError, match="stack of"):
        de.finite_diff_check(lambda s: float(s.sum()), np.ones(3), np.ones(3))


# Gradient contract: every op passes FD at h=1e-5, rtol 1e-4, 20+ seeds, d in {2,4,8}.
@pytest.mark.parametrize("dim", [2, 4, 8])
def test_all_ops_pass_finite_differences(dim):
    for seed in range(21):
        rng = np.random.default_rng(1000 * dim + seed)
        w = rng.normal(size=dim)

        # keep activations away from their kink
        x1 = rng.normal(size=dim)
        x1[np.abs(x1) < 1e-2] = 0.5
        rep = de.finite_diff_check(lambda s: de.leaky_relu(s) @ w, x1,
                                   de.leaky_relu_backward(x1, w.copy()))
        assert rep.passed, f"leaky_relu d={dim} seed={seed}: {rep.max_rel_err}"

        # The backward is built from the forward's saved (xhat, inv), as the model uses it.
        x3 = rng.normal(size=dim) * 2
        xhat, inv = de.layer_normalize(x3, 1e-6)
        rep = de.finite_diff_check(lambda s: de.layer_normalize(s, 1e-6)[0] @ w, x3,
                                   de.layer_normalize_backward(xhat, inv, w))
        assert rep.passed, f"layer_normalize d={dim} seed={seed}: {rep.max_rel_err}"


def test_ops_finite_on_large_inputs(rng):
    # No NaN/Inf on finite inputs within magnitude 1e6.
    for _ in range(50):
        x = rng.uniform(-1e6, 1e6, size=6)
        for out in (de.leaky_relu(x), de.sigmoid(x),
                    *de.layer_normalize(x, 1e-6)):
            assert np.all(np.isfinite(out))


def test_ops_are_pure_and_deterministic(rng):
    x = rng.normal(size=5)
    x_copy = x.copy()
    a = de.layer_normalize(x, 1e-6)
    b = de.layer_normalize(x, 1e-6)
    assert all(np.array_equal(u, v) for u, v in zip(a, b))
    assert np.array_equal(x, x_copy)
    g = rng.normal(size=5)
    g_copy = g.copy()
    assert np.array_equal(de.layer_normalize_backward(*a, g), de.layer_normalize_backward(*a, g))
    assert np.array_equal(g, g_copy) and np.array_equal(a[0], b[0])


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_keeps_params():
    state = de.AdamState.zeros(4)
    params = np.array([1.0, -2.0, 0.5, 3.0])
    new, state2 = de.adam_step(params, np.zeros(4), state, lr=0.1)
    assert np.array_equal(new, params)
    assert state2.step == 1


def test_adam_first_step_is_signed_lr():
    # closed form at t=1: update = -lr * g / (|g| + eps) ~= -lr * sign(g)
    g = np.array([0.3, -2.0, 5.0])
    new, _ = de.adam_step(np.zeros(3), g, de.AdamState.zeros(3), lr=0.01)
    assert np.allclose(new, -0.01 * np.sign(g), rtol=1e-6)


def test_adam_is_pure_and_deterministic():
    rng = np.random.default_rng(3)
    params, g = rng.normal(size=6), rng.normal(size=6)
    s1 = de.AdamState.zeros(6)
    out1 = de.adam_step(params, g, s1, lr=0.05)
    out2 = de.adam_step(params, g, s1, lr=0.05)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1].m, out2[1].m)
    assert s1.step == 0  # input state untouched


def test_adam_refuses_a_stack_of_vectors():
    with pytest.raises(de.ShapeError, match="one flat parameter vector"):
        de.adam_step(np.zeros((2, 3)), np.ones((2, 3)), de.AdamState.zeros((2, 3)), lr=0.1)


def test_adam_rejects_nonfinite_gradient():
    with pytest.raises(de.NonFiniteError):
        de.adam_step(np.zeros(2), np.array([1.0, np.nan]), de.AdamState.zeros(2), lr=0.1)


def test_adam_moments_decay_toward_zero():
    state = de.AdamState.zeros(2)
    params = np.ones(2)
    _, state = de.adam_step(params, np.ones(2), state, lr=0.0)
    m1 = np.abs(state.m).max()
    for _ in range(10):
        params, state = de.adam_step(params, np.zeros(2), state, lr=0.0)
    assert np.abs(state.m).max() < m1
