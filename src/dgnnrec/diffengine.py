"""Dense numeric kernels with exact hand-written backward passes.

The model has a fixed architecture, so there is no taped autodiff graph:
each differentiable helper is paired with a function returning its
analytical gradient, and ``finite_diff_check`` is the harness that
verifies gradients against central differences (used by the test suite,
the model's gradient check and the ``grad-check`` CLI command).

Everything operates on float64 and is pure, no function mutating its
arguments, except ``leaky_relu_backward``, which scales the gradient it is
given in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Negative slope shared by every activation in the model.
LEAKY_SLOPE = 0.2


class ShapeError(ValueError):
    """Operands do not conform."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite is NaN or infinite."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# activations


def leaky_relu(x: np.ndarray, alpha: float = LEAKY_SLOPE) -> np.ndarray:
    """Elementwise x for x >= 0 and alpha*x below, computed as max(x, alpha*x).

    The two forms agree bit for bit, -0.0, NaN and +-inf included, only for
    0 < alpha <= 1 (at alpha = 0, max(inf, 0*inf) is NaN), so any other
    slope raises ValueError.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"leaky_relu needs 0 < alpha <= 1, got {alpha}")
    x = _as_f64(x)
    return np.maximum(x, alpha * x)


def leaky_relu_backward(x: np.ndarray, grad: np.ndarray,
                        alpha: float = LEAKY_SLOPE) -> np.ndarray:
    """dL/dx of ``leaky_relu(x)`` given dL/dy ``grad``, written into ``grad``.

    Where ``~(x >= 0)`` (NaN included) ``grad`` is multiplied by alpha, so the
    result is ``grad * np.where(x >= 0, 1, alpha)`` bit for bit; the derivative
    at exactly 0 is defined as 1 (a measure-zero choice). The factor is built
    without a branch as (x >= 0) * (1 - alpha) + alpha, which is exactly 1 or
    alpha for 0 < alpha <= 1; any other slope raises ValueError. ``grad`` must
    be a writable float64 array shaped like ``x``.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"leaky_relu_backward needs 0 < alpha <= 1, got {alpha}")
    factor = (_as_f64(x) >= 0.0) * (1.0 - alpha)
    factor += alpha
    grad *= factor
    return grad


def sigmoid(x):
    """1/(1+exp(-x)), stable for large |x|."""
    x = _as_f64(x)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))


# ---------------------------------------------------------------------------
# layer normalization (over the last axis)


def _row_mean(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Mean along the last axis of ``x``, or of ``x * y``, keeping it with size 1.

    Summed by ``einsum``, which also fuses the product: on rows as short
    as the model's (d or (L+1)*d wide) this is about four times faster
    than ``mean`` (0.11 ms against 0.43 ms at 17006 x 16), and each row's
    bits do not depend on the other rows, so a layer computed on some of
    its rows gives them exactly. A product with a column of 1/d is faster
    still (0.07 ms), but BLAS's matrix-vector kernel rounds a row by its
    position in the block.
    """
    total = np.einsum("...d->...", x) if y is None else np.einsum("...d,...d->...", x, y)
    return total[..., None] / x.shape[-1]


def layer_normalize(x: np.ndarray, eps: float):
    """(xhat, inv) along the last axis: xhat = (x - mean) * inv, inv = 1/sqrt(var + eps).

    The variance is the population variance, so a constant vector maps to
    zeros; ``inv`` keeps the last axis with size 1. A learned scale and
    shift are the caller's to apply.
    """
    if eps <= 0.0:
        raise ShapeError("layer_normalize requires eps > 0")
    x = _as_f64(x)
    xhat = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xhat, xhat) + eps)
    xhat *= inv
    return xhat, inv


def layer_normalize_backward(xhat: np.ndarray, inv: np.ndarray,
                             grad_xhat: np.ndarray) -> np.ndarray:
    """dL/dx of ``layer_normalize`` from its outputs (xhat, inv) and dL/dxhat."""
    xhat, g = _as_f64(xhat), _as_f64(grad_xhat)
    if g.shape != xhat.shape:
        raise ShapeError(f"upstream gradient shape {g.shape} does not match {xhat.shape}")
    # d/dx of (x-mu)*inv with mu, var both functions of x.
    return inv * (g - _row_mean(g) - xhat * _row_mean(g, xhat))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators; shapes mirror the parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros(cls, shape, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape), 0, beta1, beta2, eps)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float):
    """One Adam update. Pure: returns (new_params, new_state)."""
    params, grads = _as_f64(params), _as_f64(grads)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeError("adam_step: parameter/gradient/state shapes disagree")
    if lr < 0.0:
        raise ShapeError("adam_step requires lr >= 0")
    if not np.all(np.isfinite(grads)):
        bad = int(np.flatnonzero(~np.isfinite(grads.ravel()))[0])
        raise NonFiniteError(f"non-finite gradient at flat coordinate {bad}")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    mhat = m / (1.0 - state.beta1 ** t)
    vhat = v / (1.0 - state.beta2 ** t)
    new_params = params - lr * mhat / (np.sqrt(vhat) + state.eps)
    return new_params, AdamState(m, v, t, state.beta1, state.beta2, state.eps)


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class FiniteDiffReport:
    max_rel_err: float
    worst_coord: int
    num_coords: int
    tol: float
    errors: np.ndarray = field(repr=False)  # relative error per coordinate

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tol


def finite_diff_check(f, params: np.ndarray, grad: np.ndarray, h: float = 1e-5,
                      tol: float = 1e-4, denom_floor: float = 1e-5) -> FiniteDiffReport:
    """Compare an analytical gradient against central differences of f.

    ``f`` receives an array shaped like ``params`` and returns a scalar.
    Relative error per coordinate is |a - n| / max(|a|, |n|, denom_floor),
    so a gradient that is wrong by 2x reports an error near 0.5 and
    zero-gradient coordinates do not divide by zero. The floor sits well
    above the f64 rounding noise of the difference quotient (~1e-10 for
    h=1e-5) while staying far below any gradient that matters.
    """
    params = _as_f64(params)
    grad = _as_f64(grad)
    if grad.shape != params.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match params {params.shape}")
    work = params.copy()
    flat = work.ravel()
    numeric = np.empty(flat.size)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(work))
        flat[i] = orig - h
        fm = float(f(work))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteError(f"non-finite evaluation while perturbing coordinate {i}")
        numeric[i] = (fp - fm) / (2.0 * h)
    analytic = grad.ravel()
    errors = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), denom_floor)
    worst = int(np.argmax(errors))
    return FiniteDiffReport(float(errors[worst]), worst, flat.size, tol, errors)
