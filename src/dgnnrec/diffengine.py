"""Dense numeric kernels with exact hand-written backward passes.

The model has a fixed architecture, so there is no taped autodiff graph:
each differentiable helper is paired with a function returning its
analytical gradient, and ``finite_diff_check`` is the harness that
verifies gradients against central differences (used by the test suite,
the model's gradient check and the ``grad-check`` CLI command). It hands
its objective a whole block of perturbed parameter vectors at once, so
numpy's per-call cost is paid once per block and not once per coordinate.

Everything operates on float64 and is pure, no function mutating its
arguments, except ``layer_normalize``, ``leaky_relu_backward`` and
``adam_step``, which update in place the input, the gradient and the
parameters and Adam state they are given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Negative slope shared by every activation in the model. leaky_relu's
# max(x, slope*x) and the backward's branch-free factor are exact, -0.0, NaN
# and +-inf included, only for 0 < slope <= 1 (at 0, max(inf, 0*inf) is NaN).
LEAKY_SLOPE = 0.2
# finite_diff_check perturbs as many coordinates at once as keep its
# (2 * coordinates, P) stack of perturbed vectors within this many float64.
# A stacked model forward, which keeps no backward caches, holds ~1.3 P
# float64 per row at P = 408 besides its stack row. On the perfbench gradcheck
# sub-grid (seeds 71-76, alternating pairs, 1 << 14 read op_s 0.158 s at
# 59.7 MB peak RSS), 1 << 15 read 0.130 s at +0.3 MB and 1 << 16 read 0.115 s
# at +0.85 MB (+1.4%).
FD_BLOCK_FLOATS = 1 << 16


class ShapeError(ValueError):
    """Operands do not conform."""


class NonFiniteError(FloatingPointError):
    """A value that must be finite is NaN or infinite."""


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


# ---------------------------------------------------------------------------
# activations


def leaky_relu(x: np.ndarray) -> np.ndarray:
    """Elementwise x for x >= 0 and LEAKY_SLOPE*x below, computed as max(x, LEAKY_SLOPE*x)."""
    x = _as_f64(x)
    return np.maximum(x, LEAKY_SLOPE * x)


def leaky_relu_backward(x: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """dL/dx of ``leaky_relu(x)`` given dL/dy ``grad``, written into ``grad``.

    Where ``~(x >= 0)`` (NaN included) ``grad`` is multiplied by LEAKY_SLOPE,
    so the result is ``grad * np.where(x >= 0, 1, LEAKY_SLOPE)`` bit for bit;
    the derivative at exactly 0 is defined as 1 (a measure-zero choice).
    ``grad`` must be a writable float64 array shaped like ``x``.
    """
    factor = (_as_f64(x) >= 0.0) * (1.0 - LEAKY_SLOPE)
    factor += LEAKY_SLOPE
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

    In place: a float64 ``x`` is normalized where it lies and returned as
    ``xhat``, so a caller passes an array that it owns and reads no more,
    or a copy. A read-only float64 ``x`` raises ValueError before any
    write; any other input is first converted to a new float64 array.
    The variance is the population variance, so a constant vector maps to
    zeros; ``inv`` keeps the last axis with size 1. A learned scale and
    shift are the caller's to apply.
    """
    if not eps > 0.0:  # NaN too
        raise ShapeError(f"layer_normalize requires eps > 0, got {eps!r}")
    x = _as_f64(x)
    x -= _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(x, x) + eps)
    x *= inv
    return x, inv


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


# Adam's moment decay rates and denominator guard, the defaults of Kingma and Ba.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators; shapes mirror the parameters."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(np.zeros(shape), np.zeros(shape))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam update of ``params``, ``state.m``, ``state.v`` and ``state.step``, in place.

    ``params`` (one flat vector), ``m`` and ``v`` must be writable float64 arrays, or
    the update would land in a copy. Every check runs before the first write.
    """
    grads = _as_f64(grads)
    if not all(isinstance(a, np.ndarray) and a.dtype == np.float64 and a.flags.writeable
               for a in (params, state.m, state.v)) or params.ndim != 1:
        raise ShapeError("adam_step updates one flat parameter vector and its moments "
                         "in place: each must be a writable float64 array")
    if not params.shape == grads.shape == state.m.shape == state.v.shape:
        raise ShapeError("adam_step: parameter/gradient/state shapes disagree")
    if not lr >= 0.0:  # NaN too
        raise ShapeError("adam_step requires lr >= 0")
    if not np.all(np.isfinite(grads)):
        bad = int(np.flatnonzero(~np.isfinite(grads.ravel()))[0])
        raise NonFiniteError(f"non-finite gradient at flat coordinate {bad}")
    state.step += 1
    m, v, t = state.m, state.v, state.step
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    params -= lr * (m / (1.0 - ADAM_BETA1 ** t)) / (np.sqrt(v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)


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


def check_step_and_tolerance(h: float, tol: float) -> None:
    """Raise ValueError unless the step ``h`` and the tolerance ``tol`` are finite and > 0.

    With any other tolerance no error can fail a check (inf, NaN) or none
    can pass it (0 or below), and any other step gives no difference
    quotient that means anything.
    """
    for name, value in (("step h", h), ("tolerance", tol)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"finite-difference {name} {value!r}: "
                             f"expected a finite number > 0")


def finite_diff_check(f, params: np.ndarray, grad: np.ndarray, h: float = 1e-5,
                      tol: float = 1e-4) -> FiniteDiffReport:
    """Compare an analytical gradient against central differences of f.

    ``f`` maps a stack of K parameter arrays, shaped (K, *params.shape)
    (a (K, P) stack for a flat vector), to its K objective values; each
    value must depend on its own row only. The coordinates are perturbed
    in blocks: for a block of n coordinates ``f`` gets 2n rows, the first
    n holding ``params`` with one coordinate each at +h, the next n the
    same at -h. A block is as large as keeps the stack within
    FD_BLOCK_FLOATS float64. A non-finite value raises NonFiniteError
    naming the first coordinate whose perturbation gave one.

    Relative error per coordinate is |a - n| / max(|a|, |n|, 1e-5),
    so a gradient that is wrong by 2x reports an error near 0.5 and
    zero-gradient coordinates do not divide by zero. The floor sits well
    above the f64 rounding noise of the difference quotient (~1e-10 for
    h=1e-5) while staying far below any gradient that matters. ``h`` and
    ``tol`` must be finite and > 0 (``check_step_and_tolerance``).
    """
    check_step_and_tolerance(h, tol)
    params = _as_f64(params)
    grad = _as_f64(grad)
    if grad.shape != params.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match params {params.shape}")
    flat = params.ravel()
    size = flat.size
    block = max(1, min(size, FD_BLOCK_FLOATS // (2 * max(size, 1))))
    work = np.empty((2 * block, size))
    numeric = np.empty(size)
    for lo in range(0, size, block):
        coords = np.arange(lo, min(lo + block, size))
        n = coords.size
        stack = work[:2 * n]
        stack[...] = flat
        plus = np.arange(n)
        stack[plus, coords] += h
        stack[plus + n, coords] -= h
        values = np.asarray(f(stack.reshape(2 * n, *params.shape)), dtype=np.float64)
        if values.shape != (2 * n,):
            raise ShapeError(f"objective gave shape {values.shape} for a stack of {2 * n}")
        fp, fm = values[:n], values[n:]
        bad = ~(np.isfinite(fp) & np.isfinite(fm))
        if bad.any():
            raise NonFiniteError("non-finite evaluation while perturbing coordinate "
                                 f"{int(coords[bad.argmax()])}")
        numeric[coords] = (fp - fm) / (2.0 * h)
    analytic = grad.ravel()
    errors = np.abs(analytic - numeric) / np.maximum(
        np.maximum(np.abs(analytic), np.abs(numeric)), 1e-5)
    worst = int(np.argmax(errors))
    return FiniteDiffReport(float(errors[worst]), worst, size, tol, errors)
