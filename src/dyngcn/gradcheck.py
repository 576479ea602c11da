"""Finite-difference gradient verification.

Used by the test suite to check every differentiable op, and handy when
adding new ones.  Run checks in float64: the central-difference error is
O(eps^2) and float32 roundoff swamps it.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

# central-difference step
EPS = 1e-5


def finite_difference_grad(f, x, eps=EPS):
    """Central-difference gradient of ``f`` with respect to tensor ``x``.

    ``f`` must be a deterministic function of ``x.data`` returning a
    scalar (a float, 0-d array, or single-element Tensor).  ``x.data`` is
    perturbed in place one coordinate at a time and restored afterwards.
    """
    base = x.data.copy()
    grad = np.zeros_like(base)
    flat = x.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    try:
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = _scalar(f(x))
            flat[i] = saved - eps
            lo = _scalar(f(x))
            flat[i] = saved
            grad_flat[i] = (hi - lo) / (2.0 * eps)
    finally:
        x.data[...] = base
    if not np.all(np.isfinite(grad)):
        raise ValueError("finite differences produced non-finite values")
    return grad


def _scalar(value):
    if isinstance(value, Tensor):
        value = value.data
    arr = np.asarray(value)
    if arr.size != 1:
        raise ValueError(f"gradient check target must be scalar, got shape {arr.shape}")
    return float(arr)


def relative_error(a, b):
    """Max-norm relative disagreement between two gradient arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {b.shape}")
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def check_gradient(f, x, eps=EPS):
    """Backprop gradient vs central differences; returns the relative error.

    ``f`` is evaluated once with autodiff to populate ``x.grad`` (existing
    grads are cleared first), then compared against finite differences.
    """
    x.grad = None
    out = f(x)
    if not isinstance(out, Tensor):
        raise TypeError("check_gradient target must return a Tensor")
    out.backward()
    if x.grad is None:
        raise RuntimeError("target did not propagate a gradient to x")
    analytic = x.grad.copy()
    numeric = finite_difference_grad(f, x, eps=eps)
    return relative_error(analytic, numeric)
