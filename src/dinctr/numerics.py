"""Deterministic float64 numerics shared by every other module.

Everything runs in float64: gradient checking is unreliable in 32-bit.

Randomness comes from :func:`make_rng`, which pins the PCG64 bit generator.
PCG64 is a fixed, documented algorithm whose output stream for a given seed
is identical across runs and platforms, so datasets and parameter
initialisations reproduce bit for bit. The platform-default global RNG is
never used.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator.

    ``stream`` separates independent uses of the same user-facing seed
    (0 = data generation and random splits, 1 = parameter init, 2 = epoch
    shuffling, 3 = the gradcheck command's model and batch).
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def sigmoid(x):
    """Numerically stable logistic function, 1 / (1 + exp(-x)).

    Computed via exp(-|x|) so it saturates instead of overflowing for any
    finite input. Scalar in, scalar out; arrays are mapped elementwise.
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    if out.ndim == 0:
        return float(out)
    return out


def grad_check(loss_fn: Callable[[], float], params: np.ndarray, analytic: np.ndarray, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``params`` is a float64 array that ``loss_fn()`` reads, and ``analytic``
    its same-shape gradient. In C order, each entry x is set to x + eps, then
    x - eps, then back to x in place, also when ``loss_fn`` raises. The
    numeric gradient is (loss(x+eps) - loss(x-eps)) / (2*eps); the result is
    the maximum of

        |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    ``loss_fn`` must be deterministic. Raises on non-finite losses, on
    non-positive ``eps`` and on arrays whose shape or dtype does not fit.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    g = np.asarray(analytic, dtype=np.float64)
    if g.shape != params.shape:
        raise ValueError(f"gradient shape {g.shape} != params shape {params.shape}")
    if params.dtype != np.float64:
        raise TypeError(f"params must be float64 to be perturbed in place, got {params.dtype}")
    worst = 0.0
    for idx in np.ndindex(params.shape):
        orig = params[idx]
        try:
            params[idx] = orig + eps
            f_plus = float(loss_fn())
            params[idx] = orig - eps
            f_minus = float(loss_fn())
        finally:
            params[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite loss while perturbing index {idx}")
        numeric = (f_plus - f_minus) / (2.0 * eps)
        rel = abs(g[idx] - numeric) / max(1e-8, abs(g[idx]) + abs(numeric))
        worst = max(worst, float(rel))
    return worst
