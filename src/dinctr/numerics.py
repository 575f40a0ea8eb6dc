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
    (0 = data generation, 1 = parameter init, 2 = epoch shuffling).
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


def grad_check(
    loss_fn: Callable[[np.ndarray], float],
    params,
    analytic_grad,
    eps: float = 1e-5,
) -> float:
    """Compare an analytic gradient against central finite differences.

    For each coordinate i the numeric gradient is
    (loss(p + eps*e_i) - loss(p - eps*e_i)) / (2*eps) and the returned value
    is the maximum over coordinates of

        |analytic - numeric| / max(1e-8, |analytic| + |numeric|).

    ``loss_fn`` must be pure and deterministic. Raises on non-finite loss
    evaluations and on non-positive ``eps``.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    p = np.array(params, dtype=np.float64).ravel()
    g = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if g.shape != p.shape:
        raise ValueError(f"gradient shape {g.shape} != params shape {p.shape}")
    worst = 0.0
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + eps
        f_plus = float(loss_fn(p))
        p[i] = orig - eps
        f_minus = float(loss_fn(p))
        p[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite loss while perturbing coordinate {i}")
        numeric = (f_plus - f_minus) / (2.0 * eps)
        rel = abs(g[i] - numeric) / max(1e-8, abs(g[i]) + abs(numeric))
        if rel > worst:
            worst = float(rel)
    return worst
