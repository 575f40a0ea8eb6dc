"""Hot batch-level kernels for the attention/pooling path.

Each kernel has a pure NumPy variant (``_np_*``) and a Numba-compiled
variant (``_nb_*``); :mod:`dinctr.backend` picks which set is exported
under the public names. Shapes: behaviors (B, T, d), ads (B, d),
masks (B, T) bool, weights/scores (B, T). Every row of a mask must have at
least one live slot; callers enforce that via batch encoding.

The MLP matmuls are not here: NumPy already dispatches those to native
BLAS, identical on both backends.
"""

from __future__ import annotations

import numpy as np

from .backend import HAS_NUMBA, USE_NUMBA, njit

# ---------------------------------------------------------------------------
# NumPy variants
# ---------------------------------------------------------------------------


def _np_attention_scores(behav, ad, mask, inv_temp):
    scores = np.einsum("btd,bd->bt", behav, ad) * inv_temp
    scores[~mask] = 0.0
    return scores


def _np_masked_softmax(scores, mask):
    # exp(-inf) underflows to an exact 0.0, so padded slots never leak.
    neg = np.where(mask, scores, -np.inf)
    z = np.exp(neg - neg.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def _np_uniform_weights(mask):
    counts = mask.sum(axis=1, keepdims=True).astype(np.float64)
    return np.where(mask, 1.0 / counts, 0.0)


def _np_weighted_pool(behav, weights):
    return np.einsum("bt,btd->bd", weights, behav)


def _np_pool_backward(behav, weights, dpooled):
    dweights = np.einsum("bd,btd->bt", dpooled, behav)
    dbehav = weights[:, :, None] * dpooled[:, None, :]
    return dweights, dbehav


def _np_softmax_backward(weights, dweights):
    inner = (dweights * weights).sum(axis=1, keepdims=True)
    return weights * (dweights - inner)


def _np_scores_backward(behav, ad, dscores, inv_temp):
    ds = dscores * inv_temp
    dbehav = ds[:, :, None] * ad[:, None, :]
    dad = np.einsum("bt,btd->bd", ds, behav)
    return dbehav, dad


# ---------------------------------------------------------------------------
# Numba variants
# ---------------------------------------------------------------------------

if HAS_NUMBA:

    @njit(cache=True)
    def _nb_attention_scores(behav, ad, mask, inv_temp):
        B, T, d = behav.shape
        scores = np.zeros((B, T))
        for b in range(B):
            for t in range(T):
                if mask[b, t]:
                    acc = 0.0
                    for k in range(d):
                        acc += behav[b, t, k] * ad[b, k]
                    scores[b, t] = acc * inv_temp
        return scores

    @njit(cache=True)
    def _nb_masked_softmax(scores, mask):
        B, T = scores.shape
        out = np.zeros((B, T))
        for b in range(B):
            hi = -np.inf
            for t in range(T):
                if mask[b, t] and scores[b, t] > hi:
                    hi = scores[b, t]
            total = 0.0
            for t in range(T):
                if mask[b, t]:
                    e = np.exp(scores[b, t] - hi)
                    out[b, t] = e
                    total += e
            for t in range(T):
                if mask[b, t]:
                    out[b, t] /= total
        return out

    @njit(cache=True)
    def _nb_uniform_weights(mask):
        B, T = mask.shape
        out = np.zeros((B, T))
        for b in range(B):
            n = 0
            for t in range(T):
                if mask[b, t]:
                    n += 1
            w = 1.0 / n
            for t in range(T):
                if mask[b, t]:
                    out[b, t] = w
        return out

    @njit(cache=True)
    def _nb_weighted_pool(behav, weights):
        B, T, d = behav.shape
        out = np.zeros((B, d))
        for b in range(B):
            for t in range(T):
                w = weights[b, t]
                if w != 0.0:
                    for k in range(d):
                        out[b, k] += w * behav[b, t, k]
        return out

    @njit(cache=True)
    def _nb_pool_backward(behav, weights, dpooled):
        B, T, d = behav.shape
        dweights = np.zeros((B, T))
        dbehav = np.zeros((B, T, d))
        for b in range(B):
            for t in range(T):
                acc = 0.0
                for k in range(d):
                    acc += dpooled[b, k] * behav[b, t, k]
                dweights[b, t] = acc
                w = weights[b, t]
                if w != 0.0:
                    for k in range(d):
                        dbehav[b, t, k] = w * dpooled[b, k]
        return dweights, dbehav

    @njit(cache=True)
    def _nb_softmax_backward(weights, dweights):
        B, T = weights.shape
        out = np.zeros((B, T))
        for b in range(B):
            inner = 0.0
            for t in range(T):
                inner += dweights[b, t] * weights[b, t]
            for t in range(T):
                out[b, t] = weights[b, t] * (dweights[b, t] - inner)
        return out

    @njit(cache=True)
    def _nb_scores_backward(behav, ad, dscores, inv_temp):
        B, T, d = behav.shape
        dbehav = np.zeros((B, T, d))
        dad = np.zeros((B, d))
        for b in range(B):
            for t in range(T):
                ds = dscores[b, t] * inv_temp
                if ds != 0.0:
                    for k in range(d):
                        dbehav[b, t, k] = ds * ad[b, k]
                        dad[b, k] += ds * behav[b, t, k]
        return dbehav, dad


if USE_NUMBA:
    attention_scores = _nb_attention_scores
    masked_softmax = _nb_masked_softmax
    uniform_weights = _nb_uniform_weights
    weighted_pool = _nb_weighted_pool
    pool_backward = _nb_pool_backward
    softmax_backward = _nb_softmax_backward
    scores_backward = _nb_scores_backward
else:
    attention_scores = _np_attention_scores
    masked_softmax = _np_masked_softmax
    uniform_weights = _np_uniform_weights
    weighted_pool = _np_weighted_pool
    pool_backward = _np_pool_backward
    softmax_backward = _np_softmax_backward
    scores_backward = _np_scores_backward


def warmup() -> None:
    """Trigger JIT compilation of every kernel on a tiny batch.

    Useful before timing anything; a no-op cost on the NumPy path.
    """
    behav = np.zeros((2, 3, 4))
    ad = np.zeros((2, 4))
    mask = np.array([[True, True, False], [True, False, False]])
    scores = attention_scores(behav, ad, mask, 1.0)
    w = masked_softmax(scores, mask)
    uniform_weights(mask)
    pooled = weighted_pool(behav, w)
    dw, _ = pool_backward(behav, w, pooled)
    ds = softmax_backward(w, dw)
    scores_backward(behav, ad, ds, 1.0)
