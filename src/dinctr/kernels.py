"""Hot batch-level kernels for the attention/pooling path.

Shapes: behaviors (B, T, d), ads (B, d), masks (B, T) bool, weights/scores
(B, T). Every row of a mask must have at least one live slot;
``DinModel.forward`` rejects a batch with an empty one. Scores at padded
slots are left as computed: ``masked_softmax`` replaces them. Every result
is bit-for-bit reproducible.

The four contractions over T or d are batched ``matmul`` calls, one
matrix-vector product per row, so a row's result does not depend on the
other rows of its batch: a row scored alone has the bits it has inside a
4,096-row batch. The MLP matmuls are not here: NumPy already dispatches
those to native BLAS.
"""

from __future__ import annotations

import numpy as np


def attention_scores(behav, ad, inv_temp):
    return (behav @ ad[:, :, None])[:, :, 0] * inv_temp


def masked_softmax(scores, mask):
    # exp(-inf) underflows to an exact 0.0, so padded slots never leak.
    neg = np.where(mask, scores, -np.inf)
    z = np.exp(neg - neg.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def uniform_weights(mask):
    counts = mask.sum(axis=1, keepdims=True).astype(np.float64)
    return np.where(mask, 1.0 / counts, 0.0)


def weighted_pool(behav, weights):
    return (weights[:, None, :] @ behav)[:, 0, :]


def pool_backward(behav, dpooled):
    """dLoss/dweights; the behavior gradient, weights * dpooled, is built by
    the caller on the live slots only."""
    return (behav @ dpooled[:, :, None])[:, :, 0]


def softmax_backward(weights, dweights):
    inner = (dweights * weights).sum(axis=1, keepdims=True)
    return weights * (dweights - inner)


def scores_backward(behav, dscores, inv_temp):
    """The gradient at the dot products V_i . V_a, ds = dscores / temperature,
    and dLoss/dad; the caller builds the behavior gradient ds * ad on the
    live slots only."""
    ds = dscores * inv_temp
    return ds, (ds[:, None, :] @ behav)[:, 0, :]
