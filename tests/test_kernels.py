"""The batch kernels against one-row reference formulas."""

import numpy as np

from dinctr import kernels
from dinctr.numerics import make_rng


def softmax_oracle(scores, mask):
    """Masked softmax over one 1-D score vector: masked positions are
    excluded before exponentiation and come back as exact zeros."""
    s = np.asarray(scores, dtype=np.float64)
    m = np.asarray(mask, dtype=bool)
    out = np.zeros_like(s)
    live = s[m]
    z = np.exp(live - live.max())
    out[m] = z / z.sum()
    return out


def random_case(seed, B=5, T=7, d=6):
    rng = make_rng(seed)
    behav = rng.normal(size=(B, T, d))
    ad = rng.normal(size=(B, d))
    mask = np.zeros((B, T), dtype=bool)
    for b in range(B):
        n = int(rng.integers(1, T + 1))
        mask[b, :n] = True
    behav[~mask] = 0.0
    return behav, ad, mask


def test_batched_softmax_matches_single_row_reference():
    """The batch kernel must agree with the 1-D masked softmax row by row."""
    behav, ad, mask = random_case(3)
    scores = kernels.attention_scores(behav, ad, 1.0)
    weights = kernels.masked_softmax(scores, mask)
    for b in range(scores.shape[0]):
        expect = softmax_oracle(scores[b], mask[b])
        np.testing.assert_allclose(weights[b], expect, rtol=1e-12, atol=1e-15)


def test_uniform_weights_sum_to_one_on_live_slots():
    _, _, mask = random_case(11)
    w = kernels.uniform_weights(mask)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-15)
    assert (w[~mask] == 0.0).all()
