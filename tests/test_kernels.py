"""The batch kernels against one-row reference formulas."""

import numpy as np
import pytest

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


# Each contraction kernel, called as the model calls it, beside its einsum
# formula: (kernel, oracle, the second argument's shape per row).
CONTRACTIONS = {
    "attention_scores": (lambda behav, x: kernels.attention_scores(behav, x, 0.7),
                         lambda behav, x: np.einsum("btd,bd->bt", behav, x) * 0.7, "d"),
    "weighted_pool": (kernels.weighted_pool, lambda behav, x: np.einsum("bt,btd->bd", x, behav), "t"),
    "pool_backward": (kernels.pool_backward, lambda behav, x: np.einsum("bd,btd->bt", x, behav), "d"),
    "scores_backward": (lambda behav, x: kernels.scores_backward(behav, x, 0.7)[1],
                        lambda behav, x: np.einsum("bt,btd->bd", x * 0.7, behav), "t"),
}


def contraction_case(seed, name, B, T=32, d=8):
    rng = make_rng(seed)
    behav = rng.normal(size=(B, T, d))
    return behav, rng.normal(size=(B, d) if CONTRACTIONS[name][2] == "d" else (B, T))


@pytest.mark.parametrize("name", CONTRACTIONS)
def test_contraction_matches_einsum_oracle(name):
    kernel, oracle, _ = CONTRACTIONS[name]
    behav, x = contraction_case(5, name, B=64, T=7, d=6)
    np.testing.assert_allclose(kernel(behav, x), oracle(behav, x), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", CONTRACTIONS)
def test_a_row_has_the_same_bits_alone_as_in_a_4096_row_batch(name):
    """A score must not depend on the batch it is scored in: each row is
    its own matrix-vector product."""
    kernel = CONTRACTIONS[name][0]
    behav, x = contraction_case(6, name, B=4096)
    whole = kernel(behav, x)
    for rows in (slice(0, 1), slice(1, 2), slice(2047, 2048), slice(4095, 4096), slice(5, 8), slice(100, 1100)):
        assert kernel(behav[rows].copy(), x[rows].copy()).tobytes() == whole[rows].tobytes(), rows

