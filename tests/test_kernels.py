"""Backend equivalence: the Numba kernels must reproduce the NumPy kernels.

Cross-backend agreement is pinned at 1e-12 relative error (bitwise equality
is not promised; floating-point reduction order differs). Exact contracts,
like zeros at padded slots, hold on both paths.
"""

import numpy as np
import pytest

from dinctr import kernels
from dinctr.numerics import make_rng, softmax

HAS_NUMBA = kernels.HAS_NUMBA

needs_numba = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


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


@needs_numba
@pytest.mark.parametrize("seed", range(5))
def test_forward_kernels_agree(seed):
    behav, ad, mask = random_case(seed)
    s_np = kernels._np_attention_scores(behav, ad, mask, 0.7)
    s_nb = kernels._nb_attention_scores(behav, ad, mask, 0.7)
    np.testing.assert_allclose(s_nb, s_np, rtol=1e-12, atol=1e-14)

    w_np = kernels._np_masked_softmax(s_np, mask)
    w_nb = kernels._nb_masked_softmax(s_np, mask)
    np.testing.assert_allclose(w_nb, w_np, rtol=1e-12, atol=1e-15)
    assert (w_nb[~mask] == 0.0).all() and (w_np[~mask] == 0.0).all()

    u_np = kernels._np_uniform_weights(mask)
    u_nb = kernels._nb_uniform_weights(mask)
    np.testing.assert_array_equal(u_nb, u_np)

    p_np = kernels._np_weighted_pool(behav, w_np)
    p_nb = kernels._nb_weighted_pool(behav, w_np)
    np.testing.assert_allclose(p_nb, p_np, rtol=1e-12, atol=1e-14)


@needs_numba
@pytest.mark.parametrize("seed", range(5))
def test_backward_kernels_agree(seed):
    behav, ad, mask = random_case(seed, B=4, T=6, d=5)
    scores = kernels._np_attention_scores(behav, ad, mask, 1.0)
    weights = kernels._np_masked_softmax(scores, mask)
    rng = make_rng(seed + 100)
    dpooled = rng.normal(size=ad.shape)

    dw_np, db_np = kernels._np_pool_backward(behav, weights, dpooled)
    dw_nb, db_nb = kernels._nb_pool_backward(behav, weights, dpooled)
    np.testing.assert_allclose(dw_nb, dw_np, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(db_nb, db_np, rtol=1e-12, atol=1e-14)

    ds_np = kernels._np_softmax_backward(weights, dw_np)
    ds_nb = kernels._nb_softmax_backward(weights, dw_np)
    np.testing.assert_allclose(ds_nb, ds_np, rtol=1e-12, atol=1e-14)

    dbe_np, da_np = kernels._np_scores_backward(behav, ad, ds_np, 1.0)
    dbe_nb, da_nb = kernels._nb_scores_backward(behav, ad, ds_np, 1.0)
    np.testing.assert_allclose(dbe_nb, dbe_np, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(da_nb, da_np, rtol=1e-12, atol=1e-14)


def test_batched_softmax_matches_single_row_reference():
    """The batch kernel must agree with the 1-D masked softmax row by row."""
    behav, ad, mask = random_case(3)
    scores = kernels.attention_scores(behav, ad, mask, 1.0)
    weights = kernels.masked_softmax(scores, mask)
    for b in range(scores.shape[0]):
        expect = softmax(scores[b], mask[b])
        np.testing.assert_allclose(weights[b], expect, rtol=1e-12, atol=1e-15)


def test_uniform_weights_sum_to_one_on_live_slots():
    _, _, mask = random_case(11)
    w = kernels.uniform_weights(mask)
    np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-15)
    assert (w[~mask] == 0.0).all()
