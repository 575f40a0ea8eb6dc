import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dinctr import kernels
from dinctr.data import EncodedBatch
from dinctr.model import (
    PREDICT_CHUNK_ROWS,
    DinModel,
    ModelConfig,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from dinctr.data import Vocabulary
from dinctr.numerics import make_rng
from dinctr.optim import bce_loss, check_gradients, objective


def tiny_config(use_attention=True, dim=3, hidden=(4,), item_vocab=12, max_seq_len=5):
    return ModelConfig(
        item_vocab=item_vocab,
        user_vocab=5,
        dim=dim,
        hidden=hidden,
        max_seq_len=max_seq_len,
        temperature=1.0,
        use_attention=use_attention,
        use_user_profile=False,
    )


def random_batch(config, rng, B=2):
    T = config.max_seq_len
    behavior_idx = np.zeros((B, T), dtype=np.int64)
    for b in range(B):
        n = int(rng.integers(1, T + 1))
        behavior_idx[b, :n] = rng.integers(2, config.item_vocab, size=n)
    return EncodedBatch(
        ad_idx=rng.integers(2, config.item_vocab, size=B).astype(np.int64),
        behavior_idx=behavior_idx,
        labels=rng.integers(0, 2, size=B).astype(np.float64),
        user_idx=rng.integers(2, config.user_vocab, size=B).astype(np.int64),
    )


def one_record(behavior_idx, ad_idx, max_seq_len):
    """A one-impression batch with the given item indices."""
    row = np.zeros((1, max_seq_len), dtype=np.int64)
    row[0, : len(behavior_idx)] = behavior_idx
    return EncodedBatch(
        ad_idx=np.array([ad_idx], dtype=np.int64),
        behavior_idx=row,
        labels=np.array([1.0]),
        user_idx=np.array([2], dtype=np.int64),
    )


def attend(behav, ad, mask=None):
    """Attention weights for one record through the model's batch kernels."""
    behav = np.asarray(behav, dtype=np.float64)[None]
    mask = np.ones(behav.shape[:2], dtype=bool) if mask is None else np.asarray(mask, dtype=bool)[None]
    scores = kernels.attention_scores(behav, np.asarray(ad, dtype=np.float64)[None], 1.0)
    return kernels.masked_softmax(scores, mask)[0]


def pool(behav, weights):
    """``kernels.weighted_pool`` for one record."""
    return kernels.weighted_pool(np.asarray(behav, dtype=np.float64)[None], np.asarray(weights, dtype=np.float64)[None])[0]


class TestRecordLevelOps:
    def test_attention_uniform_for_equal_behaviors(self):
        behav = np.tile([1.0, 2.0], (4, 1))
        w = attend(behav, np.array([0.5, -0.25]))
        np.testing.assert_array_equal(w, np.full(4, 0.25))

    def test_attention_singleton(self):
        w = attend(np.array([[1.0, 0.0]]), np.array([3.0, 1.0]))
        np.testing.assert_array_equal(w, [1.0])

    def test_attention_closed_form(self):
        behav = np.array([[1.0, 0.0], [0.0, 1.0]])
        w = attend(behav, np.array([1.0, 0.0]))
        e = math.e
        np.testing.assert_allclose(w, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        np.testing.assert_allclose(w, [0.7311, 0.2689], atol=5e-5)

    def test_pool_uniform_is_mean(self):
        behav = np.array([[2.0, 0.0], [0.0, 4.0], [1.0, 1.0]])
        w = kernels.uniform_weights(np.ones((1, 3), dtype=bool))[0]
        np.testing.assert_allclose(pool(behav, w), behav.mean(axis=0), atol=1e-15)

    def test_pool_one_hot_selects_row(self):
        behav = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_array_equal(pool(behav, [0.0, 1.0]), [0.0, 4.0])

    def test_pool_hand_example(self):
        out = pool(np.array([[2.0, 0.0], [0.0, 4.0]]), [0.75, 0.25])
        np.testing.assert_array_equal(out, [1.5, 1.0])

    def test_interaction(self):
        """The MLP input's product block sums to the affinity V_u . V_a."""
        config = tiny_config(dim=2, max_seq_len=3)
        model = init_model(config, make_rng(12, stream=1))
        for v_u, v_a, dot in (([1.0, 0.0], [0.0, 1.0], 0.0), ([1.0, 0.0], [1.0, 0.0], 1.0), ([1.0, 2.0], [3.0, 4.0], 11.0)):
            model.params["item_emb"][2] = v_u  # the lone behavior, so V_u = v_u
            model.params["item_emb"][3] = v_a
            _, cache = model.forward(one_record([2], 3, config.max_seq_len))
            assert cache.post_acts[0][0, 4:6].sum() == dot


class TestPredict:
    @pytest.mark.parametrize("use_attention", [True, False], ids=["din", "base"])
    @pytest.mark.parametrize("n", [PREDICT_CHUNK_ROWS - 1, PREDICT_CHUNK_ROWS, PREDICT_CHUNK_ROWS + 1])
    def test_chunks_equal_one_forward_pass(self, n, use_attention, monkeypatch):
        config = tiny_config(use_attention=use_attention)
        model = init_model(config, make_rng(60, stream=1))
        batch = random_batch(config, make_rng(61), B=n)
        expect = model.forward(batch)[0]
        sizes = []
        forward = DinModel.forward

        def spy(self, b):
            sizes.append(len(b))
            return forward(self, b)

        monkeypatch.setattr(DinModel, "forward", spy)
        got = model.predict(batch)
        assert sizes == [PREDICT_CHUNK_ROWS] * (n // PREDICT_CHUNK_ROWS) + [n % PREDICT_CHUNK_ROWS] * (n % PREDICT_CHUNK_ROWS > 0)
        np.testing.assert_array_equal(got, expect)

    def test_empty_mask_row_rejected_naming_its_row(self):
        """A row with no live slot would give nan; the error names the row of
        the whole batch, not of the chunk it falls in."""
        config = tiny_config()
        model = init_model(config, make_rng(62, stream=1))
        with pytest.raises(ValueError, match="batch row 0 has no live behavior slot"):
            model.forward(one_record([], 3, config.max_seq_len))
        batch = random_batch(config, make_rng(63), B=PREDICT_CHUNK_ROWS + 3)
        batch.behavior_idx[PREDICT_CHUNK_ROWS + 1] = 0
        with pytest.raises(ValueError, match=f"batch row {PREDICT_CHUNK_ROWS + 1} has no live"):
            model.predict(batch)

    @pytest.mark.parametrize("width", [4, 6])
    def test_batch_of_another_width_rejected(self, width):
        """A batch encoded with another max_seq_len used to be scored."""
        model = init_model(tiny_config(), make_rng(64, stream=1))  # max_seq_len=5
        batch = random_batch(tiny_config(max_seq_len=width), make_rng(65), B=3)
        for score in (model.forward, model.predict):
            with pytest.raises(ValueError, match=f"batch is {width} behavior slots wide, but the model's max_seq_len is 5"):
                score(batch)


class TestForward:
    def test_zero_mlp_gives_half(self):
        config = tiny_config()
        model = init_model(config, make_rng(0, stream=1))
        for i in range(model.n_layers):
            model.params[f"w{i}"][...] = 0.0
        probs, _ = model.forward(random_batch(config, make_rng(5), B=4))
        np.testing.assert_array_equal(probs, np.full(4, 0.5))

    def test_attention_reduces_to_uniform_on_identical_items(self):
        """All behaviors the same item: softmax over equal scores is uniform."""
        config = tiny_config(use_attention=True)
        model_att = init_model(config, make_rng(1, stream=1))
        model_uni = DinModel(
            ModelConfig(**{**config.to_dict(), "use_attention": False, "hidden": tuple(config.hidden)}),
            {k: v.copy() for k, v in model_att.params.items()},
        )
        behavior_idx = np.array([[7, 7, 7, 0, 0]], dtype=np.int64)
        batch = EncodedBatch(
            ad_idx=np.array([3], dtype=np.int64),
            behavior_idx=behavior_idx,
            labels=np.array([1.0]),
            user_idx=np.array([2], dtype=np.int64),
        )
        p_att = model_att.forward(batch)[0]
        p_uni = model_uni.forward(batch)[0]
        np.testing.assert_allclose(p_att, p_uni, atol=1e-12)

    def test_matches_straight_line_recomputation(self):
        """Independent per-record recomputation of the whole forward pass."""
        config = tiny_config(dim=3, hidden=(4,))
        model = init_model(config, make_rng(2, stream=1))
        batch = random_batch(config, make_rng(3), B=2)
        probs, _ = model.forward(batch)

        for r in range(2):
            item = model.params["item_emb"]
            live = batch.mask[r]
            behavs = [item[i] for i in batch.behavior_idx[r][live]]
            ad = item[batch.ad_idx[r]]
            scores = [float(v @ ad) / config.temperature for v in behavs]
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            total = sum(exps)
            weights = [e / total for e in exps]
            pooled = sum(w * v for w, v in zip(weights, behavs))
            x = np.concatenate([pooled, ad, pooled * ad])
            h = np.maximum(x @ model.params["w0"] + model.params["b0"], 0.0)
            logit = (h @ model.params["w1"] + model.params["b1"]).item()
            expect = 1.0 / (1.0 + math.exp(-logit))
            assert abs(probs[r] - expect) < 1e-12

    def test_deterministic(self):
        config = tiny_config()
        model = init_model(config, make_rng(4, stream=1))
        batch = random_batch(config, make_rng(6), B=3)
        p1, _ = model.forward(batch)
        p2, _ = model.forward(batch)
        np.testing.assert_array_equal(p1, p2)

    def test_permutation_invariance(self):
        config = tiny_config()
        model = init_model(config, make_rng(7, stream=1))
        behavior_idx = np.array([[4, 9, 2, 11, 0]], dtype=np.int64)
        perm_idx = np.array([[11, 2, 9, 4, 0]], dtype=np.int64)
        make = lambda bi: EncodedBatch(
            ad_idx=np.array([5], dtype=np.int64),
            behavior_idx=bi,
            labels=np.array([0.0]),
            user_idx=np.array([2], dtype=np.int64),
        )
        p1 = model.forward(make(behavior_idx))[0]
        p2 = model.forward(make(perm_idx))[0]
        assert abs((p1 - p2).item()) < 1e-12

    def test_out_of_range_index_raises(self):
        config = tiny_config()
        model = init_model(config, make_rng(8, stream=1))
        batch = random_batch(config, make_rng(9), B=1)
        batch.ad_idx[0] = config.item_vocab + 3
        with pytest.raises(IndexError, match=str(config.item_vocab + 3)):
            model.forward(batch)

    def test_argmax_of_attention_invariant_to_ad_scaling(self):
        config = tiny_config(dim=4, max_seq_len=6)
        model = init_model(config, make_rng(10, stream=1))
        rng = make_rng(11)
        behav = rng.normal(size=(6, 4))
        ad = rng.normal(size=4)
        mask = np.array([True] * 5 + [False])
        w1 = attend(behav, ad, mask)
        w2 = attend(behav, 3.5 * ad, mask)
        assert np.argmax(w1) == np.argmax(w2)
        assert not np.allclose(w1, w2)  # the weights themselves do change


class TestUserProfile:
    def test_profile_widens_mlp_input(self):
        config = tiny_config(dim=3)
        config.use_user_profile = True
        model = init_model(config, make_rng(60, stream=1))
        assert "user_emb" in model.params
        assert model.params["w0"].shape[0] == 4 * config.dim
        probs, _ = model.forward(random_batch(config, make_rng(61), B=3))
        assert np.all((probs > 0) & (probs < 1))

    def test_profile_gradients_match_finite_differences(self):
        config = tiny_config(dim=3, hidden=(5,), item_vocab=10)
        config.use_user_profile = True
        model = init_model(config, make_rng(62, stream=1))
        batch = random_batch(config, make_rng(63), B=3)
        assert check_gradients(model, batch, eps=1e-5) < 1e-4
        grads = objective(model, batch, 0.0)[2]
        assert grads.rows["user_emb"].size and 0 not in grads.rows["user_emb"]


def dense_backward_oracle(model, cache, dprobs):
    """The embedding gradients as full tables: every lookup's contribution
    added into a zeroed V x d table with ``np.add.at``, the padding row
    zeroed afterwards. Each behavior slot's contribution, w * dpooled plus
    (with attention) ds * ad, is built here on the whole (B, T, d) grid,
    apart from the live-slot path of ``DinModel.backward``, so the compact
    rows must reproduce these tables exactly."""
    c = model.config
    batch = cache.batch
    d = c.dim
    p = cache.probs
    g = (dprobs * p * (1.0 - p))[:, None]
    for i in range(model.n_layers - 1, -1, -1):
        g = g @ model.params[f"w{i}"].T
        if i > 0:
            g = g * (cache.pre_acts[i - 1] > 0.0)
    dpooled = g[:, :d] + g[:, 2 * d : 3 * d] * cache.ad_emb
    dad = g[:, d : 2 * d] + g[:, 2 * d : 3 * d] * cache.pooled
    dbehav = cache.weights[:, :, None] * dpooled[:, None, :]
    if c.use_attention:
        dscores = kernels.softmax_backward(cache.weights, kernels.pool_backward(cache.behav_emb, dpooled))
        inv_temp = 1.0 / c.temperature
        dbehav = dbehav + (dscores * inv_temp)[:, :, None] * cache.ad_emb[:, None, :]
        dad = dad + kernels.scores_backward(cache.behav_emb, dscores, inv_temp)[1]
    live = batch.mask.reshape(-1)
    tables = {"item_emb": np.zeros_like(model.params["item_emb"])}
    np.add.at(tables["item_emb"], batch.behavior_idx.reshape(-1)[live], dbehav.reshape(-1, d)[live])
    np.add.at(tables["item_emb"], batch.ad_idx, dad)
    if c.use_user_profile:
        tables["user_emb"] = np.zeros_like(model.params["user_emb"])
        np.add.at(tables["user_emb"], batch.user_idx, g[:, 3 * d :])
    for table in tables.values():
        table[0] = 0.0
    return tables


def assert_matches_dense_oracle(model, cache, dprobs, grads):
    tables = dense_backward_oracle(model, cache, dprobs)
    assert set(grads.rows) == set(grads.row_grads) == set(tables)
    for name, table in tables.items():
        batch = cache.batch
        looked_up = {"item_emb": np.concatenate([batch.behavior_idx[batch.mask], batch.ad_idx]),
                     "user_emb": batch.user_idx}[name]
        expect_rows = np.unique(looked_up)
        np.testing.assert_array_equal(grads.rows[name], expect_rows[expect_rows != 0])
        np.testing.assert_array_equal(grads.row_grads[name], table[grads.rows[name]])
        assert not np.delete(table, grads.rows[name], axis=0).any()
    assert set(grads.dense) == set(model.params) - set(tables)


class TestBackward:
    @pytest.mark.parametrize(
        "use_attention,use_user_profile,item_scale",
        [pytest.param(a, u, 1.0, id=f"{a}-{u}") for u in (False, True) for a in (True, False)]
        # Item embeddings x10 make the attention sharp, where its backward
        # terms are large enough for a one-ulp error in them to change the rows.
        + [pytest.param(True, u, 10.0, id=f"True-{u}-x10") for u in (False, True)],
    )
    def test_compact_rows_equal_dense_scatter_oracle(self, use_attention, use_user_profile, item_scale):
        config = tiny_config(use_attention=use_attention, dim=4, hidden=(6,), item_vocab=9, max_seq_len=7)
        config.use_user_profile = use_user_profile
        model = init_model(config, make_rng(30, stream=1))
        model.params["item_emb"] *= item_scale
        batch = random_batch(config, make_rng(31), B=16)  # 9 items: many repeated rows
        probs, cache = model.forward(batch)
        _, dprobs = bce_loss(probs, batch.labels)
        assert_matches_dense_oracle(model, cache, dprobs, model.backward(cache, dprobs))

    def test_gradient_size_follows_batch_not_vocabulary(self):
        config = ModelConfig(item_vocab=1_000_000, user_vocab=1_000, dim=2, hidden=(4,), max_seq_len=6,
                             temperature=1.0, use_attention=True, use_user_profile=True)
        model = init_model(config, make_rng(32, stream=1))
        B = 5
        batch = random_batch(config, make_rng(33), B=B)
        probs, cache = model.forward(batch)
        _, dprobs = bce_loss(probs, batch.labels)
        grads = model.backward(cache, dprobs)
        limit = B * (config.max_seq_len + 1)
        arrays = [*grads.dense.values(), *grads.rows.values(), *grads.row_grads.values()]
        assert all(a.shape[0] <= limit for a in arrays)
        assert grads.row_grads["item_emb"].any()

    @pytest.mark.parametrize("use_attention", [True, False])
    def test_gradients_match_finite_differences(self, use_attention):
        config = tiny_config(use_attention=use_attention, dim=4, hidden=(6,), item_vocab=14)
        model = init_model(config, make_rng(20, stream=1))
        batch = random_batch(config, make_rng(21), B=4)
        assert check_gradients(model, batch, l2_lambda=1e-3, eps=1e-5) < 1e-4

    @pytest.mark.parametrize(
        "use_attention,use_user_profile", [(True, False), (False, False), (True, True), (False, True)]
    )
    def test_gradient_check_leaves_every_parameter_bit_identical(self, use_attention, use_user_profile):
        config = tiny_config(use_attention=use_attention, dim=3, hidden=(4,), item_vocab=10)
        config.use_user_profile = use_user_profile
        model = init_model(config, make_rng(64, stream=1))
        before = {k: p.tobytes() for k, p in model.params.items()}
        check_gradients(model, random_batch(config, make_rng(65), B=3), l2_lambda=1e-3)
        assert {k: p.tobytes() for k, p in model.params.items()} == before

    def test_zero_upstream_zero_gradients(self):
        config = tiny_config()
        model = init_model(config, make_rng(22, stream=1))
        batch = random_batch(config, make_rng(23), B=3)
        _, cache = model.forward(batch)
        grads = model.backward(cache, np.zeros(3))
        assert len(grads.dense) == 4 and set(grads.row_grads) == {"item_emb"}  # every block is looked at below
        assert not any(g.any() for g in (*grads.dense.values(), *grads.row_grads.values()))

    def test_singleton_sequence_reduces_to_dot_product_gradient(self):
        """One behavior: the softmax is constant 1, so only the direct
        dot-product path feeds the embeddings."""
        config = tiny_config(use_attention=True, dim=3, max_seq_len=3)
        model = init_model(config, make_rng(24, stream=1))
        behavior_idx = np.array([[4, 0, 0]], dtype=np.int64)
        batch = EncodedBatch(
            ad_idx=np.array([6], dtype=np.int64),
            behavior_idx=behavior_idx,
            labels=np.array([1.0]),
            user_idx=np.array([2], dtype=np.int64),
        )
        probs, cache = model.forward(batch)
        _, dprobs = bce_loss(probs, batch.labels)
        grads_att = model.backward(cache, dprobs)

        uniform = DinModel(
            ModelConfig(**{**config.to_dict(), "use_attention": False, "hidden": tuple(config.hidden)}),
            {k: v.copy() for k, v in model.params.items()},
        )
        probs_u, cache_u = uniform.forward(batch)
        _, dprobs_u = bce_loss(probs_u, batch.labels)
        grads_uni = uniform.backward(cache_u, dprobs_u)

        assert grads_att.rows.keys() == grads_uni.rows.keys() and grads_att.dense.keys() == grads_uni.dense.keys()
        for name, rows in grads_att.rows.items():
            np.testing.assert_array_equal(rows, grads_uni.rows[name])
            np.testing.assert_allclose(grads_att.row_grads[name], grads_uni.row_grads[name], atol=1e-12)
        for name, g in grads_att.dense.items():
            np.testing.assert_allclose(g, grads_uni.dense[name], atol=1e-12)

    def test_pad_row_gradient_forced_zero(self):
        config = tiny_config()
        model = init_model(config, make_rng(25, stream=1))
        batch = random_batch(config, make_rng(26), B=4)
        probs, cache = model.forward(batch)
        _, dprobs = bce_loss(probs, batch.labels)
        grads = model.backward(cache, dprobs)
        assert 0 not in grads.rows["item_emb"]

    def test_pad_lookups_leave_no_pad_row(self):
        """PAD indices in the ad and user columns are dropped from the rows."""
        config = tiny_config()
        config.use_user_profile = True
        model = init_model(config, make_rng(28, stream=1))
        batch = random_batch(config, make_rng(29), B=3)
        batch.ad_idx[0] = 0
        batch.user_idx[1] = 0
        probs, cache = model.forward(batch)
        _, dprobs = bce_loss(probs, batch.labels)
        grads = model.backward(cache, dprobs)
        assert_matches_dense_oracle(model, cache, dprobs, grads)
        assert 0 not in grads.rows["item_emb"] and 0 not in grads.rows["user_emb"]

    def test_backward_requires_cache(self):
        config = tiny_config()
        model = init_model(config, make_rng(27, stream=1))
        with pytest.raises(ValueError, match="cache"):
            model.backward(None, np.zeros(1))


class TestInit:
    def test_same_seed_bitwise_identical(self):
        config = tiny_config()
        a = init_model(config, make_rng(42, stream=1))
        b = init_model(config, make_rng(42, stream=1))
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    def test_pad_row_zero(self):
        model = init_model(tiny_config(), make_rng(43, stream=1))
        assert not model.params["item_emb"][0].any()

    def test_embedding_sample_mean_within_three_sigma(self):
        # U(-0.05, 0.05): var = 0.1^2 / 12, so the mean of n draws has
        # sd = 0.1 / sqrt(12 n).
        config = ModelConfig(item_vocab=12_502, user_vocab=2, dim=8, hidden=(64, 32), max_seq_len=32,
                             temperature=1.0, use_attention=True, use_user_profile=False)
        model = init_model(config, make_rng(44, stream=1))
        entries = model.params["item_emb"][1:].ravel()  # skip the pinned pad row
        n = entries.size
        assert n >= 10**5
        three_sigma = 3 * 0.1 / math.sqrt(12 * n)
        assert abs(entries.mean()) < three_sigma

    def test_attention_flag_does_not_change_shapes_or_values(self):
        a = init_model(tiny_config(use_attention=True), make_rng(45, stream=1))
        b = init_model(tiny_config(use_attention=False), make_rng(45, stream=1))
        for key in a.params:
            np.testing.assert_array_equal(a.params[key], b.params[key])

    @pytest.mark.parametrize("block", ["item_emb", "w0", "b0"])
    @pytest.mark.parametrize("bad", [
        lambda p: p.astype(np.float32),
        lambda p: p.astype(np.int64),
        lambda p: p.astype(">f8"),  # float64, but not in native byte order
        lambda p: np.stack([p, p], axis=-1)[..., 0],  # float64, every other element
        lambda p: p.tolist(),
    ], ids=["float32", "int64", "big-endian", "non-contiguous", "list"])
    def test_rejects_a_block_that_is_not_c_contiguous_float64(self, block, bad):
        model = init_model(tiny_config(), make_rng(46, stream=1))
        params = dict(model.params)
        params[block] = bad(params[block])
        with pytest.raises(TypeError, match=f"parameter {block} must be a C-contiguous float64 array"):
            DinModel(model.config, params)


def without(obj: dict, key: str) -> dict:
    return {k: v for k, v in obj.items() if k != key}


def with_config(**values):
    """A header edit that sets these config values."""
    return lambda header: {**header, "config": {**header["config"], **values}}


def _strict_int(value):
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(value)


def _strict_float(value):
    if type(value) not in (int, float):
        raise ValueError(value)
    return float(value)


def _strict_bool(value):
    if type(value) is not bool:
        raise ValueError(value)
    return value


def _strict_ints(value):
    if type(value) is not list:
        raise ValueError(value)
    return tuple(map(_strict_int, value))


STRICT_FIELDS = {
    "item_vocab": _strict_int,
    "user_vocab": _strict_int,
    "dim": _strict_int,
    "hidden": _strict_ints,
    "max_seq_len": _strict_int,
    "temperature": _strict_float,
    "use_attention": _strict_bool,
    "use_user_profile": _strict_bool,
}


def strict_model_config(obj: dict):
    """This test's own strict reading of a checkpoint's config: exactly the
    model's keys, each of its declared type and the whole valid; else None."""
    if set(obj) != set(STRICT_FIELDS):
        return None
    try:
        return ModelConfig(**{key: STRICT_FIELDS[key](value) for key, value in obj.items()})
    except (ValueError, OverflowError):
        return None


HEADER_VALUES = st.one_of(
    st.sampled_from([3, 3.0, 5.0, 12, 0.5, [4], [4.0], True, False]),  # valid for some tiny_config keys
    st.booleans(),
    st.none(),
    st.integers(-2, 40),
    st.integers(-2, 40).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.one_of(st.integers(-1, 8), st.floats(0, 8), st.booleans()), max_size=3),
)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        config = tiny_config()
        model = init_model(config, make_rng(50, stream=1))
        users = Vocabulary(["u1", "u2", "u3"])
        items = Vocabulary([f"i{k}" for k in range(10)])
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(model, users, items, p1, run_config={"seed": 1})
        loaded, users2, items2, run_config = load_checkpoint(p1)
        save_checkpoint(loaded, users2, items2, p2, run_config=run_config)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_preserves_everything(self, tmp_path):
        config = tiny_config(use_attention=False)
        model = init_model(config, make_rng(51, stream=1))
        users = Vocabulary(["ua", "ub", "uc"])
        items = Vocabulary([f"i{k}" for k in range(10)])
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, users, items, path)
        loaded, users2, items2, _ = load_checkpoint(path)
        assert loaded.config == config
        assert items2.tokens == items.tokens
        assert users2.tokens == users.tokens
        for key in model.params:
            np.testing.assert_array_equal(loaded.params[key], model.params[key])
        batch = random_batch(config, make_rng(52), B=3)
        np.testing.assert_array_equal(loaded.predict(batch), model.predict(batch))

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        config = tiny_config()
        model = init_model(config, make_rng(53, stream=1))
        users = Vocabulary(["u1", "u2", "u3"])
        items = Vocabulary([f"i{k}" for k in range(10)])
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, users, items, path)
        before = path.read_bytes()

        class FailingWrite(np.ndarray):
            def tobytes(self, order="C"):
                raise OSError("disk full")

        model.params["item_emb"] += 1.0  # a new checkpoint would differ
        # w0 is written after item_emb, so the failure comes mid-payload.
        monkeypatch.setitem(model.params, "w0", model.params["w0"].view(FailingWrite))
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(model, users, items, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_trailing_bytes_rejected(self, tmp_path):
        model = init_model(tiny_config(), make_rng(54, stream=1))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, Vocabulary(["u1", "u2", "u3"]), Vocabulary([f"i{k}" for k in range(10)]), path)
        load_checkpoint(path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*after the checkpoint payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "users,items,bad",
        [
            (["u1", "u2", "u3"], [f"i{k}" for k in range(20)], "item"),  # more tokens than rows
            (["u1", "u2", "u3"], [f"i{k}" for k in range(5)], "item"),
            (["u1", "u2", "u3"], [f"i{k}" for k in range(9)] + ["i0"], "item"),  # a duplicate
            (["u1", "u2", "u3"], [f"i{k}" for k in range(9)] + [Vocabulary.PAD], "item"),  # a reserved token
            (["u1"], [f"i{k}" for k in range(10)], "user"),
        ],
        ids=["items-too-many", "items-too-few", "items-duplicate", "items-reserved", "users-too-few"],
    )
    def test_vocabulary_must_fill_its_table(self, tmp_path, users, items, bad):
        """Each token needs its own row: 20 item tokens for a 12-row table
        used to load and then fail in predict with a bare IndexError."""
        config = tiny_config()  # item_vocab=12, user_vocab=5
        model = init_model(config, make_rng(55, stream=1))
        path = tmp_path / "m.ckpt"

        class Tokens:  # a vocabulary that keeps the list as given, repeats included
            def __init__(self, tokens):
                self.tokens = ["<pad>", "<oov>", *tokens]

        save_checkpoint(model, Tokens(users), Tokens(items), path)
        given, rows = (users, 5) if bad == "user" else (items, 12)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {len(given)} {bad} tokens") + f".*{bad}_vocab={rows}"):
            load_checkpoint(path)

    def rewrite_header(self, path, edit):
        """Replace a saved checkpoint's header by ``edit(header)``; the payload is kept."""
        raw = path.read_bytes()
        magic_end = raw.index(b"\n") + 1
        header_end = raw.index(b"\n", magic_end) + 1
        header = edit(json.loads(raw[magic_end:header_end]))
        path.write_bytes(raw[:magic_end] + json.dumps(header).encode() + b"\n" + raw[header_end:])

    def saved(self, tmp_path):
        model = init_model(tiny_config(), make_rng(56, stream=1))
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, Vocabulary(["u1", "u2", "u3"]), Vocabulary([f"i{k}" for k in range(10)]), path)
        return model, path

    def test_swapped_manifest_rejected(self, tmp_path):
        """b0 and b1 swapped in the manifest, each keeping its own shape: the
        byte count still matches, and this used to load scrambled weights."""
        _, path = self.saved(tmp_path)

        def swap(header):
            names = [e["name"] for e in header["arrays"]]
            i, j = names.index("b0"), names.index("b1")
            header["arrays"][i], header["arrays"][j] = header["arrays"][j], header["arrays"][i]
            return header

        self.rewrite_header(path, swap)
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*manifest"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda h: without(h, "arrays"), "the array manifest"),
            (lambda h: {**h, "config": without(h["config"], "dim")}, "config lacks 'dim'"),
            (lambda h: {**h, "config": []}, "checkpoint header has no config object"),
            (lambda h: without(h, "user_tokens"), "user_tokens must"),
            (lambda h: [h], "corrupt checkpoint header (not a JSON object)"),
            (with_config(temperature=0.0), "temperature must be a finite number > 0, got 0.0"),
            (with_config(dim=0), "dim and max_seq_len must be positive"),
            (with_config(hidden=[0]), "hidden widths must be positive"),
            (with_config(item_vocab=1), "vocab sizes must include the reserved indices (>= 2)"),
        ],
        ids=["no-manifest", "no-config-dim", "list-config", "no-user-tokens", "list-header",
             "temperature-0", "dim-0", "hidden-0", "item-vocab-1"],
    )
    def test_malformed_header_names_path(self, tmp_path, edit, message):
        """The first five used to raise a bare KeyError, TypeError or
        AttributeError; an out-of-range value gives the config's own message."""
        _, path = self.saved(tmp_path)
        self.rewrite_header(path, edit)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize(
        "header", [b'{"version": ' + b"1" * 5000 + b"}", b"[" * 100_000], ids=["5000-digits", "100000-nested"]
    )
    def test_undecodable_header_names_path(self, tmp_path, header):
        """JSON that json cannot decode used to raise its bare ValueError or RecursionError."""
        _, path = self.saved(tmp_path)
        raw = path.read_bytes()
        magic_end = raw.index(b"\n") + 1
        path.write_bytes(raw[:magic_end] + header + raw[raw.index(b"\n", magic_end) :])
        with pytest.raises(ValueError, match=re.escape(f"{path}: corrupt checkpoint header")):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("max_seq_len", True, "expects an integer"),  # loaded as a 1-slot model
            ("dim", 3.7, "expects an integer"),  # loaded as dim 3
            ("use_attention", "no", "expects a boolean"),  # loaded with attention on
            ("temperature", True, "expects a number"),  # loaded as 1.0
            ("use_user_profile", 0, "expects a boolean"),
            ("hidden", [4.5], "expects a list of integers"),
            ("extra", 1, "unknown config key"),  # was ignored
        ],
    )
    def test_config_values_read_strictly(self, tmp_path, key, value, message):
        """Header config values are read as their field's type, not cast."""
        _, path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: {**h, "config": {**h["config"], key: value}})
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")) as exc:
            load_checkpoint(path)
        assert f"'{key}'" in str(exc.value) and message in str(exc.value)

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_version_must_be_the_integer_1(self, tmp_path, version):
        """``"version": true`` and ``1.0`` used to load as version 1."""
        _, path = self.saved(tmp_path)
        self.rewrite_header(path, lambda h: {**h, "version": version})
        with pytest.raises(ValueError, match=re.escape(f"{path}: unsupported checkpoint version {version!r}")):
            load_checkpoint(path)

    @settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        value=HEADER_VALUES,
        mutations=st.lists(
            st.tuples(st.just("set"), st.sampled_from([*STRICT_FIELDS, "extra"]), HEADER_VALUES)
            | st.tuples(st.just("drop"), st.sampled_from(list(STRICT_FIELDS)), st.none())
            | st.tuples(st.just("payload"), st.none(), st.sampled_from([-8, -1, 1, 8])),
            max_size=2,
        ),
    )
    def test_fuzzed_checkpoint_loads_strictly_or_names_path(self, tmp_path, value, mutations):
        """A checkpoint with mutated config values or payload length loads as
        the model its config, read strictly, describes, with the saved
        weights; else it is a ValueError naming the file. Never another
        exception type, and never other weights. ``value`` goes to each
        config key in turn, then ``mutations`` apply."""
        model, path = self.saved(tmp_path)
        saved = path.read_bytes()
        for key in [*STRICT_FIELDS, "extra"]:
            path.write_bytes(saved)
            config, payload_delta = {**model.config.to_dict(), key: value}, 0
            for kind, name, new in mutations:
                if kind == "set":
                    config[name] = new
                elif kind == "drop":
                    config.pop(name, None)
                else:
                    payload_delta += new
            self.rewrite_header(path, lambda h: {**h, "config": config})
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) + min(payload_delta, 0)] + b"\0" * max(payload_delta, 0))
            expect = strict_model_config(config)
            if (
                payload_delta == 0
                and expect is not None
                and expect.param_shapes() == model.config.param_shapes()
                and (expect.item_vocab, expect.user_vocab) == (model.config.item_vocab, model.config.user_vocab)
            ):
                loaded, _, _, _ = load_checkpoint(path)
                assert loaded.config == expect
                assert list(map(type, vars(loaded.config).values())) == list(map(type, vars(expect).values()))
                for name in model.params:
                    np.testing.assert_array_equal(loaded.params[name], model.params[name])
            else:
                with pytest.raises(ValueError, match=re.escape(str(path))):
                    load_checkpoint(path)

    def test_payload_follows_parameter_order(self, tmp_path):
        """A model whose parameter dict is in another order saves in the
        model's order, so it loads back equal."""
        model, path = self.saved(tmp_path)
        shuffled = DinModel(model.config, dict(reversed(list(model.params.items()))))
        save_checkpoint(shuffled, Vocabulary(["u1", "u2", "u3"]), Vocabulary([f"i{k}" for k in range(10)]), path)
        loaded, _, _, _ = load_checkpoint(path)
        assert list(loaded.params) == list(model.params)
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name], model.params[name])

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)
