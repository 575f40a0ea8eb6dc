import csv
import math

import numpy as np
import pytest

from dinctr.config import RunConfig
from dinctr.data import build_vocab, encode, generate_synthetic, split
from dinctr.model import ModelConfig, init_model
from dinctr.numerics import make_rng
from dinctr.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Gradients,
    adam_step,
    bce_loss,
    l2_penalty,
    save_history,
    train,
)


class TestBceLoss:
    def test_uninformative_prediction_is_ln2(self):
        loss, _ = bce_loss(np.full(4, 0.5), np.array([1.0, 0.0, 1.0, 0.0]))
        assert abs(loss - math.log(2)) < 1e-15

    def test_perfect_prediction_near_zero(self):
        loss, _ = bce_loss(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        assert loss < 1e-6

    def test_hand_example(self):
        loss, _ = bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        expect = (-math.log(0.9) - math.log(0.8)) / 2
        assert abs(loss - expect) < 1e-12
        assert abs(loss - 0.164252) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(3)
        p = rng.uniform(0.05, 0.95, size=16)
        y = rng.integers(0, 2, size=16).astype(np.float64)
        _, grad = bce_loss(p, y)
        eps = 1e-7
        for i in range(p.size):
            up, down = p.copy(), p.copy()
            up[i] += eps
            down[i] -= eps
            numeric = (bce_loss(up, y)[0] - bce_loss(down, y)[0]) / (2 * eps)
            rel = abs(grad[i] - numeric) / max(1e-12, abs(grad[i]) + abs(numeric))
            assert rel < 1e-6

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError, match="empty"):
            bce_loss(np.array([]), np.array([]))

    def test_bad_labels_raise(self):
        with pytest.raises(ValueError):
            bce_loss(np.array([0.5]), np.array([2.0]))


def one_weight_model():
    """d=1 toy model exposing a single scalar MLP weight for hand arithmetic."""
    config = ModelConfig(item_vocab=4, user_vocab=2, dim=1, hidden=(), max_seq_len=2, temperature=1.0,
                         use_attention=True, use_user_profile=False)
    model = init_model(config, make_rng(0, stream=1))
    return model


def zero_grads(model, touched):
    """Zero gradients for every parameter, with ``touched`` as the embedding rows."""
    rows = np.asarray(touched, dtype=np.int64)
    return Gradients(
        mlp=np.zeros(model.flat.size - model.emb.size), rows=rows, row_grads=np.zeros((rows.size, model.config.dim))
    )


def mlp_grads(values):
    """Gradients of a parameter vector that is all MLP tail (no embedding rows)."""
    return Gradients(mlp=np.array(values, dtype=np.float64), rows=np.zeros(0, dtype=np.int64), row_grads=np.zeros((0, 1)))


class TestL2Penalty:
    def test_zero_lambda_is_noop(self):
        model = one_weight_model()
        grads = zero_grads(model, [2])
        before = grads.mlp.copy()
        assert l2_penalty(model, 0.0, grads) == 0.0
        np.testing.assert_array_equal(grads.mlp, before)
        np.testing.assert_array_equal(grads.row_grads, np.zeros((1, 1)))

    def test_single_weight_hand_example(self):
        model = one_weight_model()
        model.params["item_emb"][...] = 0.0
        model.params["w0"][...] = 0.0
        model.params["w0"][0, 0] = 3.0  # one live weight: w = 3
        grads = zero_grads(model, [])
        penalty = l2_penalty(model, 0.1, grads)
        assert abs(penalty - 0.9) < 1e-15
        dense = model.mlp_views(grads.mlp)
        assert abs(dense["w0"][0, 0] - 0.6) < 1e-15 and np.count_nonzero(grads.mlp) == 1
        assert not dense["b0"].any()  # biases never penalized

    def test_matches_brute_force_sum_over_touched(self):
        config = ModelConfig(item_vocab=9, user_vocab=2, dim=3, hidden=(4,), max_seq_len=3, temperature=1.0,
                             use_attention=True, use_user_profile=False)
        model = init_model(config, make_rng(1, stream=1))
        touched = np.array([2, 5, 7], dtype=np.int64)
        grads = zero_grads(model, touched)
        lam = 0.37
        penalty = l2_penalty(model, lam, grads)
        brute = sum(float(np.sum(model.params[f"w{i}"] ** 2)) for i in range(model.n_layers))
        brute += float(np.sum(model.params["item_emb"][touched] ** 2))
        assert abs(penalty - lam * brute) < 1e-12
        np.testing.assert_array_equal(grads.row_grads, 2.0 * lam * model.params["item_emb"][touched])
        for name, g in model.mlp_views(grads.mlp).items():
            np.testing.assert_array_equal(g, 2.0 * lam * model.params[name] if name.startswith("w") else 0.0)

    def test_user_rows_follow_the_item_rows(self):
        """With a user profile, row item_vocab + u of ``emb`` is user u's."""
        config = ModelConfig(item_vocab=9, user_vocab=4, dim=2, hidden=(3,), max_seq_len=3, temperature=1.0,
                             use_attention=True, use_user_profile=True)
        model = init_model(config, make_rng(2, stream=1))
        grads = zero_grads(model, [3, 9 + 2])
        penalty = l2_penalty(model, 0.5, grads)
        touched = np.concatenate([model.params["item_emb"][3], model.params["user_emb"][2]])
        brute = sum(float(np.sum(model.params[f"w{i}"] ** 2)) for i in range(model.n_layers)) + float(np.sum(touched**2))
        assert abs(penalty - 0.5 * brute) < 1e-12
        np.testing.assert_array_equal(grads.row_grads.ravel(), touched)

    def test_positive_lambda_strictly_increases_loss(self):
        model = one_weight_model()
        assert l2_penalty(model, 1e-4, zero_grads(model, [2])) > 0.0


def adam_oracle(p, m, v, g, t, lr):
    """One Adam step as the out-of-place formula: the new (p, m, v)."""
    m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    p = p - lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
    return p, m, v


def adam_matches_oracle(n_rows, d, touched):
    """Adam on an n_rows x d embedding head and an MLP tail, over several
    steps, bit for bit against ``adam_oracle`` applied with fancy indexing."""
    rng = make_rng(17)
    head, tail = n_rows * d, 4 * 5 + 5  # an n_rows x d embedding matrix, then an MLP tail
    flat = rng.normal(size=head + tail)
    state = AdamState(m=np.zeros_like(flat), v=np.zeros_like(flat), lr=0.05)
    p, m, v = flat.copy(), np.zeros_like(flat), np.zeros_like(flat)
    for t in range(1, 7):
        rows = np.unique(rng.integers(1, n_rows, size=touched))
        mlp = rng.normal(scale=10.0**t, size=tail)
        row_grads = rng.normal(size=(rows.size, d))
        adam_step(state, flat, Gradients(mlp=mlp, rows=rows, row_grads=row_grads))
        p[head:], m[head:], v[head:] = adam_oracle(p[head:], m[head:], v[head:], mlp, t, state.lr)
        pe, me, ve = (a[:head].reshape(n_rows, d) for a in (p, m, v))
        pe[rows], me[rows], ve[rows] = adam_oracle(pe[rows], me[rows], ve[rows], row_grads, t, state.lr)
        for got, want in ((flat, p), (state.m, m), (state.v, v)):
            assert got.tobytes() == want.tobytes(), t


class TestAdamStep:
    def scalar_setup(self, lr=0.1):
        return np.array([1.0]), AdamState(m=np.zeros(1), v=np.zeros(1), lr=lr)

    def test_first_step_is_signed_lr(self):
        flat, state = self.scalar_setup(lr=0.1)
        g = 0.3
        adam_step(state, flat, mlp_grads([g]))
        expect = 1.0 - 0.1 * g / (abs(g) + ADAM_EPS)
        assert abs(flat[0] - expect) < 1e-15
        assert abs(flat[0] - 0.9) < 1e-7  # approximately -lr * sign(g)

    def test_zero_gradient_never_moves(self):
        flat, state = self.scalar_setup()
        for _ in range(25):
            adam_step(state, flat, mlp_grads([0.0]))
        assert flat[0] == 1.0
        assert state.t == 25

    def test_two_step_hand_trace(self):
        """Hand-executed recurrence: p=1, g=1 twice, lr=0.1."""
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        m = v = 0.0
        p = 1.0
        for t in (1, 2):
            g = 1.0
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p -= lr * m_hat / (math.sqrt(v_hat) + eps)

        flat, state = self.scalar_setup(lr=lr)
        adam_step(state, flat, mlp_grads([1.0]))
        adam_step(state, flat, mlp_grads([1.0]))
        assert abs(flat[0] - p) < 1e-12
        # both steps apply nearly the full lr (bias-corrected first moments)
        assert abs(flat[0] - 0.8) < 1e-7

    def test_lr_zero_is_identity(self):
        flat, state = self.scalar_setup(lr=0.0)
        for g in (0.5, -2.0, 3.0):
            adam_step(state, flat, mlp_grads([g]))
        assert flat[0] == 1.0

    def test_lazy_rows_only_touched_move(self):
        """A 5 x 2 embedding head before a one-entry MLP tail."""
        flat = np.ones(11)
        state = AdamState(m=np.zeros(11), v=np.zeros(11), lr=0.1)
        grads = Gradients(mlp=np.zeros(1), rows=np.array([2, 4]), row_grads=np.array([[1.0, 1.0], [-1.0, -1.0]]))
        adam_step(state, flat, grads)
        table, m, v = (a[:10].reshape(5, 2) for a in (flat, state.m, state.v))
        assert (table[[0, 1, 3]] == 1.0).all() and flat[10] == 1.0
        assert (table[2] != 1.0).all() and (table[4] != 1.0).all()
        assert not m[[0, 1, 3]].any()
        assert (v >= 0).all()

    def test_lazy_rows_follow_the_dense_recurrence(self):
        """A touched row moves exactly as a dense block with the same gradient."""
        lazy, dense = np.ones(8), np.ones(2)  # a 4 x 2 embedding head; a 2-entry MLP tail
        s_lazy = AdamState(m=np.zeros(8), v=np.zeros(8), lr=0.1)
        s_dense = AdamState(m=np.zeros(2), v=np.zeros(2), lr=0.1)
        for g in ([0.5, -2.0], [3.0, 0.25]):
            row = np.array([g])
            adam_step(s_lazy, lazy, Gradients(mlp=np.zeros(0), rows=np.array([3]), row_grads=row))
            adam_step(s_dense, dense, Gradients(mlp=row[0], rows=np.zeros(0, dtype=np.int64), row_grads=np.zeros((0, 2))))
        np.testing.assert_array_equal(lazy[6:], dense)
        np.testing.assert_array_equal(s_lazy.v[6:], s_dense.v)
        assert (lazy[:6] == 1.0).all()

    def test_in_place_update_equals_the_out_of_place_formula(self):
        """The dense tail and the embedding rows, over several steps, bit for bit."""
        adam_matches_oracle(n_rows=9, d=3, touched=5)

    @pytest.mark.parametrize("n_rows,d,touched", [(2000, 8, 300), (6, 1, 4)])
    def test_row_elements_move_as_fancy_indexing_moves_them(self, n_rows, d, touched):
        """adam_step gathers and scatters each row as one element; the rows
        of a large table, and rows one float wide, move as the formula says."""
        adam_matches_oracle(n_rows, d, touched)

    def test_non_finite_gradient_names_block(self):
        flat, state = self.scalar_setup()
        with pytest.raises(FloatingPointError, match="in the MLP"):
            adam_step(state, flat, mlp_grads([float("inf")]))
        assert flat[0] == 1.0 and state.t == 0

    def test_non_finite_row_gradient_names_block(self):
        flat = np.ones(4)
        state = AdamState(m=np.zeros(4), v=np.zeros(4), lr=0.1)
        grads = Gradients(mlp=np.zeros(1), rows=np.array([1]), row_grads=np.array([[np.nan]]))
        with pytest.raises(FloatingPointError, match="in the embedding rows"):
            adam_step(state, flat, grads)
        assert (flat == 1.0).all() and state.t == 0


def small_dataset(seed=1, impressions=1500, alpha=4.0):
    config = RunConfig(
        num_users=60, num_items=40, impressions=impressions, signal_strength=alpha, seed=seed
    )
    records, _ = generate_synthetic(config)
    train_rows, val_rows = split(records, "temporal", 0.2, seed)
    users, items = build_vocab(records)
    tb, _ = encode(records.take(train_rows), users, items, 32)
    vb, _ = encode(records.take(val_rows), users, items, 32)
    return tb, vb, items, users


class TestTrainLoop:
    def make_model(self, items, users, seed=1, use_attention=True):
        config = ModelConfig(
            item_vocab=items.size, user_vocab=users.size, dim=4, hidden=(8,), max_seq_len=32, temperature=1.0,
            use_attention=use_attention, use_user_profile=False,
        )
        return init_model(config, make_rng(seed, stream=1))

    def test_one_epoch_oversized_batch_is_single_step(self):
        tb, vb, items, users = small_dataset()
        model = self.make_model(items, users)
        probe = {"steps": 0}
        original = model.backward

        def counting_backward(cache, dprobs):
            probe["steps"] += 1
            return original(cache, dprobs)

        model.backward = counting_backward
        train(model, tb, vb, RunConfig(epochs=1, batch_size=10**6, lr=1e-3, seed=1))
        assert probe["steps"] == 1

    def test_bitwise_reproducible(self):
        tb, vb, items, users = small_dataset()
        cfg = RunConfig(epochs=2, batch_size=128, lr=5e-3, seed=7, timing=False)
        m1, h1 = train(self.make_model(items, users, seed=7), tb, vb, cfg)
        m2, h2 = train(self.make_model(items, users, seed=7), tb, vb, cfg)
        for key in m1.params:
            np.testing.assert_array_equal(m1.params[key], m2.params[key])
        assert h1 == h2

    def test_pad_row_stays_zero_through_training(self):
        tb, vb, items, users = small_dataset()
        model, _ = train(self.make_model(items, users), tb, vb, RunConfig(epochs=2, batch_size=64, lr=1e-2, seed=1))
        assert not model.params["item_emb"][0].any()

    def test_loss_decreases_on_learnable_signal(self):
        tb, vb, items, users = small_dataset(impressions=2500)
        model, history = train(
            self.make_model(items, users), tb, vb, RunConfig(epochs=5, batch_size=128, lr=1e-2, seed=1)
        )
        assert history[-1].train_loss < history[0].train_loss
        assert len(history) == 5

    def test_early_stopping_returns_best_gauc_model(self):
        from dinctr.metrics import gauc

        tb, vb, items, users = small_dataset(impressions=2500)
        cfg = RunConfig(epochs=12, batch_size=128, lr=2e-2, seed=3, patience=2)
        model, history = train(self.make_model(items, users, seed=3), tb, vb, cfg)
        assert len(history) <= 12
        returned = gauc(model.predict(vb), vb.labels, vb.user_idx, "impressions").value
        best = max(e.val_gauc for e in history)
        assert abs(returned - best) < 1e-12

    def test_history_csv_format(self, tmp_path):
        tb, vb, items, users = small_dataset()
        _, history = train(
            self.make_model(items, users), tb, vb,
            RunConfig(epochs=3, batch_size=256, lr=1e-3, seed=1, timing=False),
        )
        path = tmp_path / "history.csv"
        save_history(history, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "train_loss", "val_loss", "val_gauc", "seconds"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        for row in rows[1:]:
            assert float(row[1]) > 0 and float(row[2]) > 0
            assert row[4] == "0.0"
