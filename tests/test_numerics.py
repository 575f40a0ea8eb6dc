import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dinctr import kernels
from dinctr.numerics import grad_check, make_rng, sigmoid


class TestSigmoid:
    def test_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_saturation_no_overflow(self):
        assert abs(sigmoid(50.0) - 1.0) < 1e-12
        assert sigmoid(750.0) == 1.0
        assert sigmoid(-750.0) == 0.0

    @given(st.floats(min_value=-700.0, max_value=700.0))
    @settings(deadline=None, max_examples=200)
    def test_symmetry(self, x):
        assert abs(sigmoid(x) + sigmoid(-x) - 1.0) <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-30, 30, 500)
        assert np.all(np.diff(sigmoid(xs)) > 0)


def softmax_row(scores, mask=None):
    """The model's masked softmax, ``kernels.masked_softmax``, on a one-row batch."""
    s = np.asarray(scores, dtype=np.float64)[None, :]
    m = np.ones(s.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)[None, :]
    return kernels.masked_softmax(s, m)[0]


class TestSoftmax:
    def test_equal_scores_uniform(self):
        out = softmax_row([3.7, 3.7, 3.7])
        np.testing.assert_array_equal(out, [1 / 3, 1 / 3, 1 / 3])

    def test_closed_form(self):
        out = softmax_row([1.0, 0.0])
        e = math.e
        np.testing.assert_allclose(out, [e / (e + 1), 1 / (e + 1)], atol=1e-15)

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
    @settings(deadline=None, max_examples=200)
    def test_shift_invariance_and_probability_vector(self, scores):
        base = softmax_row(scores)
        shifted = softmax_row([s + 10.0 for s in scores])
        np.testing.assert_allclose(base, shifted, atol=1e-12)
        assert np.all(base >= 0)
        assert abs(base.sum() - 1.0) <= 1e-12

    def test_masked_positions_exactly_zero(self):
        mask = np.array([True, False, True, False])
        out = softmax_row([5.0, 100.0, 5.0, 100.0], mask)
        assert out[1] == 0.0 and out[3] == 0.0
        np.testing.assert_allclose(out[[0, 2]], [0.5, 0.5], atol=1e-15)

    def test_stability_at_large_scores(self):
        out = softmax_row([1000.0, 999.0])
        assert np.isfinite(out).all()
        assert abs(out.sum() - 1.0) <= 1e-12


class TestGradCheck:
    def test_quadratic(self):
        p = {"x": np.array([3.0])}
        err = grad_check(lambda: float(p["x"][0] ** 2), p, {"x": np.array([6.0])})
        assert err < 1e-9

    def test_constant_function(self):
        err = grad_check(lambda: 1.5, {"x": np.array([0.3, -0.7])}, {"x": np.zeros(2)})
        assert err == 0.0

    def test_detects_wrong_gradient(self):
        p = {"x": np.array([3.0])}
        err = grad_check(lambda: float(p["x"][0] ** 2), p, {"x": np.array([5.0])})
        assert err > 1e-2

    def test_non_finite_loss_raises(self):
        with pytest.raises(FloatingPointError, match=r"'x' at index \(0,\)"):
            grad_check(lambda: float("nan"), {"x": np.array([1.0])}, {"x": np.array([0.0])})

    def test_bad_eps_raises(self):
        with pytest.raises(ValueError):
            grad_check(lambda: 0.0, {"x": np.array([1.0])}, {"x": np.array([0.0])}, eps=0.0)

    @pytest.mark.parametrize(
        "params,grad,error",
        [(np.zeros(2), np.zeros(3), ValueError), (np.zeros((2, 1)), np.zeros(2), ValueError),
         (np.zeros(2, dtype=np.int64), np.zeros(2), TypeError), (np.zeros(2, dtype=np.float32), np.zeros(2), TypeError)],
    )
    def test_block_that_does_not_fit_raises_naming_it(self, params, grad, error):
        ok = {"a": np.array([1.0])}
        with pytest.raises(error, match="'b'"):
            grad_check(lambda: 0.0, {**ok, "b": params}, {"a": np.zeros(1), "b": grad})
        assert ok["a"][0] == 1.0

    def test_restores_every_entry_when_loss_raises_partway(self):
        w = np.arange(6.0).reshape(2, 3) / 7.0
        before = w.tobytes()
        calls = []

        def loss():
            calls.append(w.copy())
            if len(calls) == 4:  # entry (0, 1) is at x - eps
                raise RuntimeError("boom")
            return float(np.sum(w**2))

        with pytest.raises(RuntimeError, match="boom"):
            grad_check(loss, {"w": w}, {"w": 2.0 * w})
        assert w.tobytes() == before
        assert calls[3][0, 1] != w[0, 1] and calls[2][0, 0] == w[0, 0]  # one entry moved at a time, in C order


class TestSeededRng:
    def test_same_seed_identical_stream(self):
        a = make_rng(123).random(10_000)
        b = make_rng(123).random(10_000)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(100), make_rng(2).random(100))

    def test_streams_are_independent(self):
        assert not np.array_equal(make_rng(1, stream=0).random(100), make_rng(1, stream=1).random(100))

    def test_pinned_bit_generator(self):
        assert type(make_rng(0).bit_generator).__name__ == "PCG64"
