"""Tests for the functional layer: one-hot, softmax, the loss, variance."""

import numpy as np
import pytest

from repro.autodiff import Tensor, functional as F, gradcheck, ops
from repro.autodiff.rng import spawn_rng


class TestOneHot:
    def test_basic(self):
        out = F.one_hot([0, 2, 1], 3).data
        assert np.array_equal(out, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                                            dtype=float))

    def test_scalar_label(self):
        assert F.one_hot(1, 4).data.shape == (1, 4)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = spawn_rng(1)
        x = Tensor(rng.standard_normal((5, 7)))
        s = F.softmax(x).data
        assert np.allclose(s.sum(axis=-1), 1.0)
        assert np.all(s > 0)

    def test_matches_scipy(self):
        scipy_softmax = pytest.importorskip(
            "scipy.special", reason="reference softmax needs scipy").softmax

        rng = spawn_rng(2)
        x = rng.standard_normal((4, 6))
        assert np.allclose(F.softmax(Tensor(x)).data, scipy_softmax(x, axis=-1))

    def test_stability_with_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0, -1000.0]]))
        s = F.softmax(x).data
        assert np.isfinite(s).all()
        assert s[0, 0] == pytest.approx(0.5)

    def test_gradcheck(self):
        rng = spawn_rng(3)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        gradcheck(lambda: ops.sum(F.softmax(x) ** 2), [x])


class TestMseSoftmaxLoss:
    def test_perfect_prediction_is_small(self):
        # A huge logit on the right class drives softmax to one-hot.
        logits = Tensor(np.array([[100.0, 0.0, 0.0]]))
        loss = F.mse_softmax_loss(logits, [0])
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_uniform_prediction_value(self):
        # softmax = 1/C each; distance^2 to one-hot = (1-1/C)^2 + (C-1)/C^2.
        c = 4
        logits = Tensor(np.zeros((1, c)))
        expected = (1 - 1 / c) ** 2 + (c - 1) / c ** 2
        assert F.mse_softmax_loss(logits, [1]).item() == pytest.approx(expected)

    def test_batch_mean(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss_good = F.mse_softmax_loss(logits, [0, 1]).item()
        loss_bad = F.mse_softmax_loss(logits, [1, 0]).item()
        assert loss_good < 1e-9
        assert loss_bad == pytest.approx(2.0, rel=1e-6)

    def test_gradcheck(self):
        rng = spawn_rng(6)
        logits = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        gradcheck(lambda: F.mse_softmax_loss(logits, [1, 4, 0]), [logits])


class TestVariance:
    def test_matches_numpy_population(self):
        rng = spawn_rng(9)
        x = rng.standard_normal((5, 6))
        assert F.variance(Tensor(x)).item() == pytest.approx(np.var(x))

    def test_matches_numpy_sample(self):
        rng = spawn_rng(10)
        x = rng.standard_normal(12)
        assert F.variance(Tensor(x), ddof=1).item() == pytest.approx(
            np.var(x, ddof=1))

    def test_axis(self):
        rng = spawn_rng(11)
        x = rng.standard_normal((3, 7))
        out = F.variance(Tensor(x), axis=1).data
        assert np.allclose(out, np.var(x, axis=1))

    def test_invalid_ddof(self):
        with pytest.raises(ValueError):
            F.variance(Tensor(np.ones(1)), ddof=1)

    def test_gradcheck(self):
        rng = spawn_rng(12)
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        gradcheck(lambda: F.variance(x, ddof=1), [x])
