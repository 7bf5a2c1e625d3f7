"""Finite-difference gradchecks for every real-valued primitive."""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradcheck, ops
from repro.autodiff.rng import spawn_rng


def make_param(shape, seed, low=-2.0, high=2.0):
    rng = spawn_rng(seed)
    return Tensor(rng.uniform(low, high, shape), requires_grad=True)


class TestArithmeticGrads:
    def test_add(self):
        a, b = make_param((3, 4), 1), make_param((3, 4), 2)
        gradcheck(lambda: ops.sum((a + b) * (a + b)), [a, b])

    def test_sub(self):
        a, b = make_param((3, 4), 3), make_param((3, 4), 4)
        gradcheck(lambda: ops.sum((a - b) * (a - b)), [a, b])

    def test_mul(self):
        a, b = make_param((2, 5), 5), make_param((2, 5), 6)
        gradcheck(lambda: ops.sum(a * b), [a, b])

    def test_div(self):
        a = make_param((4,), 7)
        b = make_param((4,), 8, low=0.5, high=2.0)
        gradcheck(lambda: ops.sum(a / b), [a, b])

    def test_rdiv_constant(self):
        b = make_param((4,), 9, low=0.5, high=2.0)
        gradcheck(lambda: ops.sum(2.0 / b), [b])

    def test_neg(self):
        a = make_param((3,), 10)
        gradcheck(lambda: ops.sum(-a * a), [a])

    def test_power_square_and_cube(self):
        a = make_param((5,), 11, low=0.2, high=2.0)
        gradcheck(lambda: ops.sum(a ** 2), [a])
        gradcheck(lambda: ops.sum(a ** 3), [a])

    def test_power_fractional(self):
        a = make_param((5,), 12, low=0.5, high=3.0)
        gradcheck(lambda: ops.sum(a ** 0.5), [a])

    def test_power_rejects_tensor_exponent(self):
        a = make_param((2,), 13)
        with pytest.raises(TypeError):
            ops.power(a, a)

    def test_matmul(self):
        a, b = make_param((3, 4), 14), make_param((4, 2), 15)
        gradcheck(lambda: ops.sum(a @ b), [a, b])

    def test_matmul_batched(self):
        a, b = make_param((2, 3, 4), 16), make_param((2, 4, 5), 17)
        gradcheck(lambda: ops.sum((a @ b) ** 2), [a, b])

    def test_matmul_broadcast_batch(self):
        a, b = make_param((2, 3, 4), 18), make_param((4, 5), 19)
        gradcheck(lambda: ops.sum(a @ b), [a, b])

    def test_matmul_rejects_vectors(self):
        a, b = make_param((3,), 20), make_param((3,), 21)
        with pytest.raises(ValueError):
            ops.matmul(a, b)


class TestTranscendentalGrads:
    def test_exp(self):
        a = make_param((3, 3), 22, low=-1.0, high=1.0)
        gradcheck(lambda: ops.sum(ops.exp(a)), [a])

    def test_sqrt(self):
        a = make_param((6,), 24, low=0.3, high=3.0)
        gradcheck(lambda: ops.sum(ops.sqrt(a)), [a])

    def test_sigmoid(self):
        a = make_param((4,), 27)
        gradcheck(lambda: ops.sum(ops.sigmoid(a)), [a])

    def test_absolute_real_away_from_zero(self):
        a = make_param((5,), 28, low=0.5, high=2.0)
        b = make_param((5,), 29, low=-2.0, high=-0.5)
        gradcheck(lambda: ops.sum(ops.absolute(a) + ops.absolute(b)), [a, b])

    def test_absolute_zero_subgradient_is_zero(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        ops.sum(ops.absolute(a)).backward()
        assert np.allclose(a.grad, 0.0)


class TestReductionGrads:
    def test_sum_all(self):
        a = make_param((3, 4), 36)
        gradcheck(lambda: ops.sum(a * a), [a])

    def test_sum_axis(self):
        a = make_param((3, 4), 37)
        gradcheck(lambda: ops.sum(ops.sum(a, axis=0) ** 2), [a])

    def test_sum_axis_keepdims(self):
        a = make_param((3, 4), 38)
        gradcheck(lambda: ops.sum(a / ops.sum(a, axis=1, keepdims=True)), [a],
                  eps=1e-7)

    def test_sum_tuple_axes(self):
        a = make_param((2, 3, 4), 39)
        gradcheck(lambda: ops.sum(ops.sum(a, axis=(1, 2)) ** 2), [a])

    def test_mean(self):
        a = make_param((3, 4), 40)
        gradcheck(lambda: ops.mean(a * a), [a])

    def test_mean_axis(self):
        a = make_param((3, 4), 41)
        gradcheck(lambda: ops.sum(ops.mean(a, axis=1) ** 2), [a])

    def test_max_unique(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]]),
                   requires_grad=True)
        gradcheck(lambda: ops.sum(ops.max(a, axis=1) ** 2), [a])

    def test_max_ties_share_gradient(self):
        a = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
        ops.max(a).backward()
        assert np.allclose(a.grad, [0.5, 0.5, 0.0])

    def test_max_complex_rejected(self):
        z = Tensor(np.array([1 + 1j]), requires_grad=True)
        with pytest.raises(TypeError):
            ops.max(z)


class TestShapeGrads:
    def test_reshape(self):
        a = make_param((3, 4), 42)
        gradcheck(lambda: ops.sum(a.reshape(2, 6) ** 2), [a])

    def test_transpose_default(self):
        a = make_param((3, 4), 43)
        gradcheck(lambda: ops.sum(a.T @ a), [a])

    def test_transpose_axes(self):
        a = make_param((2, 3, 4), 44)
        gradcheck(lambda: ops.sum(ops.transpose(a, (1, 2, 0)) ** 2), [a])

    def test_getitem_slice(self):
        a = make_param((5, 5), 45)
        gradcheck(lambda: ops.sum(a[1:4, 2:5] ** 2), [a])

    def test_getitem_int_row(self):
        a = make_param((5, 3), 46)
        gradcheck(lambda: ops.sum(a[2] ** 2), [a])

    def test_getitem_fancy_with_duplicates(self):
        a = make_param((4,), 47)
        idx = np.array([0, 0, 2])
        gradcheck(lambda: ops.sum(a[idx] ** 2), [a])

    def test_pad2d(self):
        a = make_param((3, 3), 48)
        gradcheck(lambda: ops.sum(ops.pad2d(a, 2) ** 2), [a])

    def test_pad2d_batched_and_rect(self):
        a = make_param((2, 3, 4), 49)
        out = ops.pad2d(a, (1, 2))
        assert out.shape == (2, 5, 8)
        gradcheck(lambda: ops.sum(ops.pad2d(a, (1, 2)) ** 2), [a])
