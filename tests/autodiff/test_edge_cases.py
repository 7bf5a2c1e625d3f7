"""Edge-case tests of the autodiff engine beyond the primitive gradchecks."""

import numpy as np
import pytest

from repro.autodiff import Tensor, no_grad, ops
from repro.autodiff.rng import spawn_rng


class TestDtypeHandling:
    def test_float32_preserved_through_arithmetic(self):
        a = Tensor(np.ones((3, 3), dtype=np.float32))
        b = Tensor(np.ones((3, 3), dtype=np.float32))
        assert (a * b + a).dtype == np.float32

    def test_complex64_fft_stays_single_precision(self):
        from repro.autodiff.fft import fft2

        z = Tensor(np.ones((4, 4), dtype=np.complex64))
        assert fft2(z).dtype == np.complex64

    def test_mixed_precision_promotes(self):
        a = Tensor(np.ones(2, dtype=np.float32))
        b = Tensor(np.ones(2, dtype=np.float64))
        assert (a + b).dtype == np.float64

    def test_real_complex_promotion(self):
        a = Tensor(np.ones(2))
        z = Tensor(np.ones(2, dtype=complex))
        assert (a * z).is_complex

    def test_float32_training_step_works(self):
        from repro.autodiff import Adam, Parameter

        w = Parameter(np.ones(4, dtype=np.float32))
        opt = Adam([w], lr=0.1)
        opt.zero_grad()
        ops.sum(w * w).backward()
        opt.step()
        assert np.all(w.data < 1.0)


class TestIndexingEdgeCases:
    def test_negative_index(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        ops.sum(x[-1] * 2.0).backward()
        assert np.allclose(x.grad, [0, 0, 0, 0, 2.0])

    def test_step_slice(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        ops.sum(x[::2]).backward()
        assert np.allclose(x.grad, [1, 0, 1, 0, 1, 0])

    def test_boolean_mask_indexing(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        mask = np.array([True, False, True, False])
        ops.sum(x[mask] ** 2).backward()
        assert np.allclose(x.grad, [0.0, 0.0, 4.0, 0.0])

    def test_ellipsis_indexing(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        ops.sum(x[..., 0]).backward()
        assert x.grad[..., 0].sum() == pytest.approx(6.0)
        assert x.grad[..., 1:].sum() == pytest.approx(0.0)

    def test_reshape_minus_one(self):
        x = Tensor(np.ones((2, 6)), requires_grad=True)
        y = x.reshape(3, -1)
        assert y.shape == (3, 4)
        ops.sum(y).backward()
        assert x.grad.shape == (2, 6)


class TestGraphEdgeCases:
    def test_scalar_times_empty_like_shapes(self):
        x = Tensor(np.ones((1, 1)), requires_grad=True)
        ops.sum(x * 5.0).backward()
        assert x.grad.shape == (1, 1)

    def test_zero_size_reduction(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        loss = ops.sum(x, axis=0)
        loss = ops.sum(loss)
        loss.backward()
        assert np.allclose(x.grad, 1.0)

    def test_grad_through_long_reuse_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.0 + 0.0
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_independent_branches_accumulate(self):
        x = Tensor(np.ones(3), requires_grad=True)
        left = ops.sum(x * 2.0)
        right = ops.sum(x * 3.0)
        (left + right).backward()
        assert np.allclose(x.grad, 5.0)

    def test_backward_twice_without_zero_accumulates(self):
        x = Tensor(np.ones(2), requires_grad=True)
        ops.sum(x * 2.0).backward()
        ops.sum(x * 3.0).backward()
        assert np.allclose(x.grad, 5.0)

    def test_no_grad_inside_graph_segment(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x * 2.0
        with no_grad():
            z = Tensor(y.data * 10.0)  # constant branch
        loss = ops.sum(y + z)
        loss.backward()
        assert np.allclose(x.grad, 2.0)


class TestNumericalStability:
    def test_softmax_with_identical_logits(self):
        from repro.autodiff import functional as F

        x = Tensor(np.zeros((2, 5)), requires_grad=True)
        out = F.softmax(x)
        assert np.allclose(out.data, 0.2)
        ops.sum(out * out).backward()
        assert np.all(np.isfinite(x.grad))

    def test_large_magnitude_roughness_gradient_finite(self):
        from repro.roughness import roughness_tensor

        mask = Tensor(1e6 * spawn_rng(0).random((6, 6)), requires_grad=True)
        roughness_tensor(mask).backward()
        assert np.all(np.isfinite(mask.grad))

    def test_division_by_small_numbers(self):
        x = Tensor(np.full(3, 1e-150), requires_grad=True)
        y = ops.sum(x / 1e-150)
        y.backward()
        assert np.all(np.isfinite(x.grad))
