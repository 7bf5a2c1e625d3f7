"""Single-precision fused training path: float32-tolerance gradchecks and
equivalence against the composed complex128 reference."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.autodiff import Tensor, fused, gradcheck, no_grad, ops
from repro.autodiff.rng import spawn_rng
from repro.backend import PRECISIONS, precision_scope
from repro.donn.layers import DiffractiveLayer
from repro.optics import SimulationGrid

N = 8
SINGLE = PRECISIONS["single"]


def make_layer(parametrization="sigmoid", with_mask=False, seed=3, n=N):
    layer = DiffractiveLayer(
        SimulationGrid(n=n, pixel_pitch=10e-6, wavelength=532e-9),
        1e-4, phase_init="uniform",
        parametrization=parametrization, rng=spawn_rng(seed),
    )
    if with_mask:
        mask = (spawn_rng(seed + 1).random((n, n)) > 0.3).astype(float)
        layer.set_sparsity_mask(mask)
    return layer


def random_field(shape, seed=5):
    rng = spawn_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def loss_and_grads(layer, field_data, precision=None, use_fused=True):
    """Phase-sensitive scalar loss plus (field, phase) gradients.

    The modulated field is propagated once more before the intensity
    readout (as in the real DONN stack) — a bare ``abs2`` right after
    the unit-modulus modulation has an analytically zero phase
    gradient, which would make relative comparisons meaningless.
    """
    with nullcontext() if use_fused else fused.fused_disabled():
        with precision_scope(precision):
            layer.phase.zero_grad()
            field = Tensor(field_data, requires_grad=True)
            loss = ops.sum(ops.abs2(layer.propagator(layer(field))))
            loss.backward()
    return loss.item(), np.array(field.grad), np.array(layer.phase.grad)


class TestForward:
    @pytest.mark.parametrize("parametrization", ["sigmoid", "direct"])
    def test_single_forward_matches_double(self, parametrization):
        layer = make_layer(parametrization)
        field = random_field((2, N, N))
        with no_grad():
            with precision_scope("single"):
                single = layer(Tensor(field)).data
            reference = layer(Tensor(field)).data
        assert single.dtype == np.complex64
        scale = np.abs(reference).max()
        assert np.abs(single - reference).max() < 1e-5 * max(scale, 1.0)

    def test_single_output_feeds_the_next_layer(self):
        # The whole stack stays complex64 once the policy is single.
        layer_a = make_layer(seed=3)
        layer_b = make_layer(seed=4)
        field = random_field((2, N, N))
        with no_grad(), precision_scope("single"):
            out = layer_b(layer_a(Tensor(field)))
        assert out.dtype == np.complex64


class TestGradientsVsComposedDouble:
    """Fused complex64 gradients against the composed complex128 graph."""

    @pytest.mark.parametrize("parametrization", ["sigmoid", "direct"])
    @pytest.mark.parametrize("with_mask", [False, True])
    def test_grads_within_float32_tolerance(self, parametrization,
                                            with_mask):
        layer = make_layer(parametrization, with_mask)
        field = random_field((2, N, N), seed=7)
        _, gs_field, gs_phase = loss_and_grads(layer, field,
                                               precision="single")
        _, gc_field, gc_phase = loss_and_grads(layer, field,
                                               use_fused=False)
        assert gs_field.dtype == np.complex64
        assert gs_phase.dtype == np.float32
        field_scale = np.abs(gc_field).max()
        phase_scale = max(np.abs(gc_phase).max(), 1e-30)
        assert np.abs(gs_field - gc_field).max() < (
            SINGLE.grad_rtol * field_scale
        )
        assert np.abs(gs_phase - gc_phase).max() < (
            SINGLE.grad_rtol * phase_scale
        )

    def test_masked_pixels_get_zero_phase_gradient(self):
        layer = make_layer("sigmoid", with_mask=True)
        field = random_field((2, N, N), seed=8)
        _, _, grad = loss_and_grads(layer, field, precision="single")
        assert np.all(grad[layer.sparsity_mask == 0] == 0)


class TestGradcheckFloat32:
    """Finite-difference validation at the float32 tolerance table.

    The probe step comes from the policy (a 1e-6 step would drown in
    float32 rounding noise of the loss).
    """

    @pytest.mark.parametrize("parametrization", ["sigmoid", "direct"])
    def test_phase_vjp(self, parametrization):
        layer = make_layer(parametrization, n=6)
        field = Tensor(random_field((2, 6, 6), seed=15))

        @precision_scope("single")
        def loss():
            # Propagate after modulating so the phase gradient is
            # nonzero (see loss_and_grads).
            return ops.sum(ops.abs2(layer.propagator(layer(field))))

        assert fused.fused_enabled()
        gradcheck(
            loss, [layer.phase],
            eps=SINGLE.gradcheck_eps,
            rtol=SINGLE.gradcheck_rtol,
            atol=SINGLE.gradcheck_atol,
        )

    def test_field_vjp(self):
        layer = make_layer("sigmoid", n=6, seed=21)
        field = Tensor(random_field((6, 6), seed=16), requires_grad=True)

        @precision_scope("single")
        def loss():
            return ops.sum(ops.abs2(layer(field)))

        gradcheck(
            loss, [field],
            eps=SINGLE.gradcheck_eps,
            rtol=SINGLE.gradcheck_rtol,
            atol=SINGLE.gradcheck_atol,
        )


class TestOptimizerState:
    def test_adam_state_follows_gradient_dtype(self):
        from repro.autodiff import Adam

        layer = make_layer()
        optimizer = Adam([layer.phase], lr=0.05)
        field = random_field((2, N, N), seed=9)
        with precision_scope("single"):
            optimizer.zero_grad()
            loss = ops.sum(ops.abs2(layer(Tensor(field))))
            loss.backward()
            optimizer.step()
        assert layer.phase.grad.dtype == np.float32
        assert optimizer._m[0].dtype == np.float32
        assert optimizer._v[0].dtype == np.float32
        # Master weights stay float64 regardless of compute precision.
        assert layer.phase.data.dtype == np.float64
