"""The fused DiffMod fast path: gradcheck + composed-graph equivalence.

The fused op (:mod:`repro.autodiff.fused`) must be a drop-in replacement
for the composed per-op graph: identical forward values and gradients
(well under the 1e-8 acceptance bound) for both phase parametrizations,
with and without a frozen sparsity mask, plus finite-difference
validation of the hand-derived VJPs.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.autodiff import Tensor, fused, gradcheck, no_grad, ops
from repro.autodiff.rng import spawn_rng
from repro.donn.layers import DiffractiveLayer
from repro.optics import Propagator, SimulationGrid

N = 8
GRAD_TOL = 1e-8


def make_grid(n=N):
    return SimulationGrid(n=n, pixel_pitch=10e-6, wavelength=532e-9)


def make_layer(parametrization="sigmoid", with_mask=False, seed=3, n=N):
    layer = DiffractiveLayer(
        make_grid(n), 1e-4, phase_init="uniform",
        parametrization=parametrization, rng=spawn_rng(seed),
    )
    if with_mask:
        mask = (spawn_rng(seed + 1).random((n, n)) > 0.3).astype(float)
        layer.set_sparsity_mask(mask)
    return layer


def random_field(shape, seed=5):
    rng = spawn_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def layer_loss_and_grads(layer, field_data, use_fused):
    """Scalar loss through one layer plus (field, phase) gradients."""
    with nullcontext() if use_fused else fused.fused_disabled():
        layer.phase.zero_grad()
        field = Tensor(field_data, requires_grad=True)
        loss = ops.sum(ops.abs2(layer(field)))
        loss.backward()
    return loss.item(), np.array(field.grad), np.array(layer.phase.grad)


class TestFlag:
    def test_default_enabled(self):
        assert fused.fused_enabled()

    def test_context_manager_restores(self):
        assert fused.fused_enabled()
        with fused.fused_disabled():
            assert not fused.fused_enabled()
        assert fused.fused_enabled()

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with fused.fused_disabled():
                raise RuntimeError("boom")
        assert fused.fused_enabled()


class TestForwardEquivalence:
    @pytest.mark.parametrize("parametrization", ["sigmoid", "direct"])
    @pytest.mark.parametrize("with_mask", [False, True])
    def test_layer_forward_matches_composed(self, parametrization, with_mask):
        layer = make_layer(parametrization, with_mask)
        field = random_field((2, N, N))
        with no_grad():
            out = layer(Tensor(field)).data
            with fused.fused_disabled():
                reference = layer(Tensor(field)).data
        assert np.abs(out - reference).max() < 1e-12

    @pytest.mark.parametrize("n", [N, 19])
    @pytest.mark.parametrize("pad_factor", [1, 2, 3])
    def test_propagator_forward_matches_composed(self, pad_factor, n):
        prop = Propagator(make_grid(n), 1e-4, pad_factor=pad_factor)
        field = random_field((3, n, n), seed=9)
        with no_grad():
            out = prop(Tensor(field)).data
            with fused.fused_disabled():
                reference = prop(Tensor(field)).data
        assert np.abs(out - reference).max() < 1e-12

    def test_unbatched_and_stacked_leading_dims(self):
        layer = make_layer()
        single = random_field((N, N), seed=11)
        stacked = random_field((2, 3, N, N), seed=12)
        with no_grad():
            for field in (single, stacked):
                out = layer(Tensor(field)).data
                with fused.fused_disabled():
                    reference = layer(Tensor(field)).data
                assert out.shape == field.shape
                assert np.abs(out - reference).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        layer = make_layer()
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((4, 4), dtype=complex)))


class TestGradientEquivalence:
    @pytest.mark.parametrize("parametrization", ["sigmoid", "direct"])
    @pytest.mark.parametrize("with_mask", [False, True])
    def test_layer_grads_match_composed(self, parametrization, with_mask):
        layer = make_layer(parametrization, with_mask)
        field = random_field((2, N, N), seed=7)
        loss_f, gf_field, gf_phase = layer_loss_and_grads(layer, field, True)
        loss_c, gc_field, gc_phase = layer_loss_and_grads(layer, field, False)
        assert abs(loss_f - loss_c) < GRAD_TOL
        assert np.abs(gf_field - gc_field).max() < GRAD_TOL
        assert np.abs(gf_phase - gc_phase).max() < GRAD_TOL

    def test_masked_pixels_get_zero_phase_gradient(self):
        layer = make_layer("sigmoid", with_mask=True)
        field = random_field((2, N, N), seed=8)
        _, _, grad = layer_loss_and_grads(layer, field, True)
        assert np.all(grad[layer.sparsity_mask == 0] == 0)

    @pytest.mark.parametrize("n", [N, 19])
    @pytest.mark.parametrize("pad_factor", [1, 2, 3])
    def test_propagator_grads_match_composed(self, pad_factor, n):
        prop = Propagator(make_grid(n), 1e-4, pad_factor=pad_factor)
        field_data = random_field((2, n, n), seed=13)

        def grads(use_fused):
            with nullcontext() if use_fused else fused.fused_disabled():
                field = Tensor(field_data, requires_grad=True)
                ops.sum(ops.abs2(prop(field))).backward()
            return np.array(field.grad)

        assert np.abs(grads(True) - grads(False)).max() < GRAD_TOL


class TestGradcheck:
    @pytest.mark.parametrize("parametrization", ["sigmoid", "direct"])
    @pytest.mark.parametrize("with_mask", [False, True])
    def test_fused_phase_vjp(self, parametrization, with_mask):
        layer = make_layer(parametrization, with_mask, n=6)
        field = Tensor(random_field((2, 6, 6), seed=15))
        assert fused.fused_enabled()
        gradcheck(
            lambda: ops.sum(ops.abs2(layer(field))),
            [layer.phase], rtol=1e-3, atol=1e-6,
        )

    def test_fused_field_vjp(self):
        layer = make_layer("sigmoid", n=6, seed=21)
        field = Tensor(random_field((6, 6), seed=16), requires_grad=True)
        gradcheck(
            lambda: ops.sum(ops.abs2(layer(field))),
            [field], rtol=1e-3, atol=1e-6,
        )

    def test_fused_propagate_vjp(self):
        grid = SimulationGrid(n=4, pixel_pitch=10e-6, wavelength=532e-9)
        prop = Propagator(grid, 1e-4, pad_factor=2)
        field = Tensor(random_field((4, 4), seed=17), requires_grad=True)
        gradcheck(
            lambda: ops.sum(ops.abs2(prop(field))),
            [field], rtol=1e-3, atol=1e-6,
        )


class TestValidation:
    def test_unknown_parametrization_rejected(self):
        layer = make_layer()
        with pytest.raises(ValueError):
            fused.diffmod(
                Tensor(random_field((N, N))), layer.phase, layer.propagator,
                parametrization="magic",
            )

    def test_bad_phase_shape_rejected(self):
        layer = make_layer()
        with pytest.raises(ValueError):
            fused.diffmod(
                Tensor(random_field((N, N))), Tensor(np.zeros((2, 2))),
                layer.propagator,
            )

    def test_bad_mask_shape_rejected(self):
        layer = make_layer()
        with pytest.raises(ValueError):
            fused.diffmod(
                Tensor(random_field((N, N))), layer.phase, layer.propagator,
                mask=np.ones((2, 2)),
            )
