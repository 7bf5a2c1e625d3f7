"""Tests of DiffractiveLayer and the DONN model."""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradcheck, ops
from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig, DiffractiveLayer
from repro.optics import SimulationGrid
from repro.optics.constants import TWO_PI


def tiny_config(**overrides) -> DONNConfig:
    defaults = dict(n=16, num_layers=2, detector_region_size=2)
    defaults.update(overrides)
    return DONNConfig.laptop(**defaults)


def small_grid(n=8):
    return SimulationGrid(n=n, pixel_pitch=36e-6, wavelength=532e-9)


class TestDiffractiveLayer:
    def test_phase_inits_direct(self):
        grid = small_grid()
        rng = spawn_rng(0)
        uniform = DiffractiveLayer(grid, 1e-3, phase_init="uniform",
                                   parametrization="direct", rng=rng)
        assert uniform.phase.data.min() >= 0.0
        assert uniform.phase.data.max() < TWO_PI
        zeros = DiffractiveLayer(grid, 1e-3, phase_init="zeros",
                                 parametrization="direct")
        assert np.allclose(zeros.phase.data, 0.0)
        small = DiffractiveLayer(grid, 1e-3, phase_init="small",
                                 parametrization="direct", rng=rng)
        assert np.abs(small.phase.data).max() < 1.0

    def test_phase_inits_sigmoid(self):
        grid = small_grid()
        rng = spawn_rng(0)
        uniform = DiffractiveLayer(grid, 1e-3, phase_init="uniform",
                                   parametrization="sigmoid", rng=rng)
        phases = uniform.phase_array()
        assert phases.min() >= 0.0
        assert phases.max() < TWO_PI
        assert phases.std() > 0.5  # genuinely spread over the range
        high = DiffractiveLayer(grid, 1e-3, phase_init="high")
        assert np.allclose(high.phase_array(), high.phase_array()[0, 0])
        assert high.phase_array()[0, 0] > np.pi  # biased into (pi, 2 pi)
        flat = DiffractiveLayer(grid, 1e-3, phase_init="zeros")
        assert np.allclose(flat.phase_array(), np.pi)  # sigmoid(0) = 1/2

    def test_sigmoid_phases_bounded(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, rng=spawn_rng(1))
        layer.phase.data = spawn_rng(2).normal(0, 10, layer.phase.shape)
        phases = layer.phase_array()
        assert phases.min() >= 0.0
        assert phases.max() <= TWO_PI

    def test_bad_init_rejected(self):
        with pytest.raises(ValueError):
            DiffractiveLayer(small_grid(), 1e-3, phase_init="banana")

    def test_bad_parametrization_rejected(self):
        with pytest.raises(ValueError):
            DiffractiveLayer(small_grid(), 1e-3, parametrization="tanh")

    def test_modulation_unit_magnitude(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, rng=spawn_rng(1))
        w = layer.modulation().data
        assert np.allclose(np.abs(w), 1.0)

    def test_forward_shapes(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, rng=spawn_rng(2))
        field = Tensor(np.ones((3, 8, 8), dtype=complex))
        out = layer(field)
        assert out.shape == (3, 8, 8)
        assert out.is_complex

    def test_sparsity_mask_zeroes_phase_and_gradient(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, phase_init="uniform",
                                 rng=spawn_rng(3))
        mask = np.ones((8, 8))
        mask[:4] = 0.0
        layer.set_sparsity_mask(mask)
        # The *effective phase* (what the optics sees) is zeroed...
        assert np.allclose(layer.phase_array()[:4], 0.0)

        field = Tensor(np.ones((1, 8, 8), dtype=complex))
        loss = ops.sum(ops.abs2(layer(field)) ** 2)
        loss.backward()
        # ...and pruned pixels receive no gradient.
        assert np.allclose(layer.phase.grad[:4], 0.0)
        assert np.abs(layer.phase.grad[4:]).max() > 0.0

    def test_sparsity_mask_direct_zeroes_raw_weights(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, phase_init="uniform",
                                 parametrization="direct", rng=spawn_rng(3))
        mask = np.ones((8, 8))
        mask[:4] = 0.0
        layer.set_sparsity_mask(mask)
        assert np.allclose(layer.phase.data[:4], 0.0)

    def test_sparsity_mask_validation(self):
        layer = DiffractiveLayer(small_grid(), 1e-3)
        with pytest.raises(ValueError):
            layer.set_sparsity_mask(np.ones((4, 4)))
        with pytest.raises(ValueError):
            layer.set_sparsity_mask(np.full((8, 8), 0.5))

    def test_clear_sparsity_mask(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, rng=spawn_rng(4))
        layer.set_sparsity_mask(np.zeros((8, 8)))
        layer.set_sparsity_mask(None)
        assert layer.sparsity_mask is None

    def test_phase_array_wrapping(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, phase_init="zeros",
                                 parametrization="direct")
        layer.phase.data = np.full((8, 8), TWO_PI + 1.0)
        assert np.allclose(layer.phase_array(wrapped=True), 1.0)
        assert np.allclose(layer.phase_array(wrapped=False), TWO_PI + 1.0)

    def test_set_phase_array_roundtrip_sigmoid(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, rng=spawn_rng(4))
        target = spawn_rng(5).uniform(0.1, TWO_PI - 0.1, (8, 8))
        layer.set_phase_array(target)
        assert np.allclose(layer.phase_array(), target, atol=1e-9)

    def test_forward_with_modulation_override(self):
        layer = DiffractiveLayer(small_grid(), 1e-3, rng=spawn_rng(5))
        field = Tensor(np.ones((1, 8, 8), dtype=complex))
        override = np.exp(1j * np.zeros((8, 8)))
        out = layer.forward_with_modulation(field, override).data
        prop_only = layer.propagator(field).data
        assert np.allclose(out, prop_only)

    def test_forward_with_modulation_shape_check(self):
        layer = DiffractiveLayer(small_grid(), 1e-3)
        with pytest.raises(ValueError):
            layer.forward_with_modulation(
                Tensor(np.ones((1, 8, 8), dtype=complex)), np.ones((4, 4))
            )


class TestDONNConfig:
    def test_paper_config(self):
        cfg = DONNConfig.paper()
        assert cfg.n == 200
        assert cfg.num_layers == 3
        assert cfg.resolved_distance() == pytest.approx(27.94e-2)

    def test_laptop_distance_scaling(self):
        cfg = DONNConfig.laptop(n=50)
        # Connectivity-preserving: linear in n.
        assert cfg.resolved_distance() == pytest.approx(27.94e-2 * 50 / 200)

    def test_explicit_distance_wins(self):
        cfg = DONNConfig.laptop(n=50, distance=0.1)
        assert cfg.resolved_distance() == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            DONNConfig(num_layers=0)
        with pytest.raises(ValueError):
            DONNConfig(num_classes=1)


class TestDONN:
    def test_forward_shapes_from_images(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        rng = spawn_rng(1)
        images = rng.random((4, 28, 28))
        logits = model(images)
        assert logits.shape == (4, 10)

    def test_forward_from_encoded_fields(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        fields = np.ones((2, 16, 16), dtype=complex)
        assert model(fields).shape == (2, 10)

    def test_predict_labels_in_range(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        labels = model.predict(spawn_rng(2).random((5, 28, 28)))
        assert labels.shape == (5,)
        assert np.all((labels >= 0) & (labels < 10))

    def test_parameter_count(self):
        cfg = tiny_config(num_layers=3)
        model = DONN(cfg, rng=spawn_rng(0))
        params = list(model.parameters())
        assert len(params) == 3
        assert all(p.shape == (16, 16) for p in params)

    def test_phases_roundtrip(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        phases = model.phases(wrapped=False)
        model.set_phases([p + 1.0 for p in phases])
        new = model.phases(wrapped=False)
        assert np.allclose(new[0], phases[0] + 1.0)

    def test_set_phases_validation(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        with pytest.raises(ValueError):
            model.set_phases([np.zeros((16, 16))])  # wrong count
        with pytest.raises(ValueError):
            model.set_phases([np.zeros((4, 4))] * 2)  # wrong shape

    def test_apply_sparsity_masks(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        mask = np.ones((16, 16))
        mask[:8] = 0
        model.apply_sparsity_masks([mask, None])
        assert model.sparsity_masks()[0] is not None
        assert model.sparsity_masks()[1] is None
        assert np.allclose(model.phases()[0][:8], 0.0)

    def test_two_pi_phase_invariance_direct(self):
        # The paper's Sec. III-D2 property: adding 2 pi to any pixel leaves
        # the forward function unchanged.
        model = DONN(tiny_config(parametrization="direct",
                                 phase_init="uniform"), rng=spawn_rng(0))
        images = spawn_rng(3).random((3, 28, 28))
        baseline = model(images).data.copy()

        rng = spawn_rng(4)
        offsets = TWO_PI * rng.integers(0, 2, (2, 16, 16))
        model.set_phases([p + o for p, o in
                          zip(model.phases(wrapped=False), offsets)])
        shifted = model(images).data
        assert np.allclose(shifted, baseline, atol=1e-9)

    def test_two_pi_modulation_invariance_sigmoid(self):
        # Same property at the fabrication level: exp(i(phi + 2 pi s))
        # equals exp(i phi), so the deployed forward is unchanged.
        model = DONN(tiny_config(), rng=spawn_rng(0))
        images = spawn_rng(5).random((3, 28, 28))
        baseline = model(images).data.copy()

        rng = spawn_rng(6)
        modulations = [
            np.exp(1j * (phase + TWO_PI * rng.integers(0, 2, phase.shape)))
            for phase in model.phases()
        ]
        shifted = model.forward_with_modulations(images, modulations).data
        assert np.allclose(shifted, baseline, atol=1e-9)

    def test_forward_with_modulations_matches_ideal(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        images = spawn_rng(5).random((2, 28, 28))
        ideal = model(images).data
        override = model.forward_with_modulations(
            images, model.modulations()
        ).data
        assert np.allclose(override, ideal, atol=1e-12)

    def test_forward_with_modulations_count_check(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        with pytest.raises(ValueError):
            model.forward_with_modulations(np.ones((1, 28, 28)),
                                           [np.ones((16, 16))])

    def test_intensity_map_shape_and_positivity(self):
        model = DONN(tiny_config(), rng=spawn_rng(0))
        intensity = model.intensity_map(spawn_rng(6).random((2, 28, 28)))
        assert intensity.shape == (2, 16, 16)
        assert np.all(intensity >= 0)

    def test_gradients_flow_to_all_layers(self):
        model = DONN(tiny_config(num_layers=3), rng=spawn_rng(0))
        from repro.autodiff import functional as F

        logits = model(spawn_rng(7).random((2, 28, 28)))
        loss = F.mse_softmax_loss(logits, [1, 2])
        loss.backward()
        for layer in model.layers:
            assert layer.phase.grad is not None
            assert np.abs(layer.phase.grad).max() > 0

    def test_end_to_end_gradcheck(self):
        # Full pipeline: encode -> 2 DiffMods -> detector -> loss.
        from repro.autodiff import functional as F

        cfg = DONNConfig(n=8, num_layers=2, detector_region_size=1,
                         pad_factor=2)
        model = DONN(cfg, rng=spawn_rng(8))
        images = spawn_rng(9).random((2, 8, 8))

        def loss():
            return F.mse_softmax_loss(model(images), [3, 7])

        gradcheck(loss, list(model.parameters()), eps=1e-6, rtol=2e-3,
                  atol=1e-7)
