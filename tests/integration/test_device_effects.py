"""Failure-injection tests: device-level imperfections vs DONN accuracy.

The paper (Sec. I) lists three deployment-gap sources: discrete control
levels, fabrication errors and interpixel crosstalk.  These tests inject
each one through the fabrication/crosstalk models and check the DONN
degrades the way physics says it should — gradually, and monotonically in
the severity of the imperfection.
"""

import numpy as np
import pytest

from repro.autodiff import Adam
from repro.autodiff.rng import seed_all, spawn_rng
from repro.data import DataLoader, make_dataset
from repro.donn import DONN, DONNConfig, Trainer, accuracy, deployed_accuracy
from repro.optics import CrosstalkModel, wrap_phase
from repro.optics.constants import TWO_PI


@pytest.fixture(scope="module")
def trained_setup():
    """One small trained model shared by every injection test."""
    seed_all(123)
    train, test = make_dataset("digits", 400, 150, seed=3)
    model = DONN(DONNConfig.laptop(n=24, phase_init="high",
                                   detector_region_size=3),
                 rng=spawn_rng(3))
    loader = DataLoader(train, batch_size=100, seed=3)
    Trainer(model, Adam(model.parameters(), lr=0.05)).fit(loader, epochs=8)
    return model, test


def quantized_accuracy(model, test, levels: int) -> float:
    """Accuracy with each phase rounded to ``levels`` control values."""
    step = TWO_PI / levels
    modulations = [
        np.exp(1j * np.mod(np.round(wrap_phase(phase) / step) * step,
                           TWO_PI))
        for phase in model.phases()
    ]
    logits = model.forward_with_modulations(test.images, modulations).data
    return float((np.argmax(logits, axis=-1) == test.labels).mean())


class TestDiscreteControlLevels:
    def test_many_levels_lossless(self, trained_setup):
        model, test = trained_setup
        ideal = accuracy(model, test)
        assert quantized_accuracy(model, test, 256) >= ideal - 0.02

    def test_accuracy_degrades_as_levels_shrink(self, trained_setup):
        model, test = trained_setup
        accuracies = [quantized_accuracy(model, test, levels)
                      for levels in (64, 8, 2)]
        # Monotone trend with slack for evaluation noise.
        assert accuracies[0] >= accuracies[2] - 0.02
        ideal = accuracy(model, test)
        assert accuracies[2] < ideal  # binary masks genuinely hurt

    def test_extreme_quantization_still_above_chance(self, trained_setup):
        model, test = trained_setup
        assert quantized_accuracy(model, test, 2) > 0.15


class TestFabricationNoise:
    def test_small_thickness_noise_tolerated(self, trained_setup):
        model, test = trained_setup
        ideal = accuracy(model, test)
        rng = spawn_rng(11)
        modulations = [
            np.exp(1j * (phase + rng.normal(0, 0.05, phase.shape)))
            for phase in model.phases()
        ]
        logits = model.forward_with_modulations(test.images, modulations).data
        noisy = float((np.argmax(logits, axis=-1) == test.labels).mean())
        assert noisy >= ideal - 0.1

    def test_noise_severity_monotone(self, trained_setup):
        model, test = trained_setup
        rng = spawn_rng(12)

        def noisy_accuracy(sigma):
            modulations = [
                np.exp(1j * (phase + rng.normal(0, sigma, phase.shape)))
                for phase in model.phases()
            ]
            logits = model.forward_with_modulations(
                test.images, modulations).data
            return float((np.argmax(logits, axis=-1) == test.labels).mean())

        mild, severe = noisy_accuracy(0.05), noisy_accuracy(2.0)
        assert severe <= mild + 0.05
        assert severe < accuracy(model, test)


class TestCrosstalkSeverity:
    def test_gap_grows_with_coupling_strength(self, trained_setup):
        model, test = trained_setup
        gaps = []
        for strength in (0.05, 0.2, 0.45):
            deployed = deployed_accuracy(
                model, test, CrosstalkModel(strength=strength))
            gaps.append(accuracy(model, test) - deployed)
        assert gaps[0] <= gaps[2] + 0.03  # monotone up to noise
        assert gaps[2] > -0.02  # strong coupling never helps

    def test_smoothed_masks_degrade_less(self, trained_setup):
        # Inject the paper's remedy: a heavily smoothed copy of the masks
        # must lose less accuracy under identical crosstalk (relative to
        # its own ideal forward).
        ndimage = pytest.importorskip(
            "scipy.ndimage", reason="smoothing remedy needs scipy")

        model, test = trained_setup
        crosstalk = CrosstalkModel(strength=0.35)

        def gap_for(phases):
            ideal_logits = model.forward_with_modulations(
                test.images, [np.exp(1j * p) for p in phases]).data
            ideal = float(
                (np.argmax(ideal_logits, axis=-1) == test.labels).mean())
            deployed_logits = model.forward_with_modulations(
                test.images,
                [crosstalk.degrade_modulation(p) for p in phases]).data
            deployed = float(
                (np.argmax(deployed_logits, axis=-1) == test.labels).mean())
            return ideal - deployed

        raw_gap = gap_for(model.phases())
        smooth_phases = [ndimage.uniform_filter(p, 3, mode="nearest")
                         for p in model.phases()]
        smooth_gap = gap_for(smooth_phases)
        assert smooth_gap <= raw_gap + 0.02
