"""Tests of the fabrication model (phase <-> thickness, wrapping)."""

import numpy as np
import pytest

from repro.optics import phase_to_thickness, thickness_to_phase, wrap_phase
from repro.optics.constants import TWO_PI


class TestPhaseThicknessConversion:
    def test_two_pi_equals_one_wavelength_of_optical_path(self):
        # With n = 1.5, a 2-pi phase step needs t = lambda / (n - 1) = 2 lambda.
        t = phase_to_thickness(np.array([TWO_PI]), wavelength=500e-9,
                               refractive_index=1.5)
        assert t[0] == pytest.approx(1000e-9)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        phase = rng.uniform(0, 4 * np.pi, (6, 6))
        back = thickness_to_phase(phase_to_thickness(phase))
        assert np.allclose(back, phase)

    def test_linear_in_phase(self):
        phase = np.array([1.0, 2.0, 3.0])
        t = phase_to_thickness(phase)
        assert np.allclose(t / t[0], phase)

    def test_rejects_index_not_above_one(self):
        with pytest.raises(ValueError):
            phase_to_thickness(np.ones(2), refractive_index=1.0)
        with pytest.raises(ValueError):
            thickness_to_phase(np.ones(2), refractive_index=0.9)


class TestWrapPhase:
    def test_range(self):
        rng = np.random.default_rng(1)
        phase = rng.uniform(-20, 20, 100)
        wrapped = wrap_phase(phase)
        assert np.all(wrapped >= 0)
        assert np.all(wrapped < TWO_PI)

    def test_idempotent(self):
        phase = np.array([0.0, 1.0, TWO_PI - 1e-9])
        assert np.allclose(wrap_phase(wrap_phase(phase)), wrap_phase(phase))

    def test_two_pi_multiples_map_to_zero(self):
        assert np.allclose(wrap_phase(np.array([0.0, TWO_PI, 2 * TWO_PI])), 0.0)
