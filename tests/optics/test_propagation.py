"""Physics tests of the free-space propagation kernels."""

import numpy as np
import pytest

from repro.autodiff import Tensor, gradcheck, ops
from repro.autodiff.rng import spawn_rng
from repro.optics import Propagator, SimulationGrid, angular_spectrum_tf, fresnel_tf


def make_grid(n=32, pitch=10e-6, wavelength=532e-9):
    return SimulationGrid(n=n, pixel_pitch=pitch, wavelength=wavelength)


def gaussian_beam(grid, waist_fraction=0.15):
    x, y = grid.coordinates()
    waist = grid.side_length * waist_fraction
    return np.exp(-(x ** 2 + y ** 2) / waist ** 2).astype(complex)


class TestAngularSpectrumTransferFunction:
    def test_zero_distance_is_identity(self):
        grid = make_grid()
        h = angular_spectrum_tf(grid, 0.0, band_limit=False)
        assert np.allclose(h, 1.0)

    def test_unit_modulus_on_propagating_band(self):
        grid = make_grid()
        h = angular_spectrum_tf(grid, 1e-3, band_limit=False)
        fx, fy = grid.frequencies()
        propagating = fx ** 2 + fy ** 2 <= 1.0 / grid.wavelength ** 2
        assert np.allclose(np.abs(h[propagating]), 1.0)

    def test_evanescent_components_decay(self):
        # Tiny pitch -> grid frequencies exceed 1/lambda -> evanescent bins.
        grid = make_grid(n=16, pitch=0.2e-6)
        h = angular_spectrum_tf(grid, 1e-6, band_limit=False)
        fx, fy = grid.frequencies()
        evanescent = fx ** 2 + fy ** 2 > 1.0 / grid.wavelength ** 2
        assert evanescent.any()
        assert np.all(np.abs(h[evanescent]) < 1.0)
        assert np.all(np.abs(h[evanescent]) >= 0.0)

    def test_reciprocity(self):
        grid = make_grid()
        forward = angular_spectrum_tf(grid, 2e-3, band_limit=False)
        backward = angular_spectrum_tf(grid, -2e-3, band_limit=False)
        fx, fy = grid.frequencies()
        propagating = fx ** 2 + fy ** 2 <= 1.0 / grid.wavelength ** 2
        assert np.allclose((forward * backward)[propagating], 1.0)

    def test_band_limit_zeroes_high_frequencies(self):
        grid = make_grid(n=64)
        limited = angular_spectrum_tf(grid, 0.5, band_limit=True)
        unlimited = angular_spectrum_tf(grid, 0.5, band_limit=False)
        assert np.sum(limited == 0) > 0
        assert np.sum(unlimited == 0) == 0

    def test_agrees_with_fresnel_in_paraxial_regime(self):
        # For frequencies with lambda*f << 1 the two kernels coincide.
        grid = make_grid(n=32, pitch=50e-6)  # coarse grid -> paraxial
        z = 5e-3
        h_as = angular_spectrum_tf(grid, z, band_limit=False)
        h_fr = fresnel_tf(grid, z)
        # Compare on the lowest-frequency quarter of the band.
        fx, fy = grid.frequencies()
        low = (fx ** 2 + fy ** 2) < (0.25 / (2 * grid.pixel_pitch)) ** 2
        ratio = h_as[low] / h_fr[low]
        assert np.allclose(ratio, 1.0, atol=5e-3)


class TestPropagatorPhysics:
    def test_energy_conserved_without_padding(self):
        grid = make_grid()
        prop = Propagator(grid, 1e-3, pad_factor=1, band_limit=False)
        field = gaussian_beam(grid)
        out = prop.propagate_array(field)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(
            np.sum(np.abs(field) ** 2), rel=1e-9
        )

    def test_beam_spreads_with_distance(self):
        grid = make_grid(n=64)
        field = gaussian_beam(grid, waist_fraction=0.05)

        def second_moment(intensity):
            x, y = grid.coordinates()
            total = intensity.sum()
            return float(((x ** 2 + y ** 2) * intensity).sum() / total)

        near = Propagator(grid, 1e-4).propagate_array(field)
        far = Propagator(grid, 2e-3).propagate_array(field)
        m0 = second_moment(np.abs(field) ** 2)
        m_near = second_moment(np.abs(near) ** 2)
        m_far = second_moment(np.abs(far) ** 2)
        assert m0 < m_near < m_far

    def test_forward_then_backward_recovers_field(self):
        grid = make_grid()
        field = gaussian_beam(grid)
        forward = Propagator(grid, 1e-3, pad_factor=2, band_limit=False)
        backward = Propagator(grid, -1e-3, pad_factor=2, band_limit=False)
        roundtrip = backward.propagate_array(forward.propagate_array(field))
        # The crop between the two hops discards faint diffracted tails, so
        # the round trip is near-exact but not bit-exact (~1e-5 here).
        assert np.allclose(roundtrip, field, atol=1e-4)

    def test_centered_symmetry_preserved(self):
        grid = make_grid(n=33)  # odd grid so the center is a pixel
        field = gaussian_beam(grid)
        out = np.abs(Propagator(grid, 1e-3).propagate_array(field)) ** 2
        assert np.allclose(out, np.flip(out, axis=0), atol=1e-8)
        assert np.allclose(out, np.flip(out, axis=1), atol=1e-8)

    def test_matches_analytic_gaussian_beam(self):
        # Independent physics oracle: the closed-form paraxial Gaussian
        # beam.  E(r, z) has waist w(z) = w0 sqrt(1 + (z/zR)^2) and peak
        # amplitude w0 / w(z).
        grid = make_grid(n=64, pitch=20e-6)
        w0 = grid.side_length * 0.1
        x, y = grid.coordinates()
        field = np.exp(-(x ** 2 + y ** 2) / w0 ** 2).astype(complex)

        rayleigh_range = np.pi * w0 ** 2 / grid.wavelength
        z = 0.5 * rayleigh_range
        w_z = w0 * np.sqrt(1.0 + (z / rayleigh_range) ** 2)

        out = Propagator(grid, z, pad_factor=2).propagate_array(field)
        intensity = np.abs(out) ** 2

        # Peak intensity ratio (w0 / w(z))^2.
        assert intensity.max() == pytest.approx((w0 / w_z) ** 2, rel=0.02)
        # Beam radius from the second moment of intensity: <r^2> = w^2 / 2
        # per transverse axis pair -> <x^2 + y^2> = w^2 / 2.
        second_moment = float(
            ((x ** 2 + y ** 2) * intensity).sum() / intensity.sum()
        )
        assert np.sqrt(2 * second_moment) == pytest.approx(w_z, rel=0.02)
        # Profile matches the analytic Gaussian pointwise.
        analytic = (w0 / w_z) ** 2 * np.exp(-2 * (x ** 2 + y ** 2) / w_z ** 2)
        assert np.allclose(intensity, analytic, atol=0.02 * analytic.max())

    def test_fresnel_method_close_to_angular_spectrum(self):
        grid = make_grid(n=32, pitch=50e-6)
        field = gaussian_beam(grid)
        out_as = Propagator(grid, 5e-3, method="angular_spectrum",
                            band_limit=False).propagate_array(field)
        out_fr = Propagator(grid, 5e-3, method="fresnel").propagate_array(field)
        corr = np.vdot(out_as, out_fr) / (
            np.linalg.norm(out_as) * np.linalg.norm(out_fr)
        )
        assert abs(corr) > 0.999


class TestPropagatorInterface:
    def test_batched_fields(self):
        grid = make_grid(n=16)
        prop = Propagator(grid, 1e-3)
        batch = np.stack([gaussian_beam(grid), 2.0 * gaussian_beam(grid)])
        out = prop.propagate_array(batch)
        assert out.shape == (2, 16, 16)
        assert np.allclose(out[1], 2.0 * out[0])

    def test_shape_mismatch_rejected(self):
        grid = make_grid(n=16)
        prop = Propagator(grid, 1e-3)
        with pytest.raises(ValueError):
            prop(Tensor(np.zeros((8, 8), dtype=complex)))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            Propagator(make_grid(), 1e-3, method="magic")

    def test_bad_pad_factor_rejected(self):
        with pytest.raises(ValueError):
            Propagator(make_grid(), 1e-3, pad_factor=0)

    def test_linearity(self):
        grid = make_grid(n=16)
        prop = Propagator(grid, 1e-3)
        rng = spawn_rng(7)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        out_sum = prop.propagate_array(a + 2j * b)
        assert np.allclose(
            out_sum, prop.propagate_array(a) + 2j * prop.propagate_array(b)
        )

    def test_gradcheck_through_propagator(self):
        grid = SimulationGrid(n=4, pixel_pitch=10e-6, wavelength=532e-9)
        prop = Propagator(grid, 1e-4, pad_factor=2)
        rng = spawn_rng(8)
        field = Tensor(
            rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)),
            requires_grad=True,
        )
        gradcheck(lambda: ops.sum(ops.abs2(prop(field))), [field],
                  rtol=1e-3, atol=1e-6)
