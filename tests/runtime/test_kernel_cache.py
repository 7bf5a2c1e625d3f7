"""The process-wide propagation-kernel cache."""

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.donn import DONN, DONNConfig
from repro.optics import Propagator, SimulationGrid
from repro.optics.propagation import angular_spectrum_tf
from repro.runtime import cache_info, clear_kernel_cache, get_kernel, kernel_cache


def make_grid(n=16):
    return SimulationGrid(n=n, pixel_pitch=36e-6, wavelength=532e-9)


class TestCacheBehavior:
    def test_second_lookup_is_a_hit(self):
        clear_kernel_cache()
        grid = make_grid()
        first = get_kernel(grid, 1e-3)
        second = get_kernel(grid, 1e-3)
        assert first is second
        info = cache_info()
        assert info["misses"] == 1
        assert info["hits"] == 1

    def test_distinct_geometries_get_distinct_kernels(self):
        clear_kernel_cache()
        grid = make_grid()
        base = get_kernel(grid, 1e-3)
        assert get_kernel(grid, 2e-3) is not base
        assert get_kernel(grid, 1e-3, method="fresnel") is not base
        assert get_kernel(grid, 1e-3, pad_factor=3) is not base
        assert get_kernel(grid, 1e-3, band_limit=False) is not base
        assert get_kernel(make_grid(n=18), 1e-3) is not base
        assert cache_info()["misses"] == 6

    def test_cached_h_matches_direct_computation(self):
        clear_kernel_cache()
        grid = make_grid()
        kernel = get_kernel(grid, 1e-3, pad_factor=2)
        padded = SimulationGrid(
            n=grid.n + 2 * kernel.pad,
            pixel_pitch=grid.pixel_pitch,
            wavelength=grid.wavelength,
        )
        expected = angular_spectrum_tf(padded, 1e-3, True)
        np.testing.assert_array_equal(kernel.h, expected)

    def test_cached_array_is_read_only(self):
        kernel = get_kernel(make_grid(), 1e-3)
        with pytest.raises(ValueError):
            kernel.h[0, 0] = 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            get_kernel(make_grid(), 1e-3, method="magic")

    def test_clear_resets_counters(self):
        get_kernel(make_grid(), 1e-3)
        clear_kernel_cache()
        info = cache_info()
        assert info == {
            "hits": 0, "misses": 0, "size": 0,
            "max_entries": info["max_entries"],
        }

    def test_lru_eviction_respects_limit(self, monkeypatch):
        clear_kernel_cache()
        grid = make_grid()
        monkeypatch.setattr(kernel_cache, "_MAX_ENTRIES", 2)
        get_kernel(grid, 1e-3)
        get_kernel(grid, 2e-3)
        get_kernel(grid, 3e-3)  # evicts the 1e-3 entry
        assert cache_info()["size"] == 2
        get_kernel(grid, 1e-3)
        assert cache_info()["misses"] == 4


class TestPropagatorSharing:
    def test_propagators_share_one_kernel(self):
        clear_kernel_cache()
        grid = make_grid()
        a = Propagator(grid, 1e-3)
        b = Propagator(grid, 1e-3)
        assert a.transfer_function.data is b.transfer_function.data
        assert cache_info()["misses"] == 1

    def test_three_layer_donn_computes_exactly_one_kernel(self):
        clear_kernel_cache()
        model = DONN(DONNConfig.laptop(n=16), rng=spawn_rng(0))
        info = cache_info()
        assert info["misses"] == 1
        assert info["hits"] == len(model.layers)  # detector hop misses
        hs = {id(layer.propagator.transfer_function.data)
              for layer in model.layers}
        hs.add(id(model.to_detector.transfer_function.data))
        assert len(hs) == 1

    def test_propagation_still_correct_through_cache(self):
        clear_kernel_cache()
        grid = make_grid()
        prop = Propagator(grid, 1e-3)
        rng = spawn_rng(1)
        field = rng.standard_normal((16, 16)) + 1j * rng.standard_normal(
            (16, 16))
        out = prop.propagate_array(field)
        # Energy conservation of the band-limited angular spectrum.
        assert out.shape == (16, 16)
        assert np.isfinite(out).all()
