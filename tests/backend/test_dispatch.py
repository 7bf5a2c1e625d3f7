"""The FFT backend dispatch layer: scipy<->numpy equivalence, overrides,
forced fallback, and the no-direct-FFT-calls invariant."""

import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backend import dispatch

#: Unpadded grid sizes exercised by the tier-1 suite plus their padded
#: (pad_factor=2) counterparts.
GRID_SIZES = (4, 6, 8, 16, 20, 40, 80)

HAVE_SCIPY = "scipy" in dispatch.available_backends()

needs_scipy = pytest.mark.skipif(
    not HAVE_SCIPY, reason="scipy not installed; numpy fallback only"
)


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process on the auto-resolved backend."""
    yield
    dispatch.set_backend("auto")


def random_field(n, seed=0, dtype=np.complex128):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    return z.astype(dtype)


class TestResolution:
    def test_numpy_always_available(self):
        assert "numpy" in dispatch.available_backends()

    def test_auto_prefers_scipy_when_present(self):
        resolved = dispatch.set_backend("auto")
        if HAVE_SCIPY:
            assert resolved == "scipy"
        else:
            assert resolved == "numpy"
        assert dispatch.backend_name() == resolved

    def test_explicit_numpy(self):
        assert dispatch.set_backend("numpy") == "numpy"
        assert dispatch.backend_name() == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            dispatch.set_backend("fftw")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        dispatch._init_from_env()
        assert dispatch.backend_name() == "numpy"
        monkeypatch.delenv("REPRO_BACKEND")
        dispatch._init_from_env()
        assert dispatch.backend_name() == (
            "scipy" if HAVE_SCIPY else "numpy"
        )

    def test_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FFT_WORKERS", "2")
        dispatch._init_from_env()
        assert dispatch.get_workers() == 2
        monkeypatch.delenv("REPRO_FFT_WORKERS")
        dispatch._init_from_env()
        assert dispatch.get_workers() is None

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            dispatch.set_workers(0)


class TestForcedFallback:
    """Hide scipy entirely; the package must keep working on numpy."""

    def test_auto_falls_back_without_scipy(self, monkeypatch):
        for name in list(sys.modules):
            if name == "scipy" or name.startswith("scipy."):
                monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.fft", None)
        assert dispatch.set_backend("auto") == "numpy"
        assert dispatch.available_backends() == ("numpy",)
        x = random_field(16, seed=1)
        back = dispatch.ifft2(dispatch.fft2(x, norm="ortho"), norm="ortho")
        assert np.allclose(back, x, atol=1e-12)

    def test_explicit_scipy_raises_without_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        monkeypatch.setitem(sys.modules, "scipy.fft", None)
        with pytest.raises(RuntimeError):
            dispatch.set_backend("scipy")


@needs_scipy
class TestBackendEquivalence:
    @pytest.mark.parametrize("n", GRID_SIZES)
    @pytest.mark.parametrize("norm", [None, "backward", "ortho", "forward"])
    def test_fft2_matches_across_backends(self, n, norm):
        x = random_field(n, seed=n)
        dispatch.set_backend("scipy")
        scipy_out = dispatch.fft2(x, norm=norm)
        dispatch.set_backend("numpy")
        numpy_out = dispatch.fft2(x, norm=norm)
        assert np.allclose(scipy_out, numpy_out, atol=1e-10)

    @pytest.mark.parametrize("n", GRID_SIZES)
    def test_ifft2_matches_across_backends(self, n):
        x = random_field(n, seed=n + 100)
        dispatch.set_backend("scipy")
        scipy_out = dispatch.ifft2(x, norm="ortho")
        dispatch.set_backend("numpy")
        numpy_out = dispatch.ifft2(x, norm="ortho")
        assert np.allclose(scipy_out, numpy_out, atol=1e-10)

    @pytest.mark.parametrize("axis", [-1, -2])
    def test_1d_passes_match_across_backends(self, axis):
        x = random_field(20, seed=7)
        dispatch.set_backend("scipy")
        scipy_out = dispatch.ifft(dispatch.fft(x, axis=axis), axis=axis,
                                  norm="forward")
        dispatch.set_backend("numpy")
        numpy_out = dispatch.ifft(dispatch.fft(x, axis=axis), axis=axis,
                                  norm="forward")
        assert np.allclose(scipy_out, numpy_out, atol=1e-10)

    def test_workers_do_not_change_results(self):
        dispatch.set_backend("scipy")
        x = random_field(40, seed=9)
        one = dispatch.fft2(x, workers=1)
        many = dispatch.fft2(x, workers=-1)
        np.testing.assert_array_equal(one, many)

    def test_fftfreq_matches_numpy(self):
        assert np.array_equal(dispatch.fftfreq(21, d=2e-6),
                              np.fft.fftfreq(21, d=2e-6))


class TestDtypeAndOut:
    @pytest.mark.parametrize("backend", ["numpy"] + (
        ["scipy"] if HAVE_SCIPY else []
    ))
    def test_complex64_stays_single(self, backend):
        dispatch.set_backend(backend)
        x = random_field(16, seed=3, dtype=np.complex64)
        assert dispatch.fft2(x).dtype == np.complex64
        assert dispatch.ifft2(x).dtype == np.complex64
        assert dispatch.fft(x, axis=-1).dtype == np.complex64

    def test_out_buffer_receives_result(self):
        x = random_field(16, seed=4)
        expected = dispatch.fft2(x)
        out = np.empty_like(x)
        returned = dispatch.fft2(x, out=out)
        assert returned is out
        np.testing.assert_array_equal(out, expected)


class TestSingleDispatchPoint:
    """Grep-enforced: all FFTs route through ``repro.backend``."""

    def test_no_direct_fft_calls_outside_backend(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert src.is_dir()
        forbidden = re.compile(
            r"np\.fft|numpy\.fft|scipy\.fft|from\s+scipy\s+import\s+fft"
        )
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if "backend" in path.relative_to(src).parts:
                continue
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if forbidden.search(line):
                    offenders.append(f"{path.relative_to(src)}:{lineno}: "
                                     f"{line.strip()}")
        assert not offenders, (
            "direct FFT calls outside repro.backend:\n" + "\n".join(offenders)
        )

    def test_one_propagation_hop(self):
        # The unscaled inverse transform is the propagation hop's
        # signature: only backend/hop.py may run it, and the composed
        # reference graph has no runtime switch left.
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        hops, switches = [], []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            text = path.read_text()
            if 'norm="forward"' in text and rel != "backend/hop.py":
                hops.append(rel)
            if "REPRO_FUSED" in text or "set_fused_enabled" in text:
                switches.append(rel)
        assert not hops, f'norm="forward" outside backend/hop.py: {hops}'
        assert not switches, f"fused runtime switch in: {switches}"
