"""Shared fixtures for the backend tests."""

import pytest

from repro.backend import dispatch


@pytest.fixture(autouse=True)
def restore_fft_workers():
    """Every backend test leaves the process-wide FFT worker default as
    it found it, so a suite run under ``REPRO_FFT_WORKERS=1`` stays on
    one thread after the tests that re-read the environment."""
    previous = dispatch.get_workers()
    yield
    dispatch.set_workers(previous)
