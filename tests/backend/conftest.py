"""Shared fixtures for the backend tests."""

import threading

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


@pytest.fixture
def spy_fft_threads(monkeypatch):
    """``spy(split)`` wraps ``dispatch.fft`` and returns the set of
    threads that call it.  With ``split``, the first call waits (up to
    10 s) for a second thread, so a hop that spreads its blocks cannot
    finish them all on the calling thread before a helper wakes up."""

    def install(split):
        threads = set()
        second = threading.Event()
        real = dispatch.fft

        def spy(*args, **kwargs):
            first = not threads
            threads.add(threading.get_ident())
            if len(threads) > 1:
                second.set()
            elif first and split:
                second.wait(10)
            return real(*args, **kwargs)

        monkeypatch.setattr(dispatch, "fft", spy)
        return threads

    return install
