"""The shared propagation hop: training and serving both run it."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.autodiff import Tensor, ops
from repro.autodiff.rng import spawn_rng
from repro.backend import dispatch, hop
from repro.donn import DONN, DONNConfig
from repro.runtime import InferenceEngine
from repro.runtime.kernel_cache import kernel_for_dtype


def test_engine_and_fused_op_call_the_one_hop(monkeypatch):
    calls = []
    real = hop.propagate_rows

    def counted(*args):
        calls.append(args[0].shape[0])
        return real(*args)

    monkeypatch.setattr(hop, "propagate_rows", counted)
    model = DONN(DONNConfig.laptop(n=8, num_layers=3), rng=spawn_rng(0))

    # Three layer hops plus the detector hop, once per chunk.
    engine = InferenceEngine(model, max_batch=4)
    engine.logits(spawn_rng(1).random((9, 28, 28)))
    assert calls == [4] * 4 + [4] * 4 + [1] * 4

    # One fused layer: the forward hop plus the field-adjoint hop.
    calls.clear()
    layer = model.layers[0]
    rng = spawn_rng(2)
    field = Tensor(rng.standard_normal((2, 8, 8))
                   + 1j * rng.standard_normal((2, 8, 8)),
                   requires_grad=True)
    ops.sum(ops.abs2(layer(field))).backward()
    assert calls == [2, 2]


# ----------------------------------------------------------------------
# The blocked hop: output independent of block budget, workers, dtype
# ----------------------------------------------------------------------
def _hop_inputs(n, pad_factor, batch, dtype):
    """Prescaled ``h``, ``pad`` and ``(batch, n, n)`` aperture fields."""
    model = DONN(DONNConfig.laptop(n=n, num_layers=1,
                                   pad_factor=pad_factor),
                 rng=spawn_rng(n))
    kernel = kernel_for_dtype(model.layers[0].propagator.kernel, dtype)
    rng = spawn_rng(pad_factor)
    fields = (rng.standard_normal((batch, n, n))
              + 1j * rng.standard_normal((batch, n, n))).astype(dtype)
    return kernel.prescaled(), kernel.pad, fields


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("pad_factor", [1, 2, 3])
def test_blocked_hop_is_identical_across_blocks_and_workers(
        monkeypatch, spy_fft_threads, pad_factor, dtype):
    # n=19 is odd, and a batch of 7 is not a multiple of 2 or 3 planes.
    h, pad, fields = _hop_inputs(19, pad_factor, 7, dtype)
    plane = h.nbytes
    before = fields.copy()
    outputs = []
    for workers in (1, 2, 3, -1):
        dispatch.set_workers(workers)
        for planes in (1, 2, 3, 7, 100):
            # A thread per plane spreads the batch, a thread per 100
            # planes keeps it on the calling thread.
            for thread_planes in (1, 100):
                monkeypatch.setattr(hop, "_BLOCK_BYTES", planes * plane)
                monkeypatch.setattr(hop, "_THREAD_MIN_BYTES",
                                    thread_planes * plane)
                split = thread_planes == 1 and hop._thread_budget() > 1
                threads = spy_fft_threads(split)
                outputs.append(hop.propagate_rows(fields, h, pad))
                monkeypatch.undo()
                # A split hop really ran its blocks on two or more
                # threads.
                assert (len(threads) >= 2) == split, (workers, planes)
    np.testing.assert_array_equal(fields, before)  # input only read
    for out in outputs[1:]:
        assert out.dtype == dtype and out.shape == fields.shape
        assert np.array_equal(out, outputs[0])

    # And it is the dense padded-plane propagation cropped to the
    # aperture.
    side = h.shape[-1]
    aperture = slice(pad, pad + 19)
    full = np.zeros((len(fields), side, side), dtype=np.complex128)
    full[:, aperture, aperture] = fields
    dense = np.fft.ifft2(np.fft.fft2(full) * h, norm="forward")
    tol = 1e-12 if dtype == np.complex128 else 1e-4
    np.testing.assert_allclose(outputs[0], dense[:, aperture, aperture],
                               atol=tol * np.abs(dense).max())


def test_one_block_batch_above_the_threshold_runs_on_two_threads(
        spy_fft_threads):
    # The laptop table's training hop: 25 samples at n=40 fill one
    # cache block, and their planes are worth two threads.
    h, pad, fields = _hop_inputs(40, 2, 25, np.complex128)
    assert 2 * hop._THREAD_MIN_BYTES <= fields.shape[0] * h.nbytes
    assert fields.shape[0] * h.nbytes <= hop._BLOCK_BYTES
    dispatch.set_workers(1)
    expected = hop.propagate_rows(fields, h, pad)
    dispatch.set_workers(2)
    threads = spy_fft_threads(split=True)
    assert np.array_equal(hop.propagate_rows(fields, h, pad), expected)
    assert len(threads) == 2


@pytest.mark.parametrize("n, batch", [(20, 8), (40, 1)])
def test_batch_below_the_threshold_stays_on_the_calling_thread(
        monkeypatch, spy_fft_threads, n, batch):
    # However many blocks it spans: one sample per block here.
    h, pad, fields = _hop_inputs(n, 2, batch, np.complex128)
    assert batch * h.nbytes < 2 * hop._THREAD_MIN_BYTES
    monkeypatch.setattr(hop, "_BLOCK_BYTES", h.nbytes)
    dispatch.set_workers(2)
    threads = spy_fft_threads(split=False)
    hop.propagate_rows(fields, h, pad)
    assert threads == {threading.get_ident()}


def test_engine_keeps_no_padded_scratch():
    # The hop embeds and crops inside its own planes: between calls an
    # engine holds (n, n) modulations and no padded work buffer.
    n, batch = 19, 5
    model = DONN(DONNConfig.laptop(n=n, num_layers=2, pad_factor=3),
                 rng=spawn_rng(0))
    images = spawn_rng(1).random((batch, 28, 28))
    for precision, itemsize in (("double", 16), ("single", 8)):
        engine = InferenceEngine(model, precision=precision,
                                 max_batch=batch)
        assert [m.shape for m in engine._modulations] == [(n, n)] * 2
        engine.logits(images)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits = engine.logits(images)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained - logits.nbytes < batch * n * n * itemsize


def test_one_thread_budget_never_builds_helpers(monkeypatch):
    h, pad, fields = _hop_inputs(19, 2, 7, np.complex128)
    monkeypatch.setattr(hop, "_BLOCK_BYTES", h.nbytes)
    monkeypatch.setattr(hop, "_THREAD_MIN_BYTES", h.nbytes)

    def no_helpers(threads):
        raise AssertionError("helper pool built under a budget of one")

    monkeypatch.setattr(hop, "_helper_pool", no_helpers)
    dispatch.set_workers(1)
    hop.propagate_rows(fields, h, pad)


def _engine_and_fused_results(model, batch, budgets):
    """Engine logits and one fused layer's field and phase gradients
    for one batch, under each FFT thread budget."""
    n = model.config.n
    images = spawn_rng(4).random((batch, 28, 28))
    rng = spawn_rng(5)
    field_data = (rng.standard_normal((batch, n, n))
                  + 1j * rng.standard_normal((batch, n, n)))
    layer = model.layers[0]
    results = []
    for workers in budgets:
        dispatch.set_workers(workers)
        logits = InferenceEngine(model, max_batch=batch).logits(images)
        layer.phase.zero_grad()
        field = Tensor(field_data, requires_grad=True)
        ops.sum(ops.abs2(layer(field))).backward()
        results.append((logits, np.array(field.grad),
                        np.array(layer.phase.grad)))
    return results


def test_engine_and_fused_op_are_identical_on_one_or_two_threads(
        monkeypatch):
    model = DONN(DONNConfig.laptop(n=12, num_layers=2), rng=spawn_rng(3))
    plane = model.layers[0].propagator.kernel.prescaled().nbytes
    # Two samples per block and a thread per plane: every hop below
    # spans several blocks and spreads them.
    monkeypatch.setattr(hop, "_BLOCK_BYTES", 2 * plane)
    monkeypatch.setattr(hop, "_THREAD_MIN_BYTES", plane)
    one, two = _engine_and_fused_results(model, 9, (1, 2))
    for a, b in zip(one, two):
        assert np.array_equal(a, b)


def test_lone_block_engine_and_fused_op_are_identical_at_any_budget():
    # At the laptop table's geometry and the real block and thread
    # constants: one cache block, spread over two or three threads.
    model = DONN(DONNConfig.laptop(n=40, num_layers=2), rng=spawn_rng(3))
    one, *others = _engine_and_fused_results(model, 25, (1, 2, 3))
    for other in others:
        for a, b in zip(one, other):
            assert np.array_equal(a, b)


def test_concurrent_spread_hops_claim_every_block_once(monkeypatch):
    # Four callers (thread shards, say) share the helper pool under a
    # budget above the CPU count, with thread switches forced often: a
    # lost claim would leave a block of ``out`` unwritten.
    h, pad, fields = _hop_inputs(19, 2, 40, np.complex128)
    monkeypatch.setattr(hop, "_BLOCK_BYTES", h.nbytes)
    monkeypatch.setattr(hop, "_THREAD_MIN_BYTES", h.nbytes)
    dispatch.set_workers(1)
    expected = hop.propagate_rows(fields, h, pad)
    dispatch.set_workers(dispatch._cpu_budget() + 1)
    results = []

    def caller():
        for _ in range(5):
            results.append(np.array_equal(
                hop.propagate_rows(fields, h, pad), expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert results == [True] * 20
