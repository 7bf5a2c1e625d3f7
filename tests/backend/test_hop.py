"""The shared propagation hop: training and serving both run it."""

import sys
import threading

import numpy as np
import pytest

from repro.autodiff import Tensor, ops
from repro.autodiff.rng import spawn_rng
from repro.backend import dispatch, hop
from repro.donn import DONN, DONNConfig
from repro.runtime import InferenceEngine, ScratchBuffers
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
    """Prescaled ``h``, ``pad`` and ``(batch, n, side)`` interior rows
    that are zero outside the aperture columns."""
    model = DONN(DONNConfig.laptop(n=n, num_layers=1,
                                   pad_factor=pad_factor),
                 rng=spawn_rng(n))
    kernel = kernel_for_dtype(model.layers[0].propagator.kernel, dtype)
    pad, side = kernel.pad, kernel.padded_n
    rng = spawn_rng(pad_factor)
    rows = np.zeros((batch, n, side), dtype=dtype)
    rows[:, :, pad:pad + n] = (rng.standard_normal((batch, n, n))
                               + 1j * rng.standard_normal((batch, n, n)))
    return kernel.prescaled(), pad, rows


@pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("pad_factor", [1, 2, 3])
def test_blocked_hop_is_identical_across_blocks_and_workers(
        monkeypatch, spy_fft_threads, pad_factor, dtype):
    # n=19 is odd, and a batch of 7 is not a multiple of 2 or 3 planes.
    h, pad, rows = _hop_inputs(19, pad_factor, 7, dtype)
    side = rows.shape[-1]
    plane = side * side * np.dtype(dtype).itemsize
    before = rows.copy()
    outputs = []
    for workers in (1, 2, 3, -1):
        dispatch.set_workers(workers)
        for planes in (1, 2, 3, 7, 100):
            monkeypatch.setattr(hop, "_BLOCK_BYTES", planes * plane)
            split = planes < len(rows) and hop._thread_budget() > 1
            threads = spy_fft_threads(split)
            outputs.append(hop.propagate_rows(rows, h, pad))
            monkeypatch.undo()
            # A split hop really ran its blocks on two or more threads.
            assert (len(threads) >= 2) == split, (workers, planes)
    np.testing.assert_array_equal(rows, before)  # input only read
    for out in outputs[1:]:
        assert out.dtype == dtype and out.shape == rows.shape
        assert np.array_equal(out, outputs[0])

    # And it is the dense padded-plane propagation's interior rows.
    full = np.zeros((len(rows), side, side), dtype=np.complex128)
    full[:, pad:pad + 19, :] = rows
    dense = np.fft.ifft2(np.fft.fft2(full) * h, norm="forward")
    tol = 1e-12 if dtype == np.complex128 else 1e-4
    np.testing.assert_allclose(outputs[0], dense[:, pad:pad + 19, :],
                               atol=tol * np.abs(dense).max())


def test_engine_scratch_holds_interior_rows_only():
    n, batch = 19, 5
    model = DONN(DONNConfig.laptop(n=n, num_layers=2, pad_factor=3),
                 rng=spawn_rng(0))
    for precision, itemsize in (("double", 16), ("single", 8)):
        buffers = ScratchBuffers()
        engine = InferenceEngine(model, precision=precision,
                                 max_batch=batch, buffers=buffers)
        engine.logits(spawn_rng(1).random((batch, 28, 28)))
        side = engine._padded_n
        assert buffers.nbytes() == batch * n * side * itemsize


def test_one_thread_budget_never_builds_helpers(monkeypatch):
    h, pad, rows = _hop_inputs(19, 2, 7, np.complex128)
    monkeypatch.setattr(hop, "_BLOCK_BYTES", rows[0].nbytes)

    def no_helpers(threads):
        raise AssertionError("helper pool built under a budget of one")

    monkeypatch.setattr(hop, "_helper_pool", no_helpers)
    dispatch.set_workers(1)
    hop.propagate_rows(rows, h, pad)


def test_engine_and_fused_op_are_identical_on_one_or_two_threads(
        monkeypatch):
    n, batch = 12, 9
    model = DONN(DONNConfig.laptop(n=n, num_layers=2), rng=spawn_rng(3))
    side = model.layers[0].propagator.kernel.padded_n
    # Two samples per block: every hop below spans several blocks.
    monkeypatch.setattr(hop, "_BLOCK_BYTES", 2 * side * side * 16)
    images = spawn_rng(4).random((batch, 28, 28))
    rng = spawn_rng(5)
    field_data = (rng.standard_normal((batch, n, n))
                  + 1j * rng.standard_normal((batch, n, n)))
    layer = model.layers[0]
    results = []
    for workers in (1, 2):
        dispatch.set_workers(workers)
        logits = InferenceEngine(model, max_batch=batch).logits(images)
        layer.phase.zero_grad()
        field = Tensor(field_data, requires_grad=True)
        ops.sum(ops.abs2(layer(field))).backward()
        results.append((logits, np.array(field.grad),
                        np.array(layer.phase.grad)))
    for one, two in zip(*results):
        assert np.array_equal(one, two)


def test_concurrent_spread_hops_claim_every_block_once(monkeypatch):
    # Four callers (thread shards, say) share the helper pool under a
    # budget above the CPU count, with thread switches forced often: a
    # lost claim would leave a block of ``out`` unwritten.
    h, pad, rows = _hop_inputs(19, 2, 40, np.complex128)
    monkeypatch.setattr(hop, "_BLOCK_BYTES", rows[0].nbytes)
    dispatch.set_workers(1)
    expected = hop.propagate_rows(rows, h, pad)
    dispatch.set_workers(dispatch._cpu_budget() + 1)
    results = []

    def caller():
        for _ in range(5):
            results.append(np.array_equal(
                hop.propagate_rows(rows, h, pad), expected))

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
