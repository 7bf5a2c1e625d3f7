"""The micro-batching frontend: coalescing without changing a single bit."""

import threading

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.serve import ServeConfig, Server


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((23, 28, 28))


def serve(artifact, **overrides):
    defaults = dict(max_batch=8, max_delay=0.02)
    defaults.update(overrides)
    return Server(artifact=artifact, config=ServeConfig(**defaults))


class TestCoalescedEquivalence:
    def test_concurrent_predicts_match_serial_double(self, model, artifact,
                                                     images):
        # 23 requests across a max_batch=8 frontend: 2 full flushes + a
        # timer flush.  Every label must match a per-request serial
        # DONN.predict bit for bit.
        serial = np.stack([model.predict(image[None])[0]
                           for image in images])
        with serve(artifact) as server:
            futures = [server.submit("predict", image) for image in images]
            served = np.stack([f.result() for f in futures])
            stats = server.stats()["batcher"]
        assert np.array_equal(served, serial)
        assert stats["requests"] == len(images)
        assert stats["max_batch"] == 8  # coalescing actually happened
        assert stats["batches"] < len(images)

    def test_concurrent_predicts_match_serial_single(self, model, artifact,
                                                     images):
        engine = model.inference_engine(precision="single")
        serial = np.stack([engine.predict(image[None])[0]
                           for image in images])
        with serve(artifact, precision="single") as server:
            futures = [server.submit("predict", image) for image in images]
            served = np.stack([f.result() for f in futures])
        assert np.array_equal(served, serial)
        # The single-precision argmax agrees with the double-precision
        # model on this seed (the engine contract).
        assert np.array_equal(served, model.predict(images))

    def test_logits_match_across_batch_boundaries(self, model, artifact,
                                                  images):
        reference = model.inference_engine().logits(images)
        with serve(artifact) as server:
            futures = [server.submit("logits", image) for image in images]
            served = np.stack([f.result() for f in futures])
        # Per-sample FFT work is batch-invariant; the readout matmul may
        # regroup (BLAS blocking), same bound as the engine's own
        # chunking test.
        assert np.abs(served - reference).max() < 1e-12

    def test_intensity_map_rows(self, model, artifact, images):
        reference = model.inference_engine().intensity_map(images[:5])
        with serve(artifact) as server:
            futures = [server.submit("intensity_map", image)
                       for image in images[:5]]
            served = np.stack([f.result() for f in futures])
        assert np.abs(served - reference).max() < 1e-12

    def test_complex_fields_and_images_never_share_a_batch(self, model,
                                                           artifact):
        n = model.config.n
        rng = spawn_rng(2)
        fields = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal(
            (3, n, n))
        images = rng.random((3, 28, 28))
        engine = model.inference_engine()
        with serve(artifact) as server:
            futures = (
                [server.submit("predict", field) for field in fields]
                + [server.submit("predict", image) for image in images]
            )
            served = np.stack([f.result() for f in futures])
        expected = np.concatenate(
            [engine.predict(fields), engine.predict(images)]
        )
        assert np.array_equal(served, expected)

    def test_many_threads_submitting_concurrently(self, model, artifact,
                                                  images):
        serial = model.predict(images)
        with serve(artifact, max_batch=4, max_delay=0.005) as server:
            results = {}

            def client(index):
                results[index] = server.predict(images[index])

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(len(images))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        served = np.stack([results[i] for i in range(len(images))])
        assert np.array_equal(served, serial)


class TestFlushPolicy:
    def test_lone_request_is_flushed_by_timer(self, model, artifact, images):
        with serve(artifact, max_batch=64, max_delay=0.01) as server:
            label = server.submit("predict", images[0]).result(timeout=10)
            stats = server.stats()["batcher"]
        assert label == model.predict(images[0][None])[0]
        assert stats["timer_flushes"] == 1
        assert stats["full_flushes"] == 0

    def test_full_batch_flushes_without_waiting(self, model, artifact,
                                                images):
        # A huge max_delay would stall a timer flush; a full group must
        # not wait for it.
        with serve(artifact, max_batch=4, max_delay=30.0) as server:
            futures = [server.submit("predict", image)
                       for image in images[:4]]
            served = [f.result(timeout=10) for f in futures]
            stats = server.stats()["batcher"]
        assert stats["full_flushes"] == 1
        assert np.array_equal(served, model.predict(images[:4]))

    def test_zero_delay_still_answers(self, model, artifact, images):
        with serve(artifact, max_batch=8, max_delay=0.0) as server:
            futures = [server.submit("predict", image)
                       for image in images[:5]]
            served = np.stack([f.result(timeout=10) for f in futures])
        assert np.array_equal(served, model.predict(images[:5]))

    def test_stop_drains_pending_requests(self, model, artifact, images):
        server = serve(artifact, max_batch=64, max_delay=30.0).start()
        futures = [server.submit("predict", image) for image in images[:3]]
        server.stop()  # must flush, not strand, the waiting group
        served = np.stack([f.result(timeout=10) for f in futures])
        assert np.array_equal(served, model.predict(images[:3]))
        stats = server.stats()
        assert stats["started"] is False
        assert stats["batcher"] is None and stats["pool"] is None


class TestValidation:
    def test_unknown_kind_rejected(self, artifact, images):
        with serve(artifact) as server:
            with pytest.raises(ValueError, match="kind"):
                server.submit("transmogrify", images[0])

    def test_non_2d_sample_rejected(self, artifact, images):
        with serve(artifact) as server:
            with pytest.raises(ValueError, match="2-D"):
                server.submit("predict", images)  # a 3-D batch

    def test_batch_api_rejects_higher_rank(self, artifact, images):
        with serve(artifact) as server:
            with pytest.raises(ValueError):
                server.predict(images[None])

    def test_submit_after_stop_rejected(self, artifact, images):
        server = serve(artifact).start()
        server.stop()
        with pytest.raises(RuntimeError):
            server.submit("predict", images[0])

    def test_cancelled_request_does_not_poison_its_batch(self, model,
                                                         artifact, images):
        # A caller abandoning its future (asyncio timeout via
        # wrap_future cancels it) must not strand the other requests
        # coalesced into the same batch.
        with serve(artifact, max_batch=3, max_delay=30.0) as server:
            first = server.submit("predict", images[0])
            assert first.cancel()
            others = [server.submit("predict", image)
                      for image in images[1:3]]
            served = [future.result(timeout=10) for future in others]
        assert np.array_equal(served, model.predict(images[1:3]))

    def test_engine_errors_propagate_to_every_waiter(self, artifact):
        # Wrong-shaped complex fields pass the 2-D gate but explode in
        # the engine; both waiting futures must see the error.
        bad = np.ones((4, 4), dtype=np.complex128)
        with serve(artifact, max_batch=2, max_delay=30.0) as server:
            futures = [server.submit("predict", bad),
                       server.submit("predict", bad)]
            for future in futures:
                with pytest.raises(ValueError):
                    future.result(timeout=10)

    def test_bad_config_rejected(self, tmp_path):
        from repro.serve import MicroBatcher

        with pytest.raises(ValueError):
            MicroBatcher(pool=None, loop=None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(pool=None, loop=None, max_delay=-1.0)
        with pytest.raises(FileNotFoundError):
            Server(artifact=tmp_path / "missing.npz")
