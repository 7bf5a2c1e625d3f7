"""The micro-batching frontend: coalescing without changing a single bit."""

import asyncio
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.serve import DeadlineExceeded, MicroBatcher, ServeConfig, Server


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


#: Holds the one shard of a ``serve()`` deployment busy: its first batch
#: sleeps this long before computing.
HOLD_MS = 300


class TestFlushPolicy:
    def test_lone_request_to_idle_pool_is_flushed_at_once(self, model,
                                                          artifact, images):
        # A request that finds the shard free never waits for max_delay.
        with serve(artifact, max_batch=64, max_delay=30.0) as server:
            begin = time.monotonic()
            label = server.submit("predict", images[0]).result(timeout=10)
            elapsed = time.monotonic() - begin
            stats = server.stats()["batcher"]
        assert label == model.predict(images[0][None])[0]
        assert elapsed < 1.0
        assert stats["idle_flushes"] == 1
        assert stats["timer_flushes"] == stats["full_flushes"] == 0

    def test_request_behind_busy_shard_is_flushed_by_timer(self, model,
                                                           artifact, images):
        # max_delay bounds the wait for a busy pool: the queued request
        # goes out when the timer fires, not when the shard frees.
        with serve(artifact, max_batch=64, max_delay=0.01,
                   faults=f"delay:shard=0,ms={HOLD_MS}") as server:
            futures = [server.submit("predict", image)
                       for image in images[:2]]
            served = [f.result(timeout=10) for f in futures]
            stats = server.stats()["batcher"]
        assert np.array_equal(served, model.predict(images[:2]))
        assert stats["idle_flushes"] == 1
        assert stats["timer_flushes"] == 1

    def test_full_batch_flushes_without_waiting(self, model, artifact,
                                                images):
        # The shard is busy and a huge max_delay would stall a timer
        # flush; a full group waits for neither.
        with serve(artifact, max_batch=4, max_delay=30.0,
                   faults=f"delay:shard=0,ms={HOLD_MS}") as server:
            holder = server.submit("predict", images[4])
            futures = [server.submit("predict", image)
                       for image in images[:4]]
            served = [f.result(timeout=10) for f in futures]
            holder.result(timeout=10)
            stats = server.stats()["batcher"]
        assert stats["full_flushes"] == 1
        assert stats["idle_flushes"] == 1
        assert np.array_equal(served, model.predict(images[:4]))

    def test_requests_behind_busy_shard_go_out_as_one_batch(self, model,
                                                            artifact,
                                                            images):
        with serve(artifact, max_batch=64, max_delay=30.0,
                   faults=f"delay:shard=0,ms={HOLD_MS}") as server:
            futures = [server.submit("predict", image)
                       for image in images[:6]]
            served = np.stack([f.result(timeout=10) for f in futures])
            stats = server.stats()["batcher"]
        assert np.array_equal(served, model.predict(images[:6]))
        assert stats["batches"] == stats["idle_flushes"] == 2
        assert stats["max_batch"] == 5

    def test_busy_path_on_process_shards(self, model, artifact, images):
        # Both shards held busy: the waiting group is submitted from the
        # process executor's callback thread when one of them frees.
        hold = f"ms={HOLD_MS},after=1"  # batch 0 is the warm-up
        with serve(artifact, max_batch=64, max_delay=30.0, shards=2,
                   backend="process",
                   faults=f"delay:shard=0,{hold}; delay:shard=1,{hold}"
                   ) as server:
            server.warmup()
            futures = [server.submit("predict", image)
                       for image in images[:7]]
            served = np.stack([f.result(timeout=30) for f in futures])
            stats = server.stats()["batcher"]
        assert np.array_equal(served, model.predict(images[:7]))
        assert stats["batches"] == stats["idle_flushes"] == 3
        assert stats["timer_flushes"] == 0

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


class HeldPool:
    """One shard whose batches finish only when the test says so."""

    shards = 1

    def __init__(self, refuse_first=False):
        self.batches = []
        self.refuse_first = refuse_first

    def submit(self, kind, fields, deadline=None):
        if self.refuse_first:
            self.refuse_first = False
            raise RuntimeError("pool refused the batch")
        future = Future()
        self.batches.append((fields, future))
        return future

    def finish(self, index):
        fields, future = self.batches[index]
        future.set_result(np.zeros(len(fields)))


@pytest.fixture
def idle_loop():
    # Never run: neither the max_delay timer nor the expiry sweep fires,
    # so a waiting group leaves only when a slot is released.
    loop = asyncio.new_event_loop()
    yield loop
    loop.close()


class TestSlotAccounting:
    sample = np.zeros((4, 4))

    def test_slot_freed_after_group_whose_rows_all_expired(self, idle_loop):
        pool = HeldPool()
        batcher = MicroBatcher(pool, idle_loop, max_delay=30.0)
        batcher.submit_nowait("predict", self.sample)
        doomed = batcher.submit_nowait("predict", self.sample,
                                       deadline=time.monotonic() + 0.01)
        time.sleep(0.02)
        pool.finish(0)  # its slot goes to the doomed group, which expires
        with pytest.raises(DeadlineExceeded):
            doomed.result(timeout=0)
        lone = batcher.submit_nowait("predict", self.sample)
        assert len(pool.batches) == 2
        pool.finish(1)
        assert lone.result(timeout=0) == 0
        stats = batcher.stats()
        assert stats["idle_flushes"] == 3
        assert stats["expired"] == 1

    def test_slot_freed_after_refused_submit(self, idle_loop):
        pool = HeldPool(refuse_first=True)
        batcher = MicroBatcher(pool, idle_loop, max_delay=30.0)
        refused = batcher.submit_nowait("predict", self.sample)
        with pytest.raises(RuntimeError, match="refused"):
            refused.result(timeout=0)
        lone = batcher.submit_nowait("predict", self.sample)
        assert len(pool.batches) == 1
        pool.finish(0)
        assert lone.result(timeout=0) == 0
        assert batcher.stats()["idle_flushes"] == 2


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
        # coalesced into the same batch.  The held shard makes the
        # three requests wait and coalesce.
        with serve(artifact, max_batch=3, max_delay=30.0,
                   faults=f"delay:shard=0,ms={HOLD_MS}") as server:
            holder = server.submit("predict", images[3])
            first = server.submit("predict", images[0])
            assert first.cancel()
            others = [server.submit("predict", image)
                      for image in images[1:3]]
            served = [future.result(timeout=10) for future in others]
            holder.result(timeout=10)
            assert server.stats()["batcher"]["full_flushes"] == 1
        assert np.array_equal(served, model.predict(images[1:3]))

    def test_engine_errors_propagate_to_every_waiter(self, artifact, images):
        # Wrong-shaped complex fields pass the 2-D gate but explode in
        # the engine; both futures of the batch must see the error.
        bad = np.ones((4, 4), dtype=np.complex128)
        with serve(artifact, max_batch=2, max_delay=30.0,
                   faults=f"delay:shard=0,ms={HOLD_MS}") as server:
            holder = server.submit("predict", images[0])
            futures = [server.submit("predict", bad),
                       server.submit("predict", bad)]
            for future in futures:
                with pytest.raises(ValueError):
                    future.result(timeout=10)
            holder.result(timeout=10)
            assert server.stats()["batcher"]["full_flushes"] == 1

    def test_bad_config_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            MicroBatcher(pool=None, loop=None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(pool=None, loop=None, max_delay=-1.0)
        with pytest.raises(FileNotFoundError):
            Server(artifact=tmp_path / "missing.npz")
