"""/metrics exposition: served text consistent with stats() ground truth
under load and under fault injection."""

import asyncio
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.obs.metrics import parse_prometheus
from repro.serve import (
    DeadlineExceeded,
    FaultPlan,
    MicroBatcher,
    ServeConfig,
    Server,
    ShardedPool,
)


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((12, 28, 28))


def _flat_samples(text):
    flat = {}
    for metric in parse_prometheus(text).values():
        flat.update(metric["samples"])
    return flat


class TestMetricsUnderLoad:
    def test_counters_match_stats_ground_truth(self, artifact, images):
        config = ServeConfig(max_batch=4, max_delay=0.005)
        with Server(artifact=artifact, config=config) as server:
            for _ in range(2):
                for sample in images:
                    server.submit("predict", sample).result()
            stats = server.stats()
            flat = _flat_samples(server.metrics_text())
        counters = stats["counters"]
        assert counters["requests"] == 2 * len(images)
        assert flat['repro_server_requests_total{kind="predict"}'] == \
            counters["requests"]
        assert flat['repro_server_request_latency_seconds_count'
                    '{kind="predict"}'] == counters["requests"]
        assert counters["batched"] == counters["requests"]
        assert flat["repro_batcher_requests_total"] == \
            counters["batched"]
        assert flat["repro_server_inflight"] == 0
        # Histogram internal consistency: +Inf bucket equals _count.
        assert flat['repro_server_request_latency_seconds_bucket'
                    '{kind="predict",le="+Inf"}'] == counters["requests"]
        # Batch sizes observed sum to the requests that went through.
        assert flat["repro_batcher_batch_size_sum"] == \
            counters["requests"]

    def test_two_servers_do_not_double_count(self, artifact, images):
        config = ServeConfig(max_batch=4, max_delay=0.005)
        with Server(artifact=artifact, config=config) as one, \
                Server(artifact=artifact, config=config) as two:
            one.submit("predict", images[0]).result()
            flat_one = _flat_samples(one.metrics_text())
            flat_two = _flat_samples(two.metrics_text())
        assert flat_one['repro_server_requests_total{kind="predict"}'] \
            == 1
        assert flat_two.get(
            'repro_server_requests_total{kind="predict"}', 0) == 0


class TestMetricsEndpoint:
    def test_scrape_over_http(self, artifact, images):
        config = ServeConfig(max_batch=4, max_delay=0.005)
        with Server(artifact=artifact, config=config) as server:
            frontend = server.serve_http(port=0)
            for sample in images[:4]:
                server.submit("predict", sample).result()
            with urllib.request.urlopen(frontend.url + "/metrics",
                                        timeout=30) as response:
                assert response.status == 200
                assert "version=0.0.4" in \
                    response.headers["Content-Type"]
                body = response.read().decode("utf-8")
        parsed = parse_prometheus(body)
        assert parsed["repro_server_requests_total"]["type"] == "counter"
        assert parsed["repro_server_requests_total"]["samples"][
            'repro_server_requests_total{kind="predict"}'] >= 4
        assert "repro_pool_shard_state" in parsed


class TestMetricsUnderFaults:
    def test_kill_respawn_visible_in_metrics(self, artifact, images):
        config = ServeConfig(max_batch=3, max_delay=0.005, shards=2,
                             faults="kill:shard=1,after=1")
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            server.predict(images)
            assert server.settle(timeout=10.0)
            deadline = time.monotonic() + 10.0
            while (server.health()["status"] != "ok"
                   and time.monotonic() < deadline):
                server.predict(images[:4])
            health = server.health()
            stats = server.stats()
            flat = _flat_samples(server.metrics_text())
        assert health["status"] == "ok"
        batcher = stats["batcher"]
        assert batcher["batches"] == flat["repro_batcher_batch_size_count"]
        assert batcher["mean_batch"] == round(
            flat["repro_batcher_batch_size_sum"]
            / flat["repro_batcher_batch_size_count"], 3)
        assert batcher["expired"] == \
            flat.get("repro_batcher_expired_total", 0)
        restarts = sum(value for key, value in flat.items()
                       if key.startswith(
                           "repro_pool_shard_restarts_total"))
        assert restarts == health["restarts"] == 1
        assert flat["repro_pool_failures_total"] == \
            stats["counters"]["failures"] >= 1
        assert flat["repro_pool_retries_total"] == \
            stats["counters"]["retries"] >= 1
        # Per-shard state gauge is one-hot: each shard in exactly one
        # state, and both back to ok after recovery.
        for shard in ("0", "1"):
            states = {key: value for key, value in flat.items()
                      if key.startswith("repro_pool_shard_state")
                      and f'shard="{shard}"' in key}
            assert sum(states.values()) == 1
            assert states[f'repro_pool_shard_state{{shard="{shard}",'
                          f'state="ok"}}'] == 1
        assert flat["repro_pool_quarantined_shards"] == 0

    def test_served_answers_stay_correct_while_scraping(self, model,
                                                        artifact, images):
        # Scrapes race the fault-handling hot path; answers must stay
        # byte-identical to the serial engine throughout.
        serial = model.predict(images)
        config = ServeConfig(max_batch=3, max_delay=0.005, shards=2,
                             faults="kill:shard=1,after=1")
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            served = server.predict(images)
            for _ in range(5):
                server.metrics_text()
            assert np.array_equal(served, serial)


class TestStatsReadTheRegistry:
    """A component built without a registry counts into a private one,
    and its stats() is a view over exactly those instruments."""

    def test_batcher_pool_and_cache_stats_equal_own_metrics(
            self, model, artifact, images):
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        pool = ShardedPool(artifact=artifact, shards=2,
                           faults=FaultPlan.parse("kill:shard=1,after=1"))
        batcher = MicroBatcher(pool, loop, max_batch=3, max_delay=0.005)
        try:
            futures = [batcher.submit_nowait("predict", image)
                       for image in images]
            expired = batcher.submit_nowait("predict", images[0],
                                            deadline=time.monotonic() - 1)
            rows = [future.result(timeout=30) for future in futures]
            with pytest.raises(DeadlineExceeded):
                expired.result(timeout=30)
            assert pool.settle(timeout=10.0)
        finally:
            batcher.close()
            pool.close()
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()
        assert not thread.is_alive()
        assert np.array_equal(np.asarray(rows), model.predict(images))
        assert batcher.metrics is not pool.metrics

        stats = batcher.stats()
        flat = batcher.metrics.as_dict()
        assert stats["requests"] == flat["repro_batcher_requests_total"] \
            == len(images)
        assert stats["expired"] == flat["repro_batcher_expired_total"] == 1
        assert stats["batches"] == flat["repro_batcher_batch_size_count"]
        assert stats["mean_batch"] == round(
            flat["repro_batcher_batch_size_sum"] / stats["batches"], 3)
        for reason in ("full", "timer", "drain", "idle"):
            assert stats[f"{reason}_flushes"] == flat.get(
                f'repro_batcher_flushes_total{{reason="{reason}"}}', 0)

        stats = pool.stats()
        flat = pool.metrics.as_dict()
        assert stats["failures"] == flat["repro_pool_failures_total"] >= 1
        assert stats["retries"] == flat["repro_pool_retries_total"] >= 1
        for shard, dispatched in enumerate(stats["dispatched"]):
            assert dispatched == flat[
                f'repro_pool_dispatched_total{{shard="{shard}"}}']
        assert sum(stats["restarts"]) == sum(
            value for key, value in flat.items()
            if key.startswith("repro_pool_shard_restarts_total")) == 1

    def test_concurrent_expiries_are_never_lost(self):
        # The expired-on-arrival path runs outside the batcher lock on
        # every caller's thread, and touches neither pool nor loop.
        batcher = MicroBatcher(pool=None, loop=None)
        sample = np.zeros((4, 4))
        threads, per_thread = 8, 400
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=lambda: [
                batcher.submit_nowait("predict", sample, deadline=0.0)
                for _ in range(per_thread)]) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert batcher.stats()["expired"] == threads * per_thread == \
            batcher.metrics.as_dict()["repro_batcher_expired_total"]
