"""Chaos coverage: fault injection, supervision, deadlines, shedding.

The contract under test is the serving stack's fault story end to end:
a killed shard is detected, its in-flight batch retried on a healthy
shard (byte-identical — every shard computes the same pure function),
the dead worker respawned and folded back in; requests carry deadlines
that fail fast; a saturated or draining server sheds load with typed
errors the HTTP layer maps to 429/503/504.
"""

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.serve import (
    DeadlineExceeded,
    Draining,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    NoHealthyShards,
    Overloaded,
    ServeConfig,
    Server,
    ShardedPool,
)


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((12, 28, 28))


class TestFaultPlan:
    def test_parse_roundtrip(self):
        text = "kill:shard=1,after=3; delay:shard=0,ms=50,times=4"
        plan = FaultPlan.parse(text)
        assert plan.specs == (
            FaultSpec("kill", shard=1, after=3),
            FaultSpec("delay", shard=0, delay_ms=50.0, times=4),
        )
        assert FaultPlan.parse(str(plan)) == plan

    def test_blank_is_none(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("   ") is None

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="action"):
            FaultPlan.parse("explode:shard=0")
        with pytest.raises(ValueError, match="shard"):
            FaultPlan.parse("kill:after=2")
        with pytest.raises(ValueError, match="unknown fault field"):
            FaultPlan.parse("kill:shard=0,when=later")
        with pytest.raises(ValueError, match="ms"):
            FaultPlan.parse("delay:shard=0")  # delay needs ms > 0

    def test_for_shard_and_without_kill(self):
        plan = FaultPlan.parse("kill:shard=1; error:shard=1; kill:shard=0")
        assert [s.action for s in plan.for_shard(1)] == ["kill", "error"]
        pruned = plan.without_kill(1)
        # Only shard 1's first kill is consumed; everything else stays.
        assert [(s.action, s.shard) for s in pruned.specs] == [
            ("error", 1), ("kill", 0),
        ]

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill:shard=0")
        assert FaultPlan.from_env() == FaultPlan.parse("kill:shard=0")
        monkeypatch.delenv("REPRO_FAULTS")
        assert FaultPlan.from_env() is None

    def test_config_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "kill:shard=0")
        config = ServeConfig(faults="error:shard=1")
        assert config.resolved_faults() == FaultPlan.parse("error:shard=1")
        assert ServeConfig().resolved_faults() == \
            FaultPlan.parse("kill:shard=0")


class TestReplicaScope:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("kill:replica=1,after=5")
        assert plan.specs == (
            FaultSpec("kill", shard=1, after=5, scope="replica"),
        )
        assert str(plan) == "kill:replica=1,after=5"
        assert FaultPlan.parse(str(plan)) == plan

    def test_exactly_one_target_required(self):
        with pytest.raises(ValueError, match="shard"):
            FaultPlan.parse("kill:shard=0,replica=1")  # both given
        with pytest.raises(ValueError, match="shard"):
            FaultPlan.parse("kill:after=2")  # neither given

    def test_scope_filtering(self):
        plan = FaultPlan.parse(
            "kill:replica=1,after=5; kill:shard=1; delay:replica=0,ms=20")
        # for_shard only sees shard-scoped specs, for_replica only
        # replica-scoped ones — the same index never cross-fires.
        assert [str(s) for s in plan.for_shard(1)] == ["kill:shard=1"]
        assert [str(s) for s in plan.for_replica(1)] == \
            ["kill:replica=1,after=5"]
        assert [str(s) for s in plan.for_replica(0)] == \
            ["delay:replica=0,ms=20"]

    def test_without_kill_is_scope_aware(self):
        plan = FaultPlan.parse("kill:replica=1; kill:shard=1")
        pruned = plan.without_kill(1, scope="replica")
        assert [str(s) for s in pruned.specs] == ["kill:shard=1"]
        # Default scope still prunes shard kills, as supervision does.
        assert [str(s) for s in plan.without_kill(1).specs] == \
            ["kill:replica=1"]

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            FaultSpec("kill", shard=0, scope="cluster")


class TestSupervision:
    def test_kill_recovers_byte_identical(self, model, artifact, images):
        # A shard dies mid-load; its batch is retried on the healthy
        # shard and the respawned worker rejoins — results identical to
        # the no-fault path the whole time.
        serial = model.predict(images)
        config = ServeConfig(max_batch=3, max_delay=0.005, shards=2,
                             faults="kill:shard=1,after=1")
        with Server(artifact=artifact, config=config) as server:
            server.warmup()  # batch 0 on each shard
            served = server.predict(images)
            assert server.settle(timeout=10.0)
            # Drive traffic until the respawned shard serves a batch.
            deadline = time.monotonic() + 10.0
            while (server.health()["status"] != "ok"
                   and time.monotonic() < deadline):
                server.predict(images[:4])
            health = server.health()
            assert np.array_equal(served, serial)
            assert health["status"] == "ok"
            assert health["restarts"] == 1
            assert health["failures"] >= 1
            assert health["retries"] >= 1

    def test_repeated_kills_quarantine_shard(self, model, artifact, images):
        # Two configured kills + max_restarts=1: the second death is one
        # respawn too many, the shard is quarantined, the pool degrades
        # but keeps serving from the survivor.
        serial = model.predict(images)
        with ShardedPool(artifact=artifact, shards=2, max_restarts=1,
                         faults=FaultPlan.parse(
                             "kill:shard=0; kill:shard=0")) as pool:
            served = pool.run("predict", images)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                pool.settle(timeout=5.0)
                pool.run("predict", images[:2])
                states = pool.health()["shards"]
                if states[0]["state"] == "quarantined":
                    break
            health = pool.health()
            assert np.array_equal(served, serial)
            assert health["status"] == "degraded"
            assert health["shards"][0]["state"] == "quarantined"
            assert health["shards"][1]["state"] == "ok"

    def test_all_quarantined_raises_no_healthy_shards(self, artifact, images):
        pool = ShardedPool(artifact=artifact, shards=1, max_restarts=0,
                           max_retries=0,
                           faults=FaultPlan.parse("kill:shard=0"))
        try:
            with pytest.raises(Exception):
                pool.run("predict", images[:1])  # the kill itself
            assert pool.settle(timeout=10.0)
            assert pool.health()["status"] == "unhealthy"
            with pytest.raises(NoHealthyShards):
                pool.run("predict", images[:1])
        finally:
            pool.close()

    def test_retry_budget_exhaustion_propagates(self, artifact, images):
        # More deaths than the retry budget: the caller sees the fatal
        # error instead of the pool spinning forever.
        plan = FaultPlan.parse("; ".join(["kill:shard=0"] * 4))
        pool = ShardedPool(artifact=artifact, shards=1, max_retries=1,
                           max_restarts=10, backoff_base=0.005, faults=plan)
        try:
            with pytest.raises(Exception) as info:
                pool.run("predict", images[:1])
            assert not isinstance(info.value,
                                  (DeadlineExceeded, NoHealthyShards))
            assert pool.retries == 1
        finally:
            pool.close()

    def test_error_fault_propagates_without_respawn(self, model, artifact,
                                                    images):
        # Application-level failures are the request's problem, not the
        # shard's: no respawn, no retry, next batch is fine.
        with ShardedPool(artifact=artifact, shards=1,
                         faults=FaultPlan.parse(
                             "error:shard=0,after=0")) as pool:
            with pytest.raises(FaultInjected):
                pool.run("predict", images[:1])
            assert np.array_equal(pool.run("predict", images),
                                  model.predict(images))
            assert pool.health()["restarts"] == 0
            assert pool.retries == 0

    def test_delay_fault_slows_batch(self, artifact, images):
        with ShardedPool(artifact=artifact, shards=1,
                         faults=FaultPlan.parse(
                             "delay:shard=0,ms=80,after=0")) as pool:
            begin = time.monotonic()
            pool.run("predict", images[:1])
            assert time.monotonic() - begin >= 0.06
            begin = time.monotonic()  # the window was one batch wide
            pool.run("predict", images[:1])
            assert time.monotonic() - begin < 0.06

    def test_process_backend_kill_recovers(self, model, artifact, images):
        # The real thing: a child process dies via os._exit, the
        # executor breaks with BrokenProcessPool, and the supervisor
        # recovers byte-identically.
        serial = model.predict(images)
        config = ServeConfig(max_batch=4, max_delay=0.005, shards=2,
                             backend="process",
                             faults="kill:shard=1,after=1")
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            served = server.predict(images)
            assert server.settle(timeout=30.0)
            deadline = time.monotonic() + 30.0
            while (server.health()["status"] != "ok"
                   and time.monotonic() < deadline):
                server.predict(images[:4])
            assert np.array_equal(served, serial)
            health = server.health()
            assert health["status"] == "ok"
            assert health["restarts"] == 1


class TestDeadlines:
    def test_expired_on_arrival(self, artifact, images):
        with Server(artifact=artifact) as server:
            server.warmup()
            with pytest.raises(DeadlineExceeded):
                server.predict(images[0], deadline_ms=0)

    def test_queued_request_fails_at_deadline(self, artifact, images):
        # The one shard is held busy past the bound and max_delay is a
        # full second, so the request waits in the batcher; the 40 ms
        # deadline must fire the expiry sweep long before the shard
        # frees or the flush timer fires.
        config = ServeConfig(max_batch=64, max_delay=1.0,
                             faults="delay:shard=0,ms=1000,after=1")
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            holder = server.submit("predict", images[1])
            begin = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                server.predict(images[0], deadline_ms=40)
            assert time.monotonic() - begin < 0.8
            assert server.stats()["batcher"]["expired"] == 1
            holder.result(timeout=10)

    def test_default_deadline_from_config(self, artifact, images):
        config = ServeConfig(max_batch=64, max_delay=1.0,
                             default_deadline_ms=40,
                             faults="delay:shard=0,ms=1000,after=1")
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            holder = server.submit("predict", images[1],
                                   deadline_ms=10_000)
            begin = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                server.predict(images[0])
            assert time.monotonic() - begin < 0.8
            holder.result(timeout=10)

    def test_undeadlined_requests_unaffected(self, model, artifact, images):
        with Server(artifact=artifact) as server:
            assert np.array_equal(server.predict(images),
                                  model.predict(images))
            assert server.stats()["batcher"]["expired"] == 0


class TestBackpressure:
    def test_overloaded_beyond_admission_window(self, artifact, images):
        # A slow shard (delay fault) keeps two requests in flight; the
        # third submit must be shed immediately, not queued.
        config = ServeConfig(max_batch=1, max_delay=0.0, max_inflight=2,
                             faults="delay:shard=0,ms=300,after=0,times=8")
        with Server(artifact=artifact, config=config) as server:
            first = server.submit("predict", images[0])
            second = server.submit("predict", images[1])
            with pytest.raises(Overloaded) as info:
                server.submit("predict", images[2])
            assert info.value.retry_after > 0
            assert np.asarray(first.result()).shape == ()
            second.result()
            # Window drains -> admission reopens.
            server.submit("predict", images[2]).result()

    def test_drain_refuses_new_work(self, artifact, images):
        with Server(artifact=artifact) as server:
            server.warmup()
            server.begin_drain()
            assert server.health()["status"] == "draining"
            with pytest.raises(Draining):
                server.predict(images[0])


class TestHTTPFaultMapping:
    def post(self, url, path, payload, headers=None):
        request = urllib.request.Request(
            url + path, data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json", **(headers or {})},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, dict(response.headers), \
                    json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, dict(exc.headers), json.loads(exc.read())

    def test_deadline_maps_to_504(self, artifact, images):
        with Server(artifact=artifact) as server:
            url = server.serve_http(port=0).url
            status, _, payload = self.post(
                url, "/v1/predict",
                {"inputs": images[0].tolist(), "deadline_ms": 0})
            assert status == 504
            assert "deadline" in payload["error"]
            # The header flavor, and it wins over the body.
            status, _, _ = self.post(
                url, "/v1/predict",
                {"inputs": images[0].tolist(), "deadline_ms": 1e6},
                headers={"X-Deadline-Ms": "0"})
            assert status == 504

    def test_saturation_maps_to_429_with_retry_after(self, artifact, images):
        config = ServeConfig(max_inflight=0)  # everything is overload
        with Server(artifact=artifact, config=config) as server:
            url = server.serve_http(port=0).url
            status, headers, payload = self.post(
                url, "/v1/predict", {"inputs": images[0].tolist()})
            assert status == 429
            assert float(headers["Retry-After"]) > 0
            assert "max_inflight" in payload["error"]

    def test_drain_maps_to_503_and_healthz_follows(self, artifact, images):
        with Server(artifact=artifact) as server:
            url = server.serve_http(port=0).url
            server.warmup()
            server.begin_drain()
            status, headers, _ = self.post(
                url, "/v1/predict", {"inputs": images[0].tolist()})
            assert status == 503  # shed, not a 500
            assert float(headers["Retry-After"]) > 0
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(url + "/healthz", timeout=30)
            assert info.value.code == 503
            assert json.loads(info.value.read())["status"] == "draining"

    def test_bad_deadline_maps_to_400(self, artifact, images):
        with Server(artifact=artifact) as server:
            url = server.serve_http(port=0).url
            status, _, _ = self.post(
                url, "/v1/predict",
                {"inputs": images[0].tolist(), "deadline_ms": "soon"})
            assert status == 400
            status, _, _ = self.post(
                url, "/v1/predict",
                {"inputs": images[0].tolist(), "deadline_ms": -5})
            assert status == 400

    def test_healthz_reports_degraded_during_recovery(self, artifact, images):
        # Kill one shard, poll /healthz through the window: it must
        # pass through degraded (HTTP 200 — still serving) and settle
        # back to ok.
        config = ServeConfig(max_batch=2, max_delay=0.005, shards=2,
                             faults="kill:shard=1,after=1")
        with Server(artifact=artifact, config=config) as server:
            url = server.serve_http(port=0).url
            server.warmup()
            seen = set()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                server.predict(images[:4])
                with urllib.request.urlopen(url + "/healthz",
                                            timeout=30) as response:
                    payload = json.loads(response.read())
                seen.add(payload["status"])
                if payload["restarts"] >= 1 and payload["status"] == "ok":
                    break
            assert "ok" in seen
            assert payload["restarts"] == 1
