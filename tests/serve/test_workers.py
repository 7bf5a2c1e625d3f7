"""Sharded worker pool: invariance, dispatch, process backend, and the
supervision core it shares with the replica set."""

import threading

import numpy as np
import pytest

from repro.autodiff.rng import spawn_rng
from repro.serve import FaultPlan, ServeConfig, Server, ShardedPool
from repro.serve.workers import Member, Supervisor, rollup


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((13, 28, 28))


class TestShardInvariance:
    def test_results_identical_across_shard_counts(self, model, artifact,
                                                   images):
        # Every shard computes the same pure function: labels must be
        # byte-identical no matter how traffic is split.
        serial = model.predict(images)
        for shards in (1, 2, 3):
            config = ServeConfig(max_batch=4, max_delay=0.005,
                                 shards=shards)
            with Server(artifact=artifact, config=config) as server:
                served = server.predict(images)
                dispatched = server.stats()["pool"]["dispatched"]
            assert np.array_equal(served, serial), f"shards={shards}"
            assert sum(dispatched) >= 1
            if shards > 1:
                # Work actually spread across workers.
                assert sum(1 for count in dispatched if count) > 1

    def test_logits_shard_invariant(self, model, artifact, images):
        reference = model.inference_engine().logits(images)
        for shards in (1, 3):
            with ShardedPool(artifact=artifact, shards=shards) as pool:
                got = pool.run("logits", images)
            assert np.abs(got - reference).max() < 1e-12


class TestDispatch:
    def test_least_loaded_round_robin(self, artifact, images):
        with ShardedPool(artifact=artifact, shards=3) as pool:
            for _ in range(6):
                pool.run("predict", images[:1])
            stats = pool.stats()
        # Idle shards rotate: six sequential batches land two per shard.
        assert stats["dispatched"] == [2, 2, 2]

    def test_unknown_kind_rejected(self, artifact):
        with ShardedPool(artifact=artifact) as pool:
            with pytest.raises(ValueError, match="kind"):
                pool.submit("evaluate", np.zeros((1, 8, 8)))

    def test_submit_after_close_rejected(self, artifact):
        pool = ShardedPool(artifact=artifact)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit("predict", np.zeros((1, 8, 8)))

    def test_bad_construction(self, artifact):
        with pytest.raises(ValueError):
            ShardedPool(artifact=artifact, shards=0)
        with pytest.raises(ValueError):
            ShardedPool(artifact=artifact, backend="fiber")


class TestProcessBackend:
    def test_process_shards_match_serial(self, model, artifact, images):
        serial = model.predict(images)
        config = ServeConfig(max_batch=4, max_delay=0.005, shards=2,
                             backend="process")
        with Server(artifact=artifact, config=config) as server:
            server.warmup()
            served = server.predict(images)
            stats = server.stats()["pool"]
        assert np.array_equal(served, serial)
        assert stats["backend"] == "process"



class TestSupervisor:
    """The restart budget ShardedPool and ReplicaSet share."""

    @staticmethod
    def supervisor(max_restarts, plan="kill:replica=0; kill:replica=0"):
        member = Member(0, FaultPlan.parse(plan))
        return Supervisor([member], max_restarts, scope="replica"), member

    def test_strike_respawns_with_the_fired_kill_consumed(self):
        supervisor, member = self.supervisor(max_restarts=1)
        with supervisor._lock:
            assert supervisor._strike(member)
        assert (member.state, member.restarts) == ("respawning", 1)
        assert str(member.plan) == "kill:replica=0"

    def test_startup_strike_keeps_the_kill(self):
        supervisor, member = self.supervisor(max_restarts=1)
        with supervisor._lock:
            assert supervisor._strike(member, consume_kill=False)
        assert str(member.plan) == "kill:replica=0; kill:replica=0"

    def test_budget_and_closing_quarantine(self):
        supervisor, member = self.supervisor(max_restarts=1)
        with supervisor._lock:
            supervisor._strike(member)
            assert not supervisor._strike(member)  # restarts 2 > 1
        assert member.state == "quarantined"
        assert str(member.plan) == "kill:replica=0"  # nothing to rebuild
        supervisor, member = self.supervisor(max_restarts=5)
        assert supervisor._close() and not supervisor._close()
        with supervisor._lock:
            assert not supervisor._strike(member)
        assert member.state == "quarantined"

    def test_settle_waits_for_respawns(self):
        supervisor, member = self.supervisor(max_restarts=1)
        with supervisor._lock:
            supervisor._strike(member)
        assert not supervisor.settle(timeout=0.05)

        def rebuilt():
            with supervisor._changed:
                member.state = "ok"
                supervisor._changed.notify_all()

        threading.Timer(0.05, rebuilt).start()
        assert supervisor.settle(timeout=10)

    def test_rollup(self):
        assert rollup(["ok", "ok"]) == "ok"
        assert rollup(["ok", "respawning"]) == "degraded"
        assert rollup(["respawning", "quarantined"]) == "unhealthy"
        # The pool counts a shard on its way back as still up.
        pool_up = ("ok", "respawning", "recovering")
        assert rollup(["respawning", "quarantined"], up=pool_up) == \
            "degraded"
        assert rollup(["quarantined"] * 2, up=pool_up) == "unhealthy"
        assert rollup([]) == "unhealthy"

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            self.supervisor(max_restarts=-1)
