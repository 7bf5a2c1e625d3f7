"""ReplicaSet + Router integration tests: real spawned replica
processes, real SIGKILLs, byte-identity through failover.

Process spawn costs ~1s per replica on this stack, so the tests share
one artifact and keep replica counts/request volumes small.
"""

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.autodiff.rng import spawn_rng
from repro.serve import ReplicaSet, Router, RouterConfig, ServeConfig


@pytest.fixture(scope="module")
def images():
    return spawn_rng(1).random((6, 28, 28))


def post_predict(url, images, timeout=30):
    request = urllib.request.Request(
        url + "/v1/predict",
        data=json.dumps({"inputs": images.tolist()}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())["predictions"]


def wait_for_status(router, want, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if router.health()["status"] == want:
            return True
        time.sleep(0.05)
    return False


CONFIG = ServeConfig(max_batch=4, max_delay=0.002)


class TestClusterServing:
    def test_kill_one_replica_is_invisible_and_respawned(
            self, artifact, model, images):
        expected = model.predict(images).tolist()
        with ReplicaSet(artifact, replicas=2, config=CONFIG) as rs:
            router = Router(replica_set=rs,
                            config=RouterConfig(probe_interval=0.05))
            router.start()
            url = router.serve_http(port=0).url
            try:
                assert router.health()["status"] == "ok"
                assert post_predict(url, images) == expected

                # /healthz identity satellite: each replica reports a
                # stable replica_id, its uptime and the package version.
                seen = set()
                for replica_id, replica_url in rs.endpoints():
                    with urllib.request.urlopen(replica_url + "/healthz",
                                                timeout=10) as response:
                        health = json.loads(response.read())
                    assert health["replica_id"] == replica_id
                    assert health["uptime_s"] >= 0
                    import repro

                    assert health["version"] == repro.__version__
                    seen.add(replica_id)
                assert seen == {"r0", "r1"}

                # SIGKILL one replica; every response must stay
                # byte-identical while the supervisor respawns it.
                os.kill(rs.pids()[1], 9)
                for _ in range(10):
                    assert post_predict(url, images) == expected
                assert rs.settle(timeout=60)
                assert wait_for_status(router, "ok")
                stats = rs.stats()
                assert stats["restarts"] == 1
                assert stats["quarantined"] == 0
                # The respawned replica kept its identity, on a new port.
                assert {rid for rid, _ in rs.endpoints()} == {"r0", "r1"}
            finally:
                router.stop()

    def test_replica_scoped_fault_plan_kills_exactly_once(
            self, artifact, model, images):
        expected = model.predict(images).tolist()
        config = ServeConfig(max_batch=4, max_delay=0.002,
                             faults="kill:replica=1,after=3")
        with ReplicaSet(artifact, replicas=2, config=config) as rs:
            router = Router(replica_set=rs,
                            config=RouterConfig(probe_interval=0.05))
            router.start()
            url = router.serve_http(port=0).url
            try:
                # 6 samples per request: replica 1 dies on whichever
                # request first pushes its sample count past 3.
                for _ in range(8):
                    assert post_predict(url, images) == expected
                assert rs.settle(timeout=60)
                assert wait_for_status(router, "ok")
                assert rs.stats()["restarts"] == 1
                # The kill was consumed: the successor serves on.
                for _ in range(4):
                    assert post_predict(url, images) == expected
                time.sleep(0.3)
                assert rs.stats()["restarts"] == 1
            finally:
                router.stop()

    def test_quarantine_after_restart_budget(self, artifact, images, model):
        expected = model.predict(images).tolist()
        with ReplicaSet(artifact, replicas=2, config=CONFIG,
                        max_restarts=0) as rs:
            router = Router(replica_set=rs,
                            config=RouterConfig(probe_interval=0.05))
            router.start()
            url = router.serve_http(port=0).url
            try:
                os.kill(rs.pids()[0], 9)
                # settle() can win the race against the monitor's first
                # poll, so wait for the quarantine decision explicitly.
                deadline = time.monotonic() + 60
                while (rs.stats()["quarantined"] != 1
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                stats = rs.stats()
                assert stats["quarantined"] == 1
                states = {r["id"]: r["state"] for r in stats["replicas"]}
                assert states["r0"] == "quarantined"
                # Router drops the quarantined member and serves
                # degraded on the survivor.
                router.probe_once()
                health = router.health()
                assert health["status"] == "degraded"
                assert [m["id"] for m in health["replicas"]] == ["r1"]
                assert post_predict(url, images) == expected
            finally:
                router.stop()

    def test_drain_propagates_to_replicas(self, artifact, images):
        with ReplicaSet(artifact, replicas=2, config=CONFIG) as rs:
            router = Router(replica_set=rs,
                            config=RouterConfig(probe_interval=0.05))
            router.start()
            url = router.serve_http(port=0).url
            try:
                endpoints = rs.endpoints()
                router.begin_drain()
                rs.begin_drain()
                # Router sheds immediately with Retry-After.
                request = urllib.request.Request(
                    url + "/v1/predict",
                    data=json.dumps({"inputs": images.tolist()}).encode(),
                    headers={"Content-Type": "application/json"})
                with pytest.raises(urllib.error.HTTPError) as info:
                    urllib.request.urlopen(request, timeout=10)
                assert info.value.code == 503
                assert float(info.value.headers["Retry-After"]) > 0
                # Each replica reports draining on its own /healthz.
                deadline = time.monotonic() + 10
                statuses = {}
                while time.monotonic() < deadline:
                    for replica_id, replica_url in endpoints:
                        try:
                            urllib.request.urlopen(
                                replica_url + "/healthz", timeout=10)
                        except urllib.error.HTTPError as exc:
                            statuses[replica_id] = json.loads(
                                exc.read())["status"]
                    if len(statuses) == 2:
                        break
                    time.sleep(0.05)
                assert statuses == {"r0": "draining", "r1": "draining"}
            finally:
                router.stop()


class TestStartupFailure:
    def test_child_dying_before_ready_is_quarantined(self, tmp_path):
        # The child cannot load the artifact, so it dies before its
        # ready handshake: one strike against a budget of zero.
        import multiprocessing

        corrupt_artifact = tmp_path / "corrupt.npz"
        corrupt_artifact.write_bytes(b"not a model artifact")
        replica_set = ReplicaSet(str(corrupt_artifact), replicas=1,
                                 max_restarts=0)
        verdicts = []
        stop = replica_set.stop

        def record_then_stop():
            # start() gives up through stop(), which marks every
            # replica stopped: read the supervisor's verdict first.
            verdicts.extend(replica_set.stats()["replicas"])
            stop()

        replica_set.stop = record_then_stop
        with pytest.raises(RuntimeError, match="r0"):
            replica_set.start()
        assert [(r["id"], r["state"], r["restarts"]) for r in verdicts] \
            == [("r0", "quarantined", 1)]
        assert replica_set.stats()["restarts"] == 1
        assert not any(child.name == "repro-replica-r0"
                       for child in multiprocessing.active_children())


class TestStopDuringRespawn:
    def test_launch_finishing_after_stop_leaves_no_child(self, artifact):
        # A respawn thread still starting its replica when stop() runs
        # must not leave the child parked: non-daemonic children are
        # joined at interpreter exit, which would then hang forever.
        import multiprocessing

        replica_set = ReplicaSet(artifact, replicas=1, config=CONFIG)
        replica_set.stop()
        replica = replica_set._replicas[0]
        replica_set._launch(replica)  # the late respawn
        assert replica.state == "stopped"
        assert replica_set.endpoints() == []
        deadline = time.monotonic() + 10
        while any(child.name == "repro-replica-r0"
                  for child in multiprocessing.active_children()):
            assert time.monotonic() < deadline, "late replica still alive"
            time.sleep(0.05)


class TestReplicaChaos:
    def test_delayed_requests_sleep_side_by_side(self):
        # Four handler threads hit a replica under a 200 ms delay spec:
        # each sleeps out its own delay, so together they take ~0.2 s,
        # not the 0.8 s of a replica that serves one at a time.
        from concurrent.futures import ThreadPoolExecutor

        from repro.serve.cluster import _chaotic
        from repro.serve.faults import FaultPlan

        specs = FaultPlan.parse(
            "delay:replica=0,ms=200,times=100").for_replica(0)
        submit = _chaotic(
            lambda kind, sample, deadline_ms=None: (kind, sample), specs)
        start = time.perf_counter()
        with ThreadPoolExecutor(4) as pool:
            answers = list(pool.map(lambda i: submit("predict", i),
                                    range(4)))
        elapsed = time.perf_counter() - start
        assert answers == [("predict", i) for i in range(4)]
        assert elapsed < 0.5, f"4 delayed requests took {elapsed:.2f} s"
