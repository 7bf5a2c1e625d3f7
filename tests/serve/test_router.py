"""Router unit tests against scripted stub replicas (no real model).

The Router only speaks HTTP, so a tiny scriptable stub server stands in
for a replica: its health and response behavior are mutated per test to
drive the membership state machine, request strikes, failover and
hedging deterministically — ``probe_once()`` replaces the background
prober, so no test depends on wall-clock probe timing.
"""

import json
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.obs.metrics import parse_prometheus
from repro.serve.router import MEMBER_STATES, Router, RouterConfig


class QuietServer(ThreadingHTTPServer):
    """Like the real replicas' server: a client that hangs up before
    its answer (the router timing out) is no traceback."""

    daemon_threads = True

    def handle_error(self, request, client_address):
        if not isinstance(sys.exc_info()[1],
                          (ConnectionResetError, BrokenPipeError)):
            super().handle_error(request, client_address)


class StubReplica:
    """A scriptable fake replica: /healthz + /v1/predict over a real
    socket.  Behavior is controlled by mutable attributes:

    * ``healthy`` — False makes /healthz answer 503
    * ``answer`` — the JSON payload /v1/predict returns
    * ``status_script`` — list of HTTP statuses to answer before
      falling back to 200 (e.g. ``[500, 500]`` fails twice)
    * ``delay_s`` — sleep before answering /v1/predict

    ``open_connections`` counts the sockets the stub currently holds
    open; ``idle_timeout`` (seconds) makes it close a keep-alive socket
    that sits idle that long, as real servers do.
    """

    def __init__(self, idle_timeout=None):
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Like the real replicas: no delayed-ACK stall per response.
            disable_nagle_algorithm = True
            timeout = idle_timeout

            def setup(self):
                super().setup()
                with stub.lock:
                    stub.open_connections += 1

            def finish(self):
                super().finish()
                with stub.lock:
                    stub.open_connections -= 1

            def log_message(self, *args):
                pass

            def _reply(self, status, payload, headers=()):
                body = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/healthz":
                    if stub.healthy:
                        self._reply(200, {"status": "ok"})
                    else:
                        self._reply(503, {"status": "unhealthy"})
                else:
                    self._reply(200, {"stub": True})

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                if length:
                    self.rfile.read(length)
                stub.requests += 1
                if stub.delay_s:
                    time.sleep(stub.delay_s)
                if stub.status_script:
                    status = stub.status_script.pop(0)
                    headers = (
                        [("Retry-After", "0.01")]
                        if status in (429, 503) else []
                    )
                    self._reply(status, {"error": f"scripted {status}"},
                                headers)
                    return
                self._reply(200, stub.answer)

        self.healthy = True
        self.answer = {"predictions": 7}
        self.status_script = []
        self.delay_s = 0.0
        self.requests = 0
        self.lock = threading.Lock()
        self.open_connections = 0
        self.httpd = QuietServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, daemon=True)
        self._thread.start()

    @property
    def url(self):
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self):
        self.httpd.shutdown()
        self._thread.join(timeout=5)
        self.httpd.server_close()


@pytest.fixture()
def stubs():
    pair = [StubReplica(), StubReplica()]
    yield pair
    for stub in pair:
        stub.stop()


def make_router(stubs, **overrides):
    defaults = dict(rejoin_after=1, eject_after=2,
                    failover_backoff=0.001, failover_backoff_cap=0.005,
                    probe_timeout=2.0)
    defaults.update(overrides)
    router = Router(
        endpoints=[(f"s{i}", stub.url) for i, stub in enumerate(stubs)],
        config=RouterConfig(**defaults),
    )
    router.probe_once()
    return router


BODY = json.dumps({"inputs": [[0.0]]}).encode()


def members(router):
    return {member["id"]: member for member in router.health()["replicas"]}


def ejections(router):
    parsed = parse_prometheus(router.metrics_text())
    return parsed.get("repro_router_ejections_total",
                      {"samples": {}})["samples"]


class TestMembership:
    def test_states_constant(self):
        assert MEMBER_STATES == ("ok", "suspect", "ejected", "rejoining")

    def test_initial_probe_admits_members(self, stubs):
        router = make_router(stubs)
        assert router.probe_once() == {"s0": "ok", "s1": "ok"}

    def test_walk_ok_suspect_ejected_and_back(self, stubs):
        # eject_after counts consecutive probe failures: the 1st makes
        # the member suspect, the eject_after-th ejects it.
        router = make_router(stubs, rejoin_after=2, eject_after=3)
        router.probe_once()  # rejoining -> ok needs 2 successes
        assert router.probe_once()["s1"] == "ok"
        stubs[1].healthy = False
        assert router.probe_once()["s1"] == "suspect"
        assert router.probe_once()["s1"] == "suspect"
        assert router.probe_once()["s1"] == "ejected"
        stubs[1].healthy = True
        assert router.probe_once()["s1"] == "rejoining"
        assert router.probe_once()["s1"] == "ok"
        # The round trip was counted.
        parsed = parse_prometheus(router.metrics_text())
        assert parsed["repro_router_ejections_total"]["samples"][
            'repro_router_ejections_total{replica="s1"}'] == 1
        assert parsed["repro_router_rejoins_total"]["samples"][
            'repro_router_rejoins_total{replica="s1"}'] == 1

    def test_one_blip_does_not_eject(self, stubs):
        router = make_router(stubs)
        assert router.probe_once()["s0"] == "ok"
        stubs[0].healthy = False
        assert router.probe_once()["s0"] == "suspect"
        stubs[0].healthy = True
        assert router.probe_once()["s0"] == "ok"
        # Suspect members still receive traffic.
        status, _, _ = router.forward("/v1/predict", BODY)
        assert status == 200

    def test_rejoining_failure_goes_back_to_ejected(self, stubs):
        router = make_router(stubs, rejoin_after=3)
        stubs[1].healthy = False
        for _ in range(3):
            router.probe_once()
        assert router.probe_once()["s1"] == "ejected"
        stubs[1].healthy = True
        assert router.probe_once()["s1"] == "rejoining"
        stubs[1].healthy = False
        assert router.probe_once()["s1"] == "ejected"


class TestRouting:
    def test_forward_relays_exact_bytes(self, stubs):
        stubs[0].answer = {"predictions": [3, 1, 4]}
        stubs[1].answer = {"predictions": [3, 1, 4]}
        router = make_router(stubs)
        status, headers, body = router.forward("/v1/predict", BODY)
        assert status == 200
        assert body == json.dumps({"predictions": [3, 1, 4]}).encode()
        assert headers["Content-Type"] == "application/json"

    def test_load_spreads_over_replicas(self, stubs):
        router = make_router(stubs)
        for _ in range(10):
            router.forward("/v1/predict", BODY)
        assert stubs[0].requests > 0
        assert stubs[1].requests > 0
        assert stubs[0].requests + stubs[1].requests == 10

    def test_failover_on_500_is_invisible(self, stubs):
        stubs[0].status_script = [500] * 5
        stubs[1].status_script = [500] * 5
        # Whichever replica is hit first fails; the other one (still
        # scripted to fail) fails too... so script only one:
        stubs[0].status_script = [500] * 10
        stubs[1].status_script = []
        stubs[1].answer = {"predictions": 42}
        router = make_router(stubs)
        for _ in range(3):
            status, _, body = router.forward("/v1/predict", BODY)
            assert status == 200
            assert json.loads(body) == {"predictions": 42}
        parsed = parse_prometheus(router.metrics_text())
        failovers = sum(
            parsed["repro_router_failovers_total"]["samples"].values())
        assert failovers >= 1

    def test_failover_on_connection_refused(self, stubs):
        answer = {"predictions": 42}
        stubs[0].answer = answer
        stubs[1].answer = answer
        router = make_router(stubs)
        stubs[1].stop()  # port closed: connection refused
        for _ in range(4):
            status, _, body = router.forward("/v1/predict", BODY)
            assert status == 200
            assert json.loads(body) == answer

    def test_client_errors_relay_without_failover(self, stubs):
        stubs[0].status_script = [400]
        stubs[1].status_script = [400]
        router = make_router(stubs)
        status, _, _ = router.forward("/v1/predict", BODY)
        assert status == 400
        # Exactly one replica was asked: 400 is the request's fault.
        assert stubs[0].requests + stubs[1].requests == 1

    def test_429_relays_retry_after_when_all_replicas_full(self, stubs):
        stubs[0].status_script = [429] * 10
        stubs[1].status_script = [429] * 10
        router = make_router(stubs, max_failover=1)
        status, headers, _ = router.forward("/v1/predict", BODY)
        assert status == 429
        assert "Retry-After" in headers

    def test_no_routable_replicas_sheds_503(self, stubs):
        router = make_router(stubs)
        for stub in stubs:
            stub.healthy = False
        for _ in range(3):
            router.probe_once()
        # Everyone ejected: requests shed with 503 + jittered Retry-After.
        status, headers, body = router.forward("/v1/predict", BODY)
        assert status == 503
        assert 0 < float(headers["Retry-After"]) < 10
        assert "error" in json.loads(body)

    def test_drain_sheds_with_retry_after(self, stubs):
        router = make_router(stubs)
        router.begin_drain()
        status, headers, _ = router.forward("/v1/predict", BODY)
        assert status == 503
        assert float(headers["Retry-After"]) > 0
        assert router.health()["status"] == "draining"
        # No replica saw the request.
        assert stubs[0].requests + stubs[1].requests == 0


class TestRequestStrikes:
    def test_sick_replica_sheds_load_then_recovers(self, stubs):
        # s0 fails every prediction while its /healthz passes.
        stubs[0].status_script = [500] * 100
        stubs[1].answer = {"predictions": 1}
        router = make_router(stubs, eject_after_requests=2, max_failover=1)
        for _ in range(6):
            status, _, _ = router.forward("/v1/predict", BODY)
            assert status == 200
        # Two consecutive strikes ejected s0 at once, between probes.
        assert stubs[0].requests == 2
        assert members(router)["s0"]["state"] == "ejected"
        for _ in range(3):
            router.forward("/v1/predict", BODY)
        assert stubs[0].requests == 2  # no traffic while ejected
        # The stub heals; probe rounds readmit it and it serves again.
        stubs[0].status_script = []
        stubs[0].answer = {"predictions": 1}
        assert router.probe_once()["s0"] == "rejoining"
        assert router.probe_once()["s0"] == "ok"
        for _ in range(6):
            assert router.forward("/v1/predict", BODY)[0] == 200
        assert stubs[0].requests > 2
        assert members(router)["s0"]["state"] == "ok"
        assert members(router)["s0"]["request_failures"] == 0

    def test_request_ejection_degrades_health_and_is_counted(self, stubs):
        stubs[0].status_script = [500] * 3
        router = make_router(stubs, eject_after_requests=3, max_failover=1)
        for _ in range(6):
            assert router.forward("/v1/predict", BODY)[0] == 200
        health = router.health()
        assert health["status"] == "degraded"
        sick = members(router)["s0"]
        assert (sick["state"], sick["request_failures"],
                sick["probe_failures"]) == ("ejected", 3, 0)
        assert ejections(router) == {
            'repro_router_ejections_total{replica="s0"}': 1}

    def test_inflight_failures_after_ejection_count_once(self, stubs):
        # Both replicas are slow, so eight requests split four and four;
        # s0's first failure ejects it, its other three strike an
        # ejected member.
        stubs[0].status_script = [500] * 4
        for stub in stubs:
            stub.delay_s = 0.2
        router = make_router(stubs, eject_after_requests=1, max_failover=1)
        statuses = []
        workers = [threading.Thread(target=lambda: statuses.append(
            router.forward("/v1/predict", BODY)[0])) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert statuses == [200] * 8
        assert stubs[0].requests == 4
        sick = members(router)["s0"]
        assert (sick["state"], sick["request_failures"]) == ("ejected", 4)
        assert ejections(router) == {
            'repro_router_ejections_total{replica="s0"}': 1}

    def test_readmitted_member_that_fails_is_ejected_at_once(self, stubs):
        stubs[0].status_script = [500] * 100  # /healthz still passes
        router = make_router(stubs, eject_after_requests=3, max_failover=1)
        for _ in range(3):
            router.forward("/v1/predict", BODY)
        assert members(router)["s0"]["state"] == "ejected"
        router.probe_once()
        assert router.probe_once()["s0"] == "ok"
        # Passing probes readmit s0 but do not clear its streak.
        assert members(router)["s0"]["request_failures"] == 3
        hits = stubs[0].requests
        for _ in range(2):
            assert router.forward("/v1/predict", BODY)[0] == 200
        assert stubs[0].requests == hits + 1
        assert members(router)["s0"]["state"] == "ejected"
        assert ejections(router) == {
            'repro_router_ejections_total{replica="s0"}': 2}

    def test_respawn_clears_request_failures(self, stubs):
        replica_set = FakeReplicaSet(stubs)
        router = Router(replica_set=replica_set, config=RouterConfig(
            rejoin_after=1, eject_after_requests=5,
            failover_backoff=0.001, failover_backoff_cap=0.005))
        router.probe_once()
        stubs[0].status_script = [500] * 100
        for _ in range(2):
            assert router.forward("/v1/predict", BODY)[0] == 200
        assert members(router)["s0"]["request_failures"] == \
            stubs[0].requests > 0
        respawned = StubReplica()  # same id, new port
        try:
            replica_set.stubs = [respawned, stubs[1]]
            router.probe_once()  # rejoining, then ok at rejoin_after=1
            member = members(router)["s0"]
            assert member["url"] == respawned.url
            assert (member["state"], member["request_failures"]) == (
                "ok", 0)
            router.stop()
        finally:
            respawned.stop()


class TestHedging:
    def test_hedge_wins_on_slow_replica(self, stubs):
        stubs[0].delay_s = 0.4
        stubs[1].delay_s = 0.4
        answer = {"predictions": 9}
        stubs[0].answer = answer
        stubs[1].answer = answer
        router = make_router(stubs, hedge_ms=40.0)
        router.start()
        try:
            # Make exactly one replica slow — whichever gets the primary,
            # hedging is only observable when the primary is the slow one,
            # so pin it: s1 fast, s0 slow, and send until a hedge fires.
            stubs[1].delay_s = 0.0
            won = 0
            for _ in range(6):
                begin = time.perf_counter()
                status, _, body = router.forward("/v1/predict", BODY)
                elapsed = time.perf_counter() - begin
                assert status == 200
                assert json.loads(body) == answer
                parsed = parse_prometheus(router.metrics_text())
                samples = parsed.get("repro_router_hedges_total",
                                     {"samples": {}})["samples"]
                won = samples.get(
                    'repro_router_hedges_total{outcome="won"}', 0)
                if won:
                    # The winning hedge answered well under the slow
                    # replica's 400 ms.
                    assert elapsed < 0.39
                    break
            assert won >= 1
        finally:
            router.stop()

    def test_fast_primary_never_hedges(self, stubs):
        router = make_router(stubs, hedge_ms=500.0)
        router.start()
        try:
            for _ in range(5):
                status, _, _ = router.forward("/v1/predict", BODY)
                assert status == 200
            parsed = parse_prometheus(router.metrics_text())
            samples = parsed.get("repro_router_hedges_total",
                                 {"samples": {}})["samples"]
            assert sum(samples.values()) == 0
        finally:
            router.stop()

    def test_concurrent_hedged_requests_do_not_queue(self, stubs):
        # Every attempt gets its own thread: 8 concurrent requests to
        # replicas answering in 300 ms all finish in about 300 ms, not
        # in waves behind a bounded pool.
        for stub in stubs:
            stub.delay_s = 0.3
        router = make_router(stubs, hedge_ms=20.0)
        router.start()
        try:
            statuses = []

            def client():
                statuses.append(router.forward("/v1/predict", BODY)[0])

            workers = [threading.Thread(target=client) for _ in range(8)]
            begin = time.perf_counter()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10)
            elapsed = time.perf_counter() - begin
            assert statuses == [200] * 8
            assert elapsed < 0.5
        finally:
            router.stop()


class TestRouterHTTP:
    def test_end_to_end_over_socket(self, stubs):
        stubs[0].answer = {"predictions": 5}
        stubs[1].answer = {"predictions": 5}
        router = make_router(stubs)
        frontend = router.serve_http(port=0)
        try:
            url = frontend.url
            request = urllib.request.Request(
                url + "/v1/predict", data=BODY,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
                assert json.loads(response.read()) == {"predictions": 5}
            with urllib.request.urlopen(url + "/healthz",
                                        timeout=10) as response:
                health = json.loads(response.read())
                assert health["status"] == "ok"
                assert {m["id"] for m in health["replicas"]} == {"s0", "s1"}
            with urllib.request.urlopen(url + "/metrics",
                                        timeout=10) as response:
                assert "version=0.0.4" in response.headers["Content-Type"]
                parsed = parse_prometheus(response.read().decode())
            # One-hot membership state for both replicas.
            for replica in ("s0", "s1"):
                sample = ('repro_router_replica_state'
                          f'{{replica="{replica}",state="ok"}}')
                assert parsed["repro_router_replica_state"][
                    "samples"][sample] == 1
        finally:
            router.stop()

    def test_healthz_503_when_unroutable_and_drain_endpoint(self, stubs):
        router = make_router(stubs)
        frontend = router.serve_http(port=0)
        try:
            request = urllib.request.Request(
                frontend.url + "/admin/drain", data=b"{}",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=10) as response:
                assert json.loads(response.read()) == {"status": "draining"}
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(frontend.url + "/healthz", timeout=10)
            assert info.value.code == 503
            assert json.loads(info.value.read())["status"] == "draining"
        finally:
            router.stop()


class TestBreakerNeutral:
    """429 is neutral: the replica is healthy, just full."""

    def test_429_neither_counts_toward_nor_clears_a_streak(self, stubs):
        # One replica, no failover: every answer is s0's own.
        stubs[0].status_script = [500, 429, 429, 500]
        router = make_router(stubs[:1], eject_after_requests=2,
                             max_failover=0)
        for expected in (500, 429, 429):
            assert router.forward("/v1/predict", BODY)[0] == expected
        sick = members(router)["s0"]
        # The 429s did not count...
        assert (sick["state"], sick["request_failures"]) == ("ok", 1)
        assert router.forward("/v1/predict", BODY)[0] == 500
        # ...nor did they clear the streak.
        assert members(router)["s0"]["state"] == "ejected"

    def test_router_429_leaves_breaker_closed(self, stubs):
        stubs[0].status_script = [429] * 10
        stubs[1].status_script = [429] * 10
        router = make_router(stubs, eject_after_requests=1, max_failover=1)
        for _ in range(3):
            status, _, _ = router.forward("/v1/predict", BODY)
            assert status == 429
        assert {(m["state"], m["request_failures"])
                for m in router.health()["replicas"]} == {("ok", 0)}


class FakeReplicaSet:
    """The slice of :class:`ReplicaSet` the router reads: live
    endpoints, supervision stats and the set's own health."""

    def __init__(self, stubs):
        self.stubs = stubs
        self.states = {f"s{i}": "ok" for i in range(len(stubs))}

    def endpoints(self):
        return [(f"s{i}", stub.url) for i, stub in enumerate(self.stubs)
                if self.states[f"s{i}"] == "ok"]

    def stats(self):
        return {
            "replicas": [{"id": replica_id, "state": state, "restarts": 0}
                         for replica_id, state in self.states.items()],
            "restarts": 0,
            "quarantined": sum(state == "quarantined"
                               for state in self.states.values()),
        }

    def health(self):
        serving = all(state == "ok" for state in self.states.values())
        return {"status": "ok" if serving else "degraded", **self.stats()}


class TestRespawnHealth:
    def test_respawning_replica_keeps_router_degraded(self, stubs):
        replica_set = FakeReplicaSet(stubs)
        router = Router(replica_set=replica_set,
                        config=RouterConfig(rejoin_after=1))
        router.probe_once()
        assert router.health()["status"] == "ok"
        # The respawning replica leaves membership; the survivor alone
        # must not read as full strength.
        replica_set.states["s1"] = "respawning"
        router.probe_once()
        assert [m["id"] for m in router.health()["replicas"]] == ["s0"]
        assert router.health()["status"] == "degraded"
        replica_set.states["s1"] = "ok"
        router.probe_once()
        assert router.health()["status"] == "ok"


def upstream_connects(router):
    parsed = parse_prometheus(router.metrics_text())
    samples = parsed.get("repro_router_upstream_connects_total", {})
    return sum(samples.get("samples", {}).values())


def eventually(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestUpstreamPool:
    def test_sequential_requests_reuse_one_connection_per_replica(
            self, stubs):
        router = make_router(stubs)
        for _ in range(4):
            router.forward("/v1/predict", BODY)
        # Probes use fresh connections of their own and are not counted.
        assert upstream_connects(router) == 2
        for _ in range(20):
            status, _, _ = router.forward("/v1/predict", BODY)
            assert status == 200
        assert upstream_connects(router) == 2
        assert eventually(lambda: [stub.open_connections
                                   for stub in stubs] == [1, 1])
        router.stop()

    def test_stale_pooled_connection_is_retried_transparently(self):
        # The replicas close keep-alive sockets idle for 0.2 s.
        stubs = [StubReplica(idle_timeout=0.2) for _ in range(2)]
        try:
            router = make_router(stubs, eject_after_requests=1)
            for _ in range(2):
                assert router.forward("/v1/predict", BODY)[0] == 200
            assert eventually(lambda: all(stub.open_connections == 0
                                          for stub in stubs))
            for _ in range(2):
                status, _, body = router.forward("/v1/predict", BODY)
                assert status == 200
                assert json.loads(body) == {"predictions": 7}
            parsed = parse_prometheus(router.metrics_text())
            assert sum(parsed["repro_router_failovers_total"][
                "samples"].values()) == 0
            # One strike would have ejected the member.
            assert {m["state"] for m in router.health()["replicas"]} == {
                "ok"}
            assert [stub.requests for stub in stubs] == [2, 2]
            assert upstream_connects(router) == 4
            router.stop()
        finally:
            for stub in stubs:
                stub.stop()

    def test_timeout_is_not_retried(self, stubs):
        router = make_router(stubs, request_timeout=0.2, max_failover=1,
                             eject_after_requests=1)
        for _ in range(2):
            router.forward("/v1/predict", BODY)
        for stub in stubs:
            stub.delay_s = 0.5
        status, _, _ = router.forward("/v1/predict", BODY)
        # Each replica was asked once: a timed-out pooled connection is a
        # failed attempt (failover, strike), never a silent retry.
        assert status == 503
        assert [stub.requests for stub in stubs] == [2, 2]
        parsed = parse_prometheus(router.metrics_text())
        assert sum(parsed["repro_router_failovers_total"][
            "samples"].values()) == 1
        assert {m["state"] for m in router.health()["replicas"]} == {
            "ejected"}
        router.stop()

    def test_respawned_and_dropped_members_close_idle_connections(
            self, stubs):
        replica_set = FakeReplicaSet(stubs)
        router = Router(replica_set=replica_set,
                        config=RouterConfig(rejoin_after=1))
        router.probe_once()
        for _ in range(2):
            router.forward("/v1/predict", BODY)
        assert eventually(lambda: [stub.open_connections
                                   for stub in stubs] == [1, 1])
        respawned = StubReplica()  # same id, new port
        try:
            replica_set.stubs = [respawned, stubs[1]]
            router.probe_once()
            assert eventually(lambda: stubs[0].open_connections == 0)
            replica_set.states["s1"] = "respawning"  # leaves membership
            router.probe_once()
            assert eventually(lambda: stubs[1].open_connections == 0)
            assert router.forward("/v1/predict", BODY)[0] == 200
            assert respawned.requests == 1
            router.stop()
        finally:
            respawned.stop()

    def test_concurrent_forwards_never_share_a_connection(self, stubs):
        # Two threads holding one pooled connection would interleave
        # requests on it and fail over; the pool must hand each
        # connection to one attempt at a time.
        threads, per_thread = 8, 25
        router = make_router(stubs)
        statuses = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def client():
                for _ in range(per_thread):
                    statuses.append(router.forward("/v1/predict", BODY)[0])

            workers = [threading.Thread(target=client)
                       for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert statuses == [200] * threads * per_thread
        assert stubs[0].requests + stubs[1].requests == threads * per_thread
        parsed = parse_prometheus(router.metrics_text())
        assert sum(parsed["repro_router_failovers_total"][
            "samples"].values()) == 0
        # A connection is opened only while every pooled one is busy.
        connects = parsed["repro_router_upstream_connects_total"]["samples"]
        assert max(connects.values()) <= threads
        router.stop()

    def test_stop_closes_every_connection(self, stubs):
        router = make_router(stubs)
        for _ in range(4):
            router.forward("/v1/predict", BODY)
        assert eventually(lambda: [stub.open_connections
                                   for stub in stubs] == [1, 1])
        router.stop()
        assert eventually(lambda: [stub.open_connections
                                   for stub in stubs] == [0, 0])
