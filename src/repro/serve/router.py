"""Health-driven HTTP router over N serving replicas.

The :class:`Router` is the cluster's front door: it owns *membership*
(which replicas exist and whether they are trustworthy) and *routing*
(which replica gets the next request), while process supervision lives
in :class:`~repro.serve.cluster.ReplicaSet`.  The engine underneath is
pure and deterministic, so retrying a request on a different replica is
invisible to the client — responses are relayed as the replica's raw
bytes, byte-identical no matter which replica answered.

Membership state machine (driven by periodic ``/healthz`` probes and
by request outcomes)::

              probe fail                  probe fail x eject_after
    [ok] ------------------> [suspect] -------------------------+
     ^ |  <------------------     |                             |
     | |       probe ok           |  request strike             v
     | +--------------------------+--------------------->  [ejected]
     |                              x eject_after_requests    ^  |
     |                                                        |  |
     | x rejoin_after                    probe fail           |  |
    [rejoining] ----------------------------------------------+  |
         ^                           probe ok                    |
         +-------------------------------------------------------+

``ok`` and ``suspect`` members receive traffic (suspect = deprioritized
but routable — one blip must not eject a healthy replica); ``ejected``
members only receive probes.  A respawned replica re-enters at
``rejoining`` and must pass ``rejoin_after`` consecutive probes before
carrying full weight.

A replica can pass ``/healthz`` while its predictions fail, and a probe
cycle may be too slow to see it anyway, so requests strike too: a
connection error, 500 or 503 is a *strike*, and ``eject_after_requests``
consecutive strikes eject a routable member at once.  A 429 is neutral
(the replica is healthy, just full); any other answer, or a respawn,
clears the streak.  Probes never clear it: only probes readmit an
ejected member, and one that still fails is ejected again on its first
failed request.

Routing is least-loaded (router-tracked inflight per member, round-robin
tie-break) with bounded failover: connection errors and 429/500/503
responses move the request to the next-best member after a jittered
backoff, never revisiting a member within one request.  400/404/504 are
relayed immediately — they are the *request's* fault (or its deadline),
not the replica's.  With ``hedge_ms`` set, a request still unanswered
after that many milliseconds is duplicated to a second replica and the
first answer wins (tail-latency insurance priced at one extra request).
Each attempt runs on its own thread, so concurrent hedged requests never
queue behind one another and the hedge timer measures the replica alone.

Attempts travel over each member's pool of keep-alive connections;
probes open a fresh connection each, so they also test that the
replica still accepts connections.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from ..obs.metrics import MetricsRegistry
from ..utils.backoff import Backoff
from .http import HTTPFrontend, JSONHandler, fetch, jittered_retry_after
from .workers import rollup

__all__ = [
    "Router",
    "RouterConfig",
    "MEMBER_STATES",
]

#: Membership states a replica walks through (see module docstring).
MEMBER_STATES = ("ok", "suspect", "ejected", "rejoining")

#: Response statuses that move a request to another replica.  429/503
#: mean "this replica can't take it right now"; 500 covers injected
#: chaos faults and genuine replica bugs — the deterministic engine
#: makes the retry safe either way.  All but 429 (healthy, just full)
#: are strikes against the replica.
_FAILOVER_STATUSES = frozenset({429, 500, 503})

#: Headers copied from the client request to the replica request.
_FORWARD_HEADERS = ("Content-Type", "X-Deadline-Ms")

#: Response headers relayed from the replica back to the client.
_RELAY_HEADERS = ("Content-Type", "Retry-After")

#: What a pooled keep-alive connection raises when the replica closed it
#: while it sat idle (``RemoteDisconnected`` is a ``ConnectionResetError``).
_STALE_ERRORS = (BrokenPipeError, ConnectionResetError)


def _attempt(fn, *args) -> Future:
    """Start ``fn(*args)`` now on its own daemon thread, behind a
    ``Future``: a hedged request's attempts never wait for a worker."""
    future: Future = Future()
    future.set_running_or_notify_cancel()

    def run() -> None:
        try:
            future.set_result(fn(*args))
        except BaseException as exc:  # noqa: BLE001 — relayed to caller
            future.set_exception(exc)

    threading.Thread(target=run, name="repro-router-attempt",
                     daemon=True).start()
    return future


@dataclass(frozen=True)
class RouterConfig:
    """Knobs of one router.

    Membership: replicas are probed every ``probe_interval`` seconds
    (timeout ``probe_timeout``); ``eject_after`` consecutive failures
    walk ok -> suspect -> ejected, ``rejoin_after`` consecutive
    successes walk ejected -> rejoining -> ok.  ``eject_after_requests``
    consecutive failed requests eject a routable member at once.

    Failover: up to ``max_failover`` *additional* replicas are tried
    per request, sleeping a jittered exponential backoff (base
    ``failover_backoff``, cap ``failover_backoff_cap``) between
    attempts.

    Hedging: ``hedge_ms`` (``None`` = off) duplicates a request to a
    second replica once the primary has been silent that long.
    """

    probe_interval: float = 0.25
    probe_timeout: float = 2.0
    eject_after: int = 3
    rejoin_after: int = 2
    max_failover: int = 3
    failover_backoff: float = 0.02
    failover_backoff_cap: float = 0.25
    eject_after_requests: int = 5
    hedge_ms: Optional[float] = None
    request_timeout: float = 60.0
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.eject_after < 1:
            raise ValueError("eject_after must be >= 1")
        if self.rejoin_after < 1:
            raise ValueError("rejoin_after must be >= 1")
        if self.max_failover < 0:
            raise ValueError("max_failover must be >= 0")
        if self.eject_after_requests < 1:
            raise ValueError("eject_after_requests must be >= 1")
        if self.hedge_ms is not None and self.hedge_ms <= 0:
            raise ValueError("hedge_ms must be > 0 (or None to disable)")


class _Member:
    """Router-side view of one replica."""

    def __init__(self, replica_id: str, url: str) -> None:
        self.id = replica_id
        self.url = url
        self.state = "rejoining"  # must earn trust via probes
        self.admitted = False  # has it ever reached "ok"?
        self.inflight = 0
        self.probe_failures = 0   # consecutive
        self.probe_successes = 0  # consecutive
        self.request_failures = 0  # consecutive strikes
        self.last_status: Optional[str] = None  # replica-reported
        # Idle keep-alive connections to ``url``, most recent last.
        self.idle: List[http.client.HTTPConnection] = []

    def routable(self) -> bool:
        return self.state in ("ok", "suspect")

    def as_dict(self, probe_failures_total: int) -> Dict[str, Any]:
        return {
            "id": self.id,
            "url": self.url,
            "state": self.state,
            "inflight": self.inflight,
            "probe_failures": self.probe_failures,
            "request_failures": self.request_failures,
            "probe_failures_total": probe_failures_total,
            "last_status": self.last_status,
        }


#: A relayed response: (HTTP status, headers to relay, raw body bytes).
_Response = Tuple[int, Dict[str, str], bytes]


class Router:
    """Route requests across replicas; own membership via health probes
    and request outcomes.

    ``endpoints`` is a static list of replica URLs (or ``(id, url)``
    pairs) for externally managed replicas; ``replica_set`` attaches a
    :class:`~repro.serve.cluster.ReplicaSet` whose live endpoints are
    re-read before every probe round, so respawned replicas (same id,
    new port) rejoin automatically and quarantined ones drop out.

    Deterministic tests drive the membership machine with
    :meth:`probe_once` instead of starting the background prober.
    """

    def __init__(
        self,
        endpoints: Sequence[Union[str, Tuple[str, str]]] = (),
        replica_set=None,
        config: Optional[RouterConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config or RouterConfig()
        self._replica_set = replica_set
        self._static: List[Tuple[str, str]] = []
        for position, endpoint in enumerate(endpoints):
            if isinstance(endpoint, str):
                self._static.append((f"r{position}", endpoint))
            else:
                replica_id, url = endpoint
                self._static.append((str(replica_id), str(url)))
        self._lock = threading.Lock()
        self._members: "Dict[str, _Member]" = {}
        self._rr = 0  # round-robin tie-break cursor
        self._draining = False
        self._stop = threading.Event()
        self._prober: Optional[threading.Thread] = None
        self._http: Optional[HTTPFrontend] = None
        # Seeded per router so chaos runs replay; distinct draws so
        # concurrent retries fan out in time.
        self._failover_backoff = Backoff(self.config.failover_backoff,
                                         self.config.failover_backoff_cap,
                                         seed=0xF417)
        self._build_metrics(metrics)
        self._refresh_membership()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _build_metrics(self, metrics: Optional[MetricsRegistry]) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "repro_router_requests_total",
            "Client requests accepted by the router (before routing).")
        self._m_responses = self.metrics.counter(
            "repro_router_responses_total",
            "Responses returned to clients, by HTTP status code.",
            labelnames=("code",))
        self._m_failovers = self.metrics.counter(
            "repro_router_failovers_total",
            "Request attempts moved to another replica after a "
            "connection error or failover-able status (429/500/503).")
        self._m_ejections = self.metrics.counter(
            "repro_router_ejections_total",
            "Members ejected from the routable set by probes or by "
            "request strikes, by replica.",
            labelnames=("replica",))
        self._m_rejoins = self.metrics.counter(
            "repro_router_rejoins_total",
            "Members readmitted to the routable set, by replica.",
            labelnames=("replica",))
        self._m_hedges = self.metrics.counter(
            "repro_router_hedges_total",
            "Hedged duplicate requests, by outcome (won = the hedge "
            "answered first, lost = the primary did).",
            labelnames=("outcome",))
        self._m_sheds = self.metrics.counter(
            "repro_router_sheds_total",
            "Requests refused with 503 because no routable replica "
            "remained (or the router was draining).",
            labelnames=("reason",))
        self._m_probe_failures = self.metrics.counter(
            "repro_router_probe_failures_total",
            "Failed health probes, by replica.",
            labelnames=("replica",))
        self._m_connects = self.metrics.counter(
            "repro_router_upstream_connects_total",
            "TCP connections the router opened to a replica for "
            "forwarding; pooled keep-alive reuse opens none.",
            labelnames=("replica",))
        self._m_latency = self.metrics.histogram(
            "repro_router_request_latency_seconds",
            "Wall time from router accept to response, per request.")
        self._m_state = self.metrics.gauge(
            "repro_router_replica_state",
            "Membership one-hot: 1 for the replica's current state.",
            labelnames=("replica", "state"))
        self._m_inflight = self.metrics.gauge(
            "repro_router_replica_inflight",
            "Requests the router currently has outstanding per replica.",
            labelnames=("replica",))
        self._m_respawns = self.metrics.counter(
            "repro_router_replica_respawns_total",
            "Replica process respawns performed by the attached "
            "ReplicaSet, by replica.",
            labelnames=("replica",))
        self.metrics.add_collector(self._collect_metrics)

    def _members_as_dicts(self) -> List[Dict[str, Any]]:
        """Every member's table row (caller holds the lock)."""
        return [member.as_dict(int(self._m_probe_failures.value(
                    replica=member.id)))
                for member in self._members.values()]

    def _collect_metrics(self) -> None:
        """Scrape-time mirror of membership/supervision state."""
        with self._lock:
            snapshots = self._members_as_dicts()
        self._m_state.clear()
        self._m_inflight.clear()
        for snap in snapshots:
            for state in MEMBER_STATES:
                self._m_state.set(
                    1.0 if snap["state"] == state else 0.0,
                    replica=snap["id"], state=state)
            self._m_inflight.set(float(snap["inflight"]),
                                 replica=snap["id"])
        if self._replica_set is not None:
            for replica in self._replica_set.stats()["replicas"]:
                self._m_respawns.set_to(float(replica["restarts"]),
                                        replica=replica["id"])

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _endpoints(self) -> List[Tuple[str, str]]:
        if self._replica_set is not None:
            return list(self._replica_set.endpoints())
        return list(self._static)

    def _refresh_membership(self) -> None:
        """Reconcile members against the current endpoint list: new ids
        join at ``rejoining``, respawned ids (same id, new URL) restart
        their walk at ``rejoining`` with a clean request streak, vanished
        ids (quarantined/stopped replicas) are dropped.  Both of the last
        two close the member's idle connections."""
        endpoints = self._endpoints()
        stale: List[http.client.HTTPConnection] = []
        with self._lock:
            seen = set()
            for replica_id, url in endpoints:
                seen.add(replica_id)
                member = self._members.get(replica_id)
                if member is None:
                    self._members[replica_id] = _Member(replica_id, url)
                elif member.url != url:
                    # Respawned under a new port: same identity, zero
                    # trust — walk rejoining -> ok again.
                    member.url = url
                    member.state = "rejoining"
                    member.probe_failures = 0
                    member.probe_successes = 0
                    member.request_failures = 0
                    stale += member.idle
                    member.idle = []
            for replica_id in list(self._members):
                if replica_id not in seen:
                    stale += self._members.pop(replica_id).idle
        for conn in stale:
            conn.close()

    def probe_once(self) -> Dict[str, str]:
        """One synchronous probe round over all members; returns
        ``{replica_id: membership state}`` after the round.  The
        background prober calls this every ``probe_interval``."""
        self._refresh_membership()
        with self._lock:
            targets = [(member.id, member.url)
                       for member in self._members.values()]
        results = {}
        for replica_id, url in targets:
            results[replica_id] = self._probe(url)
        with self._lock:
            for replica_id, (alive, status) in results.items():
                member = self._members.get(replica_id)
                if member is None:  # dropped mid-round
                    continue
                member.last_status = status
                if alive:
                    self._probe_success(member)
                else:
                    self._probe_failure(member)
            return {member.id: member.state
                    for member in self._members.values()}

    def _probe(self, url: str) -> Tuple[bool, Optional[str]]:
        """GET /healthz -> (healthy, replica-reported status); healthy
        iff HTTP 200 (the replica answers 200 only while serving:
        ok/degraded)."""
        try:
            status, _, body = fetch(url + "/healthz",
                                    timeout=self.config.probe_timeout)
            return status == 200, json.loads(body).get("status")
        except Exception:  # noqa: BLE001 — refused/timeout/garbage body
            return False, None

    def _probe_success(self, member: _Member) -> None:
        member.probe_failures = 0
        member.probe_successes += 1
        if member.state == "suspect":
            member.state = "ok"
        elif member.state == "ejected":
            member.state = "rejoining"
            member.probe_successes = 1
        elif member.state == "rejoining" and \
                member.probe_successes >= self.config.rejoin_after:
            member.state = "ok"
            if member.admitted:  # first admission is not a *re*-join
                self._m_rejoins.inc(replica=member.id)
            member.admitted = True

    def _probe_failure(self, member: _Member) -> None:
        member.probe_successes = 0
        member.probe_failures += 1
        self._m_probe_failures.inc(replica=member.id)
        if member.state == "ok":
            member.state = "suspect"
        elif member.state == "suspect" and \
                member.probe_failures >= self.config.eject_after:
            self._eject(member)
        elif member.state == "rejoining":
            self._eject(member)

    def _eject(self, member: _Member) -> None:
        member.state = "ejected"
        self._m_ejections.inc(replica=member.id)

    def _prober_loop(self) -> None:
        while not self._stop.wait(self.config.probe_interval):
            try:
                self.probe_once()
            except Exception:  # noqa: BLE001 — prober must survive
                pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Router":
        """Run one synchronous probe round (so freshly started replicas
        are routable immediately) and start the background prober."""
        # New members need rejoin_after consecutive successes;
        # synchronous rounds at startup avoid an unroutable window.
        for _ in range(max(1, self.config.rejoin_after)):
            self.probe_once()
        if self._prober is None:
            self._prober = threading.Thread(
                target=self._prober_loop, name="repro-router-prober",
                daemon=True)
            self._prober.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._prober is not None:
            self._prober.join(timeout=10)
            self._prober = None
        if self._http is not None:
            self._http.stop()
            self._http = None
        idle: List[http.client.HTTPConnection] = []
        with self._lock:
            for member in self._members.values():
                idle += member.idle
                member.idle = []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def begin_drain(self) -> None:
        """Refuse new requests with 503 + Retry-After (in-flight ones
        finish).  Replica-side drains are the ReplicaSet's job — the
        CLI propagates both."""
        with self._lock:
            self._draining = True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _acquire(self, exclude: set) -> Optional[_Member]:
        """Pick the least-loaded routable member not in ``exclude``;
        reserve an inflight slot."""
        with self._lock:
            candidates = [member for member in self._members.values()
                          if member.routable() and member.id not in exclude]
            if not candidates:
                return None
            # ok before suspect, then least-loaded, then round-robin.
            order = {member.id: position for position, member
                     in enumerate(self._members.values())}
            members_count = max(1, len(self._members))
            member = min(candidates, key=lambda member: (
                0 if member.state == "ok" else 1,
                member.inflight,
                (order[member.id] - self._rr) % members_count,
            ))
            member.inflight += 1
            self._rr += 1
            return member

    def _release(self, member: _Member, status: Optional[int]) -> None:
        """Return ``member``'s inflight slot and score the attempt's
        outcome (``status`` None = no HTTP response): a strike, neutral
        (429) or clean."""
        with self._lock:
            member.inflight = max(0, member.inflight - 1)
            if status == 429:
                return
            if status is not None and status not in _FAILOVER_STATUSES:
                member.request_failures = 0
                return
            member.request_failures += 1
            if member.routable() and member.request_failures >= \
                    self.config.eject_after_requests:
                self._eject(member)

    def _checkin(self, member: _Member, url: str,
                 conn: http.client.HTTPConnection) -> None:
        """Pool ``conn`` for reuse, unless its member was respawned or
        dropped, or the router stopped, since it was checked out."""
        with self._lock:
            if (self._members.get(member.id) is member
                    and member.url == url and not self._stop.is_set()):
                member.idle.append(conn)
                return
        conn.close()

    def _send(self, member: _Member, method: str, path: str, body: bytes,
              headers: Dict[str, str]) -> Optional[_Response]:
        """One attempt against one replica over a pooled keep-alive
        connection.  ``None`` = connection-level failure (no HTTP
        response at all).  A reused connection that fails before any
        response byte was most likely closed by the replica while idle:
        it is retried once on a fresh connection, which is safe because
        every forwarded route is a pure function."""
        with self._lock:
            url, conn = member.url, (member.idle.pop() if member.idle
                                     else None)
        parts = urlsplit(url)
        for fresh in ((False, True) if conn is not None else (True,)):
            if fresh:
                conn = http.client.HTTPConnection(
                    parts.hostname, parts.port,
                    timeout=self.config.request_timeout)
            try:
                if fresh:
                    conn.connect()
                    self._m_connects.inc(replica=member.id)
                conn.request(method, parts.path + path,
                             body if method == "POST" else None, headers)
                response = conn.getresponse()
                break
            except Exception as exc:  # noqa: BLE001 — refused/reset/timeout
                conn.close()
                if fresh or not isinstance(exc, _STALE_ERRORS):
                    return None
        try:
            payload = response.read()
        except Exception:  # noqa: BLE001 — reset/timeout mid-body
            conn.close()
            return None
        if response.will_close:
            conn.close()
        else:
            self._checkin(member, url, conn)
        relay = {name: response.headers[name] for name in _RELAY_HEADERS
                 if response.headers.get(name)}
        return response.status, relay, payload

    def _shed(self, reason: str) -> _Response:
        self._m_sheds.inc(reason=reason)
        message = ("router is draining; retry against another cluster"
                   if reason == "draining"
                   else "no healthy replica available")
        body = json.dumps({"error": message}).encode()
        return 503, {
            "Content-Type": "application/json",
            "Retry-After": jittered_retry_after(self.config.retry_after),
        }, body

    def _forward_attempts(self, method: str, path: str, body: bytes,
                          headers: Dict[str, str],
                          tried: set) -> _Response:
        """The failover loop: walk distinct replicas until one answers
        with a non-failover status or the attempt budget runs out.
        ``tried`` is shared with a hedge, which excludes it."""
        last_response: Optional[_Response] = None
        for attempt in range(self.config.max_failover + 1):
            member = self._acquire(exclude=tried)
            if member is None:
                break
            tried.add(member.id)
            if attempt > 0:
                self._m_failovers.inc()
            response = self._send(member, method, path, body, headers)
            status = None if response is None else response[0]
            self._release(member, status)
            if response is not None:
                if status not in _FAILOVER_STATUSES:
                    # 2xx, or the request's own fault (400/404/504):
                    # the replica did its job — relay verbatim.
                    return response
                last_response = response
            if attempt < self.config.max_failover:
                time.sleep(self._failover_backoff.delay(attempt))
        if last_response is not None:
            return last_response
        return self._shed("no_healthy_replicas")

    def forward(self, path: str, body: bytes = b"",
                headers: Optional[Dict[str, str]] = None,
                method: str = "POST") -> _Response:
        """Route one client request; returns ``(status, headers, raw
        body bytes)`` — the winning replica's bytes, unmodified."""
        started = time.monotonic()
        self._m_requests.inc()
        with self._lock:
            draining = self._draining
        if draining:
            response = self._shed("draining")
        else:
            headers = dict(headers or {})
            headers.setdefault("Content-Type", "application/json")
            tried: set = set()
            if self.config.hedge_ms is None:
                response = self._forward_attempts(
                    method, path, body, headers, tried)
            else:
                response = self._forward_hedged(
                    method, path, body, headers, tried)
        self._m_responses.inc(code=str(response[0]))
        self._m_latency.observe(time.monotonic() - started)
        return response

    def _forward_hedged(self, method: str, path: str, body: bytes,
                        headers: Dict[str, str], tried: set) -> _Response:
        """Primary attempt; if silent past ``hedge_ms``, duplicate to a
        replica the primary has not touched and take the first answer.
        The loser runs to completion and is discarded — the engine is
        deterministic and replicas are stateless, so a duplicated
        request changes nothing."""
        primary = _attempt(self._forward_attempts, method, path, body,
                           headers, tried)
        done, _ = wait([primary], timeout=self.config.hedge_ms / 1e3)
        if done:
            return primary.result()
        # `tried` is being mutated by the primary thread; a stale copy
        # only risks the hedge landing on the primary's replica, which
        # is wasteful but harmless.
        hedge_tried = set(tried)
        hedge = _attempt(self._forward_attempts, method, path, body,
                         headers, hedge_tried)
        done, _ = wait([primary, hedge],
                       timeout=self.config.request_timeout,
                       return_when=FIRST_COMPLETED)
        winner = hedge if hedge in done and primary not in done else primary
        self._m_hedges.inc(outcome="won" if winner is hedge else "lost")
        return winner.result()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        """Aggregate ``/healthz``: ``ok`` (every member routable and
        ok), ``degraded`` (some routable member), ``unhealthy`` (none),
        ``draining``; plus the per-member table."""
        with self._lock:
            draining = self._draining
            members = self._members_as_dicts()
        states = [member["state"] for member in members]
        routable = sum(state in ("ok", "suspect") for state in states)
        status = "draining" if draining \
            else rollup(states, up=("ok", "suspect"))
        payload: Dict[str, Any] = {
            "status": status,
            "role": "router",
            "replicas": members,
            "routable": routable,
            "draining": draining,
        }
        if self._replica_set is not None:
            supervision = self._replica_set.health()
            payload["restarts"] = supervision["restarts"]
            payload["quarantined"] = supervision["quarantined"]
            if supervision["status"] != "ok" and status == "ok":
                # A respawning replica has left membership until it is
                # back, a quarantined one for good: the set is serving
                # but below strength.
                payload["status"] = "degraded"
        return payload

    def stats(self) -> Dict[str, Any]:
        snapshot = self.health()
        snapshot["counters"] = self.metrics.counter_totals()
        return snapshot

    def metrics_text(self) -> str:
        return self.metrics.render()

    def serve_http(self, host: str = "127.0.0.1",
                   port: int = 8000) -> HTTPFrontend:
        """Expose the router over HTTP (daemon thread; ``port=0`` binds
        an ephemeral port — read ``.url``)."""
        if self._http is None:
            self._http = HTTPFrontend(self, host=host, port=port,
                                      handler=_RouterHandler).start()
        return self._http

    def __repr__(self) -> str:
        with self._lock:
            states = {member.id: member.state
                      for member in self._members.values()}
            draining = self._draining
        return f"Router(members={states}, draining={draining})"


class _RouterHandler(JSONHandler):
    """Relay handler: model paths are forwarded to a replica and the
    answer relayed byte-for-byte; the base class answers the
    router-owned paths from the router itself."""

    server_version = "repro-router"

    def route_get(self) -> None:
        if self.path == "/v1/model":
            self._relay(b"", "GET")
        else:
            self.not_found()

    def route_post(self, body: bytes) -> None:
        self._relay(body, "POST")

    def _relay(self, body: bytes, method: str) -> None:
        status, headers, payload = self.app.forward(
            self.path, body,
            {name: self.headers[name] for name in _FORWARD_HEADERS
             if self.headers.get(name)},
            method=method)
        self.send_body(status, payload, headers)
