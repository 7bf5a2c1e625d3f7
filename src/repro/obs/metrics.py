"""A process-wide, thread-safe metrics registry (zero dependencies).

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — a monotonically increasing total (requests served,
  batches flushed, shard respawns).  ``inc()`` from any thread;
  :meth:`Counter.set_to` lets a *collector* mirror a count another
  object keeps (a replica's restarts) without ever moving backwards.
* :class:`Gauge` — a point-in-time value (queue depth, in-flight
  requests, per-shard state).  Usually set by a collector callback at
  scrape time rather than on every transition.
* :class:`Histogram` — cumulative buckets + sum + count (batch sizes,
  flush and request latencies).  Buckets are fixed at creation;
  ``observe()`` is lock-cheap enough for request hot paths.

Instruments support labels: ``counter.inc(kind="predict")`` creates the
``{kind="predict"}`` child on first use.  Registration is idempotent —
asking the registry for an existing name returns the existing instrument
(and raises if the kind or label names disagree), so independent
components can share one registry without coordination.

:meth:`MetricsRegistry.render` produces the Prometheus text exposition
format (``text/plain; version=0.0.4``) served by ``GET /metrics``;
:func:`parse_prometheus` is the matching reader (round-trip
test-enforced, and handy for scrape-side assertions in CI).

There is no process-wide default registry: every component owns a
private one (each :class:`~repro.serve.Server` shares its registry with
its pool, batcher and cache), so two deployments never double-count.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
]

#: Seconds-scale buckets for request/flush latencies (Prometheus-style).
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Power-of-two-ish buckets for batch sizes and queue depths.
DEFAULT_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256)

_RESERVED_LABELS = ("le",)


def _format_value(value: float) -> str:
    """Prometheus-flavored number formatting: integral values print
    without a trailing ``.0``, non-finite ones as +Inf/-Inf/NaN."""
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _label_suffix(names: Sequence[str], values: Sequence[Any],
                  extra: str = "") -> str:
    parts = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Instrument:
    """Shared plumbing: name, help, label names, per-child lock-guarded
    storage keyed by the label-value tuple."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()) -> None:
        if not name or not name.replace("_", "a").replace(":", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if label in _RESERVED_LABELS:
                raise ValueError(f"label name {label!r} is reserved")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def samples(self) -> List[Tuple[str, str, float]]:
        """``(name suffix, label suffix, value)`` triples to render."""
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def set_to(self, total: float, **labels: Any) -> None:
        """Mirror an external cumulative counter: moves the child up to
        ``total`` and never down (collector callbacks use this to adopt
        counts another object keeps, e.g. a replica set's restarts)."""
        key = self._key(labels)
        with self._lock:
            current = self._children.get(key, 0.0)
            if total > current:
                self._children[key] = float(total)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def total(self) -> float:
        """The sum over every label child."""
        with self._lock:
            return sum(self._children.values())

    def samples(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            children = sorted(self._children.items())
        return [("", _label_suffix(self.labelnames, key), value)
                for key, value in children]


class Gauge(_Instrument):
    """A point-in-time value that can go up and down."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return float(self._children.get(self._key(labels), 0.0))

    def clear(self) -> None:
        """Forget every child (collectors that re-enumerate a dynamic
        label set — e.g. per-shard states — clear before re-setting so
        stale children don't linger)."""
        with self._lock:
            self._children.clear()

    def samples(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            children = sorted(self._children.items())
        return [("", _label_suffix(self.labelnames, key), value)
                for key, value in children]


class _HistogramChild:
    __slots__ = ("counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per-bucket (non-cumulative)
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Cumulative buckets + ``_sum`` + ``_count`` (Prometheus shape)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        super().__init__(name, help, labelnames)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        if any(b != b or math.isinf(b) for b in bounds):
            raise ValueError("bucket bounds must be finite (+Inf is "
                             "implicit)")
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels: Any) -> None:
        value = float(value)
        key = self._key(labels)
        # Index of the first bucket the value fits in; len(buckets)
        # means "only the implicit +Inf bucket".
        index = 0
        for index, bound in enumerate(self.buckets):  # noqa: B007
            if value <= bound:
                break
        else:
            index = len(self.buckets)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(
                    len(self.buckets) + 1
                )
            child.counts[index] += 1
            child.total += value
            child.count += 1

    def snapshot(self, **labels: Any) -> Dict[str, Any]:
        """``{"count", "sum", "buckets": {le: cumulative}}`` for one
        child (testing / stats introspection)."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                return {"count": 0, "sum": 0.0, "buckets": {}}
            counts = list(child.counts)
            total, count = child.total, child.count
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, n in zip(self.buckets, counts):
            running += n
            cumulative[_format_value(bound)] = running
        cumulative["+Inf"] = running + counts[-1]
        return {"count": count, "sum": total, "buckets": cumulative}

    def samples(self) -> List[Tuple[str, str, float]]:
        with self._lock:
            children = [(key, list(child.counts), child.total, child.count)
                        for key, child in sorted(self._children.items())]
        out: List[Tuple[str, str, float]] = []
        for key, counts, total, count in children:
            running = 0
            for bound, n in zip(self.buckets, counts):
                running += n
                out.append((
                    "_bucket",
                    _label_suffix(self.labelnames, key,
                                  extra=f'le="{_format_value(bound)}"'),
                    running,
                ))
            out.append(("_bucket",
                        _label_suffix(self.labelnames, key,
                                      extra='le="+Inf"'),
                        count))
            out.append(("_sum", _label_suffix(self.labelnames, key), total))
            out.append(("_count", _label_suffix(self.labelnames, key),
                        count))
        return out


#: The scrape content type the exposition format is served under.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsRegistry:
    """A named set of instruments plus collector callbacks.

    Collectors run at the top of every :meth:`render` / :meth:`as_dict`
    so point-in-time gauges (queue depth, shard states) reflect *now*
    without the owning component paying for an update on every
    transition.  A collector that raises is dropped from that scrape
    only — observability must never take the instrumented system down.
    """

    content_type = CONTENT_TYPE

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}
        self._collectors: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Registration (idempotent by name)
    # ------------------------------------------------------------------
    def _register(self, cls, name: str, help: str,
                  labelnames: Sequence[str], **kwargs) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) \
                        or existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind} with labels "
                        f"{existing.labelnames}"
                    )
                return existing
            instrument = cls(name, help, labelnames, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                  ) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              buckets=buckets)

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Register a callback run before every scrape (gauge refresh)."""
        with self._lock:
            self._collectors.append(collect)

    # ------------------------------------------------------------------
    # Scraping
    # ------------------------------------------------------------------
    def _run_collectors(self) -> None:
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            try:
                collect()
            except Exception:  # noqa: BLE001 — scrape must survive
                pass

    def render(self) -> str:
        """The Prometheus text exposition format (``GET /metrics``)."""
        self._run_collectors()
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: List[str] = []
        for name, instrument in instruments:
            if instrument.help:
                lines.append(f"# HELP {name} {instrument.help}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for suffix, labels, value in instrument.samples():
                lines.append(
                    f"{name}{suffix}{labels} {_format_value(value)}"
                )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict[str, float]:
        """A flat ``{sample-id: value}`` snapshot (stats payloads,
        tests).  Sample ids look exactly like exposition lines minus the
        value: ``repro_requests_total{kind="predict"}``."""
        self._run_collectors()
        with self._lock:
            instruments = sorted(self._instruments.items())
        flat: Dict[str, float] = {}
        for name, instrument in instruments:
            for suffix, labels, value in instrument.samples():
                flat[f"{name}{suffix}{labels}"] = value
        return flat

    def counter_totals(self) -> Dict[str, float]:
        """``{name: Counter.total()}`` for every registered counter,
        after running the collectors."""
        self._run_collectors()
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {name: instrument.total()
                for name, instrument in instruments
                if isinstance(instrument, Counter)}


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse the text exposition format back into
    ``{metric name: {"type": ..., "help": ..., "samples": {id: value}}}``.

    The inverse of :meth:`MetricsRegistry.render` for everything the
    renderer emits (render -> parse round trip is test-enforced); also
    the scrape-side assertion helper CI uses against ``GET /metrics``.
    """
    metrics: Dict[str, Dict[str, Any]] = {}

    def entry(name: str) -> Dict[str, Any]:
        return metrics.setdefault(
            name, {"type": "untyped", "help": "", "samples": {}}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            entry(name)["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            entry(name)["type"] = kind.strip()
            continue
        if line.startswith("#"):
            continue
        # A sample line: name{labels} value  (labels optional).
        brace = line.find("{")
        if brace != -1:
            close = line.rfind("}")
            if close == -1:
                raise ValueError(f"unbalanced labels in line {line!r}")
            sample_id = line[:close + 1]
            value_text = line[close + 1:].strip().split()[0]
            base = line[:brace]
        else:
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed sample line {line!r}")
            sample_id, value_text = parts[0], parts[1]
            base = sample_id
        for suffix in ("_bucket", "_sum", "_count"):
            root = base[:-len(suffix)] if base.endswith(suffix) else None
            if root is not None and metrics.get(root, {}).get("type") \
                    == "histogram":
                base = root
                break
        entry(base)["samples"][sample_id] = float(value_text)
    return metrics
