"""Outside-in span recorder for the benchmark's traced run.

The program itself carries no tracing.  :class:`Tracer` wraps the public
functions and methods of each layer *from the outside* (module attributes
and class attributes are swapped for timing wrappers while a
:meth:`Tracer.installed` block is active) and records one span per call:
name, start, end, parent and thread.  Spans stay in memory until the run
ends; :meth:`Tracer.summary` then folds them into per-name self time
(span time minus the part of it that child spans cover) and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: int = 0
    #: Counted quantities attached by the probe (bytes moved, samples).
    counts: Dict[str, float] = field(default_factory=dict)


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


class Tracer:
    """In-memory span recorder plus the probes that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span called ``name`` around the block."""
        stack = self._stack()
        record = Span(name, time.perf_counter(),
                      parent=stack[-1] if stack else -1,
                      thread=threading.get_ident())
        self.spans.append(record)
        stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    # -- probes -----------------------------------------------------------

    def _wrap(self, fn: Callable, name: Callable[..., str],
              count: Optional[Callable[..., Dict[str, float]]]) -> Callable:
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            with self.span(name(*args)) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.counts = count(args, kwargs, result)
                return result
        return probe

    def wrap_function(self, module_name: str, attr: str, name: str,
                      count=None) -> None:
        """Wrap a module-level function everywhere the package imported
        it by name (``from .evaluation import accuracy`` binds a second
        reference that patching the home module alone would miss)."""
        home = sys.modules[module_name]
        original = getattr(home, attr)
        probe = self._wrap(original, lambda *a: name, count)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original, True))
                    setattr(module, key, probe)

    def wrap_method(self, cls: type, attr: str, name, count=None) -> None:
        """Wrap ``cls.attr``; ``name`` is a string or a function of the
        call's positional arguments (``self`` first)."""
        owned = attr in vars(cls)
        original = getattr(cls, attr)
        namer = name if callable(name) else (lambda *a: name)
        self._patches.append((cls, attr, original, owned))
        setattr(cls, attr, self._wrap(original, namer, count))

    def uninstall(self) -> None:
        for target, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(target, attr, original)
            else:
                delattr(target, attr)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]) -> Iterator[None]:
        """Install the probes ``install`` registers for the duration of
        the block."""
        install(self)
        try:
            yield
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` (outermost spans of that name),
        ``total_s``, ``self_s`` and summed ``counts``."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent >= 0:
                children.setdefault(span.parent, []).append(
                    (span.start, span.end))
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0,
                                               "self_s": 0.0})
            duration = span.end - span.start
            covered = _union_length(children.get(index, []))
            entry["self_s"] += duration - covered
            nested = (span.parent >= 0
                      and self.spans[span.parent].name == span.name)
            if not nested:
                entry["calls"] += 1
                entry["total_s"] += duration
                for key, value in span.counts.items():
                    entry[key] = entry.get(key, 0.0) + value
        return out

    def covered_s(self, start: float, end: float) -> float:
        """Wall time inside ``[start, end]`` that at least one span covers."""
        return _union_length([(max(s.start, start), min(s.end, end))
                              for s in self.spans
                              if s.end > start and s.start < end])

    def dump(self) -> List[Dict[str, Any]]:
        return [asdict(span) for span in self.spans]
