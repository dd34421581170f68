"""Structured tracing for the partitioning pipeline.

Three primitives, all dependency-free:

* **spans** -- nested, named stage timings (``time.perf_counter``);
* **counters / gauges** -- typed numeric metrics (cliques found, merge
  states explored, cache hits, ...), accumulated both per-span and
  trace-wide;
* **progress events** -- a callback stream for long searches, so a UI or
  log can follow candidate-set iteration without polling.

The base :class:`Tracer` is a no-op: every instrumented entry point in
:mod:`repro.core` defaults to :data:`NULL_TRACER`, so uninstrumented
runs pay only a handful of no-op method calls per *stage* (never per
inner-loop iteration -- hot loops batch their totals into one ``count``
call at stage exit).  :class:`RecordingTracer` records everything and
serialises to the JSON trace schema documented in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from .metrics import Histogram, merge_histogram_maps

#: Embedded in every serialised trace; bumped on schema changes.
#: Version 2 added the optional ``histograms`` block; version-1 traces
#: (no histograms) still load.
TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 2
_READABLE_VERSIONS = (1, 2)


class TraceError(ValueError):
    """Raised for malformed or incompatible serialised traces."""


@dataclass(frozen=True)
class ProgressEvent:
    """One progress tick emitted by a long-running search."""

    name: str
    payload: Mapping[str, Any]


class _NullSpan:
    """Context manager returned by the no-op tracer's :meth:`Tracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes after entry -- ignored on the null span."""


NULL_SPAN = _NullSpan()


class Tracer:
    """No-op tracer: the default on every instrumented entry point.

    Instrumented code calls the tracer unconditionally; subclasses decide
    whether anything is recorded.  ``enabled`` lets per-iteration emitters
    (progress events inside restart loops) skip even the no-op call.
    """

    enabled: bool = False

    def span(self, name: str, **attrs: Any) -> Any:
        """A context manager timing one named stage."""
        return NULL_SPAN

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the named counter."""

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to its latest value."""

    def observe(
        self, name: str, value: float, bounds: Iterable[float] | None = None
    ) -> None:
        """Record one sample into the named histogram."""

    def observe_many(
        self, name: str, values: Iterable[float], bounds: Iterable[float] | None = None
    ) -> None:
        """Record a batch of samples into the named histogram, in order."""

    def progress(self, name: str, **payload: Any) -> None:
        """Emit one progress event to registered callbacks."""

    def on_progress(self, callback: Callable[[ProgressEvent], None]) -> None:
        """Register a progress callback -- ignored by the no-op tracer."""

    def now(self) -> float:
        """Seconds since the tracer's epoch (0.0 on the no-op tracer)."""
        return 0.0


#: Shared no-op instance; instrumented code does ``tracer or NULL_TRACER``.
NULL_TRACER = Tracer()


@dataclass
class Span:
    """One recorded stage: timing, attributes, metrics, children.

    ``start_s`` is relative to the owning trace's epoch;``duration_s`` is
    ``None`` while the span is still open.  ``counters``/``gauges`` hold
    the metrics emitted while this span was innermost.
    """

    name: str
    start_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    duration_s: float | None = None
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes discovered after the span opened."""
        self.attrs.update(attrs)

    def walk(self, path: tuple[str, ...] = ()) -> Iterator[tuple[tuple[str, ...], "Span"]]:
        """Depth-first (path, span) pairs, self included."""
        here = path + (self.name,)
        yield here, self
        for child in self.children:
            yield from child.walk(here)

    def find(self, name: str) -> list["Span"]:
        """All descendant spans (self included) with the given name."""
        return [s for _, s in self.walk() if s.name == name]

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"name": self.name, "start_s": self.start_s}
        if self.duration_s is not None:
            doc["duration_s"] = self.duration_s
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.counters:
            doc["counters"] = dict(self.counters)
        if self.gauges:
            doc["gauges"] = dict(self.gauges)
        if self.children:
            doc["children"] = [c.to_dict() for c in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Span":
        if "name" not in doc or "start_s" not in doc:
            raise TraceError(f"span missing name/start_s: {sorted(doc)}")
        return cls(
            name=str(doc["name"]),
            start_s=float(doc["start_s"]),
            attrs=dict(doc.get("attrs", {})),
            duration_s=doc.get("duration_s"),
            counters=dict(doc.get("counters", {})),
            gauges=dict(doc.get("gauges", {})),
            children=[cls.from_dict(c) for c in doc.get("children", [])],
        )


@dataclass
class Trace:
    """A completed (or snapshot) trace: root spans plus trace-wide metrics."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    events: int = 0

    @property
    def total_duration_s(self) -> float:
        return sum(s.duration_s or 0.0 for s in self.spans)

    def walk(self) -> Iterator[tuple[tuple[str, ...], Span]]:
        for root in self.spans:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        return [s for _, s in self.walk() if s.name == name]

    def span_names(self) -> set[str]:
        return {s.name for _, s in self.walk()}

    def to_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "events": self.events,
            "spans": [s.to_dict() for s in self.spans],
        }
        if self.histograms:
            doc["histograms"] = {
                name: h.to_dict() for name, h in self.histograms.items()
            }
        return doc

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def trace_from_dict(doc: Mapping[str, Any]) -> Trace:
    """Rebuild a :class:`Trace` from its :meth:`Trace.to_dict` form."""
    if doc.get("format") != TRACE_FORMAT:
        raise TraceError("not a repro trace document")
    if doc.get("version") not in _READABLE_VERSIONS:
        raise TraceError(f"unsupported trace version {doc.get('version')!r}")
    try:
        histograms = {
            name: Histogram.from_dict(h)
            for name, h in doc.get("histograms", {}).items()
        }
    except ValueError as exc:
        raise TraceError(f"invalid histogram block: {exc}") from exc
    return Trace(
        spans=[Span.from_dict(s) for s in doc.get("spans", [])],
        counters=dict(doc.get("counters", {})),
        gauges=dict(doc.get("gauges", {})),
        histograms=histograms,
        events=int(doc.get("events", 0)),
    )


def trace_from_json(text: str) -> Trace:
    """Reload a trace saved with :meth:`Trace.to_json`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid JSON: {exc}") from exc
    return trace_from_dict(doc)


def _shift_span(span: Span, offset: float) -> None:
    """Move a span subtree onto a new time base (recursively)."""
    span.start_s += offset
    for child in span.children:
        _shift_span(child, offset)


class _RecordingSpan:
    """Context manager opening/closing one :class:`Span` on a tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "RecordingTracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._open(self._name, self._attrs)
        return self._span

    def __exit__(self, *exc: object) -> bool:
        assert self._span is not None
        self._tracer._close(self._span)
        return False


class RecordingTracer(Tracer):
    """Records spans, metrics and progress events for one pipeline run.

    Metrics land on the innermost open span *and* on the trace-wide
    totals; spans opened with no parent become trace roots (a device
    escalation produces several root ``partition`` spans).  Progress
    events are retained in a **ring buffer** of ``max_events`` (the
    stream keeps flowing to callbacks; only retention is capped, and the
    buffer keeps the *newest* events) so unbounded searches cannot
    exhaust memory -- each overwrite bumps ``events_dropped`` and the
    ``obs.events_dropped`` counter.
    """

    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_events: int = 10_000,
    ) -> None:
        self._clock = clock
        self._epoch = clock()
        self._stack: list[Span] = []
        self._callbacks: list[Callable[[ProgressEvent], None]] = []
        self.max_events = max_events
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.events: deque[ProgressEvent] = deque(maxlen=max_events)
        self.events_dropped = 0

    # -- span lifecycle -------------------------------------------------
    def _open(self, name: str, attrs: dict[str, Any]) -> Span:
        span = Span(name=name, start_s=self._clock() - self._epoch, attrs=attrs)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise TraceError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        span.duration_s = (self._clock() - self._epoch) - span.start_s

    def span(self, name: str, **attrs: Any) -> _RecordingSpan:
        return _RecordingSpan(self, name, attrs)

    @property
    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    # -- metrics ---------------------------------------------------------
    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        if self._stack:
            bucket = self._stack[-1].counters
            bucket[name] = bucket.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value
        if self._stack:
            self._stack[-1].gauges[name] = value

    def observe(
        self, name: str, value: float, bounds: Iterable[float] | None = None
    ) -> None:
        """Record one sample into the named trace-wide histogram.

        ``bounds`` customises the bucket layout on *first* observation of
        a name; later calls reuse the existing layout.  Histograms are
        trace-wide only -- per-span distribution tracking would bloat
        every span for data the report never slices that way.
        """
        self._histogram(name, bounds).observe(value)

    def observe_many(
        self, name: str, values: Iterable[float], bounds: Iterable[float] | None = None
    ) -> None:
        """Record a batch of samples -- identical to one :meth:`observe`
        per value, so hot loops can collect locally and emit once."""
        self._histogram(name, bounds).observe_many(values)

    def _histogram(self, name: str, bounds: Iterable[float] | None) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = (
                Histogram() if bounds is None else Histogram(bounds)
            )
        return histogram

    # -- progress stream -------------------------------------------------
    def on_progress(self, callback: Callable[[ProgressEvent], None]) -> None:
        self._callbacks.append(callback)

    def progress(self, name: str, **payload: Any) -> None:
        event = ProgressEvent(name=name, payload=payload)
        if len(self.events) == self.max_events:
            # The ring is full: appending evicts the oldest retained
            # event.  Count the loss so long runs stay honest about it.
            self.events_dropped += 1
            self.count("obs.events_dropped")
        self.events.append(event)
        for callback in self._callbacks:
            callback(event)

    # -- cross-process adoption -------------------------------------------
    def now(self) -> float:
        """Seconds since this tracer's epoch (the span time base)."""
        return self._clock() - self._epoch

    def adopt_trace(
        self,
        trace: "Trace | Mapping[str, Any]",
        name: str = "job",
        start_s: float | None = None,
        **attrs: Any,
    ) -> Span:
        """Re-root another tracer's completed trace under this one.

        The workhorse of cross-process telemetry: a supervised worker
        records its run on a private :class:`RecordingTracer`, ships
        ``tracer.trace().to_dict()`` back over the result channel, and
        the parent adopts it here so ``render_trace_summary`` shows one
        coherent tree for the whole batch.

        A synthetic span ``name`` (carrying ``attrs``) is appended under
        the currently open span (or as a root), its children are the
        adopted trace's root spans shifted onto this tracer's time base
        (``start_s`` -- when the worker actually started, default now;
        relative order and nesting inside the adopted trace are
        preserved exactly), and its duration is the adopted spans' total
        extent.  Counters and histograms merge associatively into the
        trace-wide totals; gauges are last-write-wins; the worker's
        event *count* folds into ``obs.worker_events``.
        """
        if isinstance(trace, Mapping):
            trace = trace_from_dict(trace)
        if start_s is None:
            start_s = self.now()
        span = self._open(name, dict(attrs))
        span.start_s = start_s
        extent = 0.0
        for root in trace.spans:
            _shift_span(root, start_s)
            span.children.append(root)
            extent = max(extent, root.start_s + (root.duration_s or 0.0)
                         - start_s)
        span.counters = dict(trace.counters)
        span.gauges = dict(trace.gauges)
        self._stack.pop()
        span.duration_s = extent
        for key, value in trace.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        self.gauges.update(trace.gauges)
        merge_histogram_maps(self.histograms, trace.histograms)
        if trace.events:
            self.count("obs.worker_events", trace.events)
        return span

    # -- snapshot ---------------------------------------------------------
    def trace(self) -> Trace:
        """Snapshot the recorded data as an immutable-ish :class:`Trace`."""
        return Trace(
            spans=list(self.spans),
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={
                name: Histogram.from_dict(h.to_dict())
                for name, h in self.histograms.items()
            },
            events=len(self.events) + self.events_dropped,
        )

    def to_json(self, indent: int | None = 1) -> str:
        return self.trace().to_json(indent=indent)
