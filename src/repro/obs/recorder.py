"""Event recorders: the live half of the observability plane.

Three implementations share one duck type (``enabled``, ``event``, ``span``):

* :class:`TraceRecorder` — appends :class:`~repro.obs.events.Event` records,
  clocked on the simulated clock it was built with;
* :class:`MetricsRecorder` — counts at the seams the ``obs_*`` series
  :func:`~repro.obs.metrics.registry_from_events` would derive from that
  trace, and keeps no event log;
* :class:`NullRecorder` — the permanently-off recorder installed on every
  :class:`~repro.fabric.Internet` by default.  Instrumented hot paths guard
  with ``if obs.enabled:`` so a disabled run pays one attribute read and a
  branch per seam — near-zero overhead.

Span ids are recorder-local sequential integers; nesting is tracked with an
explicit stack, so a span's ``end`` event knows its id and every event
emitted inside a span records the innermost open span as its ``parent``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.obs.events import KIND_BEGIN, KIND_END, KIND_INSTANT, Event, freeze_attrs
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    OBS_EVENTS_HELP,
    OBS_FAULTS_HELP,
    OBS_SPANS_HELP,
    MetricsRegistry,
    bucket_slot,
    registry_from_events,
)


class _NullSpan:
    """The shared no-op context manager :meth:`NullRecorder.span` returns."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """A recorder that records nothing; safe to share between worlds."""

    __slots__ = ()

    enabled = False

    @property
    def events(self) -> tuple[Event, ...]:
        """Always empty."""
        return ()

    def event(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Discard the event."""

    def span(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> _NullSpan:
        """A shared no-op context manager."""
        return _NULL_SPAN


#: The process-wide off switch: every Internet starts with this recorder.
NULL_RECORDER = NullRecorder()


class _Span:
    """Context manager that brackets a span with begin/end events."""

    __slots__ = ("_recorder", "_id", "name", "actor", "target", "detail")

    def __init__(
        self, recorder: "TraceRecorder", span_id: int,
        name: str, actor: str, target: str, detail: str,
    ) -> None:
        self._recorder = recorder
        self._id = span_id
        self.name = name
        self.actor = actor
        self.target = target
        self.detail = detail

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # The end event names the exception class when the span is unwound by
        # one — exceptions are normal control flow here (DNS failures, fault
        # injections), and which one fired is part of the deterministic story.
        attrs = {"error": exc_type.__name__} if exc_type is not None else None
        self._recorder._end_span(self._id, self.name, self.actor, self.target, self.detail, attrs)


class TraceRecorder:
    """An in-memory event bus clocked on simulated time.

    ``clock`` is anything with a ``now`` attribute in simulated seconds —
    normally the world's :class:`~repro.net.clock.SimClock`.
    """

    __slots__ = ("_clock", "_events", "_seq", "_next_span", "_stack")

    enabled = True

    def __init__(self, clock) -> None:
        self._clock = clock
        self._events: list[Event] = []
        self._seq = 0
        self._next_span = 0
        self._stack: list[int] = []

    @property
    def events(self) -> tuple[Event, ...]:
        """Everything recorded so far, in emission order."""
        return tuple(self._events)

    def write_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Add the ``obs_*`` series derived from the recorded events."""
        return registry_from_events(self._events, registry)

    def clear(self) -> None:
        """Drop all events and reset counters (open spans are abandoned)."""
        self._events.clear()
        self._seq = 0
        self._next_span = 0
        self._stack.clear()

    def _emit(
        self,
        name: str,
        kind: str,
        span: int,
        parent: int,
        actor: str,
        target: str,
        detail: str,
        attrs: Optional[Mapping[str, object]],
    ) -> Event:
        event = Event(
            ts=self._clock.now,
            seq=self._seq,
            name=name,
            kind=kind,
            span=span,
            parent=parent,
            actor=actor,
            target=target,
            detail=detail,
            attrs=freeze_attrs(attrs),
        )
        self._seq += 1
        self._events.append(event)
        return event

    def event(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> Event:
        """Record an instant event inside the innermost open span (if any)."""
        parent = self._stack[-1] if self._stack else 0
        return self._emit(name, KIND_INSTANT, 0, parent, actor, target, detail, attrs)

    def span(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> _Span:
        """Open a span: emits ``begin`` now and ``end`` when the context exits."""
        parent = self._stack[-1] if self._stack else 0
        self._next_span += 1
        span_id = self._next_span
        self._emit(name, KIND_BEGIN, span_id, parent, actor, target, detail, attrs)
        self._stack.append(span_id)
        return _Span(self, span_id, name, actor, target, detail)

    def _end_span(
        self,
        span_id: int,
        name: str,
        actor: str,
        target: str,
        detail: str,
        attrs: Optional[Mapping[str, object]],
    ) -> None:
        # Close any spans opened inside and never exited (an exception can
        # skip inner __exit__ only if the inner span was not a context
        # manager; popping to our id keeps the stack consistent regardless).
        while self._stack and self._stack[-1] != span_id:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        parent = self._stack[-1] if self._stack else 0
        self._emit(name, KIND_END, span_id, parent, actor, target, detail, attrs)


class _MetricsSpan:
    """Context manager that counts a span's end and records its duration."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "MetricsRecorder", name: str, start: float) -> None:
        self._recorder = recorder
        self._name = name
        self._start = start

    def __enter__(self) -> "_MetricsSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._recorder._end_span(self._name, self._start)


class MetricsRecorder:
    """Counts the ``obs_*`` series at the seams, building no :class:`Event`.

    What :meth:`write_metrics` adds is byte-identical to
    :func:`~repro.obs.metrics.registry_from_events` over the trace a
    :class:`TraceRecorder` on the same clock would have recorded: a span
    counts once when opened and once when closed (its begin and end
    events), and each span's duration is added to its histogram sample when
    the span closes, so every float sum is taken in the trace's order.
    """

    __slots__ = ("_clock", "_counts", "_faults", "_spans")

    enabled = True

    def __init__(self, clock) -> None:
        self._clock = clock
        #: Events by name.
        self._counts: dict[str, int] = {}
        #: ``fault.injected`` events by ``kind`` attribute.
        self._faults: dict[str, int] = {}
        #: Span name -> ``obs_span_seconds`` sample, in the registry's
        #: ``[per-bucket counts..., overflow, count, sum]`` layout.
        self._spans: dict[str, list] = {}

    def _count(self, name: str, attrs: Optional[Mapping[str, object]]) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1
        if name == "fault.injected":
            # What ``Event.attr("kind") or "unknown"`` reads off the frozen
            # (stringified) attributes.
            kind = (str(attrs["kind"]) if attrs and "kind" in attrs else "") or "unknown"
            self._faults[kind] = self._faults.get(kind, 0) + 1

    def event(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Count an instant event."""
        self._count(name, attrs)

    def span(
        self,
        name: str,
        actor: str = "",
        target: str = "",
        detail: str = "",
        attrs: Optional[Mapping[str, object]] = None,
    ) -> _MetricsSpan:
        """Count a span's opening; its close is counted when the context exits."""
        self._count(name, attrs)
        return _MetricsSpan(self, name, self._clock.now)

    def _end_span(self, name: str, start: float) -> None:
        # The end event carries only an ``error`` attribute, never a kind.
        self._count(name, None)
        duration = self._clock.now - start
        sample = self._spans.get(name)
        if sample is None:
            sample = [0] * (len(DEFAULT_BUCKETS) + 1) + [0, 0.0]
            self._spans[name] = sample
        sample[bucket_slot(DEFAULT_BUCKETS, duration)] += 1
        sample[-2] += 1
        sample[-1] = float(sample[-1]) + float(duration)

    def write_metrics(self, registry: MetricsRegistry) -> MetricsRegistry:
        """Add the counted ``obs_*`` series to ``registry``."""
        for name, count in self._counts.items():
            registry.counter("obs_events_total", count, help=OBS_EVENTS_HELP, name=name)
        for kind, count in self._faults.items():
            registry.counter("obs_faults_total", count, help=OBS_FAULTS_HELP, kind=kind)
        for name, sample in self._spans.items():
            registry.add_histogram_sample(
                "obs_span_seconds", sample, help=OBS_SPANS_HELP, name=name
            )
        return registry
