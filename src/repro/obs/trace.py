"""Chrome-trace-event span tracing for campaigns.

A :class:`Tracer` records where campaign wall clock goes as *spans*
in the Chrome trace event format (the JSON ``traceEvents`` array that
``chrome://tracing`` and Perfetto load directly): complete events
(``"ph": "X"``) carrying microsecond start/duration, a
``pid``/``tid`` track, and an ``args`` attribute bag.

Span taxonomy (nesting by temporal containment within a track)::

    campaign                      the whole run (serial parent)
      golden-run                  reference execution
      experiment                  one injection point
        client-session            BreakpointSession build (prefix run)
        injection                 flip + run-to-completion
    shard                         one worker's slice (tid = shard+1)
      ...same children...
    watchdog-probe                post-budget tight-loop probe

With a ``sink`` path the tracer keeps every event and
:meth:`close` writes the file; with no sink it degrades to a bounded
in-memory ring (the newest :data:`TRACE_RING_EVENTS` events) that
library users can inspect programmatically, so always-on tracing
cannot grow without bound.

Timestamps come from ``time.monotonic_ns()``, which on Linux is
shared across forked worker processes, so worker spans land on the
same timeline as the parent's.  The fleet ships each work unit's
events back to the parent, which appends them to its own in unit
order and writes one file (:func:`write_trace_file`).
"""

from __future__ import annotations

import json
import time

from .log import warn_once
from .ring import RingBuffer

#: in-memory mode keeps this many most-recent events.
TRACE_RING_EVENTS = 4096


def _now_us():
    return time.monotonic_ns() // 1000


class Span:
    """Handle yielded by :meth:`Tracer.span`; attributes set on it
    (outcome, instret, ...) become the event's ``args``."""

    __slots__ = ("args",)

    def __init__(self, args):
        self.args = args

    def set(self, key, value):
        self.args[key] = value


class _SpanContext:
    __slots__ = ("_tracer", "_name", "_cat", "_span", "_start")

    def __init__(self, tracer, name, cat, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._span = Span(args)
        self._start = None

    def __enter__(self):
        self._start = self._tracer._clock()
        return self._span

    def __exit__(self, exc_type, exc, tb):
        tracer = self._tracer
        end = tracer._clock()
        tracer._emit({
            "name": self._name,
            "cat": self._cat,
            "ph": "X",
            "ts": self._start,
            "dur": max(0, end - self._start),
            "pid": tracer.pid,
            "tid": tracer.tid,
            "args": self._span.args,
        })
        return False


class Tracer:
    """Span recorder for one process (campaign parent or shard worker).

    ``sink`` is the JSON file :meth:`close` writes (``None`` = bounded
    in-memory ring only).  ``tid`` labels the track: 0 for the serial
    runner / parallel parent, ``shard + 1`` for workers.  ``clock`` is
    injectable for tests (defaults to monotonic microseconds).
    """

    def __init__(self, sink=None, pid=1, tid=0,
                 ring_capacity=TRACE_RING_EVENTS, clock=None):
        self.sink = str(sink) if sink is not None else None
        self.pid = pid
        self.tid = tid
        self._clock = clock if clock is not None else _now_us
        self._events = ([] if self.sink is not None
                        else RingBuffer(ring_capacity))
        self._ring = (self._events if self.sink is None else None)
        #: spans the in-memory ring silently evicted (sink mode never
        #: drops).  Folded into the ``trace.spans_dropped`` volatile
        #: metric at campaign finalize; the first drop warns once so
        #: a truncated ring is never mistaken for a complete trace.
        self.spans_dropped = 0

    def span(self, name, cat="campaign", **attrs):
        """Context manager timing one span; yields a :class:`Span`
        whose :meth:`~Span.set` adds attributes mid-flight."""
        return _SpanContext(self, name, cat, dict(attrs))

    def instant(self, name, cat="campaign", **attrs):
        """Zero-duration marker event."""
        self._emit({"name": name, "cat": cat, "ph": "i",
                    "ts": self._clock(), "pid": self.pid,
                    "tid": self.tid, "s": "t", "args": dict(attrs)})

    def _emit(self, event):
        ring = self._ring
        if (ring is not None and ring.capacity is not None
                and len(ring) == ring.capacity):
            self.spans_dropped += 1
            if self.spans_dropped == 1:
                warn_once(
                    "trace-ring-drop",
                    "in-memory span ring full (capacity %d): oldest "
                    "spans are being dropped; pass a trace sink path "
                    "to keep them all", ring.capacity)
        self._events.append(event)

    def events(self):
        """Recorded events, oldest first."""
        if isinstance(self._events, RingBuffer):
            return self._events.snapshot()
        return list(self._events)

    def save(self, path=None):
        """Write the Chrome trace JSON object to *path* (default: the
        sink given at construction)."""
        target = path if path is not None else self.sink
        if target is None:
            raise ValueError("tracer has no sink; pass a path")
        write_trace_file(target, self.events())

    def close(self):
        """Flush to the sink, if one was given.  Idempotent."""
        if self.sink is not None:
            self.save(self.sink)


class _NullSpan:
    __slots__ = ()

    def set(self, key, value):
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb):
        return False


class NullTracer:
    """No-op tracer: call sites thread spans unconditionally and pay
    one attribute lookup when tracing is off."""

    sink = None
    pid = 1
    tid = 0
    spans_dropped = 0

    def span(self, name, cat="campaign", **attrs):
        return _NULL_SPAN_CONTEXT

    def instant(self, name, cat="campaign", **attrs):
        pass

    def events(self):
        return []

    def save(self, path=None):
        pass

    def close(self):
        pass


_NULL_SPAN = _NullSpan()
_NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()


def as_tracer(trace, tid=0):
    """Coerce a user-facing ``trace`` argument -- ``None``, a sink
    path, or a :class:`Tracer` -- into a tracer object."""
    if trace is None:
        return NULL_TRACER
    if isinstance(trace, (Tracer, NullTracer)):
        return trace
    return Tracer(sink=trace, tid=tid)


def write_trace_file(path, events):
    """Write *events* as a Chrome trace JSON object."""
    with open(path, "w") as handle:
        json.dump({"traceEvents": list(events),
                   "displayTimeUnit": "ms"}, handle)
        handle.write("\n")


def load_trace_file(path):
    """Events of a file written by :func:`write_trace_file` (the bare
    ``[...]`` array form is accepted too)."""
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        return payload
    return payload["traceEvents"]
