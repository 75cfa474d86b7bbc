"""Chrome-trace-event span tracing for campaigns.

A :class:`Tracer` records where campaign wall clock goes as *spans*
in the Chrome trace event format (the JSON ``traceEvents`` array that
``chrome://tracing`` and Perfetto load directly): complete events
(``"ph": "X"``) carrying microsecond start/duration, a
``pid``/``tid`` track, and an ``args`` attribute bag.

Span taxonomy (nesting by temporal containment within a track)::

    campaign                      the whole run (serial or fleet parent)
      golden-run                  reference execution
      experiment                  one injection point
        client-session            BreakpointSession build (prefix run)
        injection                 flip + run-to-completion
          restore                 snapshot restore before the flip
      merge                       fleet parent: fold unit payloads
    shard                         one worker's unit (tid = shard+1)
      ...same children...
    watchdog-probe                post-budget tight-loop probe

Instants (``cat`` ``milestone``) mirror the event-bus milestones
(:func:`repro.obs.events.emit_milestone`) on the parent track.  Each
span also adds its duration to a per-name total, and the profile's
host seconds (:data:`HOST_PHASES`) are those totals: one clock.  A
``--profile`` run without ``--trace`` keeps only the totals.

Timestamps come from ``time.monotonic_ns()``, which on Linux is
shared across forked worker processes, so worker spans land on the
same timeline as the parent's.  The fleet ships each work unit's
events back to the parent, which folds them into its own tracer in
unit order and writes one file.
"""

from __future__ import annotations

import json
import time

#: span names whose totals become the profile's ``host_seconds``.
HOST_PHASES = ("experiment", "golden-run", "merge", "restore")


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

    ``sink`` is the JSON file :meth:`close` writes.  ``keep_spans``
    (forced on by a sink) keeps every event for :meth:`events`; off,
    only :attr:`totals_us` grows.  ``tid`` labels the track: 0 for the
    serial runner / fleet parent, ``shard + 1`` for workers.
    ``clock`` is injectable for tests (defaults to monotonic
    microseconds).
    """

    def __init__(self, sink=None, pid=1, tid=0, keep_spans=True,
                 clock=None):
        self.sink = str(sink) if sink is not None else None
        self.pid = pid
        self.tid = tid
        self._clock = clock if clock is not None else _now_us
        self.keep_spans = keep_spans or self.sink is not None
        self._events = [] if self.keep_spans else None
        #: span name -> summed duration in microseconds.
        self.totals_us = {}

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
        duration = event.get("dur")
        if duration is not None:
            name = event["name"]
            self.totals_us[name] = self.totals_us.get(name, 0) + duration
        if self._events is not None:
            self._events.append(event)

    def absorb(self, events):
        """Fold another tracer's events (a fleet unit's, shipped home)
        into the totals, and into the kept events when kept."""
        for event in events:
            self._emit(event)

    def host_seconds(self):
        """The :data:`HOST_PHASES` totals, in seconds."""
        totals = self.totals_us
        return {name: totals[name] / 1e6 for name in HOST_PHASES
                if name in totals}

    def events(self):
        """Recorded events, oldest first."""
        return list(self._events or ())

    def save(self, path=None):
        """Write the Chrome trace JSON object to *path* (default: the
        sink given at construction)."""
        target = path if path is not None else self.sink
        if target is None:
            raise ValueError("tracer has no sink; pass a path")
        with open(target, "w") as handle:
            json.dump({"traceEvents": self.events(),
                       "displayTimeUnit": "ms"}, handle)
            handle.write("\n")

    def close(self):
        """Flush to the sink, if one was given.  Idempotent."""
        if self.sink is not None:
            self.save(self.sink)


class _NullSpan:
    """The no-op tracer's span context and span handle in one."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, key, value):
        pass


class NullTracer(Tracer):
    """No-op tracer: call sites thread spans unconditionally and pay
    one method call when tracing is off."""

    def __init__(self):
        super().__init__(keep_spans=False)

    def span(self, name, cat="campaign", **attrs):
        return _NULL_SPAN

    def _emit(self, event):
        pass


_NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()


def as_tracer(trace, tid=0, timed=False):
    """Coerce a user-facing ``trace`` argument -- ``None``, a sink
    path, or a :class:`Tracer` -- into a tracer object.  ``timed``
    asks for span totals even without a sink (a profiled run): a
    totals-only tracer instead of the no-op one."""
    if isinstance(trace, Tracer):
        return trace
    if trace is not None:
        return Tracer(sink=trace, tid=tid)
    return Tracer(tid=tid, keep_spans=False) if timed else NULL_TRACER


def load_trace_file(path):
    """Events of a file written by :meth:`Tracer.save` (the bare
    ``[...]`` array form is accepted too)."""
    with open(path) as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        return payload
    return payload["traceEvents"]
