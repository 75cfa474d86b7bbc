"""Span tracing: event shape, attribute bags and sinks."""

from __future__ import annotations

import json

import pytest

from repro.obs import NULL_TRACER, Tracer
from repro.obs.trace import as_tracer, load_trace_file, NullTracer


def make_clock(start=1000, tick=10):
    state = {"now": start - tick}

    def clock():
        state["now"] += tick
        return state["now"]

    return clock


class TestTracer:
    def test_span_emits_complete_event(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("campaign", workers=3):
            pass
        (event,) = tracer.events()
        assert event["ph"] == "X"
        assert event["name"] == "campaign"
        assert event["ts"] == 1000 and event["dur"] == 10
        assert event["pid"] == 1 and event["tid"] == 0
        assert event["args"] == {"workers": 3}

    def test_span_set_adds_args_mid_flight(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("experiment", point="10:0:3") as span:
            span.set("outcome", "SD")
        (event,) = tracer.events()
        assert event["args"] == {"point": "10:0:3", "outcome": "SD"}

    def test_nested_spans_emit_inner_first(self):
        tracer = Tracer(clock=make_clock())
        with tracer.span("campaign"):
            with tracer.span("experiment"):
                pass
        inner, outer = tracer.events()
        assert inner["name"] == "experiment"
        assert outer["name"] == "campaign"
        # temporal containment
        assert outer["ts"] <= inner["ts"]
        assert (inner["ts"] + inner["dur"]
                <= outer["ts"] + outer["dur"])

    def test_instant_event(self):
        tracer = Tracer(clock=make_clock())
        tracer.instant("checkpoint", note="here")
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["args"] == {"note": "here"}

    def test_memory_mode_is_bounded(self):
        # without spans kept, memory is one total per span name
        tracer = Tracer(keep_spans=False, clock=make_clock())
        for index in range(10):
            tracer.instant("e%d" % index)
            with tracer.span("experiment"):
                pass
        assert tracer.events() == []
        assert tracer.totals_us == {"experiment": 100}

    def test_seconds_accumulate_per_span_name(self):
        tracer = Tracer(clock=make_clock())
        for name in ("restore", "restore", "merge", "injection"):
            with tracer.span(name):
                pass
        assert tracer.totals_us == {"restore": 20, "merge": 10,
                                    "injection": 10}
        # only the profile's phases become host seconds
        assert tracer.host_seconds() == {"restore": 20e-6,
                                         "merge": 10e-6}

    def test_absorb_folds_shipped_events(self):
        worker = Tracer(tid=2, clock=make_clock())
        with worker.span("experiment"):
            pass
        worker.instant("note")
        parent = Tracer(keep_spans=False)
        parent.absorb(worker.events())
        assert parent.totals_us == {"experiment": 10}
        keeping = Tracer()
        keeping.absorb(worker.events())
        assert keeping.events() == worker.events()

    def test_sink_written_on_close(self, tmp_path):
        sink = tmp_path / "trace.json"
        tracer = Tracer(sink=sink, clock=make_clock())
        with tracer.span("campaign"):
            pass
        tracer.close()
        payload = json.loads(sink.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert payload["traceEvents"][0]["name"] == "campaign"
        assert load_trace_file(sink) == payload["traceEvents"]

    def test_save_without_sink_raises(self):
        with pytest.raises(ValueError):
            Tracer().save()


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("campaign") as span:
            span.set("k", "v")
        NULL_TRACER.instant("x")
        NULL_TRACER.absorb([{"name": "experiment", "dur": 5}])
        NULL_TRACER.close()
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.host_seconds() == {}

    def test_as_tracer_coercions(self, tmp_path):
        assert as_tracer(None) is NULL_TRACER
        timed = as_tracer(None, timed=True)
        assert isinstance(timed, Tracer) and timed.events() == []
        tracer = Tracer()
        assert as_tracer(tracer) is tracer
        null = NullTracer()
        assert as_tracer(null) is null
        sink_bound = as_tracer(str(tmp_path / "t.json"), tid=2)
        assert sink_bound.sink == str(tmp_path / "t.json")
        assert sink_bound.tid == 2
