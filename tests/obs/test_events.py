"""Event bus: sequencing, the bounded ring, merge and the gap check."""

from __future__ import annotations

import pytest

from repro.obs import (check_contiguous, EventBus, EventLog,
                       load_event_stream, merge_event_streams, Tracer)
from repro.obs.events import (emit_milestone, EVENT_RING_CAPACITY,
                              EVENT_TYPES, outcome_delta)


def clocked_bus(**kwargs):
    ticks = iter(range(10_000))
    return EventBus(clock=lambda: float(next(ticks)), **kwargs)


class TestEmit:
    def test_seq_is_contiguous_per_campaign(self):
        bus = clocked_bus()
        for __ in range(3):
            bus.emit("checkpoint", campaign="a", reason="test",
                     completed=0)
        bus.emit("checkpoint", campaign="b", reason="test",
                 completed=0)
        seqs = [(event["campaign"], event["seq"])
                for event in bus.events()]
        assert seqs == [("a", 0), ("a", 1), ("a", 2), ("b", 0)]
        assert check_contiguous(bus.events()) == []

    def test_unknown_type_is_a_programming_error(self):
        with pytest.raises(ValueError):
            EventBus().emit("warp-core-breach", campaign="a")

    def test_payload_rides_on_the_event(self):
        bus = clocked_bus()
        event = bus.emit("unit-started", campaign="a", unit="u00001",
                         worker=2)
        assert event["unit"] == "u00001"
        assert event["worker"] == 2
        assert event["type"] == "unit-started"

    def test_subscriber_sees_every_event(self):
        bus = clocked_bus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        bus.emit("golden", campaign="a", reused=False)
        unsubscribe()
        bus.emit("golden", campaign="b", reused=True)
        assert [event["campaign"] for event in seen] == ["a"]

    def test_outcome_delta_tally(self):
        records = [{"outcome": "SD"}, {"outcome": "NA"},
                   {"outcome": "SD"}]
        assert outcome_delta(records) == {"NA": 1, "SD": 2}
        assert outcome_delta([]) == {}

    def test_milestone_reaches_bus_and_every_trace(self):
        bus = clocked_bus()
        traces = [Tracer(), Tracer()]
        emit_milestone(bus, traces, "worker-respawn", worker=1,
                       incarnation=2)
        emit_milestone(None, traces[:1], "checkpoint", "a",
                       reason="deadline", completed=3)
        (event,) = bus.events()
        assert event["type"] == "worker-respawn"
        assert event["worker"] == 1
        first, second = (trace.events() for trace in traces)
        assert [(instant["name"], instant["ph"], instant["args"])
                for instant in first] == [
            ("worker-respawn", "i", {"worker": 1, "incarnation": 2}),
            ("checkpoint", "i", {"reason": "deadline",
                                 "completed": 3})]
        assert [instant["name"] for instant in second] \
            == ["worker-respawn"]

    def test_every_documented_type_emits(self):
        bus = clocked_bus()
        for name in sorted(EVENT_TYPES):
            bus.emit(name, campaign="a")
        assert len(bus) == len(EVENT_TYPES)


class TestRing:
    def test_history_is_bounded_and_counts_drops(self):
        bus = clocked_bus(capacity=4)
        for index in range(10):
            bus.emit("checkpoint", campaign="a", reason=str(index),
                     completed=index)
        assert len(bus) == 4
        assert bus.dropped == 6
        assert bus.emitted == 10
        # the newest events survive
        assert [event["completed"] for event in bus.events()] \
            == [6, 7, 8, 9]

    def test_default_capacity(self):
        assert EventBus()._ring.capacity == EVENT_RING_CAPACITY

    def test_live_subscribers_outrun_the_ring(self):
        bus = clocked_bus(capacity=2)
        seen = []
        bus.subscribe(seen.append)
        for index in range(5):
            bus.emit("checkpoint", campaign="a", reason="r",
                     completed=index)
        assert len(seen) == 5           # ring kept 2, stream kept all
        assert check_contiguous(seen) == []


class TestPersistence:
    def test_save_and_load_round_trip(self, tmp_path):
        bus = clocked_bus()
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        bus.subscribe(log)
        bus.emit("golden", campaign="a", reused=False)
        bus.emit("campaign-started", campaign="a", points=40)
        log.close()
        events = load_event_stream(path)
        assert events == bus.events()
        assert log.count == 2

    def test_event_log_outruns_the_ring(self, tmp_path):
        bus = clocked_bus(capacity=2)
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        bus.subscribe(log)
        for index in range(5):
            bus.emit("checkpoint", campaign="a", reason="r",
                     completed=index)
        log.close()
        events = load_event_stream(path)
        assert len(bus) == 2
        assert [event["seq"] for event in events] == [0, 1, 2, 3, 4]

    def test_merge_orders_by_campaign_then_seq(self):
        one = clocked_bus()
        two = clocked_bus()
        one.emit("golden", campaign="b", reused=False)
        two.emit("golden", campaign="a", reused=False)
        two.emit("campaign-started", campaign="a", points=1)
        merged = merge_event_streams(one.events(), two.events())
        assert [(event["campaign"], event["seq"])
                for event in merged] == [("a", 0), ("a", 1), ("b", 0)]


class TestContiguity:
    def test_gap_is_reported(self):
        events = [{"campaign": "a", "seq": 0},
                  {"campaign": "a", "seq": 2}]
        problems = check_contiguous(events)
        assert len(problems) == 1
        assert "campaign a" in problems[0]

    def test_duplicate_is_reported(self):
        events = [{"campaign": "a", "seq": 0},
                  {"campaign": "a", "seq": 0}]
        assert check_contiguous(events)
