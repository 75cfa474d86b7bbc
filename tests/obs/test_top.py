"""The ``repro top`` view model: event folding, journal rebuild,
rendering."""

from __future__ import annotations

from repro.obs.top import (CampaignView, fold_events, format_eta,
                           render_top, render_view, view_from_journals)


def stream(*events):
    """Stamp a synthetic telemetry stream with deterministic times."""
    stamped = []
    for index, (kind, payload) in enumerate(events):
        event = {"type": kind, "campaign": "c0", "seq": index,
                 "ts": 100.0 + index}
        event.update(payload)
        stamped.append(event)
    return stamped


class TestFoldEvents:
    def test_full_campaign_lifecycle(self):
        views = fold_events(stream(
            ("golden", {"reused": False}),
            ("campaign-started", {"points": 40, "workers": 2}),
            ("unit-started", {"unit": "u0", "worker": 0}),
            ("unit-finished", {"unit": "u0", "worker": 0,
                               "results": 40, "completed": 40,
                               "total": 40}),
            ("outcomes", {"delta": {"NA": 30, "SD": 10}}),
            ("campaign-finished", {"counts": {"NA": 30, "SD": 10},
                                   "quarantined": 0}),
        ))
        view = views["c0"]
        assert view.points == 40
        assert view.completed == 40
        assert view.finished
        assert view.outcomes == {"NA": 30, "SD": 10}
        assert view.in_flight == {}
        assert view.units_done == 1
        assert view.per_worker == {0: 1}

    def test_incremental_folding(self):
        events = stream(("campaign-started", {"points": 10}),
                        ("outcomes", {"delta": {"NA": 4}}))
        views = fold_events(events[:1])
        views = fold_events(events[1:], views)
        assert views["c0"].completed == 4
        assert views["c0"].points == 10

    def test_worker_health_counters(self):
        views = fold_events(stream(
            ("worker-backoff", {"worker": 1, "delay": 0.2}),
            ("worker-respawn", {"worker": 1, "incarnation": 2}),
            ("worker-retired", {"worker": 1, "restarts": 5}),
            ("checkpoint", {"reason": "deadline", "completed": 3}),
        ))
        view = views["c0"]
        assert (view.backoffs, view.respawns, view.retired) == (1, 1, 1)
        assert view.checkpoint == "deadline"

    def test_rate_and_eta_from_timestamps(self):
        views = fold_events(stream(
            ("campaign-started", {"points": 100}),
            ("outcomes", {"delta": {"NA": 50}}),
        ))
        view = views["c0"]
        assert view.rate == 50.0            # 50 outcomes in 1 second
        assert view.eta_seconds() == 1.0


class TestUnitProgress:
    """Journal ``unit`` markers and unit events fold alike."""

    MARKERS = [
        {"type": "unit", "unit": "u0", "status": "started", "ts": 1.0,
         "total": 40},
        {"type": "unit", "unit": "u0", "status": "done", "ts": 2.0,
         "total": 40},
        {"type": "unit", "unit": "u1", "status": "started", "ts": 3.0,
         "total": 40},
        {"type": "unit", "unit": "u2", "status": "started", "ts": 4.0},
        {"type": "unit", "unit": "u2", "status": "closed", "ts": 5.0},
    ]

    def test_started_without_done_is_in_flight(self):
        view = CampaignView.of(self.MARKERS)
        assert list(view.in_flight) == ["u1"]
        assert view.units_done == 1
        assert view.points == 40
        assert (view.first_ts, view.last_ts) == (1.0, 5.0)
        # the same facts as telemetry events
        events = fold_events(stream(
            ("unit-started", {"unit": "u0", "worker": 0, "total": 40}),
            ("unit-finished", {"unit": "u0", "worker": 0,
                               "total": 40}),
            ("unit-started", {"unit": "u1", "worker": 1})))["c0"]
        assert list(events.in_flight) == list(view.in_flight)
        assert (events.units_done, events.points) == (1, 40)

    def test_plain_completion_markers_count_as_done(self):
        view = CampaignView.of([{"type": "unit", "unit": "u0",
                                 "records": 12}])
        assert view.in_flight == {}
        assert view.units_done == 1
        assert view.points is None


class TestRender:
    def test_format_eta(self):
        assert format_eta(None) == "--"
        assert format_eta(42) == "42s"
        assert format_eta(90) == "1m30s"
        assert format_eta(7200) == "2h00m"

    def test_render_view_lines(self):
        views = fold_events(stream(
            ("campaign-started", {"points": 40, "workers": 2}),
            ("outcomes", {"delta": {"NA": 10, "SD": 10}}),
        ))
        text = render_view(views["c0"], now=200.0)
        assert "c0" in text
        assert "20/40 experiments" in text
        assert "NA 10" in text
        assert "eta:" in text

    def test_render_top_frame_orders_campaigns(self):
        views = {"b": CampaignView("b"), "a": CampaignView("a")}
        frame = render_top(views, now=0.0, clock="12:00:00")
        assert "2 campaign(s)" in frame
        assert frame.index("a  --") < frame.index("b  --")


class TestJournalView:
    def test_missing_journal_raises(self, tmp_path):
        import pytest
        with pytest.raises(FileNotFoundError):
            view_from_journals(str(tmp_path / "absent.jsonl"))

    def test_base_markers_beat_shard_markers(self, tmp_path):
        # fleet layout: the parent's unit markers in the base journal,
        # the worker's results in the shard file
        import json
        base = tmp_path / "run.jsonl"
        base.write_text(
            json.dumps({"type": "unit", "unit": "u0",
                        "status": "started", "records": 0,
                        "total": 2, "ts": 1.0}) + "\n"
            + json.dumps({"type": "unit", "unit": "u0",
                          "status": "done", "records": 2,
                          "total": 2, "ts": 2.0}) + "\n")
        shard = tmp_path / "run.jsonl.shard0"
        meta = {"type": "meta", "schema": 8, "daemon": "FtpDaemon",
                "client": "Client1", "encoding": "old"}
        record = {"type": "result", "key": "k%d", "outcome": "NA",
                  "location": "2BC"}
        shard.write_text(
            json.dumps(meta) + "\n"
            + json.dumps(dict(record, key="k0")) + "\n"
            + json.dumps(dict(record, key="k1", outcome="SD")) + "\n")
        view = view_from_journals(str(base))
        assert view.units_done == 1          # not double-counted
        assert view.points == 2
        assert view.completed == 2
        assert view.outcomes == {"NA": 1, "SD": 1}
        assert view.finished
        assert view.campaign == "FtpDaemon Client1"
