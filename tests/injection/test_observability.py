"""Campaign observability: metrics are worker-count-invariant, traces
nest, and forensics snapshots land in results and journals (that
records are identical with every observer combination is the
equivalence oracle's job, ``tests/properties/test_oracle.py``)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.equivalence import (campaign_differences,
                                        deterministic_core)
from repro.apps.ftpd import client1
from repro.injection import run_campaign
from repro.obs.trace import load_trace_file

SLICE = 60


def _check_obs():
    """``benchmarks/check_obs.py``, the CI observability gate."""
    import importlib.util
    import pathlib
    spec = importlib.util.spec_from_file_location(
        "check_obs", pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "check_obs.py")
    check_obs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_obs)
    return check_obs


@pytest.fixture(scope="module")
def plain_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


@pytest.fixture(scope="module", params=[1, 2], ids=["serial", "fleet"])
def full_cell(request, ftp_daemon):
    """The full ftpd Client1 branch-bit cell, which has a HANG record,
    and its whole event stream (serial and on two workers)."""
    from repro.obs import EventBus
    stream = []
    bus = EventBus()
    bus.subscribe(stream.append)
    campaign = run_campaign(ftp_daemon, "Client1", client1,
                            workers=request.param, telemetry=bus,
                            telemetry_campaign="t0")
    assert campaign.counts(refined=True)["HANG"] == 1
    return campaign, stream


class TestMetrics:
    def test_registry_matches_campaign(self, ftp_daemon, tmp_path):
        path = tmp_path / "metrics.json"
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, metrics=str(path))
        saved = json.loads(path.read_text())
        assert saved == json.loads(json.dumps(campaign.metrics))
        counters = saved["counters"]
        assert counters["experiments"] == len(campaign.results)
        assert counters["activated"] == campaign.activated_count
        for outcome, count in campaign.counts(refined=True).items():
            assert counters.get("outcome.%s" % outcome, 0) == count
        histogram = saved["histograms"]["crash_latency"]
        assert histogram["count"] == len(campaign.crash_latencies())
        assert saved["gauges"]["points"] == SLICE
        assert saved["volatile"]["counters"]["runtime.golden_runs"] == 1

    def test_parallel_deterministic_core_matches_serial(
            self, ftp_daemon, tmp_path):
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, metrics=str(serial_path))
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, workers=3,
                     metrics=str(parallel_path))
        serial = json.loads(serial_path.read_text())
        parallel = json.loads(parallel_path.read_text())
        assert deterministic_core(parallel) == deterministic_core(serial)
        # the volatile section reflects the extra per-shard golden runs
        assert parallel["volatile"]["counters"]["runtime.golden_runs"] \
            > serial["volatile"]["counters"]["runtime.golden_runs"]


class TestTrace:
    def test_serial_trace_shape(self, ftp_daemon, tmp_path):
        path = tmp_path / "trace.json"
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, trace=str(path))
        events = load_trace_file(path)
        for event in events:
            for key in ("ph", "ts", "pid", "tid", "name"):
                assert key in event
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        (root,) = by_name["campaign"]
        assert len(by_name["golden-run"]) == 1
        assert len(by_name["experiment"]) == len(campaign.results)
        for event in events:
            # every span falls inside the campaign span
            assert root["ts"] <= event["ts"]
            assert (event["ts"] + event.get("dur", 0)
                    <= root["ts"] + root["dur"])
        outcomes = sorted(event["args"]["outcome"]
                          for event in by_name["experiment"])
        assert outcomes == sorted(result.outcome
                                  for result in campaign.results)

    def test_parallel_trace_merges_shards(self, ftp_daemon, tmp_path):
        from repro.injection import FleetConfig
        path = tmp_path / "trace.json"
        # one instruction per work unit: the slice is three units, one
        # per worker, each traced on its worker's track
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=3,
                                supervisor=FleetConfig(
                                    unit_instructions=1),
                                trace=str(path))
        events = load_trace_file(path)
        shards = [event for event in events
                  if event["name"] == "shard"]
        assert len(shards) == 3
        assert sorted(event["tid"] for event in shards) == [1, 2, 3]
        (root,) = [event for event in events
                   if event["name"] == "campaign"]
        assert root["tid"] == 0
        for shard in shards:
            assert root["ts"] <= shard["ts"]
            assert (shard["ts"] + shard["dur"]
                    <= root["ts"] + root["dur"])
        experiments = [event for event in events
                       if event["name"] == "experiment"]
        assert len(experiments) == len(campaign.results)


    def test_respawn_marks_every_live_campaign(self, ftp_daemon,
                                              tmp_path):
        # two campaigns share one fleet when a chaos kill respawns a
        # worker: the fleet-scoped milestone lands in both traces, and
        # both still nest (the finished instant inside the root span)
        from repro.injection import (ChaosAction, ChaosPolicy,
                                     FleetConfig, WorkerFleet)
        check_obs = _check_obs()
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="kill", shard=0, after=2),))
        fleet = WorkerFleet(FleetConfig(workers=2, backoff_base=0.05,
                                        backoff_cap=0.2,
                                        poll_interval=0.05,
                                        dead_grace=0.2), chaos=chaos)
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        fleet.start()
        try:
            cids = [fleet.submit(ftp_daemon, "Client1", client1,
                                 max_points=SLICE, trace=str(path))
                    for path in paths]
            # both campaigns stay live (unfinalized) until the
            # respawn, however fast the surviving worker finishes
            while not (all(fleet.finished(cid) for cid in cids)
                       and fleet.events["respawns"]):
                fleet.pump()
            for cid in cids:
                fleet.finalize(cid)
        finally:
            fleet.stop()
        assert fleet.events["respawns"] == 1
        for path in paths:
            assert check_obs.check_trace(path) == []
            names = [event["name"] for event in load_trace_file(path)
                     if event["ph"] == "i"]
            assert names.count("worker-respawn") == 1
            assert names[-1] == "campaign-finished"

    def test_warm_fleet_trace_says_where_its_golden_run_came_from(
            self, ftp_daemon, tmp_path):
        # the second campaign of a cell reuses the owner's and every
        # worker's golden run: its trace still holds a golden-run span,
        # marked reused
        from repro.injection import (FleetConfig, run_fleet_campaign,
                                     WorkerFleet)
        check_obs = _check_obs()
        fleet = WorkerFleet(FleetConfig(workers=2))
        paths = [tmp_path / "cold.json", tmp_path / "warm.json"]
        fleet.start()
        try:
            for path in paths:
                run_fleet_campaign(ftp_daemon, "Client1", client1,
                                   fleet=fleet, max_points=40,
                                   trace=str(path))
        finally:
            fleet.stop()
        for path, reused in zip(paths, (False, True)):
            assert check_obs.check_trace(path) == []
            goldens = [event for event in load_trace_file(path)
                       if event["name"] == "golden-run"]
            assert any(event["args"].get("reused", False) == reused
                       for event in goldens), path


class TestTelemetry:
    def test_serial_event_stream_is_gap_free(self, ftp_daemon,
                                             plain_campaign):
        from repro.obs import check_contiguous, EventBus
        bus = EventBus()
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, telemetry=bus,
                                telemetry_campaign="t0")
        events = bus.events()
        assert check_contiguous(events) == []
        assert [event["type"] for event in events[:2]] \
            == ["golden", "campaign-started"]
        assert events[-1]["type"] == "campaign-finished"
        assert events[-1]["counts"] == campaign.counts(refined=True)
        delta = {}
        for event in events:
            if event["type"] == "outcomes":
                for outcome, count in event["delta"].items():
                    delta[outcome] = delta.get(outcome, 0) + count
        assert delta == {outcome: count for outcome, count
                         in campaign.counts(refined=True).items()
                         if count}
        # telemetry is an observer: records are identical
        assert campaign_differences(campaign, plain_campaign) == []

    def test_parallel_event_stream_is_gap_free(self, ftp_daemon):
        from repro.obs import check_contiguous, EventBus
        bus = EventBus()
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=3,
                                telemetry=bus,
                                telemetry_campaign="t0")
        events = bus.events()
        assert check_contiguous(events) == []
        assert events[-1]["type"] == "campaign-finished"
        assert events[-1]["counts"] == campaign.counts(refined=True)


    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_event_stream_folds_to_the_final_tally(
            self, ftp_daemon, tmp_path, workers):
        """The results a resume starts from arrive as one ``outcomes``
        delta, so ``repro top``'s fold of an ``--events`` file reaches
        the final tally before ``campaign-finished`` says it."""
        from repro.obs import EventBus, EventLog, fold_events
        from repro.obs.events import load_event_stream
        journal = tmp_path / "run.jsonl"
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE // 2, journal=journal,
                     workers=workers)
        bus = EventBus()
        log = EventLog(tmp_path / "events.jsonl")
        bus.subscribe(log)
        try:
            campaign = run_campaign(ftp_daemon, "Client1", client1,
                                    max_points=SLICE, journal=journal,
                                    resume=True, workers=workers,
                                    telemetry=bus, telemetry_campaign="t0")
        finally:
            log.close()
        counters = campaign.metrics["volatile"]["counters"]
        assert counters["runtime.resumed"] == SLICE // 2
        events = load_event_stream(tmp_path / "events.jsonl")
        assert events[-1]["type"] == "campaign-finished"
        tally = {outcome: count for outcome, count
                 in campaign.counts(refined=True).items() if count}
        running = fold_events(events[:-1])["t0"]
        assert running.outcomes == tally
        assert running.completed == SLICE
        final = fold_events(events)["t0"]
        assert final.finished
        assert {outcome: count for outcome, count
                in final.outcomes.items() if count} == tally

    def test_full_cell_folds_to_its_tally(self, full_cell):
        from repro.obs import fold_events, ProgressReporter
        campaign, stream = full_cell
        tally = {outcome: count for outcome, count
                 in campaign.counts(refined=True).items() if count}
        view = fold_events(stream)["t0"]
        assert view.finished
        assert view.outcomes == tally
        assert view.completed == view.points == 1560
        # --progress reads the same fold
        lines = []

        class Logger:
            def info(self, message, *args):
                lines.append(message % args)

        progress = ProgressReporter(logger=Logger())
        for event in stream:
            progress(event)
        assert lines[-1] == "  ... 1560 / 1560 experiments"

    def test_ring_cut_stream_ends_at_the_tally(self, full_cell):
        """Back-to-back runs of the cell overflow the bus's 4,096-event
        ring, cutting the oldest run's head (a late subscriber's view);
        every run's fold still ends at the exact tally."""
        from repro.obs import EventBus, fold_events
        campaign, stream = full_cell
        ring = EventBus()
        runs = 0
        while not ring.dropped:
            runs += 1
            for event in stream:
                ring.emit(event["type"], campaign=runs,
                          **{key: value for key, value in event.items()
                             if key not in ("seq", "type", "campaign",
                                            "ts")})
        assert ring.events()[0]["seq"] > 0
        tally = {outcome: count for outcome, count
                 in campaign.counts(refined=True).items() if count}
        for label, view in fold_events(ring.events()).items():
            assert view.outcomes == tally, label
            assert view.completed == view.points == 1560, label


class TestSampledCampaign:
    def test_forensics_leaves_the_profile_unchanged(self, ftp_daemon,
                                                     tmp_path):
        def samples(name, **options):
            path = tmp_path / name
            run_campaign(ftp_daemon, "Client1", client1,
                         max_points=SLICE, profile=str(path), **options)
            return json.loads(path.read_text())["samples"]

        plain = samples("plain.json")
        assert plain
        # the ring and the sampler are fed by the same loop
        assert samples("forensic.json", forensics=True) == plain

    def test_prefix_runs_stay_unobserved(self, ftp_daemon, tmp_path):
        """Sessions share one machine, so a prefix runs on the CPU the
        previous site's ring and sampler were attached to.  The
        profile and every SD ring must equal those of the same points
        run with a private machine per session."""
        from repro.injection import SessionCache
        from repro.injection.injector import Machine

        class PrivateMachines(SessionCache):
            def machine(self, daemon):
                return Machine(daemon)

        def observed(name, cache):
            path = tmp_path / name
            campaign = run_campaign(ftp_daemon, "Client1", client1,
                                    max_points=200, forensics=True,
                                    profile=str(path),
                                    session_cache=cache)
            rings = [(result.point, result.forensics["ring"])
                     for result in campaign.results
                     if result.outcome == "SD"]
            return json.loads(path.read_text())["samples"], rings

        shared = observed("shared.json", SessionCache(capacity=1))
        private = observed("private.json", PrivateMachines(capacity=1))
        assert shared[1], "slice should crash somewhere"
        assert len({point.instruction_address
                    for point, __ in shared[1]}) > 1
        assert shared == private


class TestForensics:
    def test_snapshots_only_on_crash_like_outcomes(self, ftp_daemon):
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, forensics=True)
        for result in campaign.results:
            if result.outcome in ("SD", "HANG", "HF"):
                assert result.forensics is not None
                assert result.forensics["ring"]
                if result.outcome == "SD":
                    # on a crash the ring ends at the faulting
                    # instruction (HANG snapshots end at the last
                    # instruction the watchdog probe stepped over)
                    assert result.forensics["ring"][-1]["eip"] \
                        == result.forensics["eip"]
            else:
                assert result.forensics is None

    def test_forensics_off_leaves_results_bare(self, plain_campaign):
        assert all(result.forensics is None
                   for result in plain_campaign.results)

    def test_forensics_survive_journal_resume(self, ftp_daemon,
                                              tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        first = run_campaign(ftp_daemon, "Client1", client1,
                             max_points=SLICE, forensics=True,
                             journal=journal, resume=True)
        resumed = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE, forensics=True,
                               journal=journal, resume=True)
        assert resumed.timing["executed"] == 0
        assert [result.forensics for result in resumed.results] \
            == [result.forensics for result in first.results]
