"""Campaign observability: tables are byte-identical with every flag
combination, metrics are worker-count-invariant, traces nest, and
forensics snapshots land in results and journals."""

from __future__ import annotations

import json

import pytest

from repro.apps.ftpd import client1
from repro.injection import run_campaign
from repro.obs.trace import load_trace_file

SLICE = 60


@pytest.fixture(scope="module")
def plain_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


def _core(metrics):
    metrics = dict(metrics)
    metrics.pop("volatile", None)
    return metrics


class TestTallyInvariance:
    def test_forensics_does_not_change_tallies(self, ftp_daemon,
                                               plain_campaign):
        forensic = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, forensics=True)
        assert forensic.counts() == plain_campaign.counts()
        assert forensic.counts(refined=True) \
            == plain_campaign.counts(refined=True)
        assert forensic.crash_latencies() \
            == plain_campaign.crash_latencies()
        assert forensic.by_location() == plain_campaign.by_location()

    def test_trace_and_metrics_do_not_change_tallies(
            self, ftp_daemon, plain_campaign, tmp_path):
        observed = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE,
                                trace=str(tmp_path / "t.json"),
                                metrics=str(tmp_path / "m.json"))
        assert observed.counts() == plain_campaign.counts()
        assert observed.crash_latencies() \
            == plain_campaign.crash_latencies()


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
        assert _core(parallel) == _core(serial)
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
        import importlib.util
        import pathlib

        from repro.injection import (ChaosAction, ChaosPolicy,
                                     FleetConfig, WorkerFleet)
        spec = importlib.util.spec_from_file_location(
            "check_obs", pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "check_obs.py")
        check_obs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_obs)
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
        assert events[-1]["counts"] == campaign.counts()
        delta = {}
        for event in events:
            if event["type"] == "outcomes":
                for outcome, count in event["delta"].items():
                    delta[outcome] = delta.get(outcome, 0) + count
        assert delta == {outcome: count for outcome, count
                         in campaign.counts(refined=True).items()
                         if count}
        # telemetry is an observer: tallies are byte-identical
        assert campaign.counts() == plain_campaign.counts()

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
        assert events[-1]["counts"] == campaign.counts()

    def test_metrics_core_identical_with_telemetry_on(
            self, ftp_daemon, tmp_path):
        import json as _json
        from repro.obs import EventBus
        plain_path = tmp_path / "plain.json"
        observed_path = tmp_path / "observed.json"
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, metrics=str(plain_path))
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, metrics=str(observed_path),
                     telemetry=EventBus(), telemetry_campaign="t0",
                     profile=str(tmp_path / "profile.json"))
        plain = _json.loads(plain_path.read_text())
        observed = _json.loads(observed_path.read_text())
        assert _core(observed) == _core(plain)


class TestSampledCampaign:
    def test_profile_is_deterministic_across_worker_counts(
            self, ftp_daemon, tmp_path):
        import json as _json
        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial = run_campaign(ftp_daemon, "Client1", client1,
                              max_points=SLICE,
                              profile=str(serial_path))
        parallel = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=3,
                                profile=str(parallel_path))
        assert parallel.counts() == serial.counts()

        def samples(path):
            return _json.loads(path.read_text())["samples"]

        # guest samples are a pure function of the experiment list:
        # sharding must not move a single sample
        assert samples(parallel_path) == samples(serial_path)

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

    def test_sampling_does_not_change_tallies(self, ftp_daemon,
                                              plain_campaign,
                                              tmp_path):
        sampled = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE,
                               profile=str(tmp_path / "p.json"))
        assert sampled.counts() == plain_campaign.counts()
        assert sampled.crash_latencies() \
            == plain_campaign.crash_latencies()


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
