"""Service layer: an in-process :class:`CampaignService` exercised
through the real Unix-socket wire protocol.

These tests cover the front-end contracts the CI gate
(benchmarks/check_service.py) checks end-to-end with a subprocess:
concurrent clients stream serial-identical results, the per-client
quota rejects rather than queues, unknown options are refused at the
door, and a programmatic drain checkpoints in-flight campaigns into
resumable journals before ``run()`` returns 0.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.analysis import result_from_dict
from repro.analysis.equivalence import campaign_differences
from repro.apps.ftpd import client1
from repro.injection import (CampaignResult, FleetConfig,
                             run_campaign, run_fleet_campaign)
from repro.service import (CampaignService, ServiceClient,
                           ServiceError)

SLICE = 40
SPEC = {"daemon": "ftpd", "client": "Client1",
        "encoding": "old", "fault_model": "branch-bit"}

#: test-speed fleet for the service under test.
FAST = dict(workers=2, backoff_base=0.05, backoff_cap=0.2,
            poll_interval=0.05, dead_grace=0.2)
#: a poll interval no wake-on-work path may wait out: each finishes
#: within ``PROMPT`` seconds, a third of one interval.
SLOW_POLL = 30.0
PROMPT = SLOW_POLL / 3


class ServiceHarness:
    """One CampaignService running on a daemon thread."""

    def __init__(self, socket_path, quota=2, **config):
        self.socket_path = str(socket_path)
        self.service = CampaignService(
            socket_path=self.socket_path,
            config=FleetConfig(**{**FAST, **config}), quota=quota)
        self.status = None
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.status = self.service.run()

    def start(self):
        self.thread.start()
        deadline = time.monotonic() + 30
        while not os.path.exists(self.socket_path):
            if not self.thread.is_alive():
                raise RuntimeError("service thread died on startup")
            if time.monotonic() > deadline:
                raise RuntimeError("service socket never appeared")
            time.sleep(0.05)
        return self

    def stop(self):
        if self.thread.is_alive():
            self.service.shutdown("test-teardown")
            self.thread.join(60)


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    harness = ServiceHarness(
        tmp_path_factory.mktemp("svc") / "svc.sock")
    harness.start()
    yield harness
    harness.stop()


@pytest.fixture(scope="module")
def serial_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


def rebuild(done, records):
    """A CampaignResult from the wire stream, as the analysis layer
    would consume it."""
    campaign = CampaignResult(daemon_name="FtpDaemon",
                              client_name="Client1", encoding="old",
                              fault_model="branch-bit")
    campaign.results = [result_from_dict(record)
                        for record in records]
    campaign.metrics = done["metrics"]
    return campaign


class TestServiceEquivalence:
    def test_concurrent_clients_match_serial(self, harness,
                                             serial_campaign):
        outputs = {}

        def run_one(name):
            with ServiceClient(harness.socket_path) as client:
                accepted = client.submit(SPEC, max_points=SLICE)
                outputs[name] = client.collect(accepted["campaign"])

        threads = [threading.Thread(target=run_one, args=(name,))
                   for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert set(outputs) == {"a", "b"}
        for done, records in outputs.values():
            assert campaign_differences(rebuild(done, records),
                                        serial_campaign) == []

    def test_repeat_submission_is_warm(self, harness,
                                       serial_campaign):
        with ServiceClient(harness.socket_path) as client:
            first = client.submit(SPEC, max_points=SLICE)
            client.collect(first["campaign"])
            second = client.submit(SPEC, max_points=SLICE)
            assert second["warm"] is True
            done, records = client.collect(second["campaign"])
        assert campaign_differences(rebuild(done, records),
                                    serial_campaign) == []
        counters = done["metrics"]["volatile"]["counters"]
        assert counters.get("runtime.golden_runs", 0) == 0
        assert counters.get("runtime.golden_reused", 0) >= 1


class TestServiceTelemetry:
    def test_subscriber_streams_gap_free_without_perturbing_results(
            self, harness, serial_campaign):
        from repro.obs import check_contiguous
        received = []
        subscriber = ServiceClient(harness.socket_path)
        subscriber.subscribe()
        drained = threading.Event()

        def pump():
            try:
                for event in subscriber.telemetry():
                    received.append(event)
            finally:
                drained.set()

        reader = threading.Thread(target=pump, daemon=True)
        reader.start()
        try:
            with ServiceClient(harness.socket_path) as client:
                accepted = client.submit(SPEC, max_points=SLICE)
                cid = accepted["campaign"]
                done, records = client.collect(cid)
            # results are byte-identical to a serial run even with a
            # live subscriber attached
            assert campaign_differences(rebuild(done, records),
                                        serial_campaign) == []
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                mine = [event for event in received
                        if event.get("campaign") == cid]
                if any(event.get("type") == "campaign-finished"
                       for event in mine):
                    break
                time.sleep(0.05)
            mine = [event for event in received
                    if event.get("campaign") == cid]
            assert check_contiguous(mine) == []
            kinds = [event["type"] for event in mine]
            assert kinds[0] == "golden"
            assert kinds[1] == "campaign-started"
            assert kinds[-1] == "campaign-finished"
            assert "unit-finished" in kinds
        finally:
            subscriber.close()
            drained.wait(10)

    def test_late_subscriber_replays_ring_history(self, harness):
        with ServiceClient(harness.socket_path) as client:
            accepted = client.submit(SPEC, max_points=SLICE)
            cid = accepted["campaign"]
            client.collect(cid)
        from repro.obs import check_contiguous
        late = ServiceClient(harness.socket_path)
        try:
            late.subscribe()
            received = []
            drained = threading.Event()

            def pump():
                try:
                    for event in late.telemetry():
                        received.append(event)
                finally:
                    drained.set()

            threading.Thread(target=pump, daemon=True).start()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                mine = [event for event in received
                        if event.get("campaign") == cid]
                if any(event.get("type") == "campaign-finished"
                       for event in mine):
                    break
                time.sleep(0.05)
            # the finished campaign's whole stream came from the ring
            mine = [event for event in received
                    if event.get("campaign") == cid]
            assert check_contiguous(mine) == []
            assert mine[-1]["type"] == "campaign-finished"
        finally:
            late.close()
            drained.wait(10)


class TestServiceAdmission:
    def test_quota_rejects_excess_in_flight(self, harness, monkeypatch):
        # the gate holds both admitted campaigns in flight: until it
        # opens, the service sees no campaign finish, however fast
        # the workers run them
        gate = threading.Event()
        fleet = harness.service.fleet
        finished = fleet.finished
        monkeypatch.setattr(fleet, "finished",
                            lambda cid: gate.is_set() and finished(cid))
        with ServiceClient(harness.socket_path) as client:
            first = client.submit(SPEC, max_points=SLICE)
            second = client.submit(SPEC, max_points=SLICE)
            with pytest.raises(ServiceError):
                client.submit(SPEC, max_points=SLICE)
            gate.set()
            # the rejection charges nothing: both accepted campaigns
            # still stream to completion
            client.collect(first["campaign"])
            client.collect(second["campaign"])
            # and a slot freed by completion admits a new submission
            third = client.submit(SPEC, max_points=SLICE)
            client.collect(third["campaign"])

    def test_unknown_option_rejected(self, harness):
        with ServiceClient(harness.socket_path) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SPEC, progress=True)
        assert "progress" in str(excinfo.value)

    def test_run_options_reject_unknown_and_non_wire_fields(
            self, harness, ftp_daemon):
        # an unknown option fails locally before any work starts ...
        with pytest.raises(TypeError):
            run_campaign(ftp_daemon, "Client1", client1,
                         max_points=SLICE, bogus_option=1)
        # ... and a real RunOptions field that is not plain wire data
        # (a parent-side deadline) is refused by the service
        with ServiceClient(harness.socket_path) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit(SPEC, deadline=5.0)
        assert "deadline" in str(excinfo.value)

    def test_unknown_daemon_rejected(self, harness):
        with ServiceClient(harness.socket_path) as client:
            with pytest.raises(ServiceError):
                client.submit({"daemon": "telnetd",
                               "client": "Client1"})


class TestServiceDrain:
    def test_shutdown_checkpoints_to_resumable_journal(
            self, ftp_daemon, tmp_path):
        points = 200
        journal = str(tmp_path / "drain.jsonl")
        harness = ServiceHarness(tmp_path / "drain.sock")
        harness.start()
        try:
            with ServiceClient(harness.socket_path) as client:
                accepted = client.submit(SPEC, max_points=points,
                                         journal=journal)
                harness.service.shutdown("test-drain")
                events = list(client.events(accepted["campaign"]))
        finally:
            harness.thread.join(90)
        assert not harness.thread.is_alive()
        assert harness.status == 0
        terminal = events[-1]
        if terminal["event"] == "done":
            pytest.skip("campaign finished before the drain landed")
        assert terminal["event"] == "checkpoint"
        assert terminal["journal"]
        # the journal resumes to serial-identical tallies
        serial = run_campaign(ftp_daemon, "Client1", client1,
                              max_points=points)
        resumed = run_fleet_campaign(
            ftp_daemon, "Client1", client1,
            config=FleetConfig(**FAST), max_points=points,
            journal=journal, resume=True, journal_salvage=True)
        assert campaign_differences(resumed, serial) == []


class TestServiceWakeOnWork:
    """Requests and stops wake the dispatcher: with a poll interval no
    path may wait out, submissions still stream to ``done`` and a
    shutdown still drains promptly."""

    def test_submissions_reach_done_without_waiting_out_the_poll(
            self, tmp_path, serial_campaign):
        harness = ServiceHarness(tmp_path / "wake.sock",
                                 poll_interval=SLOW_POLL)
        harness.start()
        try:
            with ServiceClient(harness.socket_path) as client:
                # the second submission lands on a dispatcher blocked
                # in its wait, with every worker pipe silent
                for __ in range(2):
                    started = time.monotonic()
                    accepted = client.submit(SPEC, max_points=SLICE)
                    done, records = client.collect(
                        accepted["campaign"])
                    assert time.monotonic() - started < PROMPT
                    assert campaign_differences(
                        rebuild(done, records), serial_campaign) == []
        finally:
            harness.stop()

    def test_shutdown_drains_without_waiting_out_the_poll(
            self, tmp_path):
        harness = ServiceHarness(tmp_path / "wake-drain.sock",
                                 poll_interval=SLOW_POLL)
        harness.start()
        try:
            with ServiceClient(harness.socket_path) as client:
                accepted = client.submit(
                    SPEC, max_points=200,
                    journal=str(tmp_path / "drain.jsonl"))
                started = time.monotonic()
                harness.service.shutdown("test-drain")
                events = list(client.events(accepted["campaign"]))
                harness.thread.join(PROMPT)
                elapsed = time.monotonic() - started
        finally:
            harness.thread.join(90)
        assert elapsed < PROMPT
        assert not harness.thread.is_alive()
        assert harness.status == 0
        assert events[-1]["event"] in ("checkpoint", "done")
