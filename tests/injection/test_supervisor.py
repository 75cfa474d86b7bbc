"""Self-healing campaign supervision: chaos-driven worker kills,
wedge detection, restart-budget exhaustion with worker retirement,
journal durability/salvage, and graceful checkpoint shutdown.

Parallel cases run ``run_campaign(workers=2)``, i.e. the warm worker
fleet.  The acceptance property throughout is the repo's north star:
every recovery path must end in tallies byte-identical to an
undisturbed serial run of the same campaign.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

import pytest

from repro.analysis.equivalence import campaign_differences
from repro.apps.ftpd import client1
from repro.injection import (CampaignInterrupted, CampaignJournal,
                             ChaosAction, ChaosPolicy,
                             corrupt_journal_tail, FleetConfig,
                             JournalError, run_campaign)

SLICE = 40

#: test-speed fleet: short backoff and polls, but real semantics.
FAST = dict(backoff_base=0.05, backoff_cap=0.2, poll_interval=0.05,
            dead_grace=0.2)


def fast_config(**overrides):
    return FleetConfig(**{**FAST, **overrides})


#: one instruction per work unit: the SLICE splits into three units,
#: so both workers take one at the start (faults can target worker 1).
SPREAD = dict(unit_instructions=1)


def hold(shard, seconds=1.5):
    """Stall a healthy worker after its first point (well inside the
    heartbeat deadline), so a faulted sibling's respawn lands before
    the campaign runs out of work -- respawn counts then do not depend
    on how fast the survivor is."""
    return ChaosAction(kind="stall", shard=shard, after=1,
                       seconds=seconds)


@pytest.fixture(scope="module")
def serial_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


def supervisor_counters(campaign):
    volatile = campaign.metrics["volatile"]["counters"]
    return {name: value for name, value in volatile.items()
            if name.startswith("supervisor.")}


# ----------------------------------------------------------------------
# Kill + respawn

class TestKillRespawn:
    def test_killed_worker_respawns_and_heals(self, ftp_daemon,
                                              tmp_path,
                                              serial_campaign):
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="kill", shard=0, after=2, exit_code=42),
            hold(1)))
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=2,
                                journal=tmp_path / "run.jsonl",
                                chaos=chaos, supervisor=fast_config())
        assert campaign_differences(campaign, serial_campaign) == []
        counters = supervisor_counters(campaign)
        assert counters["supervisor.respawns"] == 1
        assert counters["supervisor.failed_shards"] == 0

    def test_exit_code_zero_kill_is_detected(self, ftp_daemon,
                                             tmp_path,
                                             serial_campaign):
        # regression: a worker that exits 0 without its done payload
        # used to hang the parent forever on queue.get
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="kill", shard=1, after=2, exit_code=0),
            hold(0)))
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=2,
                                journal=tmp_path / "run.jsonl",
                                chaos=chaos,
                                supervisor=fast_config(**SPREAD))
        assert campaign_differences(campaign, serial_campaign) == []
        assert supervisor_counters(campaign)["supervisor.respawns"] == 1

    def test_kill_without_journal_reruns_the_shard(self, ftp_daemon,
                                                   serial_campaign):
        # no journal -> nothing to salvage, the dead worker's whole
        # unit is re-run; tallies must still match
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="kill", shard=0, after=2),))
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=2,
                                chaos=chaos, supervisor=fast_config())
        assert campaign_differences(campaign, serial_campaign) == []

    def test_seeded_policy_heals(self, ftp_daemon, tmp_path,
                                 serial_campaign):
        # the CI chaos job's schedule shape: one kill + one ENOSPC
        chaos = ChaosPolicy.seeded(2026, shards=2)
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=2,
                                journal=tmp_path / "run.jsonl",
                                chaos=chaos,
                                supervisor=fast_config(**SPREAD))
        assert campaign_differences(campaign, serial_campaign) == []


# ----------------------------------------------------------------------
# Wedged workers (alive but silent)

class TestWedgeDetection:
    def test_stalled_worker_is_killed_and_respawned(self, ftp_daemon,
                                                    tmp_path,
                                                    serial_campaign):
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="stall", shard=0, after=2, seconds=60.0),
            hold(1, seconds=1.0)))
        campaign = run_campaign(
            ftp_daemon, "Client1", client1, max_points=SLICE,
            workers=2, journal=tmp_path / "run.jsonl", chaos=chaos,
            supervisor=fast_config(heartbeat_timeout=2.0))
        assert campaign_differences(campaign, serial_campaign) == []
        counters = supervisor_counters(campaign)
        assert counters["supervisor.wedged"] == 1
        assert counters["supervisor.respawns"] == 1


# ----------------------------------------------------------------------
# Journal write faults (ENOSPC)

class TestJournalWriteFault:
    def test_enospc_shard_respawns_and_heals(self, ftp_daemon,
                                             tmp_path,
                                             serial_campaign):
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="fail-write", shard=1, after=3),))
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, workers=2,
                                journal=tmp_path / "run.jsonl",
                                chaos=chaos,
                                supervisor=fast_config(**SPREAD))
        assert campaign_differences(campaign, serial_campaign) == []
        counters = supervisor_counters(campaign)
        # the failed unit errors out of a still-healthy worker: its
        # journaled prefix is salvaged and the remainder requeued,
        # without spending the worker's restart budget
        assert counters["supervisor.worker_errors"] == 1
        assert counters["supervisor.salvaged_points"] >= 1


# ----------------------------------------------------------------------
# Restart budget exhaustion -> worker retired, its units migrate

class TestDegradedCompletion:
    def test_unrevivable_shard_is_resharded_to_survivors(
            self, ftp_daemon, tmp_path, serial_campaign):
        # kill worker 0 on every incarnation the budget allows, while
        # worker 1 is held long enough for all three incarnations
        chaos = ChaosPolicy(actions=tuple(
            ChaosAction(kind="kill", shard=0, after=2, attempt=attempt)
            for attempt in range(3)) + (hold(1, seconds=4.0),))
        campaign = run_campaign(
            ftp_daemon, "Client1", client1, max_points=SLICE,
            workers=2, journal=tmp_path / "run.jsonl", chaos=chaos,
            supervisor=fast_config(max_restarts=2, **SPREAD))
        assert campaign_differences(campaign, serial_campaign) == []
        counters = supervisor_counters(campaign)
        assert counters["supervisor.respawns"] == 2
        assert counters["supervisor.failed_shards"] == 1
        # every dead incarnation's journaled prefix is salvaged; the
        # survivor (or, for the unit that bounced past its attempt
        # budget, the parent) runs the rest
        assert counters["supervisor.salvaged_points"] >= 3 * 2


# ----------------------------------------------------------------------
# Journal durability and salvage

class TestJournalDurability:
    def test_fsync_policy_is_amortised(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync_every=3)
        journal.open({"daemon": "x"})
        # 7 raw writes (1 meta + 6 records): fsync at write 3 and 6,
        # close flushes the unsynced remainder
        for _ in range(6):
            journal._write({"type": "result", "key": "k"})
        assert len(synced) == 2
        journal.close()
        assert len(synced) == 3

    def test_no_fsync_by_default(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        journal = CampaignJournal(tmp_path / "j.jsonl")
        journal.open({"daemon": "x"})
        for _ in range(6):
            journal._write({"type": "result", "key": "k"})
        journal.close()
        assert synced == []

    def test_campaign_accepts_fsync_policy(self, ftp_daemon, tmp_path,
                                           serial_campaign):
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE,
                                journal=tmp_path / "run.jsonl",
                                journal_fsync=2)
        assert campaign_differences(campaign, serial_campaign) == []

    def test_corrupt_line_strict_resume_names_the_line(
            self, ftp_daemon, tmp_path, serial_campaign):
        path = tmp_path / "run.jsonl"
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, journal=path)
        victim = corrupt_journal_tail(path, mode="garbage-line",
                                      seed=3)
        with pytest.raises(JournalError) as excinfo:
            run_campaign(ftp_daemon, "Client1", client1,
                         max_points=SLICE, journal=path, resume=True)
        assert ("line %d" % victim) in str(excinfo.value)

    def test_salvage_resume_quarantines_and_heals(self, ftp_daemon,
                                                  tmp_path,
                                                  serial_campaign):
        path = tmp_path / "run.jsonl"
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, journal=path)
        corrupt_journal_tail(path, mode="garbage-line", seed=3)
        resumed = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE, journal=path,
                               resume=True, journal_salvage=True)
        assert campaign_differences(resumed, serial_campaign) == []
        # the salvage loader reports exactly what it dropped
        __, __, __, report = CampaignJournal.load_with_report(
            path, strict=False)
        # the resumed run re-ran and re-journaled the victim point, so
        # the then-corrupt line is still on record in the report of
        # the pre-resume file only; re-load keeps the repaired state
        assert report.records >= SLICE

    def test_load_with_report_lists_corrupt_lines(self, ftp_daemon,
                                                  tmp_path):
        path = tmp_path / "run.jsonl"
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, journal=path)
        victim = corrupt_journal_tail(path, mode="garbage-line",
                                      seed=11)
        __, results, __, report = CampaignJournal.load_with_report(
            path, strict=False)
        assert [line for line, __ in report.corrupt_lines] == [victim]
        assert report.corrupt_count == 1
        assert len(results) == SLICE - 1

    def test_truncated_tail_is_tolerated_even_strict(self, ftp_daemon,
                                                     tmp_path):
        path = tmp_path / "run.jsonl"
        run_campaign(ftp_daemon, "Client1", client1,
                     max_points=SLICE, journal=path)
        corrupt_journal_tail(path, mode="truncate-tail")
        __, results, __ = CampaignJournal.load(path, strict=True)
        assert len(results) == SLICE - 1


# ----------------------------------------------------------------------
# Graceful checkpoint shutdown

class TestCheckpointShutdown:
    def test_deadline_checkpoints_parallel_run(self, ftp_daemon,
                                               tmp_path,
                                               serial_campaign):
        path = tmp_path / "run.jsonl"
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_campaign(ftp_daemon, "Client1", client1,
                         max_points=SLICE, workers=2, journal=path,
                         deadline=0.01, supervisor=fast_config())
        interrupted = excinfo.value
        assert interrupted.reason == "deadline"
        assert "--resume" in interrupted.resume_hint()
        assert str(path) in interrupted.resume_hint()
        resumed = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE, workers=2,
                               journal=path, resume=True,
                               supervisor=fast_config())
        assert campaign_differences(resumed, serial_campaign) == []

    def test_deadline_checkpoints_serial_run(self, ftp_daemon,
                                             tmp_path,
                                             serial_campaign):
        path = tmp_path / "run.jsonl"
        with pytest.raises(CampaignInterrupted) as excinfo:
            # the serial runner checks the deadline at each loop head;
            # an already-expired deadline checkpoints before point 1
            run_campaign(ftp_daemon, "Client1", client1,
                         max_points=SLICE, journal=path,
                         deadline=0.0)
        assert excinfo.value.reason == "deadline"
        resumed = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE, journal=path,
                               resume=True)
        assert campaign_differences(resumed, serial_campaign) == []

    def test_sigterm_checkpoints_and_resumes(self, ftp_daemon,
                                             tmp_path,
                                             serial_campaign):
        # run the campaign in a forked child with graceful_signals
        # on; hold it at point 5 until the parent has delivered
        # SIGTERM, then assert the journal resumes to identical
        # tallies in this process
        path = tmp_path / "run.jsonl"
        context = multiprocessing.get_context("fork")
        ready = context.Event()
        released = context.Event()

        def child():
            from repro.obs import EventBus
            done = [0]

            def hold(event):
                if event["type"] != "outcomes":
                    return
                done[0] += sum(event["delta"].values())
                if done[0] == 5:
                    ready.set()
                    released.wait(30.0)

            bus = EventBus()
            bus.subscribe(hold)
            try:
                run_campaign(ftp_daemon, "Client1", client1,
                             max_points=SLICE, journal=path,
                             graceful_signals=True, telemetry=bus)
            except CampaignInterrupted as interrupted:
                os._exit(75 if interrupted.reason == "SIGTERM" else 64)
            os._exit(0)

        process = context.Process(target=child)
        process.start()
        assert ready.wait(60.0), "child never reached point 5"
        os.kill(process.pid, signal.SIGTERM)
        released.set()
        process.join(60.0)
        assert process.exitcode == 75

        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        journaled = [r for r in records if r["type"] == "result"]
        assert 5 <= len(journaled) < SLICE

        resumed = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE, journal=path,
                               resume=True)
        assert campaign_differences(resumed, serial_campaign) == []
        assert resumed.timing["executed"] == SLICE - len(journaled)


# ----------------------------------------------------------------------
# Supervision helpers

class TestFleetModeSupervision:
    def test_shared_backoff_helper(self):
        from repro.injection.runner import backoff_delay
        config = fast_config()
        delays = [backoff_delay(config, n) for n in range(1, 6)]
        assert delays[0] == config.backoff_base
        assert all(later >= earlier for earlier, later
                   in zip(delays, delays[1:]))
        assert max(delays) <= config.backoff_cap
