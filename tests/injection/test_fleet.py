"""Warm worker fleet: serial-identical execution, warm cache reuse
across campaigns, supervision (kill/respawn/salvage, retirement with
inline fallback, pipe-error accounting) and checkpoint drain.

The acceptance property is the repo's north star: every path through
the fleet must end in tallies byte-identical to an undisturbed serial
run of the same campaign.
"""

from __future__ import annotations

import pytest

from repro.analysis.equivalence import campaign_differences
from repro.apps.ftpd import client1
from repro.injection import (CampaignInterrupted, ChaosAction,
                             ChaosPolicy, FleetConfig,
                             run_campaign, run_fleet_campaign,
                             WorkerFleet)
from repro.injection.fleet import BUSY

SLICE = 40

#: test-speed fleet: short backoff and polls, real semantics.
FAST = dict(workers=2, backoff_base=0.05, backoff_cap=0.2,
            poll_interval=0.05, dead_grace=0.2)


def fast_config(**overrides):
    return FleetConfig(**{**FAST, **overrides})


@pytest.fixture(scope="module")
def serial_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


def counters(campaign):
    return campaign.metrics["volatile"]["counters"]


# ----------------------------------------------------------------------
# Equivalence

class TestFleetEquivalence:
    def test_journal_carries_unit_markers(self, ftp_daemon, tmp_path,
                                          serial_campaign):
        from repro.injection import (CampaignJournal,
                                     discover_shard_journals)
        base = tmp_path / "run.jsonl"
        run_fleet_campaign(ftp_daemon, "Client1", client1,
                           config=fast_config(), max_points=SLICE,
                           journal=base)
        units = []
        for path in discover_shard_journals(base):
            __, __, __, report = CampaignJournal.load_with_report(path)
            units.extend(report.units)
        assert units, "no unit markers in any shard journal"
        assert all(marker.get("records", 0) >= 1 for marker in units)

    def test_resume_from_fleet_journal(self, ftp_daemon, tmp_path,
                                       serial_campaign):
        base = tmp_path / "run.jsonl"
        run_fleet_campaign(ftp_daemon, "Client1", client1,
                           config=fast_config(), max_points=SLICE,
                           journal=base)
        resumed = run_fleet_campaign(
            ftp_daemon, "Client1", client1, config=fast_config(),
            max_points=SLICE, journal=base, resume=True)
        assert campaign_differences(resumed, serial_campaign) == []
        assert resumed.timing["executed"] == 0
        assert counters(resumed)["runtime.resumed"] == SLICE


# ----------------------------------------------------------------------
# Warm reuse across campaigns

class TestWarmFleet:
    def test_second_submission_reuses_golden(self, ftp_daemon,
                                             serial_campaign):
        fleet = WorkerFleet(fast_config())
        fleet.start()
        try:
            cold = run_fleet_campaign(ftp_daemon, "Client1", client1,
                                      fleet=fleet, max_points=SLICE)
            warm = run_fleet_campaign(ftp_daemon, "Client1", client1,
                                      fleet=fleet, max_points=SLICE)
        finally:
            fleet.stop()
        for campaign in (cold, warm):
            assert campaign_differences(campaign, serial_campaign) == []
        assert counters(cold).get("runtime.golden_runs", 0) >= 1
        assert counters(cold).get("runtime.golden_reused", 0) == 0
        assert counters(warm).get("runtime.golden_runs", 0) == 0
        assert counters(warm).get("runtime.golden_reused", 0) >= 1
        assert counters(warm).get("runtime.sessions_reused", 0) >= 1

    def test_concurrent_campaigns_interleave(self, ftp_daemon,
                                             serial_campaign):
        fleet = WorkerFleet(fast_config())
        fleet.start()
        try:
            first = fleet.submit(ftp_daemon, "Client1", client1,
                                 max_points=SLICE)
            second = fleet.submit(ftp_daemon, "Client1", client1,
                                  max_points=SLICE)
            while not (fleet.finished(first)
                       and fleet.finished(second)):
                fleet.pump()
            campaigns = [fleet.finalize(first),
                         fleet.finalize(second)]
        finally:
            fleet.stop()
        for campaign in campaigns:
            assert campaign_differences(campaign, serial_campaign) == []
        # the second submission found the cell's golden already warm
        assert counters(campaigns[1]) \
            .get("runtime.golden_reused", 0) >= 1


# ----------------------------------------------------------------------
# Supervision

class TestFleetSupervision:
    def test_killed_worker_respawns_and_heals(self, ftp_daemon,
                                              tmp_path,
                                              serial_campaign):
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="kill", shard=0, after=2,
                        exit_code=42),))
        campaign = run_fleet_campaign(
            ftp_daemon, "Client1", client1, config=fast_config(),
            chaos=chaos, max_points=SLICE,
            journal=tmp_path / "run.jsonl")
        assert campaign_differences(campaign, serial_campaign) == []
        volatile = counters(campaign)
        assert volatile["supervisor.respawns"] == 1
        assert volatile["supervisor.failed_shards"] == 0
        assert volatile["supervisor.salvaged_points"] >= 1

    def test_all_workers_retired_falls_back_inline(self, ftp_daemon,
                                                   tmp_path,
                                                   serial_campaign):
        # both workers die once, the restart budget is zero: the
        # parent must finish the remaining units itself
        chaos = ChaosPolicy(actions=(
            ChaosAction(kind="kill", shard=0, after=2),
            ChaosAction(kind="kill", shard=1, after=2),))
        campaign = run_fleet_campaign(
            ftp_daemon, "Client1", client1,
            config=fast_config(max_restarts=0), chaos=chaos,
            max_points=SLICE, journal=tmp_path / "run.jsonl")
        assert campaign_differences(campaign, serial_campaign) == []
        volatile = counters(campaign)
        assert volatile["supervisor.failed_shards"] == 2
        assert volatile["supervisor.degraded"] >= 1
        assert volatile["supervisor.inline_points"] >= 1

    def test_torn_pipe_while_busy_counts_pipe_error(self):
        # a worker killed mid-send tears its channel: the parent must
        # classify the EOF on a BUSY slot as a pipe error, not as a
        # clean goodbye
        import multiprocessing
        fleet = WorkerFleet(fast_config())
        slot = fleet.slots.setdefault(
            0, type("S", (), {})())      # fleet not started: no slots
        parent_conn, child_conn = multiprocessing.Pipe()
        slot.worker = 0
        slot.incarnation = 0
        slot.status = BUSY
        slot.conn = parent_conn
        child_conn.close()
        fleet._drain_conn(slot, parent_conn)
        assert fleet.events["pipe_errors"] == 1
        assert slot.conn is None


# ----------------------------------------------------------------------
# Checkpoint drain

class TestFleetCheckpoint:
    def test_deadline_drains_and_resumes(self, ftp_daemon, tmp_path,
                                         serial_campaign):
        base = tmp_path / "run.jsonl"
        with pytest.raises(CampaignInterrupted) as excinfo:
            run_fleet_campaign(ftp_daemon, "Client1", client1,
                               config=fast_config(), max_points=SLICE,
                               journal=base, deadline=0.0)
        assert excinfo.value.reason == "deadline"
        resumed = run_fleet_campaign(
            ftp_daemon, "Client1", client1, config=fast_config(),
            max_points=SLICE, journal=base, resume=True,
            journal_salvage=True)
        assert campaign_differences(resumed, serial_campaign) == []

    def test_drain_keeps_fleet_alive_for_next_campaign(self,
                                                       ftp_daemon,
                                                       tmp_path,
                                                       serial_campaign):
        fleet = WorkerFleet(fast_config())
        fleet.start()
        try:
            base = tmp_path / "run.jsonl"
            with pytest.raises(CampaignInterrupted):
                run_fleet_campaign(ftp_daemon, "Client1", client1,
                                   fleet=fleet, max_points=SLICE,
                                   journal=base, deadline=0.0)
            # the same fleet serves the next submission (idle workers
            # survive a drain; only busy ones were checkpointed)
            campaign = run_fleet_campaign(
                ftp_daemon, "Client1", client1, fleet=fleet,
                max_points=SLICE, journal=base, resume=True,
                journal_salvage=True)
        finally:
            fleet.stop()
        assert campaign_differences(campaign, serial_campaign) == []
