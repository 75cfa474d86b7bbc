"""Campaign runner: slicing, counting, determinism, encodings."""

from __future__ import annotations

import pytest

from repro.apps.ftpd import client1, client2
from repro.injection import (ENCODING_NEW, ENCODING_OLD, NOT_ACTIVATED,
                             run_campaign, SECURITY_BREAKIN)

SLICE = 160   # experiments per campaign in these fast tests


@pytest.fixture(scope="module")
def small_campaign(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1, max_points=SLICE)


class TestCampaignMechanics:
    def test_one_result_per_point(self, small_campaign):
        assert small_campaign.total_runs == SLICE

    def test_counts_sum_to_total(self, small_campaign):
        assert sum(small_campaign.counts().values()) \
            == small_campaign.total_runs

    def test_activated_consistent(self, small_campaign):
        counts = small_campaign.counts()
        assert small_campaign.activated_count \
            == small_campaign.total_runs - counts[NOT_ACTIVATED]

    def test_percentages(self, small_campaign):
        total = sum(small_campaign.percentage_of_activated(outcome)
                    for outcome in ("NM", "SD", "FSV", "BRK"))
        assert total == pytest.approx(100.0)

    def test_results_metadata(self, small_campaign):
        activated = [r for r in small_campaign.results if r.activated]
        assert activated
        for result in activated:
            assert result.activation_instret > 0
            assert result.exit_kind in ("exit", "crash", "limit", "hang")
            if result.outcome == "SD":
                assert result.crash_latency is not None
                assert result.crash_latency >= 0

    def test_na_results_not_activated(self, small_campaign):
        for result in small_campaign.results:
            if result.outcome == NOT_ACTIVATED:
                assert not result.activated

    def test_determinism(self, ftp_daemon):
        first = run_campaign(ftp_daemon, "Client1", client1,
                             max_points=60)
        second = run_campaign(ftp_daemon, "Client1", client1,
                              max_points=60)
        assert [r.outcome for r in first.results] \
            == [r.outcome for r in second.results]
        assert [r.crash_latency for r in first.results] \
            == [r.crash_latency for r in second.results]

    def test_progress_callback(self, ftp_daemon):
        # progress is a bus subscriber: one outcomes delta per point
        from repro.obs import EventBus
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        run_campaign(ftp_daemon, "Client1", client1, max_points=24,
                     telemetry=bus)
        deltas = [sum(event["delta"].values()) for event in seen
                  if event["type"] == "outcomes"]
        assert deltas == [1] * 24


class TestEncodings:
    def test_new_encoding_campaign_runs(self, ftp_daemon):
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                encoding=ENCODING_NEW, max_points=SLICE)
        assert campaign.encoding == ENCODING_NEW
        assert campaign.total_runs == SLICE

    def test_same_na_set_under_both_encodings(self, ftp_daemon):
        old = run_campaign(ftp_daemon, "Client1", client1,
                           encoding=ENCODING_OLD, max_points=SLICE)
        new = run_campaign(ftp_daemon, "Client1", client1,
                           encoding=ENCODING_NEW, max_points=SLICE)
        old_na = [r.point for r in old.results
                  if r.outcome == NOT_ACTIVATED]
        new_na = [r.point for r in new.results
                  if r.outcome == NOT_ACTIVATED]
        assert old_na == new_na


class TestBrkSemantics:
    def test_no_brk_for_authorized_client(self, ftp_daemon):
        campaign = run_campaign(ftp_daemon, "Client2", client2,
                                max_points=400)
        assert campaign.counts()[SECURITY_BREAKIN] == 0

    def test_by_location_covers_brk_fsv_only(self, small_campaign):
        by_location = small_campaign.by_location()
        total = sum(by_location.values())
        counts = small_campaign.counts()
        assert total == counts["BRK"] + counts["FSV"]
