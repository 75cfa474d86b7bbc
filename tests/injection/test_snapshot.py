"""MachineSnapshot semantics: dirty-page restore vs full restore,
pristine-skip, forking, and cross-model session reuse.

The acceptance gate for the snapshot-fork engine -- every registered
daemon x fault-model cell run with dirty-page restores equals the
full-restore reference, record for record -- is the equivalence
oracle's ``test_pruned_cell_matches_reference`` (its ``-unpruned``
cases run every experiment through the dirty-page path).
"""

from __future__ import annotations

import pytest

from repro.analysis.equivalence import campaign_differences
from repro.apps.registry import get_daemon_spec
from repro.injection import (available_fault_models, BreakpointSession,
                             get_fault_model, MachineSnapshot,
                             record_golden, SessionCache)
from repro.injection.runner import CampaignRunner

#: per-cell experiment cap: enough to span several instructions (and
#: therefore several restores per session) while staying fast.
MAX_POINTS = 12

def _covered_points(daemon, spec, model, cap=MAX_POINTS):
    golden = record_golden(daemon, spec.client_factory("Client1"))
    points = model.enumerate_points(daemon.module,
                                    daemon.auth_ranges())
    covered = [point for point in points
               if point.instruction_address in golden.coverage]
    return covered[:cap] if cap else covered


def _run(daemon, spec, model, points, **kwargs):
    factory = spec.client_factory("Client1")
    runner = CampaignRunner(daemon, "Client1", factory,
                            fault_model=model, points=points,
                            golden=record_golden(daemon, factory),
                            **kwargs)
    return runner.run()


class TestPristineSkip:
    def test_first_experiment_skips_restore(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        assert session.restore_stats["pristine_skips"] == 0
        session.run_with_flip(points[0].flip_address, 0)
        assert session.restore_stats["pristine_skips"] == 1
        assert session.restore_stats["restores"] == 0
        session.run_with_flip(points[0].flip_address, 1)
        assert session.restore_stats["restores"] == 1

    def test_outcome_tallies_unchanged_by_skip(self, ftp_daemon):
        """The pristine skip is pure bookkeeping: a campaign's outcome
        tallies must match a run that restores before every
        experiment (the full escape hatch never skips pages, and each
        per-point record -- not just the tally -- must agree)."""
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        skipping = _run(ftp_daemon, spec, model, points)
        full = _run(ftp_daemon, spec, model, points,
                    full_restore=True)
        assert campaign_differences(skipping, full) == []

    def test_restores_write_only_dirty_pages(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        total_pages = sum(region.page_count() for region
                          in session.process.memory.regions)
        for bit in range(3):
            session.run_with_flip(points[0].flip_address, bit)
        restores = session.restore_stats["restores"]
        assert restores == 2    # first run rode the pristine skip
        pages = session.restore_stats["pages_written"]
        assert 0 < pages < restores * total_pages


class TestFork:
    def test_fork_runs_identically(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        point = points[0]
        parent = BreakpointSession(ftp_daemon,
                                   spec.client_factory("Client1"),
                                   point.instruction_address)
        sibling = parent.fork()
        status_a, kernel_a, __ = parent.run_with_flip(
            point.flip_address, 2)
        status_b, kernel_b, __ = sibling.run_with_flip(
            point.flip_address, 2)
        assert status_a.kind == status_b.kind
        assert status_a.instret == status_b.instret
        assert kernel_a.channel.normalized_transcript() \
            == kernel_b.channel.normalized_transcript()

    def test_fork_shares_no_mutable_machine_state(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        parent = BreakpointSession(ftp_daemon,
                                   spec.client_factory("Client1"),
                                   points[0].instruction_address)
        sibling = parent.fork()
        for mine, theirs in zip(parent.process.memory.regions,
                                sibling.process.memory.regions):
            assert mine.data is not theirs.data
        assert parent.process.cpu is not sibling.process.cpu
        assert parent.process.kernel is not sibling.process.kernel
        assert sibling.snapshot is parent.snapshot

    def test_fork_of_unreached_session_raises(self, ftp_daemon):
        session = BreakpointSession(ftp_daemon,
                                    get_daemon_spec("ftpd")
                                    .client_factory("Client1"),
                                    0xDEAD)
        assert not session.reached
        with pytest.raises(RuntimeError):
            session.fork()


class TestSnapshotUnit:
    def test_restore_reverts_exactly_the_dirty_pages(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        blobs = [bytes(blob) for blob in session.snapshot.region_blobs]
        session.run_with_flip(points[0].flip_address, 1)
        session._restore()
        for region, blob in zip(session.process.memory.regions, blobs):
            assert bytes(region.data) == blob, region.name

    def test_capture_resets_dirty_baseline(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model)
        session = BreakpointSession(ftp_daemon,
                                    spec.client_factory("Client1"),
                                    points[0].instruction_address)
        # the prefix run dirtied pages; capture must have cleared them
        # so the first restore's delta covers only the suffix.
        recaptured = MachineSnapshot.capture(session.process,
                                             session.process.kernel)
        assert session.process.memory.dirty_pages() == {}
        assert recaptured.region_blobs \
            == [bytes(r.data) for r in session.process.memory.regions]


class TestSessionCacheReuse:
    def test_shared_cache_across_models_preserves_outcomes(
            self, ftp_daemon):
        """One site snapshot serves every fault model aimed at that
        instruction: campaigns run back-to-back over a shared cache
        must equal campaigns with private caches, and the second
        sweep must actually hit the cache."""
        spec = get_daemon_spec("ftpd")
        cache = SessionCache()
        for model_name in available_fault_models():
            model = get_fault_model(model_name)
            points = _covered_points(ftp_daemon, spec, model)
            private = _run(ftp_daemon, spec, model, points)
            shared = _run(ftp_daemon, spec, model, points,
                          session_cache=cache)
            assert campaign_differences(private, shared) == [], model_name
        assert cache.hits > 0

    def test_cache_capacity_evicts_lru(self, ftp_daemon):
        spec = get_daemon_spec("ftpd")
        model = get_fault_model(None)
        points = _covered_points(ftp_daemon, spec, model, cap=None)
        addresses = sorted({p.instruction_address for p in points})
        assert len(addresses) >= 2
        cache = SessionCache(capacity=1)
        factory = spec.client_factory("Client1")
        for address in addresses[:2]:
            key = SessionCache.key(ftp_daemon, "Client1", 400_000,
                                   address)
            cache.store(key, BreakpointSession(ftp_daemon, factory,
                                               address))
        assert len(cache._sessions) == 1
