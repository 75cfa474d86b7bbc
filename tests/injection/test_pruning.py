"""Equivalence-class pruning: partition soundness and campaign
equivalence on a real cell."""

from __future__ import annotations

import pytest

from repro.apps.ftpd import client1
from repro.emu import Process
from repro.injection import (enumerate_points, get_fault_model,
                             record_golden, run_campaign)
from repro.injection.pruning import (_classify_replacement,
                                     GuardedWatchdog, PRUNE_DEAD,
                                     PRUNE_SOLO)
from repro.injection.runner import Watchdog, WatchdogConfig
from repro.kernel import Kernel
from repro.obs.forensics import flatten_ring, make_forensic_ring
from repro.x86 import assemble

SLICE = 160   # experiments per campaign in these fast tests


@pytest.fixture(scope="module")
def cell(ftp_daemon):
    golden = record_golden(ftp_daemon, client1)
    points = enumerate_points(ftp_daemon.module,
                              ftp_daemon.auth_ranges())
    return ftp_daemon, golden, points


@pytest.fixture(scope="module")
def exhaustive(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE)


@pytest.fixture(scope="module")
def pruned(ftp_daemon):
    return run_campaign(ftp_daemon, "Client1", client1,
                        max_points=SLICE, prune=True)


class TestPartition:
    """Every enumerated point lands in exactly one class."""

    def test_classification_is_a_partition(self, cell):
        daemon, golden, points = cell
        model = get_fault_model("branch-bit")
        plan = model.classify_points(daemon.module, points, "old",
                                     golden.coverage,
                                     ranges=daemon.auth_ranges())
        seen = set()
        for site in plan.sites:
            if not site.sealed:
                site.seal(None)   # bytes-level keys, no live EFLAGS
            for cls in site.classes:
                for point in cls.points:
                    assert point.key not in seen, \
                        "point %s in two classes" % point.key
                    seen.add(point.key)
        assert seen == {point.key for point in points}

    def test_dead_sites_merge_covered_sites_do_not_vanish(self, cell):
        daemon, golden, points = cell
        model = get_fault_model("branch-bit")
        plan = model.classify_points(daemon.module, points, "old",
                                     golden.coverage,
                                     ranges=daemon.auth_ranges())
        dead = [site for site in plan.sites if site.dead]
        assert dead, "cell has no never-activated site"
        for site in dead:
            assert len(site.classes) == 1
            assert site.classes[0].kind == PRUNE_DEAD

    def test_data_models_default_to_dead_plus_singletons(self, cell):
        daemon, golden, points_text = cell
        model = get_fault_model("register-bit")
        points = model.enumerate_points(daemon.module,
                                        daemon.auth_ranges())
        plan = model.classify_points(daemon.module, points, "old",
                                     golden.coverage)
        for site in plan.sites:
            for cls in site.classes:
                assert cls.kind in (PRUNE_DEAD, PRUNE_SOLO)

    def test_loop_family_is_never_a_branch_class(self, cell):
        """``loop``/``loope``/``loopne``/``jecxz`` read (and write)
        ECX, so a corrupted image decoding to one must stay opaque --
        merging it with a same-target jmp/jcc once produced a wrong
        SD-vs-FSV fan-out."""
        daemon, golden, points = cell
        site = next(p.instruction_address for p in points
                    if p.instruction_address in golden.coverage)
        for opcode in (0xE0, 0xE1, 0xE2, 0xE3):
            disposition = _classify_replacement(
                daemon.module, site, bytes([opcode, 0x05]))
            assert disposition[0] != "branch", \
                "opcode %#x classified as a branch" % opcode


class TestCampaignEquivalence:
    def test_counts_identical(self, pruned, exhaustive):
        assert pruned.counts() == exhaustive.counts()
        assert pruned.counts(refined=True) \
            == exhaustive.counts(refined=True)

    def test_per_point_outcomes_identical(self, pruned, exhaustive):
        assert [(r.point.key, r.outcome) for r in pruned.results] \
            == [(r.point.key, r.outcome) for r in exhaustive.results]

    def test_figure4_and_table3_identical(self, pruned, exhaustive):
        assert pruned.crash_latencies() == exhaustive.crash_latencies()
        assert pruned.by_location() == exhaustive.by_location()

    def test_provenance_stamped_consistently(self, pruned):
        by_key = {r.point.key: r for r in pruned.results}
        stamped = [r for r in pruned.results if r.class_id is not None]
        assert stamped, "no multi-member class in the slice"
        for result in stamped:
            rep = by_key[result.representative]
            assert rep.class_id == result.class_id
            assert rep.representative == rep.point.key
            assert rep.outcome == result.outcome

    def test_fewer_experiments_executed(self, pruned, exhaustive):
        assert pruned.timing["executed"] \
            < exhaustive.timing["executed"]
        counters = pruned.metrics["volatile"]["counters"]
        assert counters["pruning.rep_runs"] > 0
        assert counters["pruning.fanned_out"] > 0


class TestAudit:
    def test_full_audit_passes_and_counts_runs(self, ftp_daemon,
                                               exhaustive):
        audited = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE, prune=True,
                               audit_fraction=1.0)
        assert audited.counts() == exhaustive.counts()
        counters = audited.metrics["volatile"]["counters"]
        assert counters["pruning.audited_classes"] > 0
        assert counters["pruning.audit_runs"] > 0


class TestJournalResume:
    def test_pruned_journal_resumes_to_identical_tally(self, ftp_daemon,
                                                       pruned,
                                                       tmp_path):
        journal = tmp_path / "pruned.jsonl"
        first = run_campaign(ftp_daemon, "Client1", client1,
                             max_points=SLICE, prune=True,
                             journal=journal)
        resumed = run_campaign(ftp_daemon, "Client1", client1,
                               max_points=SLICE, prune=True,
                               journal=journal, resume=True)
        assert resumed.timing["executed"] == 0
        assert [(r.point.key, r.outcome, r.class_id)
                for r in resumed.results] \
            == [(r.point.key, r.outcome, r.class_id)
                for r in first.results]
        assert resumed.counts() == pruned.counts()


# the site loads a data address; flipping the immediate's top bit
# points it into unmapped memory, so the run crashes two instructions
# later, never revisiting the site
GUARDED_CRASH = """
.text
.global _start
_start:
    movl $1, %eax
    movl $2, %edx
site:
    movl $word, %ebx
    addl $1, %eax
    movl (%ebx), %ecx
    movl $1, %eax
    movl $0, %ebx
    int $0x80
.data
word:
    .long 7
"""


class TestGuardedWatchdog:
    def _crash_ring(self, make_watchdog):
        module = assemble(GUARDED_CRASH)
        site = module.address_of("site")
        process = Process(module, Kernel())
        assert process.run_until(site).kind == "breakpoint"
        process.flip_bit(site + 4, 7)          # top byte of the imm32
        process.cpu.forensic_ring = make_forensic_ring()
        watchdog = make_watchdog(site)
        status = watchdog.run(process, 10_000)
        assert status.kind == "crash"
        ring = flatten_ring(process.cpu.forensic_ring)
        assert ring[0] == site and ring[-1] == status.fault_eip
        return ring, watchdog

    def test_ring_matches_plain_watchdog_ring(self):
        plain, __ = self._crash_ring(lambda site: Watchdog())
        guarded, guard = self._crash_ring(
            lambda site: GuardedWatchdog(
                WatchdogConfig(), range(site, site + 5), site=site))
        assert not guard.tripped
        # the stepped corrupted instruction is in the ring too
        assert guarded == plain
