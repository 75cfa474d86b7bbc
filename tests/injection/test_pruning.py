"""Equivalence-class pruning: partition soundness, class provenance
and the audit on a real cell (pruned records equal the reference run's
in ``tests/properties/test_oracle.py``)."""

from __future__ import annotations

import pytest

from repro.apps.ftpd import client1
from repro.emu import Process
from repro.injection import (BreakpointSession, enumerate_points,
                             get_fault_model, record_golden, run_campaign)
from repro.injection.earlyexit import EarlyExitAuditError, EarlyExits
from repro.injection.pruning import (_classify_replacement,
                                     _flags_dead_after, _sweeps,
                                     GuardedWatchdog, PRUNE_DEAD,
                                     PRUNE_SOLO)
from repro.injection.runner import Watchdog, WatchdogConfig
from repro.kernel import Kernel, ScriptedClient
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


#: ``after`` starts a sweep boundary; its imm32 holds ``nop; cmp
#: %eax, %eax``, which a decode from inside it would read.
FLAGS_SCAN = """
.text
.global _start
_start:
    cmpl $1, %eax
after:
    movl $0x90c03990, %ecx
    xorl %edx, %edx
    ret
"""


def test_flags_dead_only_from_a_sweep_boundary():
    module = assemble(FLAGS_SCAN)
    after = module.address_of("after")
    end = module.text_base + len(module.text)
    sweeps = _sweeps(module, [(module.text_base, end)])
    assert _flags_dead_after(sweeps, after)
    assert _flags_dead_after(_sweeps(module, [(after + 1, end)]),
                             after + 1)
    # no instruction of the range's sweep starts there: conservative
    assert not _flags_dead_after(sweeps, after + 1)
    assert not _flags_dead_after(sweeps, end)       # in no range


class TestCampaignEquivalence:
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


# ----------------------------------------------------------------------
# Guarded representatives take early exits

#: The site is the first byte of its range, so no instruction boundary
#: before it is known and the ``jmp`` at ``back`` is watched.  ZF is
#: clear, so every displacement flip of the ``je`` falls through: one
#: guarded class.  A corrupted run rejoins the golden run at the
#: ``getpid`` (syscall 0); the golden tail then runs ``{after}``.
GUARDED_TAIL = """
.text
.global _start
_start:
    movl $1, %eax
    cmpl $2, %eax
    jmp site
back:
    jmp done
site:
    je far
    movl $20, %eax
    int $0x80
    {after}
done:
    movl $0, %ebx
    movl $1, %eax
    int $0x80
far:
    movl $3, %ebx
    movl $1, %eax
    int $0x80
"""

TAIL_BUDGET = 5_000


class NullClient(ScriptedClient):
    def receive(self, data):
        pass

    def broke_in(self):
        return False


class TailDaemon:
    """A daemon whose one injection range starts at its site."""

    def __init__(self, after):
        self.module = assemble(GUARDED_TAIL.format(after=after))
        self.site = self.module.address_of("site")

    def auth_ranges(self):
        return [(self.site, self.site + 2)]

    def make_kernel(self, client):
        return Kernel.for_client(client)


def _fall_through_representative(after, armed):
    """Run the representative of the class whose ``je`` falls through
    under its guard, with early exits armed or in full: ``(status,
    guard)``."""
    daemon = TailDaemon(after)
    golden = record_golden(daemon, NullClient, budget=TAIL_BUDGET)
    model = get_fault_model("branch-bit")
    ranges = daemon.auth_ranges()
    site, = model.classify_points(
        daemon.module, enumerate_points(daemon.module, ranges), "old",
        golden.coverage, ranges).sites
    session = BreakpointSession(daemon, NullClient, daemon.site,
                                budget=TAIL_BUDGET, golden=golden)
    site.seal(session.process.cpu)
    cls, = [cls for cls in site.classes if cls.class_id
            == "succ:%x:%x" % (daemon.site, daemon.site + 2)]
    assert cls.needs_guard and daemon.module.address_of("back") in cls.watch
    guard = session.run_fn = GuardedWatchdog(
        WatchdogConfig(), cls.watch, site=cls.site,
        dispositions=cls.dispositions)
    if armed:
        EarlyExits(golden).arm(session)
    status, __, __ = model.apply(session, cls.representative, "old",
                                 daemon.module)
    return status, guard


def _ending(status):
    return status.kind, status.exit_code, status.instret


class TestGuardedEarlyExits:
    def test_no_convergence_before_the_watched_jmp(self):
        full, full_guard = _fall_through_representative("jmp back",
                                                        armed=False)
        early, guard = _fall_through_representative("jmp back",
                                                    armed=True)
        assert full_guard.tripped and guard.tripped
        # the golden tail enters ``back`` after syscall 0, so the run
        # rejoins it only at the exit (syscall 1), past the trip
        assert early.early_exit.index == 1
        assert _ending(early) == _ending(full)

    def test_a_guarded_run_converges_untripped(self):
        full, full_guard = _fall_through_representative("jmp done",
                                                        armed=False)
        early, guard = _fall_through_representative("jmp done",
                                                    armed=True)
        assert not full_guard.tripped and not guard.tripped
        assert early.early_exit.kind == "converged"
        assert early.early_exit.index == 0
        assert _ending(early) == _ending(full)

    @pytest.mark.parametrize("after, trips", [("jmp back", 1),
                                              ("jmp done", 0)])
    def test_audited_campaigns_pass(self, after, trips):
        campaign = run_campaign(TailDaemon(after), "Null", NullClient,
                                budget=TAIL_BUDGET, prune=True,
                                audit_fraction=1.0)
        counters = campaign.metrics["volatile"]["counters"]
        assert counters.get("pruning.guard_trips", 0) == trips
        assert counters["early_exit.audited"] > 0

    def test_the_audit_needs_the_watch_in_the_fetch_rule(self,
                                                          monkeypatch):
        arm = EarlyExits.arm

        def arm_without_watch(early, session):
            arm(early, session)
            early.watch = frozenset()

        monkeypatch.setattr(EarlyExits, "arm", arm_without_watch)
        early, guard = _fall_through_representative("jmp back",
                                                    armed=True)
        assert early.early_exit.index == 0 and not guard.tripped
        with pytest.raises(EarlyExitAuditError):
            run_campaign(TailDaemon("jmp back"), "Null", NullClient,
                         budget=TAIL_BUDGET, prune=True,
                         audit_fraction=1.0)
