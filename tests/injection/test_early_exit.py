"""Early exits: golden convergence at syscalls and exact-cycle
fast-forward (:mod:`repro.injection.earlyexit`).

The campaign-level proof is the equivalence oracle: every draw but the
reference runs with early exits armed and must reproduce the
reference record for record.  These tests pin each part of the
fingerprint and of the cycle arithmetic on its own, at a point where
dropping that part would accept a state the full run does not reach.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.apps.ftpd import client1
from repro.emu import Process
from repro.emu.memory import PAGE_SHIFT, PAGE_SIZE
from repro.injection import (BreakpointSession, MachineSnapshot,
                             record_golden, run_campaign, Watchdog,
                             WatchdogConfig)
from repro.injection.earlyexit import (CycleSearch, EarlyExitAuditError,
                                       EarlyExits)
from repro.injection.golden import writable_regions
from repro.kernel import Kernel
from repro.x86 import assemble

#: an ftpd Client1 branch the golden run executes long before it
#: exits, and the HANG point of the full Client1 cell: its ``je``
#: with bit 7 of byte 1 flipped loops with an 18-instruction period.
SITE = 0x8048E90
HANG_SITE = 0x8049535


class _AtSyscall(Exception):
    pass


def _stop_at_syscall(process, budget):
    """Run to the first syscall entry; the ``int`` instruction."""
    def hook(cpu, instruction):
        raise _AtSyscall(instruction)
    process.cpu.syscall_hook = hook
    try:
        process.run(budget)
    except _AtSyscall as stop:
        return stop.args[0]
    finally:
        process.cpu.syscall_hook = None
    raise AssertionError("no syscall before the budget")


@pytest.fixture(scope="module")
def golden(ftp_daemon):
    return record_golden(ftp_daemon, client1)


@pytest.fixture
def at_syscall(ftp_daemon, golden):
    """A clean suffix from SITE stopped at its first syscall entry:
    ``(early, cpu, instruction, index)``, with ``early`` bound to the
    session and ``index`` the syscall index there."""
    session = BreakpointSession(ftp_daemon, client1, SITE)
    session._restore()
    instruction = _stop_at_syscall(session.process, session.budget)
    cpu = session.process.cpu
    early = EarlyExits(golden)
    early.session = session
    return early, cpu, instruction, cpu.kernel.syscall_count


class TestConvergence:
    def test_clean_suffix_matches_the_golden_state(self, at_syscall):
        early, cpu, instruction, index = at_syscall
        assert early.match(cpu, instruction) == index

    def test_client_state_is_compared(self, at_syscall):
        early, cpu, instruction, __ = at_syscall
        cpu.kernel.channel.client.queued_reply = b"USER x\r\n"
        assert early.match(cpu, instruction) is None

    def test_transcript_is_compared(self, at_syscall):
        early, cpu, instruction, __ = at_syscall
        cpu.kernel.channel.transcript.append(("S", b"extra"))
        assert early.match(cpu, instruction) is None

    def test_a_page_only_the_golden_run_moved_is_compared(
            self, at_syscall):
        """Revert a page the golden run changed since the snapshot
        and drop it from the dirty set: it now differs from the
        golden state without being dirty."""
        early, cpu, instruction, index = at_syscall
        moved = early._moved_pages(index, early.golden.states[index])
        snapshot = early.session.snapshot
        regions = writable_regions(cpu.memory)
        candidates = [(region, page)
                      for region, pages in zip(regions, moved)
                      for page in sorted(pages)]
        assert candidates
        region, page = candidates[0]
        blob = snapshot.region_blobs[cpu.memory.regions.index(region)]
        low = page << PAGE_SHIFT
        region.data[low:low + PAGE_SIZE] = blob[low:low + PAGE_SIZE]
        region.dirty.discard(page)
        assert early.match(cpu, instruction) is None

    def test_a_dirty_page_is_compared(self, at_syscall):
        early, cpu, instruction, __ = at_syscall
        stack = cpu.memory.region_named("stack")
        page = max(stack.dirty)
        stack.data[page << PAGE_SHIFT] ^= 1
        assert early.match(cpu, instruction) is None

    def test_corrupted_text_the_golden_tail_fetches_is_refused(
            self, at_syscall):
        early, cpu, instruction, index = at_syscall
        last_fetch = early.golden.last_fetch
        later = min(address for address, fetched in last_fetch.items()
                    if fetched > index)
        done = min(address for address, fetched in last_fetch.items()
                   if fetched <= index)
        dirty_text = early.session.machine.dirty_text
        dirty_text.add(done)
        assert early.match(cpu, instruction) == index
        dirty_text.add(later)
        assert early.match(cpu, instruction) is None

    def test_a_shifted_match_must_end_within_the_budget(
            self, at_syscall):
        early, cpu, instruction, index = at_syscall
        golden = early.golden
        assert golden.last_instret_read < index
        room = early.session.budget - golden.instret
        cpu.instret += room
        assert early.match(cpu, instruction) == index
        cpu.instret += 1
        assert early.match(cpu, instruction) is None
        cpu.instret -= room + 1 + 7
        assert early.match(cpu, instruction) == index


# ----------------------------------------------------------------------
# Cycles

def _hang_run(ftp_daemon, golden, budget, armed):
    """Run the HANG point to *budget* (and the watchdog probe); the
    final machine state and the status."""
    watchdog = Watchdog()
    session = BreakpointSession(ftp_daemon, client1, HANG_SITE,
                                budget=budget, run_fn=watchdog)
    if armed:
        EarlyExits(golden).arm(session, watchdog)
    status, __, __ = session.run_with_flip(HANG_SITE + 1, 7)
    cpu = session.process.cpu
    state = (cpu.eip, list(cpu.regs), cpu.eflags, cpu.instret,
             status.kind, status.instret, status.hang_probe,
             cpu.kernel.syscall_count)
    return state, getattr(status, "early_exit", None)


@pytest.mark.parametrize("budget", [400_000, 400_007, 400_011])
def test_cycle_fast_forward_ends_in_the_full_runs_state(
        ftp_daemon, golden, budget):
    full, __ = _hang_run(ftp_daemon, golden, budget, armed=False)
    fast, exited = _hang_run(ftp_daemon, golden, budget, armed=True)
    assert exited is not None and exited.kind == "cycle"
    assert exited.period == 18 and exited.skipped > 300_000
    assert fast == full


#: a quiet count-down, then a loop that makes one ``getpid`` per 50
#: count-down iterations: its states at the count-down repeat in every
#: respect but the syscall count.
SYSCALL_LOOP = """
.text
.global _start
_start:
    movl $1000, %ecx
delay:
    dec %ecx
    jnz delay
    movl $20, %eax
    int $0x80
    movl $50, %ecx
    jmp delay
"""


def _syscall_loop_run(armed):
    process = Process(assemble(SYSCALL_LOOP), Kernel())
    # the search starts at the first slice boundary, in the count-down
    watchdog = Watchdog(WatchdogConfig(slice_instructions=600))
    if armed:
        snapshot = MachineSnapshot.capture(process, process.kernel)
        watchdog.early = SimpleNamespace(
            cycle_search=lambda process: CycleSearch(process, 500,
                                                     snapshot))
    status = watchdog.run(process, 20_000)
    cpu = process.cpu
    return (status.kind, cpu.eip, list(cpu.regs), cpu.instret,
            process.kernel.syscall_count)


def test_a_cycle_needs_an_equal_syscall_count():
    assert _syscall_loop_run(armed=True) == _syscall_loop_run(armed=False)


# ----------------------------------------------------------------------
# Campaign level

WINDOW = 60


def _counters(campaign):
    return campaign.metrics["volatile"]["counters"]


def test_campaign_counts_its_early_exits(ftp_daemon):
    campaign = run_campaign(ftp_daemon, "Client1", client1,
                            max_points=WINDOW)
    counters = _counters(campaign)
    assert counters["early_exit.converged"] > 0
    assert counters["early_exit.insns_skipped"] > 0
    assert "early_exit.audited" not in counters


def test_a_sampler_keeps_every_run_full_length(ftp_daemon):
    campaign = run_campaign(ftp_daemon, "Client1", client1,
                            max_points=WINDOW, sampler=True)
    assert not [name for name in _counters(campaign)
                if name.startswith("early_exit.")]


def test_audit_reruns_every_early_exit(ftp_daemon):
    campaign = run_campaign(ftp_daemon, "Client1", client1,
                            max_points=WINDOW, audit_fraction=1.0)
    counters = _counters(campaign)
    assert counters["early_exit.audited"] \
        == counters["early_exit.converged"] \
        + counters.get("early_exit.cycles", 0)


def test_audit_raises_on_a_wrong_early_exit(ftp_daemon, monkeypatch):
    """An early exit taken at the first syscall whatever the state
    disagrees with its full run on some point of the window."""
    def first_syscall(self, cpu, instruction):
        return cpu.kernel.syscall_count
    monkeypatch.setattr(EarlyExits, "match", first_syscall)
    with pytest.raises(EarlyExitAuditError):
        run_campaign(ftp_daemon, "Client1", client1, max_points=WINDOW,
                     audit_fraction=1.0)
