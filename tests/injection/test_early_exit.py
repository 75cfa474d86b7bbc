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
from repro.emu.liveness import AccessLog
from repro.emu.memory import PAGE_SHIFT, PAGE_SIZE
from repro.injection import (BreakpointSession, MachineSnapshot,
                             record_golden, run_campaign, Watchdog,
                             WatchdogConfig)
from repro.injection.earlyexit import (CycleSearch, EarlyExitAuditError,
                                       EarlyExits)
from repro.injection.golden import writable_regions
from repro.kernel import Kernel
from repro.kernel.channels import ScriptedClient
from repro.kernel.filesystem import FileSystem
from repro.obs.trace import load_trace_file
from repro.x86 import assemble
from repro.x86.registers import EAX, EBX, ECX, EDX, ESP

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

    @pytest.mark.parametrize("field", ["next_fd", "stderr_log",
                                       "open_files", "to_server"])
    def test_every_kernel_field_is_compared(self, at_syscall, field):
        early, cpu, instruction, index = at_syscall
        assert early.match(cpu, instruction) == index
        kernel = cpu.kernel
        if field == "next_fd":
            kernel.next_fd += 1
        elif field == "stderr_log":
            kernel.stderr_log += b"x"
        elif field == "open_files":
            kernel.open_files[kernel.next_fd] = SimpleNamespace(
                path="/etc/passwd", position=0)
        else:
            kernel.channel.to_server += b"x"
        assert early.match(cpu, instruction) is None

    def test_a_clean_suffix_matches_at_every_syscall(self, at_syscall):
        """The golden pages the check keeps serve every index: a
        page the golden run rewrites between two syscalls is compared
        with its bytes at each."""
        early, cpu, instruction, index = at_syscall
        matched = []

        def hook(cpu, instruction):
            matched.append((early.match(cpu, instruction),
                            cpu.kernel.syscall_count))
        cpu.syscall_hook = hook
        status = early.session.process.run(early.session.budget)
        assert status.kind == "exit"
        assert [expected for __, expected in matched] \
            == list(range(index, len(early.golden.states)))
        assert all(got == expected for got, expected in matched)
        assert early.memory_checks == len(matched)

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
        early, cpu, instruction, index = at_syscall
        stack = cpu.memory.region_named("stack")
        page = max(stack.dirty)
        offset = _live_offsets(early, cpu, index, stack, page)[0]
        stack.data[(page << PAGE_SHIFT) + offset] ^= 1
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


def _live_offsets(early, cpu, index, region, page):
    """Offsets of the bytes of *page* of *region* live at *index*."""
    number = writable_regions(cpu.memory).index(region)
    mask = early.golden.live_bytes.live(index, number, page) \
        .to_bytes(PAGE_SIZE, "little")
    return [offset for offset, byte in enumerate(mask) if byte]


def _flip(region, address):
    """Flip bit 0 of one byte as a store would: the page turns dirty."""
    offset = address - region.start
    region.data[offset] ^= 1
    region.dirty.add(offset >> PAGE_SHIFT)


class TestBlockingByte:
    """The lowest live byte that differed at a memory rejection is
    tested first at the next check; it rejects only where the full
    test would."""

    @staticmethod
    def _stack_page(early, cpu, index):
        stack = cpu.memory.region_named("stack")
        page = (cpu.regs[ESP] - stack.start) >> PAGE_SHIFT
        number = writable_regions(cpu.memory).index(stack)
        live = _live_offsets(early, cpu, index, stack, page)
        return stack, number, page, live

    def test_a_memory_rejection_remembers_the_lowest_live_byte(
            self, at_syscall):
        early, cpu, instruction, index = at_syscall
        stack, number, page, live = self._stack_page(early, cpu, index)
        low = stack.start + (page << PAGE_SHIFT)
        _flip(stack, low + live[-1])
        _flip(stack, low + live[0])
        assert early.match(cpu, instruction) is None
        assert early.blocking == (number, page, live[0])
        assert (early.memory_checks, early.quick_rejects) == (1, 0)
        assert early.match(cpu, instruction) is None
        assert (early.memory_checks, early.quick_rejects) == (1, 1)
        _flip(stack, low + live[0])
        assert early.match(cpu, instruction) is None
        assert early.blocking == (number, page, live[-1])
        assert (early.memory_checks, early.quick_rejects) == (2, 1)

    def test_a_rewritten_blocking_byte_no_longer_blocks(self, at_syscall):
        early, cpu, instruction, index = at_syscall
        stack, __, page, live = self._stack_page(early, cpu, index)
        address = stack.start + (page << PAGE_SHIFT) + live[0]
        _flip(stack, address)
        assert early.match(cpu, instruction) is None
        _flip(stack, address)
        assert early.match(cpu, instruction) == index
        assert early.quick_rejects == 0

    def test_a_blocking_byte_dead_here_does_not_block(self, at_syscall):
        """A byte that was live where it blocked may be dead at a
        later index: there it only counts as a dead byte."""
        early, cpu, instruction, index = at_syscall
        stack, number, page, live = self._stack_page(early, cpu, index)
        dead = sorted(set(range(PAGE_SIZE)) - set(live))[0]
        _flip(stack, stack.start + (page << PAGE_SHIFT) + dead)
        early.blocking = (number, page, dead)
        assert early.match(cpu, instruction) == index
        assert early.dead == ((), 1)
        assert early.quick_rejects == 0

    def test_arm_forgets_the_blocking_byte(self, at_syscall):
        early = at_syscall[0]
        early.blocking = (0, 0, 0)
        early.arm(early.session, Watchdog())
        early.disarm(early.session, Watchdog())
        assert early.blocking is None


class TestLiveness:
    """Registers and bytes the golden tail overwrites before reading
    them may differ; everything it reads may not."""

    def test_a_dead_register_matches_and_a_live_one_does_not(
            self, at_syscall):
        early, cpu, instruction, index = at_syscall
        dead = early.golden.dead_regs[index]
        registers = [register for register in range(8)
                     if dead >> register & 1]
        assert registers and len(registers) < 8
        for register in registers:
            cpu.regs[register] ^= 0x10
        assert early.match(cpu, instruction) == index
        assert early.dead == (tuple(registers), 0)
        for register in registers:
            cpu.regs[register] ^= 0x10
        for register in set(range(8)) - set(registers):
            cpu.regs[register] ^= 0x10
            assert early.match(cpu, instruction) is None, register
            cpu.regs[register] ^= 0x10

    def test_every_syscall_reads_its_arguments(self, golden):
        """At every index the registers the syscall itself reads are
        live: EAX, and EBX, ECX and EDX for read(2) and write(2)."""
        arguments = {3: (EBX, ECX, EDX), 4: (EBX, ECX, EDX)}
        numbers = set()
        for state, dead in zip(golden.states, golden.dead_regs):
            number = state.regs[EAX]
            numbers.add(number)
            for register in (EAX,) + arguments.get(number, ()):
                assert not dead >> register & 1, (number, register)
        assert {3, 4} <= numbers

    def test_a_dead_byte_matches_and_a_live_one_does_not(
            self, at_syscall):
        early, cpu, instruction, index = at_syscall
        stack = cpu.memory.region_named("stack")
        page = (cpu.regs[ESP] - stack.start) >> PAGE_SHIFT
        live = _live_offsets(early, cpu, index, stack, page)
        dead = sorted(set(range(PAGE_SIZE)) - set(live))
        assert live and dead
        low = stack.start + (page << PAGE_SHIFT)
        _flip(stack, low + dead[-1])
        assert early.match(cpu, instruction) == index
        assert early.dead == ((), 1)
        _flip(stack, low + dead[-1])
        _flip(stack, low + live[0])
        assert early.match(cpu, instruction) is None

    def test_a_byte_read_before_the_next_syscall_is_live_here(
            self, at_syscall):
        """A byte the golden tail reads before the next syscall entry
        and overwrites after it is live at this index, though dead at
        the next."""
        early, cpu, instruction, index = at_syscall
        live_bytes = early.golden.live_bytes
        found = None
        for number, region in enumerate(writable_regions(cpu.memory)):
            for page in range(region.page_count()):
                only_here = (live_bytes.live(index, number, page)
                             & ~live_bytes.live(index + 1, number, page))
                if only_here:
                    offset = ((only_here & -only_here).bit_length() - 1) // 8
                    found = region, (page << PAGE_SHIFT) + offset
                    break
            if found:
                break
        assert found is not None
        region, offset = found
        _flip(region, region.start + offset)
        assert early.match(cpu, instruction) is None

    def test_a_register_flip_campaign_converges_on_dead_state(
            self, ftp_daemon, tmp_path):
        path = tmp_path / "trace.json"
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                fault_model="register-bit",
                                max_points=WINDOW, audit_fraction=1.0,
                                trace=str(path))
        counters = _counters(campaign)
        assert counters["early_exit.converged_dead"] > 0
        assert counters["early_exit.audited"] \
            == counters["early_exit.converged"]
        spans = [event["args"] for event in load_trace_file(path)
                 if event["name"] == "injection"
                 and "converged_at" in event.get("args", {})]
        assert len(spans) == counters["early_exit.converged"]
        assert sum(1 for args in spans
                   if args["dead_regs"] or args["dead_bytes"]) \
            == counters["early_exit.converged_dead"]


#: open a file, read four bytes of it into ``buf``, use them, read a
#: text byte as data, exit.
ACCESSES = """
.data
path: .asciz "/f"
buf: .long 0
.text
.global _start
_start:
    movl $5, %eax
    movl $path, %ebx
    int $0x80
    movl %eax, %ebx
    movl $3, %eax
    movl $buf, %ecx
    movl $4, %edx
    int $0x80
    movl buf, %ebx
    movzbl _start, %ecx
    movl $20, %eax
    int $0x80
    movl $1, %eax
    int $0x80
"""


class _Silent(ScriptedClient):
    """A client that never talks."""

    def finished(self):
        return True

    def broke_in(self):
        return False


@pytest.fixture(scope="module")
def accesses():
    module = assemble(ACCESSES)
    daemon = SimpleNamespace(
        module=module,
        make_kernel=lambda client: Kernel.for_client(
            client, FileSystem({"/f": b"abcd"})))
    return module, record_golden(daemon, _Silent)


class TestAccessLog:
    def test_the_kernels_copies_are_logged(self, accesses):
        """``open`` reads the path up to its NUL; ``read`` writes
        the buffer."""
        module, __ = accesses
        process = Process(module, Kernel(filesystem=FileSystem(
            {"/f": b"abcd"})))
        log = AccessLog(process.memory)
        process.run(1000)
        path = module.symbols["path"].address
        buf = module.symbols["buf"].address
        logged = list(zip(log.starts, log.spans))
        assert (path, 3) in logged
        assert (buf, -4) in logged
        assert logged.index((buf, -4)) < logged.index((buf, 4))

    def test_bytes_the_kernel_reads_are_live_and_bytes_it_writes_dead(
            self, accesses):
        module, golden = accesses
        path = module.symbols["path"].address
        buf = module.symbols["buf"].address
        base = module.data_base     # region 0: the data region

        def live(index, address):
            offset = address - base
            mask = golden.live_bytes.live(index, 0, offset >> PAGE_SHIFT)
            return mask >> 8 * (offset % PAGE_SIZE) & 0xFF == 0xFF

        # "/f" and its NUL; the byte after is never read
        assert [live(0, path + offset) for offset in range(4)] \
            == [True, True, True, False]
        assert not any(live(index, buf + offset)
                       for index in (0, 1) for offset in range(4))
        assert not any(live(2, path + offset) for offset in range(3))

    def test_a_text_byte_read_as_data_joins_last_fetch(self, accesses):
        module, golden = accesses
        start = module.symbols["_start"].address
        assert golden.last_fetch[start] == 2
        assert golden.last_fetch[start + 1] == 0


#: three bytes of data, so the data region (data and bss) ends three
#: bytes into a page; the first of them is read after the first
#: syscall, the other two never.
PARTIAL = """
.data
pad: .byte 0, 0, 0
.text
.global _start
_start:
    movl $20, %eax
    int $0x80
    movl $pad, %ecx
    addl $0x8000, %ecx
    movzbl (%ecx), %ebx
    movl $1, %eax
    int $0x80
"""


@pytest.fixture(scope="module")
def partial_program():
    module = assemble(PARTIAL)
    daemon = SimpleNamespace(
        module=module,
        make_kernel=lambda client: Kernel.for_client(client, FileSystem({})))
    return daemon, record_golden(daemon, _Silent)


class TestPartialPage:
    """The last page of a data region is partial in every daemon
    (ftpd 34,932 bytes, pop3d 33,671, sshd 34,430): its bytes are
    compared like a whole page's."""

    @pytest.fixture
    def at_first_syscall(self, partial_program):
        daemon, golden = partial_program
        session = BreakpointSession(daemon, _Silent,
                                    daemon.module.symbols["_start"].address)
        session._restore()
        instruction = _stop_at_syscall(session.process, session.budget)
        early = EarlyExits(golden)
        early.session = session
        cpu = session.process.cpu
        data = writable_regions(cpu.memory)[0]
        last = data.page_count() - 1
        assert len(data.data) - (last << PAGE_SHIFT) == 3
        return early, cpu, instruction, data, last

    def test_a_live_byte_is_refused_and_a_dead_one_counted(
            self, at_first_syscall):
        early, cpu, instruction, data, last = at_first_syscall
        low = data.start + (last << PAGE_SHIFT)
        assert early.golden.live_bytes.live(0, 0, last) == 0xFF
        assert early.match(cpu, instruction) == 0
        _flip(data, low + 2)
        assert early.match(cpu, instruction) == 0
        assert early.dead == ((), 1)
        _flip(data, low)
        assert early.match(cpu, instruction) is None
        assert early.blocking == (0, last, 0)
        assert early.match(cpu, instruction) is None
        assert early.quick_rejects == 1

    def test_a_blocking_byte_on_a_page_the_check_skips_is_ignored(
            self, at_first_syscall):
        """The full test trusts ``region.dirty`` and the golden
        digests: a page neither dirty nor moved is the snapshot's, and
        the blocking byte is not tested there either."""
        early, cpu, instruction, data, last = at_first_syscall
        data.data[last << PAGE_SHIFT] ^= 1      # behind dirty tracking
        early.blocking = (0, last, 0)
        assert early.match(cpu, instruction) == 0
        assert early.quick_rejects == 0

    def test_a_daemons_last_data_page_counts_dead_bytes(self, at_syscall):
        """No daemon's golden run reads its last data page, so a flip
        anywhere on it is dead, up to the region's last byte."""
        early, cpu, instruction, index = at_syscall
        data = cpu.memory.region_named("data")
        last = data.page_count() - 1
        assert len(data.data) - (last << PAGE_SHIFT) == 2164
        assert not _live_offsets(early, cpu, index, data, last)
        _flip(data, data.end - 1)
        _flip(data, data.start + (last << PAGE_SHIFT))
        assert early.match(cpu, instruction) == index
        assert early.dead == ((), 2)


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
