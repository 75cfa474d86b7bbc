"""The convergence check against a reference.

:class:`DigestMatch` is the check as it was before it compared pages
byte for byte and remembered the byte that blocked it: every dirty
or moved page is hashed and compared by digest at every syscall
entry, in the order registers, memory, kernel, text.  The two must
give the same index (or ``None``) and the same dead registers and
byte count at every syscall entry of the CI's three 200-point
windows: ftpd branch-bit, ftpd register-bit and pop3d memory-bit.
"""

from __future__ import annotations

import pytest

from repro.apps import ftpd, pop3d
from repro.emu.memory import PAGE_SHIFT, PAGE_SIZE
from repro.injection import run_campaign
from repro.injection.earlyexit import EarlyExits
from repro.injection.golden import page_digest, writable_regions

_KEPT_PAGES = 64


class DigestMatch:
    """The reference check, bound to one golden run; set
    :attr:`session` before each :meth:`match`."""

    def __init__(self, golden):
        self.golden = golden
        self.session = None
        self.dead = ((), 0)
        self._snapshot = None
        self._blobs = None
        self._digests = None
        self._moved = {}
        self._expected = {}

    def match(self, cpu, instruction):
        golden = self.golden
        index = cpu.kernel.syscall_count
        if index >= len(golden.states):
            return None
        state = golden.states[index]
        if cpu.eip != state.eip or instruction.raw != state.raw:
            return None
        regs = cpu.regs
        dead_regs = ()
        if regs != state.regs:
            dead = golden.dead_regs[index]
            dead_regs = tuple(register for register, (ours, theirs)
                              in enumerate(zip(regs, state.regs))
                              if ours != theirs)
            for register in dead_regs:
                if not dead >> register & 1:
                    return None
        if cpu.eflags != state.eflags or cpu.segments != state.segments:
            return None
        shift = cpu.instret - state.instret
        if shift and (golden.instret + shift > self.session.budget
                      or golden.last_instret_read > index):
            return None
        dead_bytes = self._memory_matches(cpu, index, state)
        if dead_bytes is None:
            return None
        if not state.kernel_matches(cpu.kernel):
            return None
        last_fetch = golden.last_fetch
        for address in self.session.machine.dirty_text:
            if last_fetch.get(address, -1) > index:
                return None
        self.dead = (dead_regs, dead_bytes)
        return index

    def _memory_matches(self, cpu, index, state):
        moved = self._moved_pages(index, state)
        differing = []
        for number, (region, pages, digests, blob) in enumerate(zip(
                writable_regions(cpu.memory), moved, state.pages,
                self._blobs)):
            dirty = region.dirty
            data = region.data
            for page in dirty:
                if page_digest(data, page) != digests[page]:
                    value = self._live_match(index, number, page, data)
                    if value is None:
                        return None
                    differing.append((number, page, value))
            for page in pages - dirty:
                value = self._live_match(index, number, page, blob)
                if value is None:
                    return None
                differing.append((number, page, value))
        dead = 0
        for number, page, value in differing:
            golden = self._golden_page(index, number, page)
            dead += len(golden) - (value ^ int.from_bytes(golden, "little")) \
                .to_bytes(len(golden), "little").count(0)
        return dead

    def _live_match(self, index, number, page, ours):
        key = (index, number, page)
        kept = self._expected
        expected = kept.pop(key, None)
        if expected is None:
            golden = int.from_bytes(self._golden_page(*key), "little")
            live = self.golden.live_bytes.live(index, number, page)
            expected = (live, golden & live)
            if len(kept) >= _KEPT_PAGES:
                del kept[next(iter(kept))]
        kept[key] = expected
        live, masked = expected
        low = page << PAGE_SHIFT
        value = int.from_bytes(ours[low:low + PAGE_SIZE], "little")
        return value if value & live == masked else None

    def _golden_page(self, index, number, page):
        if page in self._moved[index][number]:
            return self.golden.live_bytes.page(
                self.golden.states[index].pages[number][page])
        low = page << PAGE_SHIFT
        return self._blobs[number][low:low + PAGE_SIZE]

    def _moved_pages(self, index, state):
        snapshot = self.session.snapshot
        if snapshot is not self._snapshot:
            self._snapshot = snapshot
            self._moved = {}
            writable = [(region, view) for region, view
                        in zip(self.session.process.memory.regions,
                               snapshot.region_views)
                        if region.writable]
            self._blobs = [view for __, view in writable]
            self._digests = [
                [page_digest(view, page)
                 for page in range(region.page_count())]
                for region, view in writable]
        moved = self._moved.get(index)
        if moved is None:
            moved = self._moved[index] = tuple(
                frozenset(page for page, digest in enumerate(digests)
                          if digest != golden[page])
                for digests, golden in zip(self._digests, state.pages))
        return moved


@pytest.fixture
def checks(monkeypatch):
    """Every :meth:`EarlyExits.match` of the test, made next to the
    reference's: ``(ours, reference)`` pairs of ``(index, dead)``."""
    made = []
    match = EarlyExits.match

    def compared(self, cpu, instruction):
        reference = getattr(self, "reference", None)
        if reference is None:
            reference = self.reference = DigestMatch(self.golden)
        reference.session = self.session
        expected = reference.match(cpu, instruction)
        got = match(self, cpu, instruction)
        made.append(((got, self.dead if got is not None else None),
                     (expected,
                      reference.dead if expected is not None else None)))
        return got

    monkeypatch.setattr(EarlyExits, "match", compared)
    return made


@pytest.mark.parametrize("daemon, client, model", [
    ("ftp_daemon", ftpd.client1, "branch-bit"),
    ("ftp_daemon", ftpd.client1, "register-bit"),
    ("pop3_daemon", pop3d.client1, "memory-bit"),
])
def test_every_check_of_a_window_equals_the_reference(
        request, checks, daemon, client, model):
    campaign = run_campaign(request.getfixturevalue(daemon), "Client1",
                            client, fault_model=model, max_points=200)
    counters = campaign.metrics["volatile"]["counters"]
    assert counters["early_exit.checks"] == len(checks)
    assert counters["early_exit.converged"] > 0
    differing = [(ours, reference) for ours, reference in checks
                 if ours != reference]
    assert not differing, differing[:5]
    if model == "memory-bit":
        assert counters["early_exit.quick_rejects"] > 0
