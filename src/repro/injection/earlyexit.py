"""Early exits: stop an experiment whose outcome is already decided.

Most activated experiments end NM, and many of them rejoin the golden
run long before they exit; a few loop in an exact cycle until the
instruction budget runs out.  Both tails are decided work.  An armed
experiment skips them in two ways, and either way its record is
exactly the one the full run would have produced.

**Golden convergence.**  The golden run records the machine at every
syscall entry (:class:`~repro.injection.golden.GoldenState`, one per
syscall index).  At each ``int 0x80`` entry of an armed experiment,
before the kernel runs, :meth:`EarlyExits.match` compares the
experiment with the golden state at the same syscall index, cheapest
test first, on what the golden tail from there can still observe:

1. ``eip``, the ``int`` instruction's bytes and the registers; a
   register may differ where it is dead at this index
   (``GoldenRun.dead_regs``: the golden tail overwrites it before
   reading it);
2. EFLAGS (materialised) and the segment registers, exactly;
3. the blocking byte (:attr:`EarlyExits.blocking`, below);
4. the kernel and client state (:meth:`GoldenState.kernel_matches`,
   its scalar fields first);
5. the text-fetch rule: no text byte the experiment corrupted
   (``Machine.dirty_text``) is fetched or read as data by the golden
   run after this syscall index (``GoldenRun.last_fetch``);
6. memory: every writable page either run may have changed since the
   site's snapshot -- the pages the experiment dirtied
   (``region.dirty``) and the pages whose golden digest at this index
   differs from the snapshot's (moved; computed once per site and
   index) -- must equal the golden page byte for byte, or differ
   from it only in bytes dead at this index
   (:class:`~repro.injection.golden.ByteLiveness`).  The golden page
   of an unmoved page is the snapshot's; that of a moved page is the
   golden run's copy, decompressed.

Text differs between the runs only in ``dirty_text``, so after a
match the experiment executes the golden run's tail: each instruction
reads only locations equal in both runs, so it computes the same
values and goes to the same place, and every dead location is
overwritten before anything reads it.  All six tests must pass, so
their order decides only what a check costs, never its answer.

The registers pass for most data-fault checks (12,173 of the 13,521
of a ``datafault-mixed`` pass), so the memory test is what rejects
them, and mostly on the same byte as at the syscall before: a flipped
byte stays live and different until the program overwrites it.  A
memory rejection records the lowest live byte that differed as
:attr:`EarlyExits.blocking`, and the next check rejects at once when
that byte lies on a page the memory test compares (dirty, or moved
at this index), is live at this index and differs from the golden
byte there.  That is sound because those three conditions are the
memory test's own for one byte, tested at this index against this
index's golden page: when they hold, the full test would reject too.
A byte that was rewritten, went dead, or lies on a page the test
skips decides nothing, and the check goes on.  The remembered byte
only orders the work; every decision is the full check's.

A match raises :class:`Converged`; the watchdog turns it into the
golden run's own ending (``exit``, the golden exit code, ``instret``
at the golden end plus the experiment's shift) and the runner
classifies it from the golden run: NM, the golden ``broke_in``, no
transcript comparison.  A match at a different ``instret`` (a shift)
counts only when the shifted end is within the budget, and only when
the golden tail never reads ``instret`` (``rdtsc``); otherwise the
full run would have ended differently.

**Exact cycles.**  At the first watchdog slice boundary at which a
run has gone longer without a syscall than the whole golden run,
:class:`CycleSearch` runs Brent's algorithm
over the machine states at arrivals at one block-aligned anchor
address.  A state is the CPU fields, the kernel's ``syscall_count``
and the bytes of every page dirtied since the snapshot (against the
tortoise's copies, or the snapshot for pages first dirtied after it).
When the state S at ``instret`` t recurs at t + p, the run is periodic
from t; ``instret`` advances by whole periods and the run executes the
last ``(budget - t) mod p`` instructions itself, so it reaches the
budget in exactly the full run's state and the watchdog probe, the
HANG/FSV verdict and forensics are unchanged.

Runs with a sampler attached and guarded pruning representatives are
never armed (a profile claims every retired instruction, and the
re-fetch guard must watch the whole suffix); the oracle's reference
run is not armed either.  ``audit_fraction`` re-runs a seeded sample
of early-exited experiments in full and raises
:class:`EarlyExitAuditError` on any difference.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

from ..emu.memory import PAGE_SHIFT, PAGE_SIZE
from .golden import page_digest, writable_regions


#: decompressed golden pages and live-byte masks an
#: :class:`EarlyExits` keeps, least recently used out first.  A golden
#: page is keyed by its digest and a mask by the compressed object
#: :class:`~repro.injection.golden.ByteLiveness` shares between the
#: indices at which it is the same, so an entry serves every site and
#: every index that asks for the same bytes.
_KEPT = 64


def _kept(cache, key, make):
    """``cache[key]``, made by ``make(key)`` on a miss, as the most
    recently used of at most :data:`_KEPT` entries."""
    value = cache.pop(key, None)
    if value is None:
        value = make(key)
        if len(cache) >= _KEPT:
            del cache[next(iter(cache))]
    cache[key] = value
    return value


def _expand(packed):
    """A compressed live-byte mask as its bytes and its integer."""
    mask = zlib.decompress(packed)
    return mask, int.from_bytes(mask, "little")


class EarlyExitAuditError(RuntimeError):
    """An audited early exit differs from the full run of the same
    experiment."""


@dataclass(frozen=True)
class EarlyExit:
    """How an experiment ended early (``status.early_exit``)."""

    kind: str                   # "converged" or "cycle"
    #: instructions the full run would have retired and this one did
    #: not.
    skipped: int
    #: converged: the syscall index of the match, and ``instret``
    #: minus the golden run's there.
    index: int | None = None
    shift: int = 0
    #: cycle: the period in instructions.
    period: int | None = None
    #: converged: the registers, and the number of bytes, that still
    #: differed from the golden run's but are dead there.
    dead_regs: tuple = ()
    dead_bytes: int = 0


class Converged(Exception):
    """Raised at a syscall entry that matches the golden run; carries
    the full run's ending."""

    def __init__(self, early_exit, exit_code, instret):
        super().__init__("converged at syscall %d" % early_exit.index)
        self.early_exit = early_exit
        self.exit_code = exit_code
        self.instret = instret


class EarlyExits:
    """A campaign's early exits, bound to its cell's golden run.

    :meth:`arm` attaches them to one experiment (the syscall hook on
    the session's CPU and the cycle search on the watchdog);
    :meth:`disarm` takes them off again.
    """

    def __init__(self, golden):
        self.golden = golden
        self.session = None
        #: the armed experiment's :class:`CycleSearch`, once its
        #: watchdog started one.
        self.search = None
        #: ``(registers, byte count)`` that differed, dead, at the
        #: last match.
        self.dead = ((), 0)
        #: ``(region, page, offset)`` of the lowest live byte that
        #: differed at the last memory rejection, tested first at the
        #: next syscall entry; ``None`` after :meth:`arm`.
        self.blocking = None
        #: checks made, full memory tests run, and checks the
        #: blocking byte rejected (:meth:`fold_counts`).
        self.checks = self.memory_checks = self.quick_rejects = 0
        #: the site snapshot the caches below describe.
        self._snapshot = None
        self._blobs = None        # per writable region, its bytes
        self._digests = None      # per writable region, per page
        self._moved = {}          # syscall index -> moved page sets
        self._pages = {}          # digest -> golden page bytes
        self._masks = {}          # compressed mask -> (bytes, integer)

    def arm(self, session, watchdog):
        self.session = session
        self.blocking = None
        session.process.cpu.syscall_hook = self.at_syscall
        watchdog.early = self

    def disarm(self, session, watchdog):
        session.process.cpu.syscall_hook = None
        watchdog.early = None
        self.session = self.search = None

    def fold_counts(self, registry):
        """Add the check counts to *registry*'s volatile counters
        (``early_exit.checks``, ``.memory_checks``,
        ``.quick_rejects``) and start them again from zero."""
        for name, count in (("checks", self.checks),
                            ("memory_checks", self.memory_checks),
                            ("quick_rejects", self.quick_rejects)):
            if count:
                registry.counter("early_exit." + name, volatile=True) \
                    .inc(count)
        self.checks = self.memory_checks = self.quick_rejects = 0

    def cycle_search(self, process):
        """A :class:`CycleSearch` for the armed experiment, quiet
        after as many instructions as the whole golden run took."""
        self.search = CycleSearch(process, self.golden.instret,
                                  self.session.snapshot)
        return self.search

    # -- convergence ---------------------------------------------------

    def at_syscall(self, cpu, instruction):
        """The syscall hook: note the syscall for the cycle search,
        and raise :class:`Converged` on a match."""
        if self.search is not None:
            self.search.since = cpu.instret
        index = self.match(cpu, instruction)
        if index is None:
            return
        golden = self.golden
        state = golden.states[index]
        shift = cpu.instret - state.instret
        dead_regs, dead_bytes = self.dead
        raise Converged(
            EarlyExit("converged", skipped=golden.instret - state.instret,
                      index=index, shift=shift, dead_regs=dead_regs,
                      dead_bytes=dead_bytes),
            golden.exit_code, golden.instret + shift)

    def match(self, cpu, instruction):
        """The syscall index whose golden state *cpu* (at the entry
        of ``int 0x80`` *instruction*) equals up to dead registers and
        bytes, or ``None``; a match leaves those in :attr:`dead`."""
        self.checks += 1
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
        self._site()
        regions = writable_regions(cpu.memory)
        if self.blocking is not None \
                and self._still_blocks(regions, index, state):
            self.quick_rejects += 1
            return None
        if not state.kernel_matches(cpu.kernel):
            return None
        last_fetch = golden.last_fetch
        for address in self.session.machine.dirty_text:
            if last_fetch.get(address, -1) > index:
                return None
        self.memory_checks += 1
        dead_bytes = self._memory_matches(regions, index, state)
        if dead_bytes is None:
            return None
        self.dead = (dead_regs, dead_bytes)
        return index

    def _still_blocks(self, regions, index, state):
        """Would the full memory test reject on :attr:`blocking`?  It
        would when the byte lies on a page the test compares (dirty,
        or moved at *index*), is live at *index* and differs from the
        golden byte there."""
        number, page, offset = self.blocking
        region = regions[number]
        digest = state.pages[number][page]
        moved = digest != self._digests[number][page]
        if not moved and page not in region.dirty:
            return False
        if not self._mask(index, number, page)[0][offset]:
            return False
        at = (page << PAGE_SHIFT) + offset
        golden = (self._golden_page(digest)[offset] if moved
                  else self._blobs[number][at])
        return region.data[at] != golden

    def _memory_matches(self, regions, index, state):
        """How many dead bytes the writable pages differ from the
        golden ones in, or ``None`` when a live one differs (the
        lowest such byte is then :attr:`blocking`)."""
        moved = self._moved_pages(index, state)
        differing = []
        for number, (region, pages, digests, blob) in enumerate(zip(
                regions, moved, state.pages, self._blobs)):
            data = region.data
            for page in region.dirty | pages if pages else region.dirty:
                low = page << PAGE_SHIFT
                ours = data[low:low + PAGE_SIZE]
                golden = (self._golden_page(digests[page]) if page in pages
                          else blob[low:low + PAGE_SIZE])
                if ours == golden:
                    continue
                differ = (int.from_bytes(ours, "little")
                          ^ int.from_bytes(golden, "little"))
                live = differ & self._mask(index, number, page)[1]
                if live:
                    self.blocking = (number, page,
                                     ((live & -live).bit_length() - 1) >> 3)
                    return None
                differing.append((differ, len(ours)))
        return sum(width - differ.to_bytes(width, "little").count(0)
                   for differ, width in differing)

    def _mask(self, index, number, page):
        """The live-byte mask of page *page* of writable region
        *number* at *index*, as its bytes and its integer."""
        return _kept(self._masks,
                     self.golden.live_bytes.packed(index, number, page),
                     _expand)

    def _golden_page(self, digest):
        """The bytes of the golden page with *digest*, a page the
        golden run moved."""
        return _kept(self._pages, digest, self.golden.live_bytes.page)

    def _site(self):
        """Describe the armed session's snapshot: per writable region
        its bytes and its page digests."""
        snapshot = self.session.snapshot
        if snapshot is self._snapshot:
            return
        self._snapshot = snapshot
        self._moved = {}
        writable = [(region, view) for region, view
                    in zip(self.session.process.memory.regions,
                           snapshot.region_views)
                    if region.writable]
        self._blobs = [view for __, view in writable]
        self._digests = [
            [page_digest(view, page) for page in range(region.page_count())]
            for region, view in writable]

    def _moved_pages(self, index, state):
        """Per writable region, the pages whose golden digest at
        *index* differs from the site snapshot's."""
        self._site()
        moved = self._moved.get(index)
        if moved is None:
            moved = self._moved[index] = tuple(
                frozenset(page for page, digest in enumerate(digests)
                          if digest != golden[page])
                for digests, golden in zip(self._digests, state.pages))
        return moved


class CycleSearch:
    """Brent's cycle detection over one experiment's states at a
    block-aligned anchor (see the module docstring).

    :meth:`run` stands in for ``process.run(ceiling)`` in the
    watchdog's slice loop; :attr:`found` is the :class:`EarlyExit`
    once the run has been fast-forwarded.
    """

    def __init__(self, process, quiet, snapshot):
        self.process = process
        self.cpu = process.cpu
        self.kernel = process.cpu.kernel
        #: instructions without a syscall before the search starts.
        self.quiet = quiet
        self.views = snapshot.region_views
        #: ``instret`` at the last syscall entry (the syscall hook
        #: keeps it).
        self.since = self.cpu.instret
        self.stop = None
        self.found = None

    def run(self, ceiling, budget):
        """Run to *ceiling* like ``process.run``; the search starts at
        the first slice boundary that is quiet enough, so the run
        stops nowhere the plain slices would not."""
        process, cpu = self.process, self.cpu
        if self.found is not None:
            return process.run(ceiling)
        if self.stop is None:
            status = process.run(ceiling)
            if (status.kind != "limit" or cpu.instret >= budget
                    or cpu.instret - self.since < self.quiet):
                return status
            # finish the current block, so the anchor is where the run
            # loop enters one
            status = self._run_block(budget)
            if status.kind != "limit":
                return status
            self.stop = frozenset((cpu.eip,))
            self._capture()
            self.power = self.lam = 1
            ceiling = max(ceiling, cpu.instret)
        while True:
            if self.found is not None:
                return process.run(ceiling)
            status = self._run_block(ceiling)
            if status.kind != "limit" or cpu.instret >= ceiling:
                return status
            status = process._status(*cpu.run(ceiling, self.stop))
            if status.kind != "stop":
                return status
            if self._recurs():
                self._fast_forward(budget)
            elif self.power == self.lam:
                self._capture()
                self.power *= 2
                self.lam = 0
            self.lam += 1

    def _run_block(self, ceiling):
        cpu = self.cpu
        return self.process.run(min(cpu.instret + cpu.block_size(cpu.eip),
                                    ceiling))

    def _state(self):
        cpu = self.cpu
        return (cpu.eip, tuple(cpu.regs), cpu.eflags, tuple(cpu.segments),
                self.kernel.syscall_count)

    def _capture(self):
        """Make the current state the tortoise."""
        pages = {}
        for index, region in enumerate(self.cpu.memory.regions):
            data = region.data
            for page in region.dirty:
                low = page << PAGE_SHIFT
                pages[index, page] = bytes(data[low:low + PAGE_SIZE])
        self.tortoise = (self._state(), self.cpu.instret, pages)

    def _recurs(self):
        """Is the current state the tortoise's?"""
        state, __, pages = self.tortoise
        if self._state() != state:
            return False
        for index, (region, view) in enumerate(zip(self.cpu.memory.regions,
                                                   self.views)):
            data = region.data
            for page in region.dirty:
                low = page << PAGE_SHIFT
                saved = pages.get((index, page))
                if saved is None:
                    saved = view[low:low + PAGE_SIZE]
                if data[low:low + PAGE_SIZE] != saved:
                    return False
        return True

    def _fast_forward(self, budget):
        """Skip whole periods: the state at t recurs at t + p, so the
        full run is at it again at t + n*p for every n, and the last
        ``(budget - t) mod p`` instructions are left to run."""
        start = self.tortoise[1]
        period = self.cpu.instret - start
        periods = (budget - start) // period
        self.found = EarlyExit("cycle", skipped=(periods - 1) * period,
                               period=period)
        self.cpu.instret = start + periods * period
