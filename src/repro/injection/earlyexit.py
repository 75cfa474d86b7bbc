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
3. memory: every writable page either run may have changed since the
   site's snapshot -- the pages the experiment dirtied
   (``region.dirty``) and the pages whose golden digest at this index
   differs from the snapshot's (moved; computed once per site and
   index) -- must hash to the golden digest, or differ from the
   golden page only in bytes dead at this index
   (:class:`~repro.injection.golden.ByteLiveness`); a moved page the
   experiment did not dirty still holds the snapshot's bytes;
4. the kernel and client state (:meth:`GoldenState.kernel_matches`);
5. the text-fetch rule: no text byte the experiment corrupted
   (``Machine.dirty_text``) is fetched or read as data by the golden
   run after this syscall index (``GoldenRun.last_fetch``).  Text
   differs between the runs only there, so from here the experiment
   executes the golden run's tail: each instruction reads only
   locations equal in both runs, so it computes the same values and
   goes to the same place, and every dead location is overwritten
   before anything reads it.

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

from dataclasses import dataclass

from ..emu.memory import PAGE_SHIFT, PAGE_SIZE
from .golden import page_digest, writable_regions


#: golden pages an :class:`EarlyExits` keeps as their live-byte mask
#: and live bytes (two 4 KiB integers each), least recently used out
#: first: the golden page at an index is the same whichever site asks.
_KEPT_PAGES = 64


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
        #: the site snapshot the caches below describe.
        self._snapshot = None
        self._blobs = None        # per writable region, its bytes
        self._digests = None      # per writable region, per page
        self._moved = {}          # syscall index -> moved page sets
        self._expected = {}       # (index, region, page) -> live bytes

    def arm(self, session, watchdog):
        self.session = session
        session.process.cpu.syscall_hook = self.at_syscall
        watchdog.early = self

    def disarm(self, session, watchdog):
        session.process.cpu.syscall_hook = None
        watchdog.early = None
        self.session = self.search = None

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
        """How many dead bytes the writable pages differ from the
        golden ones in, or ``None`` when a live one differs."""
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
            if not pages <= dirty:
                # the experiment still holds the snapshot's bytes there
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
        """Page *page* of writable region *number* in *ours* (the
        region's bytes) as an integer when its live bytes at *index*
        equal the golden page's, else ``None``."""
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
        """The bytes of the golden page at *index*: a moved page is
        kept by the golden run, any other equals the snapshot's."""
        if page in self._moved[index][number]:
            return self.golden.live_bytes.page(
                self.golden.states[index].pages[number][page])
        low = page << PAGE_SHIFT
        return self._blobs[number][low:low + PAGE_SIZE]

    def _moved_pages(self, index, state):
        """Per writable region, the pages whose golden digest at
        *index* differs from the site snapshot's."""
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
