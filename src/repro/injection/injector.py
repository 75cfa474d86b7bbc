"""Debugger-style single-bit injector (the NFTAPE role).

For each experiment the injector loads the server, sets a breakpoint
at the target instruction, lets a scripted client connect, and -- if
the breakpoint fires -- flips one bit of the instruction and resumes.

Because execution before the breakpoint is identical for every bit of
a given instruction, the injector snapshots the whole machine (memory,
CPU, kernel, client) at the breakpoint once and replays only the
post-activation suffix for each of the instruction's bits.  Outcomes
are exactly those of a naive per-bit rerun; campaigns just finish
about an order of magnitude sooner.

The emulator itself is a :class:`Machine`: one warm
:class:`~repro.emu.Process` per daemon image, whose decode and
block caches survive from site to site.  A
:class:`BreakpointSession` owns no process; it is an immutable
:class:`~repro.injection.snapshot.MachineSnapshot` (memory, CPU and
the pristine breakpoint-time kernel) bound to a machine.  Building a
session resets the machine to its boot image, or to the snapshot of
a site the golden run reaches before this one
(:meth:`Machine.chain_start`), and runs the prefix to the site;
:meth:`BreakpointSession.acquire` puts the machine back at the
session's state when another session has used it since.  Restore
between bits writes back only pages the previous suffix dirtied and
clones the kernel through the explicit ``clone()`` protocol instead of
``copy.deepcopy``.  The prefix run depends only on the daemon image
and the scripted client -- not on the fault model or instruction
encoding -- so one session (and its snapshot) is reusable across every
model and bit aimed at that instruction; :class:`SessionCache` keys
sessions accordingly and holds one machine per daemon.
"""

from __future__ import annotations

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from ..kernel import ServerHang
from ..obs.trace import NULL_TRACER
from .snapshot import MachineSnapshot


def plain_run(process, budget):
    """Run *process* to completion under *budget*, mapping a kernel
    :class:`ServerHang` onto a ``hang`` exit status."""
    try:
        return process.run(budget)
    except ServerHang as hang:
        return hang_status(process, hang)


def hang_status(process, hang):
    """The ``hang`` exit status of a run the kernel stopped with
    :class:`ServerHang` *hang* (the client waits on a server that
    reads)."""
    status = process._status("limit", None)
    status.kind = "hang"
    status.fault_detail = str(hang)
    return status


class Machine:
    """One warm :class:`~repro.emu.Process` for one daemon image.

    Sessions at different sites of the daemon take turns on it, so its
    CPU caches are filled once instead of once per site.  Cache
    coherence therefore lives here, not in a session: the text
    addresses poked since the last restore (:attr:`dirty_text`), the
    CPU's ``decode_log`` that :meth:`restore` drains through
    ``evict_suspect_decodes``, and the perf-counter baseline of
    :meth:`take_perf_delta`.  Every snapshot it is restored from holds
    pristine text, so after a restore the caches are exact.

    *decodes*, the golden CPU's decodes of the pristine text
    (:func:`~repro.injection.golden.record_golden`), fill the decode
    cache at construction, so the daemon is not decoded twice.
    """

    def __init__(self, daemon, decodes=None):
        #: kept so ``id(daemon)`` (the :class:`SessionCache` key)
        #: cannot be recycled while the machine lives.
        self.daemon = daemon
        self.process = Process(daemon.module)
        if decodes:
            self.process.cpu.decode_cache.update(decodes)
        #: the state right after construction; a prefix run that
        #: cannot chain starts from a full restore of it
        #: (:meth:`reboot`).
        self.boot_image = MachineSnapshot.capture(self.process, None)
        #: ``(golden run, budget, site, snapshot)`` of the last prefix
        #: that reached its site here; no session, so no reference
        #: cycle keeps a finished campaign's machine alive.
        self.last_prefix = None
        #: the session whose snapshot the memory, CPU and installed
        #: kernel derive from; ``None`` at boot and during a prefix.
        self.owner = None
        #: text addresses poked since the last restore; the only ones
        #: whose cached decodes can be stale once text is restored.
        self.dirty_text = set()
        #: perf-counter values already credited to a runner; lets the
        #: machine serve several runners without double counting.
        self._perf_taken = {}
        # Log cache inserts so each restore can evict exactly the
        # decodes built from modified text.
        self.process.cpu.decode_log = []

    def install_kernel(self, kernel):
        self.process.cpu.kernel = kernel
        self.process.kernel = kernel
        return kernel

    def chain_start(self, golden, budget, address):
        """The snapshot a prefix to *address* under *budget*, of
        *golden*'s connection, may start from instead of the boot
        image, or ``None``.

        That is the snapshot of the last prefix that reached its site
        here, when it was of the same golden run and budget and the
        golden run first reaches *address* after that site.  The
        prefix from boot then passes through the snapshot's state
        without stopping before it (its own site comes later, and the
        budget let the last prefix get there), so from there on it
        runs the same.
        """
        if self.last_prefix is None or golden is None:
            return None
        last_golden, last_budget, site, snapshot = self.last_prefix
        if (last_golden is golden and last_budget == budget
                and golden.arrives_after(address, site)):
            return snapshot
        return None

    def reboot(self, kernel, image=None):
        """Reset to *image* (the boot image by default) with *kernel*
        installed and no observer or syscall hook attached: the start
        state of a prefix run.  At boot it is a freshly constructed
        process's; at a site's snapshot (:meth:`chain_start`) it is
        the state the prefix from boot passes through there, and
        *kernel* is a fresh clone of the snapshot's."""
        self.restore(self.boot_image if image is None else image,
                     full=True)
        self.owner = None
        cpu = self.process.cpu
        cpu.forensic_ring = None
        cpu.sampler = None
        cpu.syscall_hook = None
        return self.install_kernel(kernel)

    def restore(self, snapshot, full=False):
        """Revert memory (pages dirtied since the last capture or
        restore, or every page when *full*) and CPU to *snapshot*;
        returns the number of pages written back.

        Text is back to the pristine image from which every cached
        decode outside the log was built, so only decodes built while
        poked bytes were in place are evicted; the rest stay warm.
        """
        pages = snapshot.restore_memory(self.process.memory, full=full)
        cpu = self.process.cpu
        snapshot.restore_cpu(cpu)
        cpu.evict_suspect_decodes(self.dirty_text)
        self.dirty_text.clear()
        return pages

    def take_perf_delta(self):
        """Perf counters accumulated since the last call -- the share
        of this machine's work not yet credited to any runner."""
        counters = self.process.cpu.perf.as_dict()
        taken = self._perf_taken
        self._perf_taken = counters
        return {name: value - taken.get(name, 0)
                for name, value in counters.items()}


class BreakpointSession:
    """Server state captured at the first arrival at one instruction.

    ``machine`` is the :class:`Machine` the session runs on; the
    default is a private one (direct callers), a campaign passes its
    :class:`SessionCache`'s shared machine.

    ``golden`` is the cell's :class:`~repro.injection.golden.GoldenRun`,
    when there is one: the prefix then starts from the snapshot of the
    site the machine reached last, when the golden run first reaches
    this site after that one (:meth:`Machine.chain_start`;
    :attr:`chained`), and from boot otherwise.  Campaigns visit sites
    in address order, and the golden run mostly reaches them in that
    order too.

    ``run_fn(process, budget)`` executes the post-activation suffix;
    the default simply runs to completion, the fault-tolerant runner
    substitutes a watchdog-instrumented executor.

    ``full_restore=True`` is the escape hatch that rewrites every
    region instead of only dirtied pages; the test suite cross-checks
    the two paths for byte-identical outcomes.
    """

    def __init__(self, daemon, client_factory, breakpoint_address,
                 budget=CONNECTION_INSTRUCTION_BUDGET, run_fn=None,
                 full_restore=False, machine=None, golden=None):
        self._bind(daemon, breakpoint_address, budget, run_fn,
                   full_restore, machine)
        machine = self.machine
        start = machine.chain_start(golden, budget, breakpoint_address)
        #: whether the prefix started from another site's snapshot.
        self.chained = start is not None
        if start is None:
            kernel = machine.reboot(daemon.make_kernel(client_factory()))
        else:
            kernel = machine.reboot(start.make_kernel(), start)
        process = machine.process
        self.arrival = process.run_until(breakpoint_address, budget)
        self.reached = self.arrival.kind == "breakpoint"
        if self.reached:
            self.activation_instret = process.cpu.instret
            self.snapshot = MachineSnapshot.capture(process, kernel)
            # The prefix poked no text, so every insert it logged is
            # clean: start the suffix log empty.
            del process.cpu.decode_log[:]
            machine.last_prefix = (golden, budget, breakpoint_address,
                                   self.snapshot)
            self._own()

    def _bind(self, daemon, breakpoint_address, budget, run_fn,
              full_restore, machine):
        self.daemon = daemon
        self.budget = budget
        self.run_fn = run_fn if run_fn is not None else plain_run
        self.breakpoint_address = breakpoint_address
        self.full_restore = full_restore
        self.machine = machine if machine is not None else Machine(daemon)
        #: restore-path accounting, exposed for tests and benchmarks.
        self.restore_stats = {"restores": 0, "pristine_skips": 0,
                              "pages_written": 0, "kernel_reuses": 0,
                              "kernel_rewinds": 0}
        #: span tracer timing the restore path (rebound per runner,
        #: like ``run_fn``); the no-op tracer by default.
        self.tracer = NULL_TRACER

    @property
    def process(self):
        """The machine's process; at this session's state only after
        :meth:`acquire` (which every ``run_with_*`` call makes)."""
        return self.machine.process

    def _own(self):
        # The pristine kernel lives inside the snapshot; the live
        # process runs against a clone so no experiment can corrupt
        # the state every later restore is built from.
        self.machine.install_kernel(self.snapshot.make_kernel())
        self.machine.owner = self
        self._pristine = True

    def acquire(self):
        """Put the machine at this session's breakpoint state.

        Nothing happens when the machine already holds it (the
        per-bit restore in ``run_with_*`` then proceeds as usual);
        after another session used the machine, memory and CPU are
        fully restored from the snapshot and a fresh kernel clone is
        installed.
        """
        if not self.reached:
            raise RuntimeError("breakpoint at 0x%x was never reached"
                               % self.breakpoint_address)
        if self.machine.owner is not self:
            self.machine.restore(self.snapshot, full=True)
            self._own()

    def release(self):
        """Give the machine up, wherever the last experiment left it:
        the next :meth:`acquire`, by this session too, restores it."""
        if self.machine.owner is self:
            self.machine.owner = None

    def _restore(self):
        """Reset memory/CPU to the breakpoint and clone kernel+client.

        When the machine has not run since the snapshot was captured
        (or since the last restore) nothing is dirty and the already
        installed kernel clone has never been touched, so the whole
        restore is skipped -- the common case for NA fast exits.
        """
        with self.tracer.span("restore", cat="experiment"):
            self.acquire()
            if self._pristine:
                self._pristine = False
                self.restore_stats["pristine_skips"] += 1
                return self.process.kernel
            snapshot = self.snapshot
            self.restore_stats["restores"] += 1
            self.restore_stats["pages_written"] += self.machine.restore(
                snapshot, full=self.full_restore)
            # Every kernel/client mutation is syscall-gated (the client
            # only acts inside server_read/server_write), so an
            # unchanged syscall count proves the installed clone is
            # still pristine and can serve the next experiment as-is --
            # the common case for faults that crash before reaching a
            # system call.  Otherwise the installed clone is rewound in
            # place to the pristine snapshot state, which is why the
            # kernel returned by the previous run_with_* call is only
            # guaranteed stable until the next one.
            installed = self.process.kernel
            if installed.syscall_count == snapshot.kernel.syscall_count:
                self.restore_stats["kernel_reuses"] += 1
                return installed
            self.restore_stats["kernel_rewinds"] += 1
            return installed.rewind_to(snapshot.kernel)

    def fork(self):
        """Cheap sibling session at the same breakpoint.

        The sibling shares the immutable :class:`MachineSnapshot`
        (region blobs + pristine kernel) but runs on a private
        machine with its own kernel clone, so experiments in one
        session can never leak into another.  Used by the
        fork-independence property tests.
        """
        if not self.reached:
            raise RuntimeError("cannot fork: breakpoint at 0x%x was "
                               "never reached" % self.breakpoint_address)
        sibling = BreakpointSession.__new__(BreakpointSession)
        sibling._bind(self.daemon, self.breakpoint_address, self.budget,
                      self.run_fn, self.full_restore, None)
        sibling.snapshot = self.snapshot
        sibling.arrival = self.arrival
        sibling.reached = True
        sibling.activation_instret = self.activation_instret
        sibling.acquire()
        return sibling

    def take_perf_delta(self):
        """Perf counters of this session's machine not yet credited to
        any runner (see :meth:`Machine.take_perf_delta`)."""
        return self.machine.take_perf_delta()

    def run_with_flip(self, flip_address, bit):
        """Flip one bit at the breakpoint and run to completion.

        Returns ``(status, kernel, client)`` where ``status.kind`` is
        ``exit``/``crash``/``limit``/``hang``.
        """
        kernel = self._restore()
        self.process.flip_bit(flip_address, bit)
        self.machine.dirty_text.add(flip_address)
        return self._finish(kernel)

    def run_with_register_flip(self, register, bit):
        """Flip one bit of a general-purpose register at the breakpoint
        and resume -- a *data error* experiment (the paper's Example 3
        family), in contrast to the text-segment control errors of the
        main campaigns.

        ``register`` is the hardware register index (EAX=0 ... EDI=7).
        """
        kernel = self._restore()
        cpu = self.process.cpu
        cpu.regs[register] ^= (1 << bit)
        return self._finish(kernel)

    def run_with_memory_flip(self, address, bit):
        """Flip one bit of one byte at an absolute address at the
        breakpoint and resume -- a *data error* against memory (the
        stack/data counterpart of :meth:`run_with_register_flip`).

        Text addresses are handled too (the decode cache is kept
        coherent), though the text-fault models use
        :meth:`run_with_flip`/:meth:`run_with_bytes` directly.
        """
        kernel = self._restore()
        return self._memory_flip(address, bit, kernel)

    def run_with_stack_relative_flip(self, offset, bit):
        """Flip one bit of the byte at ``ESP + offset`` as of the
        breakpoint (the live frame: saved state, locals, argument
        words) and resume."""
        kernel = self._restore()
        address = (self.process.cpu.regs[4] + offset) & 0xFFFFFFFF
        return self._memory_flip(address, bit, kernel)

    def _memory_flip(self, address, bit, kernel):
        memory = self.process.memory
        memory.poke(address, memory.peek(address) ^ (1 << bit))
        cpu = self.process.cpu
        low, high = getattr(cpu, "cacheable", (0, 0))
        if low <= address < high:
            cpu.invalidate_cache(address)
            self.machine.dirty_text.add(address)
        return self._finish(kernel)

    def run_with_bytes(self, address, replacement):
        """Overwrite instruction bytes at the breakpoint and resume.

        Used by the new-encoding evaluation (Section 6.2): the
        replacement is the map->flip->map-back image of the original
        instruction, which can differ from it in more than one bit of
        the *old* encoding.
        """
        kernel = self._restore()
        for offset, value in enumerate(replacement):
            self.process.memory.poke(address + offset, value)
            self.process.cpu.invalidate_cache(address + offset)
            self.machine.dirty_text.add(address + offset)
        return self._finish(kernel)

    def _finish(self, kernel):
        status = self.run_fn(self.process, self.budget)
        return status, kernel, kernel.channel.client


class SessionCache:
    """Reusable :class:`BreakpointSession` store, plus one shared
    :class:`Machine` per daemon image for its sessions to run on.

    Keyed by (daemon image, client script, budget, site): the prefix
    run and the snapshot do not depend on the fault model or the
    instruction encoding, so one cached session serves every model and
    bit targeting that instruction.  Unreachable sites are remembered
    so each is probed at most once.  A new session's prefix starts
    from the machine's last site when it can
    (:meth:`Machine.chain_start`), whether or not that session is
    still cached: the machine keeps its snapshot.

    ``capacity`` bounds resident sessions (LRU eviction) -- snapshots,
    not processes: however many sessions are cached, each daemon has
    one machine.  Campaigns visit points in address order, so the
    serial runner uses capacity 1 while cross-model sweeps share an
    unbounded cache.  Not safe for concurrent use from several
    threads; parallel campaigns give each worker process its own
    cache.
    """

    def __init__(self, capacity=None):
        self.capacity = capacity
        self._sessions = {}  # key -> session, insertion order = LRU
        self._unreachable = {}  # key -> arrival ExitStatus
        self._machines = {}  # id(daemon) -> Machine
        self.hits = 0
        self.misses = 0
        #: sessions dropped by the LRU bound.  A long-lived warm
        #: worker serving many daemon x model x encoding cells watches
        #: this to prove the cache is bounded (an evicted site simply
        #: re-captures on next use, at the usual prefix-run cost).
        self.evictions = 0

    @staticmethod
    def key(daemon, client_name, budget, address):
        return (id(daemon), client_name, budget, address)

    def machine(self, daemon, decodes=None):
        """The shared :class:`Machine` for *daemon*, built on first
        use (from *decodes*, when given)."""
        machine = self._machines.get(id(daemon))
        if machine is None:
            machine = self._machines[id(daemon)] = Machine(daemon,
                                                           decodes)
        return machine

    def drop_machine(self, daemon):
        """Forget *daemon*'s machine, whose state or caches may be
        corrupted (e.g. after a harness fault); the next session
        rebuilds it, and cached sessions rebind to the new one."""
        self._machines.pop(id(daemon), None)

    def lookup(self, key):
        session = self._sessions.get(key)
        if session is not None:
            self.hits += 1
            # refresh LRU position
            del self._sessions[key]
            self._sessions[key] = session
        return session

    def unreachable_arrival(self, key):
        return self._unreachable.get(key)

    def mark_unreachable(self, key, arrival):
        self._unreachable[key] = arrival

    def store(self, key, session):
        self.misses += 1
        self._sessions[key] = session
        if self.capacity is not None:
            while len(self._sessions) > self.capacity:
                oldest = next(iter(self._sessions))
                del self._sessions[oldest]
                self.evictions += 1

    def discard(self, key):
        """Drop a session whose state may be corrupted (e.g. after a
        harness fault)."""
        self._sessions.pop(key, None)

    def __len__(self):
        return len(self._sessions)

    def stats(self):
        """Operational counters, in metrics-registry key style."""
        return {"sessions": len(self._sessions), "hits": self.hits,
                "misses": self.misses, "evictions": self.evictions}


def single_injection(daemon, client_factory, instruction_address,
                     flip_address, bit,
                     budget=CONNECTION_INSTRUCTION_BUDGET):
    """Run one complete injection experiment from scratch.

    Convenience wrapper used by examples and tests; campaigns use
    :class:`BreakpointSession` directly to amortise the prefix.
    """
    session = BreakpointSession(daemon, client_factory,
                                instruction_address, budget)
    if not session.reached:
        return None
    return session.run_with_flip(flip_address, bit)


def run_clean_connection(daemon, client_factory,
                         budget=CONNECTION_INSTRUCTION_BUDGET):
    """Run an uninjected connection (used by tests and examples)."""
    client = client_factory()
    kernel = daemon.make_kernel(client)
    process = Process(daemon.module, kernel)
    return plain_run(process, budget), kernel, client
