"""Forkable machine snapshots: immutable image, mutable delta.

A campaign replays the post-activation suffix of one connection
thousands of times from the same instruction.  The state at that
instruction splits into an *immutable* part -- the program image and
the kernel/client state as of the breakpoint, captured once -- and a
*mutable* part: whatever the suffix run touched.  The suffix of an
authentication exchange dirties a handful of stack and data pages out
of a couple-hundred-KiB address space, so restoring by writing back
only pages dirtied since the capture (tracked by
:mod:`repro.emu.memory` at :data:`PAGE_SIZE` granularity) is an
order of magnitude cheaper than rewriting every region, and the
kernel ``clone()`` protocol replaces the old per-experiment
``copy.deepcopy``.

The snapshot itself is never mutated after capture: region contents
are ``bytes``, CPU state is tuples, and the kernel held inside is the
pristine breakpoint-time kernel from which every experiment receives a
fresh ``clone()``.  That makes one snapshot safely shareable between
sibling sessions (:meth:`BreakpointSession.fork`), across fault models
targeting the same instruction, and across the sessions taking turns
on one shared machine (:class:`~repro.injection.injector.Machine`).
"""

from __future__ import annotations

from ..emu.memory import PAGE_SHIFT, PAGE_SIZE


class MachineSnapshot:
    """Complete machine state at one injection site.

    Immutable after :meth:`capture`; restores copy *out of* the
    snapshot into a live process.
    """

    __slots__ = ("region_blobs", "region_views", "regs", "eip", "eflags",
                 "segments", "instret", "kernel")

    @classmethod
    def capture(cls, process, kernel):
        """Freeze *process* + *kernel* and reset dirty tracking so the
        restore delta is measured from this point."""
        snapshot = cls()
        memory = process.memory
        snapshot.region_blobs = [bytes(region.data)
                                 for region in memory.regions]
        # Prebuilt views: page-sized slices of a memoryview are
        # copy-free, and building the view once here keeps it off the
        # per-experiment restore path.
        snapshot.region_views = [memoryview(blob)
                                 for blob in snapshot.region_blobs]
        cpu = process.cpu
        snapshot.regs = tuple(cpu.regs)
        snapshot.eip = cpu.eip
        snapshot.eflags = cpu.eflags  # materializes any lazy flags
        snapshot.segments = tuple(cpu.segments)
        snapshot.instret = cpu.instret
        snapshot.kernel = kernel
        memory.clear_dirty()
        return snapshot

    # -- restore -------------------------------------------------------

    def restore_memory(self, memory, full=False):
        """Rewrite pages dirtied since capture (or everything when
        *full*); returns the number of pages written back."""
        pages = 0
        if full:
            for region, blob in zip(memory.regions, self.region_blobs):
                region.data[:] = blob
                pages += region.page_count()
                region.dirty.clear()
            return pages
        for region, view in zip(memory.regions, self.region_views):
            dirty = region.dirty
            if not dirty:
                continue
            data = region.data
            for page in dirty:
                low = page << PAGE_SHIFT
                data[low:low + PAGE_SIZE] = view[low:low + PAGE_SIZE]
            pages += len(dirty)
            dirty.clear()
        return pages

    def restore_cpu(self, cpu):
        cpu.regs = list(self.regs)
        cpu.eip = self.eip
        cpu.eflags = self.eflags
        cpu.segments = list(self.segments)
        cpu.instret = self.instret
        cpu.halted = False
        if hasattr(cpu, "exit_code"):
            del cpu.exit_code

    def make_kernel(self):
        """A fresh kernel+client for one experiment; the pristine
        kernel inside the snapshot is never handed out directly."""
        return self.kernel.clone()
