"""Execution-engine performance counters.

The block engine (decode cache, cold and compiled basic blocks, lazy
EFLAGS -- see :mod:`repro.emu.cpu`) trades bookkeeping for throughput;
these counters make that trade observable so a regression in cache hit
rate, compilation or flag elision shows up in benchmark output and in
``CampaignResult.timing`` instead of only in wall clock.

Counters are observational: they never influence execution.  A fault
mid-superstep counts exactly the instructions retired before it.
"""

from __future__ import annotations

_FIELDS = ("prepared_hits", "prepared_misses", "flags_forced",
           "flags_elided", "superstep_entries", "superstep_instructions",
           "blocks_compiled", "syscalls")


class PerfCounters:
    """Counter block attached to every :class:`~repro.emu.cpu.CPU`.

    ``prepared_hits`` / ``prepared_misses``
        instructions retired from a cached decode (superstep members
        and :meth:`~repro.emu.cpu.CPU.step` hits) / decodes the step
        path and the block builder had to make.  The names predate
        the block compiler and are kept for journal compatibility.
    ``flags_forced`` / ``flags_elided``
        lazy EFLAGS records that were materialised because something
        read the flags, vs. discarded unread because a later
        flag-writing instruction overwrote them first.
    ``superstep_entries`` / ``superstep_instructions``
        blocks (superblocks, and the one-instruction blocks of
        ``int``/``rdtsc``/string ops) executed without per-instruction
        loop bookkeeping, and the instructions retired inside them.
    ``blocks_compiled``
        blocks promoted to the compiled tier (whether or not the
        generated code came from the shared code cache).
    ``syscalls``
        ``int $0x80`` dispatches into the kernel model.
    """

    __slots__ = _FIELDS

    def __init__(self):
        for name in _FIELDS:
            setattr(self, name, 0)

    def reset(self):
        for name in _FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in _FIELDS}

    def absorb(self, other):
        """Add another counter block (a retired CPU's) into this one."""
        for name in _FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def absorb_dict(self, record):
        """Add a serialized counter dict (shard timing payloads);
        missing keys count as zero.  An unknown key -- a shard payload
        carrying a counter this build does not track, i.e. dropped
        data -- warns once per key through the ``repro`` logger
        instead of disappearing silently."""
        if not record:
            return self
        for name in record:
            if name not in _FIELDS:
                from ..obs.log import warn_once
                warn_once(("perf-unknown-counter", name),
                          "PerfCounters.absorb_dict: unknown counter "
                          "%r ignored (not aggregated)", name)
        for name in _FIELDS:
            setattr(self, name, getattr(self, name)
                    + int(record.get(name, 0)))
        return self

    def __repr__(self):
        inner = ", ".join("%s=%d" % (name, getattr(self, name))
                          for name in _FIELDS)
        return "PerfCounters(%s)" % inner
