"""Bounded-buffer primitives shared by telemetry and forensics.

Two capture disciplines cover every consumer in the pipeline:

* :class:`RingBuffer` keeps the *last* ``capacity`` items (the
  forensic instruction ring, the event bus history) -- the recent
  past matters, the distant past may be dropped;
* :class:`TraceRecorder` keeps the *first* ``limit`` items (the
  propagation analyzer's post-activation traces) -- divergence search
  starts at the beginning, so dropping the head would be wrong.
"""

from __future__ import annotations

from collections import deque


class RingBuffer:
    """Append-only buffer retaining the last *capacity* items.

    ``capacity=None`` is unbounded.  Iteration and :meth:`snapshot`
    yield items oldest-first; ``ring[-1]`` may be reassigned (the CPU
    fast path truncates its final block entry after a mid-block
    fault).
    """

    __slots__ = ("_items", "capacity", "append")

    def __init__(self, capacity=None):
        self.capacity = capacity
        self._items = deque(maxlen=capacity)
        # bound C-level append: hot paths (the CPU forensic loop does
        # one append per superstep) skip the Python-frame dispatch.
        self.append = self._items.append

    def extend(self, items):
        self._items.extend(items)

    def clear(self):
        self._items.clear()

    def snapshot(self):
        """The retained items, oldest first, as a list."""
        return list(self._items)

    def __len__(self):
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __setitem__(self, index, value):
        self._items[index] = value

    def __repr__(self):
        return "RingBuffer(%d item(s), capacity=%r)" % (
            len(self._items), self.capacity)


class TraceRecorder:
    """Per-retired-instruction (eip, regs) recorder for
    ``cpu.trace_hook``.

    Used by :func:`repro.analysis.propagation.analyze_propagation`:
    assign :meth:`hook` to ``cpu.trace_hook`` and the slow reference
    path calls it after every instruction.  ``limit`` bounds memory by
    keeping the *first* N records (head capture -- divergence is
    located from the start of the trace), counting the overflow in
    :attr:`dropped`.
    """

    def __init__(self, limit=None, record_regs=True):
        self.limit = limit
        self.eips = []
        self.regs = [] if record_regs else None
        self.dropped = 0

    def hook(self, cpu, instruction):
        if self.limit is not None and len(self.eips) >= self.limit:
            self.dropped += 1
            return
        self.eips.append(cpu.eip)
        if self.regs is not None:
            self.regs.append(tuple(cpu.regs))

    def __len__(self):
        return len(self.eips)
