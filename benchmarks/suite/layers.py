"""Outside-in layer clock: self-time accounting around public entry points.

The benchmark measures where a campaign's wall clock goes without any
code under ``src/`` knowing it is measured.  :func:`installed` swaps a
timing wrapper onto each public layer entry point listed in
:func:`layer_targets`, and puts every original back when the traced
pass ends.

Attribution rule (what makes the layers add up to the whole):

* *inclusive* phases -- golden run, prefix run, snapshot capture and
  restore, outcome classification, journal I/O, pruning analysis and
  the fleet's submit/pump/merge -- own everything they call.  A
  wrapped entry point called inside an inclusive phase is passed
  straight through, uncounted, so nothing is attributed twice;
* *self-time* layers -- ``inject`` (``FaultModel.apply``),
  ``watchdog`` (``Watchdog.run``), ``emu`` (``Process.run`` and
  ``run_watched``) and ``kernel`` (``Kernel.syscall``) -- are charged
  their span minus the spans of wrapped calls nested in them.

Per-thread stacks keep the service's dispatcher thread from mixing
its spans with the client threads'.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.name`` charged to ``layer``.

    ``calls`` names a counter bumped once per attributed call.
    ``before(args)`` runs ahead of the call and its value is handed to
    ``count(args, result, before)``, which returns counter increments.
    ``mark(args, result)`` returns a key under which the call's start
    and end times are kept (the service overhead joins on it).
    """

    owner: object
    name: str
    layer: str
    inclusive: bool = False
    calls: str | None = None
    before: object = None
    count: object = None
    mark: object = None


class LayerClock:
    """Accumulates per-layer seconds, counters and marks."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._local = threading.local()
        self._states = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # (frame stack, seconds by layer, counters, marks)
            state = self._local.state = ([], {}, {}, {})
            self._states.append(state)
        return state

    def wrap(self, fn, target):
        """A wrapper of *fn* that charges *target*'s layer."""
        clock = self.clock
        layer = target.layer
        inclusive = target.inclusive
        before, count, mark = target.before, target.count, target.mark
        calls = target.calls
        get_state = self._state

        def wrapper(*args, **kwargs):
            stack, seconds, counters, marks = get_state()
            if stack and stack[-1][1]:
                return fn(*args, **kwargs)    # inside an inclusive phase
            pre = before(args) if before is not None else None
            frame = [0.0, inclusive]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                seconds[layer] = seconds.get(layer, 0.0) + elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if calls is not None:
                    counters[calls] = counters.get(calls, 0) + 1
            if count is not None:
                for name, value in count(args, result, pre).items():
                    counters[name] = counters.get(name, 0) + value
            if mark is not None:
                marks[(layer, mark(args, result))] = (start, end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def charge(self, seconds):
        """Leave *seconds* spent outside the program (a host gauge
        sample) out of the innermost open span of this thread."""
        stack = self._state()[0]
        if stack:
            stack[-1][0] += seconds

    def seconds(self):
        """Seconds per layer, summed over threads."""
        return self._merge(1)

    def counters(self):
        return self._merge(2)

    def marks(self):
        merged = {}
        for state in self._states:
            merged.update(state[3])
        return merged

    def _merge(self, index):
        merged = {}
        for state in self._states:
            for name, value in state[index].items():
                merged[name] = merged.get(name, 0) + value
        return merged


def _instret_before(process):
    return process.cpu.instret


def layer_targets():
    """Every public layer entry point the traced pass wraps."""
    from repro.apps.registry import DaemonSpec
    from repro.emu.cpu import CPU
    from repro.emu.process import Process
    from repro.injection import runner
    from repro.injection.faultmodels import FAULT_MODELS, FaultModel
    from repro.injection.fleet import WorkerFleet
    from repro.injection.pruning import GuardedWatchdog, SitePlan
    from repro.injection.runner import CampaignJournal, Watchdog
    from repro.injection.snapshot import MachineSnapshot
    from repro.kernel.syscalls import Kernel

    models = [FaultModel] + sorted(set(FAULT_MODELS.values()),
                                   key=lambda cls: cls.__name__)

    def emu_insns(args, result, pre):
        return {"emu.insns": args[1].cpu.instret - pre}

    def prefix_insns(args, result, pre):
        return {"prefix.insns": args[0].cpu.instret - pre}

    targets = [
        Target(DaemonSpec, "build", "apps", inclusive=True),
        Target(runner, "record_golden", "golden", inclusive=True),
        Target(SitePlan, "seal", "pruning", inclusive=True),
        Target(Process, "run_until", "prefix", inclusive=True,
               calls="prefix.sessions",
               before=lambda args: _instret_before(args[0]),
               count=prefix_insns),
        Target(MachineSnapshot, "capture", "snapshot.capture",
               inclusive=True),
        Target(MachineSnapshot, "make_kernel", "snapshot.capture",
               inclusive=True),
        Target(MachineSnapshot, "restore_memory", "snapshot.restore",
               inclusive=True, calls="snapshot.restores",
               count=lambda args, result, pre:
               {"snapshot.pages_written": result}),
        Target(MachineSnapshot, "restore_cpu", "snapshot.restore",
               inclusive=True),
        Target(CPU, "evict_suspect_decodes", "snapshot.restore",
               inclusive=True),
        Target(Kernel, "rewind_to", "snapshot.restore", inclusive=True,
               calls="snapshot.kernel_rewinds"),
        Target(Watchdog, "run", "watchdog",
               before=lambda args: _instret_before(args[1]),
               count=emu_insns),
        Target(GuardedWatchdog, "run", "watchdog",
               before=lambda args: _instret_before(args[1]),
               count=emu_insns),
        Target(Process, "run", "emu"),
        Target(Process, "run_watched", "emu"),
        Target(Kernel, "syscall", "kernel", calls="kernel.syscalls"),
        Target(runner, "classify_completed_run", "outcomes.classify",
               inclusive=True),
        Target(CampaignJournal, "open", "journal", inclusive=True),
        Target(CampaignJournal, "append_result", "journal",
               inclusive=True, calls="journal.records"),
        Target(CampaignJournal, "append_quarantine", "journal",
               inclusive=True, calls="journal.records"),
        Target(CampaignJournal, "close", "journal", inclusive=True),
        Target(WorkerFleet, "submit", "fleet.submit", inclusive=True,
               mark=lambda args, result: result),
        Target(WorkerFleet, "pump", "fleet.pump", inclusive=True),
        Target(WorkerFleet, "finalize", "fleet.merge", inclusive=True,
               mark=lambda args, result: args[1]),
    ]
    for model in models:
        if "classify_points" in vars(model):
            targets.append(Target(model, "classify_points", "pruning",
                                  inclusive=True))
        if "apply" in vars(model):
            targets.append(Target(model, "apply", "inject"))
    return targets


@contextmanager
def installed(clock, targets=None):
    """Wrap every target for the duration of the ``with`` block and
    restore the originals afterwards, even if the block raises."""
    targets = layer_targets() if targets is None else targets
    saved = []
    try:
        for target in targets:
            original = vars(target.owner)[target.name]
            if isinstance(original, (classmethod, staticmethod)):
                wrapped = type(original)(
                    clock.wrap(original.__func__, target))
            else:
                wrapped = clock.wrap(original, target)
            saved.append((target.owner, target.name, original))
            setattr(target.owner, target.name, wrapped)
        yield clock
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
