"""Work-unit scheduling for campaign execution.

A static assignment (worker K owns every K-th instruction group for
the whole campaign) lets one slow worker -- an instruction whose
sessions are expensive, a worker sharing a busy core -- set the
campaign's wall clock.  This module makes the assignment decision an
explicit scheduling layer instead:

* the enumerated experiment list is cut into :class:`WorkUnit`\\ s of a
  few *whole instructions* each (all bits of one instruction stay
  together, preserving the per-site ``BreakpointSession`` amortisation
  -- and, because equivalence classes are a property of one site's
  points, every pruning class lands intact inside exactly one unit);
* units sit on a single pull queue; workers *take* the next unit when
  they go idle, which is work stealing in its simplest form -- a fast
  worker simply takes more units, and no unit is ever owned before a
  worker is ready to run it;
* completions are keyed by point, so the merge back into enumeration
  order is a pure sort -- byte-identical to a serial run no matter how
  units interleaved, migrated between workers, or were salvaged from a
  dead worker's journal and requeued.

The scheduler is deliberately process-free pure logic: the fleet
(:mod:`repro.injection.fleet`) is the transport layer around it, and
the determinism property ("any interleaving of unit completions
merges to the same journal bytes as serial") is tested directly
against this class without an emulator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

#: default whole instructions per work unit.  Small enough that a
#: campaign of a few dozen sites spreads across any fleet, large
#: enough that the per-unit overhead (journal load, unit messages)
#: stays amortised over many experiments.
UNIT_INSTRUCTIONS = 4


def instruction_groups(points):
    """Split an enumerated point list into runs of consecutive points
    sharing one ``instruction_address`` (the unit of breakpoint-session
    amortisation -- and of pruning-class integrity)."""
    groups = []
    for point in points:
        if (groups and groups[-1][-1].instruction_address
                == point.instruction_address):
            groups[-1].append(point)
        else:
            groups.append([point])
    return groups


@dataclass(frozen=True)
class WorkUnit:
    """A contiguous slice of the enumeration: a few whole instructions'
    worth of points, identified by its position in unit order."""

    unit_id: str
    index: int
    points: tuple

    @property
    def keys(self):
        return tuple(point.key for point in self.points)

    def __len__(self):
        return len(self.points)


def build_units(points, unit_instructions=UNIT_INSTRUCTIONS,
                first_index=0):
    """Cut *points* into :class:`WorkUnit`\\ s of at most
    ``unit_instructions`` whole instructions, in enumeration order."""
    if unit_instructions < 1:
        raise ValueError("unit_instructions must be >= 1, got %r"
                         % unit_instructions)
    units = []
    groups = instruction_groups(points)
    for offset in range(0, len(groups), unit_instructions):
        chunk = groups[offset:offset + unit_instructions]
        index = first_index + len(units)
        units.append(WorkUnit(
            unit_id="u%05d" % index, index=index,
            points=tuple(point for group in chunk
                         for point in group)))
    return units


@dataclass
class _UnitState:
    unit: WorkUnit
    taken: bool = False
    done: bool = False
    attempts: int = 0
    covered: set = field(default_factory=set)


class CampaignScheduler:
    """Turns one campaign's enumerated points into pull-queue work
    units and merges completions back into enumeration order.

    Lifecycle::

        scheduler = CampaignScheduler(points, unit_instructions=4)
        scheduler.preload(resumed_results, resumed_quarantined)
        while not scheduler.finished:
            unit = scheduler.take()          # None: all in flight
            ... run unit somewhere ...
            scheduler.record(key, record)    # per completed point
            scheduler.complete(unit)         # or requeue(unit)

    Records are whatever the owner keeps (result objects in
    :class:`~repro.injection.runner.CampaignOwner`).
    ``record``/``record_quarantine`` accept any completion source --
    a worker payload, a salvaged journal, an inline run -- and ignore
    keys outside the enumeration (stale journal entries) as well as
    repeat completions (a point that migrated units between resumes;
    the emulator is deterministic, so every copy carries the same
    record).  :meth:`merged_results` is a pure sort by enumeration
    index, which is the whole determinism argument: the merged output
    is a function of the completion *set*, never of the completion
    *order*.
    """

    def __init__(self, points, unit_instructions=UNIT_INSTRUCTIONS):
        self.points = list(points)
        self.unit_instructions = unit_instructions
        self.order = {point.key: index
                      for index, point in enumerate(self.points)}
        self.results = {}
        self.quarantined = {}
        #: keys completed before scheduling (journal resume).
        self.resumed = set()
        self._built = False
        self._units = {}
        self._queue = deque()
        self._next_index = 0

    # -- resume preload ------------------------------------------------

    def preload(self, results, quarantined):
        """Load already-completed records (keyed by point) before the
        units are built; unknown keys are dropped."""
        if self._built:
            raise RuntimeError("preload() must precede take()")
        for key, record in (results or {}).items():
            if key in self.order:
                self.results[key] = record
                self.resumed.add(key)
        for key, record in (quarantined or {}).items():
            if key in self.order:
                self.quarantined[key] = record
                self.results.pop(key, None)   # stays quarantined
                self.resumed.add(key)

    # -- unit queue ----------------------------------------------------

    @property
    def remaining(self):
        """The points without a resumed record, in enumeration
        order: what is left to run."""
        return [point for point in self.points
                if point.key not in self.resumed]

    def _build(self):
        for unit in build_units(self.remaining, self.unit_instructions):
            self._units[unit.unit_id] = _UnitState(unit)
            self._queue.append(unit.unit_id)
        self._next_index = len(self._units)
        self._built = True

    @property
    def units(self):
        """All units ever scheduled, in creation order."""
        if not self._built:
            self._build()
        return [state.unit for state in self._units.values()]

    def take(self):
        """Next unit for an idle worker (the pull is the steal), or
        ``None`` when everything is done or in flight."""
        if not self._built:
            self._build()
        while self._queue:
            unit_id = self._queue.popleft()
            state = self._units[unit_id]
            if state.done:
                continue
            state.taken = True
            state.attempts += 1
            return state.unit
        return None

    def record(self, key, record):
        """One completed experiment record, from any source."""
        if key in self.order and key not in self.quarantined:
            self.results[key] = record

    def record_quarantine(self, key, record):
        if key in self.order:
            self.quarantined[key] = record
            self.results.pop(key, None)

    def complete(self, unit):
        """Mark *unit* finished.  Points of the unit not covered by a
        :meth:`record` call are treated as intentionally absent (e.g.
        a checkpoint boundary) -- use :meth:`requeue` instead when
        they still need to run."""
        state = self._units[unit.unit_id]
        state.done = True
        state.taken = False

    def requeue(self, unit):
        """Return a unit's unfinished remainder to the queue (worker
        died mid-unit; whatever its journal held should have been
        :meth:`record`\\ ed first).  The remainder becomes a fresh
        unit at the *front* of the queue, so salvaged work finishes
        before new work starts.  Returns the replacement unit, or
        ``None`` when every point of the unit is already covered."""
        state = self._units[unit.unit_id]
        state.done = True
        state.taken = False
        leftover = [point for point in unit.points
                    if point.key not in self.results
                    and point.key not in self.quarantined]
        if not leftover:
            return None
        replacement = WorkUnit(
            unit_id="u%05d" % self._next_index,
            index=self._next_index, points=tuple(leftover))
        self._next_index += 1
        self._units[replacement.unit_id] = _UnitState(
            replacement, attempts=state.attempts)
        self._queue.appendleft(replacement.unit_id)
        return replacement

    def attempts(self, unit):
        state = self._units.get(unit.unit_id)
        return state.attempts if state is not None else 0

    # -- progress ------------------------------------------------------

    @property
    def total(self):
        return len(self.points)

    @property
    def completed(self):
        return len(self.results) + len(self.quarantined)

    @property
    def in_flight(self):
        return [state.unit for state in self._units.values()
                if state.taken and not state.done]

    @property
    def pending(self):
        """Units still waiting on the queue."""
        if not self._built:
            self._build()
        return [self._units[unit_id].unit for unit_id in self._queue
                if not self._units[unit_id].done]

    @property
    def finished(self):
        """Every enumerated point has a result or a quarantine."""
        if not self._built:
            self._build()
        return all(key in self.results or key in self.quarantined
                   for key in self.order)

    # -- deterministic merge -------------------------------------------

    def merged_results(self):
        """Completed result records in exact enumeration order."""
        return [self.results[key]
                for key in sorted(self.results,
                                  key=self.order.__getitem__)]

    def merged_quarantined(self):
        return [self.quarantined[key]
                for key in sorted(self.quarantined,
                                  key=self.order.__getitem__)]

    def missing_keys(self):
        return [key for key in self.order
                if key not in self.results
                and key not in self.quarantined]
