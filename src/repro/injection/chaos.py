"""Deterministic chaos harness for the campaign fleet.

In the spirit of the source paper -- which injects faults into
daemons to see how they fail -- this module injects faults into our
*own* campaign harness to prove the fleet's supervision
(:mod:`repro.injection.fleet`) degrades gracefully instead of
assuming it does.  A :class:`ChaosPolicy` is a picklable, seeded,
fully deterministic schedule of harness faults:

* **kill** -- the worker process ``os._exit``\\ s (any exit code,
  including the treacherous ``0``) right after journaling its N-th
  experiment, leaving the shard journal at a clean resume boundary;
* **stall** -- the worker sleeps past its heartbeat deadline, the
  signature of a wedged process that is alive but making no progress;
* **fail-write** -- a journal append raises ``ENOSPC``, the classic
  full-disk failure of long-running fleets.

Every action is gated on ``(shard, attempt)`` -- a fleet worker's
index and incarnation (a serial run is shard 0, attempt 0).  By
default a fault fires only in a worker's first incarnation
(``attempt == 0``), so the supervisor's respawn is not re-faulted and
tests can also script multi-attempt failures explicitly (kill
attempts 0..K to exhaust the restart budget and retire the worker).

Journal *file* corruption -- the on-disk half of the chaos model --
is covered by :func:`corrupt_journal_tail`, used by tests against the
salvage loader (``CampaignJournal.load(strict=False)``).

The acceptance property for every recovery path is a campaign equal,
record for record, to the reference run; the equivalence oracle
(``tests/properties/test_oracle.py``) draws chaos schedules and
journal corruptions as one of its axes.
"""

from __future__ import annotations

import errno
import os
import random
import time
from dataclasses import dataclass

#: action kinds.
KILL = "kill"
STALL = "stall"
FAIL_WRITE = "fail-write"

ACTION_KINDS = (KILL, STALL, FAIL_WRITE)


@dataclass(frozen=True)
class ChaosAction:
    """One scheduled harness fault.

    ``after`` counts *executed* experiments (for :data:`KILL` and
    :data:`STALL`) or journal record writes (for :data:`FAIL_WRITE`)
    within the targeted attempt; the action fires once, the first
    time the count reaches it.
    """

    kind: str
    shard: int
    after: int = 1
    attempt: int = 0
    #: stall duration -- longer than any heartbeat deadline by default.
    seconds: float = 3600.0
    #: kill exit status.  0 reproduces the historical silent-hang bug
    #: (a worker that dies "successfully" without its done payload).
    exit_code: int = 42

    def __post_init__(self):
        if self.kind not in ACTION_KINDS:
            raise ValueError("unknown chaos action %r (have: %s)"
                             % (self.kind, ", ".join(ACTION_KINDS)))


@dataclass(frozen=True)
class ChaosPolicy:
    """A deterministic schedule of :class:`ChaosAction`\\ s.

    Picklable pure data: the policy crosses the fork boundary inside
    the worker spec, and each worker derives its own
    :class:`ChaosAgent` for its ``(shard, attempt)`` incarnation.
    """

    actions: tuple = ()

    @classmethod
    def seeded(cls, seed, shards, max_point=8):
        """A reproducible single-kill + single-ENOSPC schedule drawn
        from *seed* -- the CI chaos job's input, printable from the
        seed alone."""
        rng = random.Random(seed)
        kill_shard = rng.randrange(shards)
        return cls(actions=(
            ChaosAction(kind=KILL, shard=kill_shard,
                        after=1 + rng.randrange(max_point),
                        exit_code=rng.choice((0, 1, 42))),
            ChaosAction(kind=FAIL_WRITE,
                        shard=rng.randrange(shards),
                        after=1 + rng.randrange(max_point)),
        ))

    def agent(self, shard, attempt):
        """The live hook object for one worker incarnation (or
        ``None`` when no action targets it, keeping the fast path
        unhooked)."""
        actions = tuple(action for action in self.actions
                        if action.shard == shard
                        and action.attempt == attempt)
        if not actions:
            return None
        return ChaosAgent(actions)

    def describe(self):
        return "; ".join(
            "%s shard %d attempt %d after %d"
            % (action.kind, action.shard, action.attempt, action.after)
            for action in self.actions) or "no actions"


class ChaosAgent:
    """Worker-side hook bundle for one ``(shard, attempt)``.

    ``on_point`` is called by the campaign runner after each executed
    (journaled) experiment; ``on_journal_write`` by the journal before
    each record append.  Each action fires at most once.
    """

    def __init__(self, actions):
        self._point_actions = [action for action in actions
                               if action.kind in (KILL, STALL)]
        self._write_actions = [action for action in actions
                               if action.kind == FAIL_WRITE]
        self._fired = set()

    def on_point(self, executed):
        for action in self._point_actions:
            if action in self._fired or executed < action.after:
                continue
            self._fired.add(action)
            if action.kind == KILL:
                # os._exit skips every atexit/finally: the harness
                # equivalent of a SIGKILL, except the exit code is
                # scriptable (0 reproduces the silent-hang bug).
                os._exit(action.exit_code)
            else:
                time.sleep(action.seconds)

    def on_journal_write(self, index):
        for action in self._write_actions:
            if action in self._fired or index < action.after:
                continue
            self._fired.add(action)
            raise OSError(errno.ENOSPC,
                          "chaos: no space left on device")


# ----------------------------------------------------------------------
# On-disk journal corruption (the other half of the fault model)

def corrupt_journal_tail(path, mode="garbage-line", seed=0):
    """Deterministically damage a journal file in place.

    ``truncate-tail``
        chop the final line mid-record (the on-disk signature of a
        SIGKILL during an append) -- tolerated even by strict loads;
    ``garbage-line``
        overwrite one complete mid-file line with non-JSON bytes (a
        torn sector / concurrent-writer artifact) -- fatal to strict
        loads, quarantined by ``strict=False`` salvage.

    Returns the 1-based line number that was damaged.
    """
    with open(path) as handle:
        lines = handle.read().splitlines(keepends=True)
    if not lines:
        raise ValueError("cannot corrupt empty journal %s" % path)
    if mode == "truncate-tail":
        victim = len(lines)
        lines[-1] = lines[-1][:max(1, len(lines[-1]) // 2)]
    elif mode == "garbage-line":
        # never the meta header (line 1): salvage keeps the meta so
        # resume validation still runs.
        if len(lines) < 2:
            raise ValueError("journal %s has no record lines" % path)
        victim = 2 + random.Random(seed).randrange(len(lines) - 1)
        victim = min(victim, len(lines))
        lines[victim - 1] = "\x00garbage {not json%d\n" % seed
    else:
        raise ValueError("unknown corruption mode %r" % mode)
    with open(path, "w") as handle:
        handle.writelines(lines)
    return victim
