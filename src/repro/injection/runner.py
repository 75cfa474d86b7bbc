"""Fault-tolerant campaign execution engine (the NFTAPE control host).

The paper's methodology only works if thousands of injection
experiments run to completion and the tally can be trusted; NFTAPE
was built so that one faulted run could never corrupt the campaign.
This module gives our campaigns the same property, four capabilities
deep:

* **experiment isolation** -- each injection runs inside a guard that
  converts unexpected harness/emulator exceptions into a
  ``HARNESS_FAULT`` record (traceback attached) instead of aborting
  the campaign;
* **hang watchdog** -- a wall-clock + instruction-rate watchdog that
  separates "budget exhausted while making progress" (still FSV)
  from "stuck in a tight loop" (the new ``HANG`` outcome, with the
  loop's EIP range recorded);
* **append-only JSONL journal** -- every result is serialized as it
  completes; ``resume=True`` skips already-journaled points, so a
  killed campaign restarts exactly where it stopped and produces
  identical tallies;
* **quarantine-with-retry** -- a point whose outcome is not stable
  across ``retries`` re-executions (the emulator must be
  deterministic, so instability is a harness smoke signal) is
  re-queued with capped backoff and, if still unstable, quarantined
  and excluded from percentages with an explicit count.

Each campaign has one owner, :class:`CampaignOwner` (NFTAPE's
control host, the same for a serial run and a fleet): it records the
golden run, enumerates the points, loads the resume state, merges the
records in enumeration order, folds the deterministic metrics over
them, emits the campaign's milestones, honours the deadline and stop
signals (:class:`StopCheck`) and writes the sinks.  A
:class:`CampaignRunner` runs exactly the points and golden run it is
handed: serial :func:`run_serial_campaign` runs one in-process over
the points the owner's scheduler still lacks, and every work unit of
the parallel fleet (:mod:`repro.injection.fleet`) runs through one.
The journal-family loader (:class:`JournalFamily`) and the stop-signal
and backoff helpers the fleet's supervisor uses live here too.
"""

from __future__ import annotations

import glob
import json
import os
import re
import signal
import threading
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass, field, replace

from ..emu.perf import PerfCounters
from ..kernel import ServerHang
from ..obs.events import emit_milestone, outcome_delta
from ..obs.forensics import capture_forensics, make_forensic_ring
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, record_supervision_metrics
from ..obs.sampler import as_sampler, Sampler
from ..obs.trace import as_tracer, NULL_TRACER
from ..x86.registers import REG32_NAMES
from .campaign import CampaignResult, QuarantinedPoint, RunOptions
from .earlyexit import Converged, EarlyExitAuditError, EarlyExits
from .faultmodels import get_fault_model
from .golden import record_golden
from .injector import BreakpointSession, hang_status, SessionCache
from .outcomes import (classify_completed_run, FAIL_SILENCE_VIOLATION,
                       HANG, HARNESS_FAULT, InjectionResult,
                       NOT_ACTIVATED, NOT_MANIFESTED, SECURITY_BREAKIN)
from .scheduler import CampaignScheduler, UNIT_INSTRUCTIONS

#: unstable points are re-queued at most this many times before being
#: quarantined (the "capped backoff" of the experiment list).
MAX_RETRY_ROUNDS = 3

#: cap on the number of confirmation re-executions per retry round
#: (the per-round count doubles each round up to this ceiling).
MAX_CONFIRMATIONS_PER_ROUND = 8

#: journal format version.  v2 journals predate the fault-model
#: registry (no ``model`` in meta, legacy point records); v5 aligns
#: the journal with the campaign-JSON schema and stamps the fault
#: model; v6 adds the optional per-result ``forensics`` snapshot
#: (:mod:`repro.obs.forensics`); v7 adds the optional per-result
#: ``class_id``/``representative`` pruning provenance
#: (:mod:`repro.injection.pruning`); v8 adds the optional ``unit``
#: marker line a fleet worker appends after finishing each work unit
#: (:mod:`repro.injection.scheduler`) -- pure progress metadata, never
#: part of any tally.  The reader accepts all of them (a missing model
#: is ``branch-bit``, missing optional fields are ``None``), so v2-v7
#: journals still load and resume -- including across
#: ``--prune``/``--no-prune`` boundaries, since pruned and exhaustive
#: journals record the same point keys and outcomes.
JOURNAL_SCHEMA = 8

_LOGGER = get_logger("campaign")


class JournalError(RuntimeError):
    """The journal file does not match the campaign being run."""


class CampaignInterrupted(RuntimeError):
    """A campaign stopped early at a clean checkpoint.

    Raised (never swallowed) when a graceful shutdown was requested --
    SIGTERM/SIGINT under ``graceful_signals``, an expired
    ``deadline``, or an external ``stop_check`` -- after the current
    experiment finished and the journal was flushed and closed.  The
    journal is guaranteed resumable: re-running the same campaign with
    ``resume=True`` completes it with tallies identical to an
    uninterrupted run.
    """

    def __init__(self, reason, journal=None, completed=0):
        self.reason = reason
        self.journal = str(journal) if journal is not None else None
        self.completed = completed
        super().__init__(
            "campaign checkpointed (%s) after %d experiment(s)%s"
            % (reason, completed,
               "" if journal is None
               else "; journal %s is resumable" % self.journal))

    def resume_hint(self):
        if self.journal is None:
            return ("no journal was configured; re-run with "
                    "--journal PATH to make checkpoints resumable")
        return ("re-run the same campaign with --resume to continue "
                "from %s" % self.journal)


# ----------------------------------------------------------------------
# Stop signals and supervision helpers (the campaign owner and the
# fleet's supervisor share them, so both engines degrade identically)

#: every supervision event the fleet counts (and the metrics registry
#: exports as ``supervisor.<name>`` volatile counters).
#: ``pipe_errors`` counts message channels torn while their worker was
#: still busy (killed mid-send) -- the EOF after a clean ``bye`` is
#: normal teardown and not counted.
EVENT_NAMES = ("respawns", "wedged", "worker_errors", "failed_shards",
               "degraded", "salvaged_points", "inline_points",
               "checkpoints", "checkpoint_exits", "stale_messages",
               "pipe_errors")


def backoff_delay(config, restarts):
    """Exponential respawn delay for the *restarts*-th restart
    (1-based), capped."""
    return min(config.backoff_cap,
               config.backoff_base * (2 ** (restarts - 1)))


def install_stop_handlers(on_stop):
    """Convert SIGTERM/SIGINT into ``on_stop(signal_name)`` (flag, not
    raise -- the caller checkpoints at the next clean boundary).
    Returns the restore callback; a no-op off the main thread, where
    signal handlers cannot be installed."""
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def request_stop(signum, frame):
        on_stop(signal.Signals(signum).name)

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, request_stop)

    def restore():
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return restore


def join_process(process, timeout=5.0):
    """Join with a SIGKILL escalation for processes that ignore it."""
    process.join(timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout)


@dataclass
class WatchdogConfig:
    """Tunables for the per-experiment watchdog.

    ``wall_clock_limit`` bounds one experiment's real time (an
    emulator that spins forever inside a single instruction handler
    would otherwise stall the campaign); ``probe_instructions`` and
    ``loop_eip_limit`` drive the post-budget tight-loop probe: after
    the instruction budget is exhausted the CPU is single-stepped a
    little further, and if it visits at most ``loop_eip_limit``
    distinct EIPs the run is a ``HANG``, not a plain FSV.
    """

    wall_clock_limit: float | None = 60.0
    slice_instructions: int = 65_536
    probe_instructions: int = 512
    loop_eip_limit: int = 32


@dataclass
class HangProbe:
    """Outcome of the post-budget instruction-rate probe."""

    tight_loop: bool = False
    distinct_eips: int = 0
    eip_low: int = 0
    eip_high: int = 0
    wall_clock: bool = False
    elapsed: float = 0.0


class Watchdog:
    """Budgeted executor: runs a process in slices, enforcing the
    wall clock, and probes ``limit`` endings for tight loops.

    With :attr:`early` armed (:mod:`repro.injection.earlyexit`) the
    slices go through a cycle search, and a run that converges on the
    golden run ends there; either way ``status.early_exit`` says how,
    and the status is the full run's.

    A non-empty :attr:`watch` (the pruning guard,
    :class:`~repro.injection.pruning.GuardedWatchdog`) steps the
    corrupted instruction first, then runs watched slices until the
    guard trips; the cycle search runs only on unwatched slices."""

    watch = frozenset()

    def __init__(self, config=None, tracer=None):
        self.config = config if config is not None else WatchdogConfig()
        #: span tracer (assigned by the runner); probes are counted so
        #: the metrics registry can report them.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.probes = 0
        #: EIPs the most recent probe visited; a guarded run trips
        #: when they meet :attr:`watch`.
        self.probe_seen = frozenset()
        #: the armed :class:`~repro.injection.earlyexit.EarlyExits`
        #: of the current experiment, or ``None``.
        self.early = None

    def __call__(self, process, budget):
        return self.run(process, budget)

    def run(self, process, budget):
        config = self.config
        cpu = process.cpu
        search = (self.early.cycle_search(process)
                  if self.early is not None else None)
        watch = self.watch
        stepping = bool(watch) and cpu.instret < budget
        started = time.monotonic()
        try:
            while True:
                ceiling = min(cpu.instret + config.slice_instructions,
                              budget)
                if stepping:
                    # the corrupted instruction, or a lock-step re-step
                    # of it, as a one-instruction slice
                    stepping = False
                    status = process.run(cpu.instret + 1)
                elif not watch:
                    status = (process.run(ceiling) if search is None
                              else search.run(ceiling, budget))
                else:
                    status = process.run_watched(watch, ceiling)
                    if status.kind == "watched":
                        stepping = (cpu.eip == self.site
                                    and cpu.instret < budget
                                    and self._members_agree(cpu))
                        if stepping:
                            self.rechecks += 1
                        else:
                            self.tripped, watch = True, None
                        continue
                if status.kind != "limit" or cpu.instret >= budget:
                    break
                if config.wall_clock_limit is not None:
                    elapsed = time.monotonic() - started
                    if elapsed > config.wall_clock_limit:
                        status.hang_probe = HangProbe(
                            tight_loop=True, wall_clock=True,
                            eip_low=cpu.eip, eip_high=cpu.eip,
                            elapsed=elapsed)
                        return status
        except ServerHang as hang:
            return hang_status(process, hang)
        except Converged as converged:
            status = process._status("exit", converged.exit_code)
            status.instret = converged.instret
            status.early_exit = converged.early_exit
            return status
        if status.kind == "limit":
            status.hang_probe = self._probe(process)
            if not self.watch.isdisjoint(self.probe_seen):
                self.tripped = True
        if search is not None and search.found is not None:
            status.early_exit = search.found
        return status

    def _probe(self, process):
        """Single-step past the budget and measure EIP diversity.

        Each step is a one-instruction slice of the CPU's run loop, so
        an attached forensic ring or sampler sees it (a HANG snapshot
        then shows the loop body)."""
        config = self.config
        cpu = process.cpu
        self.probes += 1
        seen = self.probe_seen = set()
        with self.tracer.span("watchdog-probe", cat="watchdog") as span:
            try:
                for __ in range(config.probe_instructions):
                    if cpu.halted:
                        return HangProbe()    # exited: was progressing
                    seen.add(cpu.eip)
                    if cpu.run(cpu.instret + 1)[0] == "crash":
                        return HangProbe()    # faulted: was progressing
            except ServerHang:
                return HangProbe()            # hung up: was progressing
            except Exception:
                return HangProbe()            # inconclusive
            finally:
                span.set("distinct_eips", len(seen))
            seen.add(cpu.eip)
            tight = len(seen) <= config.loop_eip_limit
            return HangProbe(tight_loop=tight, distinct_eips=len(seen),
                             eip_low=min(seen), eip_high=max(seen))


def refine_limit_outcome(outcome, detail, status):
    """Upgrade an FSV "server looping" verdict to HANG when the
    watchdog probe saw a tight loop.  Returns
    ``(outcome, detail, hang_eip_range)``."""
    probe = getattr(status, "hang_probe", None)
    if (outcome != FAIL_SILENCE_VIOLATION or status.kind != "limit"
            or probe is None or not probe.tight_loop):
        return outcome, detail, None
    eip_range = (probe.eip_low, probe.eip_high)
    if probe.wall_clock:
        detail = ("wall-clock watchdog fired after %.1fs near "
                  "eip=0x%x" % (probe.elapsed, probe.eip_low))
    else:
        detail = ("tight loop in [0x%x, 0x%x] (%d distinct eips)"
                  % (probe.eip_low, probe.eip_high,
                     probe.distinct_eips))
    return HANG, detail, eip_range


def campaign_timing(wall_clock, experiments, executed, workers=1,
                    shards=None, perf=None):
    """Timing record attached to ``CampaignResult.timing``.

    ``experiments`` counts every record in the final tally (including
    ones reconstructed from a journal); ``executed`` only the
    experiments actually run this invocation, so ``experiments_per_sec``
    measures real throughput, not resume speed.  ``perf``, when given,
    is the campaign's aggregated execution-engine counter dict (see
    :class:`repro.emu.perf.PerfCounters`).
    """
    timing = {
        "wall_clock": wall_clock,
        "experiments": experiments,
        "executed": executed,
        "experiments_per_sec": (executed / wall_clock
                                if wall_clock > 0 else 0.0),
        "workers": workers,
    }
    if shards is not None:
        timing["shards"] = shards
    if perf is not None:
        timing["perf"] = perf
    return timing


def campaign_metrics(results, quarantined, points):
    """The deterministic metrics core of a campaign: one fold over its
    merged records (result objects and
    :class:`~repro.injection.campaign.QuarantinedPoint` entries) and
    its point count.  Every engine gets its core from here, so it is
    the same for every worker count, unit cut and resume history.
    ``retry_requeues`` counts the retry rounds quarantined points
    spent; a requeue that later stabilised leaves no record, so it is
    the volatile ``runtime.retry_requeues``."""
    registry = MetricsRegistry()
    registry.counter("experiments").inc(len(results))
    registry.counter("activated").inc(
        sum(1 for result in results if result.activated))
    registry.counter("quarantined").inc(len(quarantined))
    registry.counter("retry_requeues").inc(
        sum(entry.rounds - 1 for entry in quarantined))
    histogram = registry.histogram("crash_latency")
    for result in results:
        if result.crash_latency is not None:
            histogram.observe(result.crash_latency)
    for outcome, count in Counter(result.outcome
                                  for result in results).items():
        registry.counter("outcome.%s" % outcome).inc(count)
    registry.gauge("points").set(points)
    return registry


# ----------------------------------------------------------------------
# JSONL journal

def _point_key(point):
    """Journal/resume identity: every fault model's point class
    exposes a campaign-unique ``key``."""
    return point.key


def validate_journal_meta(meta, expected, path):
    """Reject a journal recorded for a different campaign.

    Journals written before the fault-model registry existed
    (schema <= 4) carry no ``model`` field; every pre-registry
    campaign was branch-bit by construction, so a missing model
    matches (and only matches) a branch-bit resume.
    """
    for field_name in ("daemon", "client", "encoding", "model"):
        recorded = meta.get(field_name)
        if field_name == "model" and recorded is None:
            recorded = "branch-bit"
        if recorded != expected[field_name]:
            raise JournalError(
                "journal %s was recorded for %s=%r, campaign wants "
                "%r" % (path, field_name, recorded,
                        expected[field_name]))


@dataclass
class JournalLoadReport:
    """What a salvage load (``strict=False``) had to tolerate."""

    path: str
    #: ``(line_number, snippet)`` for every quarantined corrupt line.
    corrupt_lines: list = field(default_factory=list)
    #: a half-written final line was dropped (SIGKILL mid-append).
    truncated_tail: bool = False
    records: int = 0
    #: ``unit`` marker records (schema v8; fleet work-unit progress),
    #: in file order.
    units: list = field(default_factory=list)

    @property
    def corrupt_count(self):
        return len(self.corrupt_lines)


class CampaignJournal:
    """Append-only JSONL record of a campaign in progress.

    Line types: one ``meta`` header, then one ``result`` line per
    completed experiment and one ``quarantine`` line per quarantined
    point.  A half-written final line (the signature of a SIGKILL
    mid-append) is tolerated on load.

    ``fsync_every`` is the opt-in durability policy: ``flush()`` alone
    survives a crashed *process* but loses buffered records on power
    loss or a SIGKILL of the host, so campaigns that must resume
    across those can fsync every record (``1``) or every N records
    (amortised).  ``write_hook`` is called with the record index
    before each append -- the chaos harness uses it to inject ENOSPC
    faults.
    """

    def __init__(self, path, fsync_every=None, write_hook=None):
        self.path = str(path)
        self.fsync_every = fsync_every
        self.write_hook = write_hook
        self._handle = None
        self._writes = 0
        self._unsynced = 0

    # -- writing -------------------------------------------------------

    def open(self, meta):
        """Open for appending; a new (missing or empty) file gets the
        ``meta`` header first (:func:`resume_state` clears stale
        files)."""
        # A SIGKILL can leave a half-written final line; appending
        # straight after it would corrupt the next record, so drop any
        # unparseable tail first.
        self._truncate_partial_tail()
        self._handle = open(self.path, "a")
        if self._handle.tell() == 0:
            self._write({"type": "meta", "schema": JOURNAL_SCHEMA,
                         **meta})

    def _truncate_partial_tail(self):
        try:
            with open(self.path) as handle:
                text = handle.read()
        except FileNotFoundError:
            return
        lines = text.splitlines(keepends=True)
        while lines:
            last = lines[-1]
            try:
                complete = last.endswith("\n") and (not last.strip()
                                                    or json.loads(last)
                                                    is not None)
            except json.JSONDecodeError:
                complete = False
            if complete:
                break
            lines.pop()
        cleaned = "".join(lines)
        if cleaned != text:
            with open(self.path, "w") as handle:
                handle.write(cleaned)

    def append_result(self, result):
        from ..analysis.serialize import result_to_dict
        self._write({"type": "result", "key": _point_key(result.point),
                     **result_to_dict(result)})

    def append_quarantine(self, point, location, outcomes, rounds):
        from ..analysis.serialize import point_to_dict
        self._write({"type": "quarantine", "key": _point_key(point),
                     "point": point_to_dict(point),
                     "location": location,
                     "outcomes": list(outcomes), "rounds": rounds})

    @staticmethod
    def mark_unit(path, unit_id, records, campaign=None, status=None,
                  total=None, ts=None):
        """Append a work-unit marker (schema v8) to an
        already-closed journal.  Markers are progress metadata for
        ``repro status`` and the service: loaders skip them, tallies
        never see them, and a marker-free journal resumes the same.

        ``status`` distinguishes ``started`` markers (a worker picked
        the unit up; ``repro status`` reports it as in-flight until a
        completion marker lands) and ``closed`` markers (a resume
        found it started and never completed; it is neither in flight
        nor completed) from the default completion marker.
        ``total`` carries the campaign's total point count and ``ts``
        a wall-clock stamp, feeding the live ETA -- all advisory,
        never tallied."""
        marker = {"type": "unit", "unit": unit_id, "records": records}
        if campaign is not None:
            marker["campaign"] = campaign
        if status is not None:
            marker["status"] = status
        if total is not None:
            marker["total"] = total
        marker["ts"] = round(time.time() if ts is None else ts, 3)
        with open(path, "a") as handle:
            handle.write(json.dumps(marker) + "\n")
            handle.flush()

    def _write(self, record):
        if self.write_hook is not None:
            self.write_hook(self._writes)
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        self._writes += 1
        if self.fsync_every:
            self._unsynced += 1
            if self._unsynced >= self.fsync_every:
                os.fsync(self._handle.fileno())
                self._unsynced = 0

    def close(self):
        if self._handle is not None:
            if self.fsync_every and self._unsynced:
                os.fsync(self._handle.fileno())
                self._unsynced = 0
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------

    @staticmethod
    def load(path, strict=True):
        """Parse a journal into ``(meta, results, quarantined)`` with
        the latter two keyed by point.  Tolerates a truncated final
        line; any other malformed line raises :class:`JournalError`
        when ``strict`` (the default), or is quarantined with a
        warning under ``strict=False`` (salvage mode) so an otherwise
        resumable journal is never stranded -- the points on dropped
        lines are simply re-run."""
        meta, results, quarantined, __ = \
            CampaignJournal.load_with_report(path, strict=strict)
        return meta, results, quarantined

    @staticmethod
    def load_with_report(path, strict=True):
        """:meth:`load` plus the :class:`JournalLoadReport` describing
        every line salvage had to drop (line numbers included)."""
        meta = None
        results = {}
        quarantined = {}
        report = JournalLoadReport(path=str(path))
        with open(path) as handle:
            lines = handle.read().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                kind = (record.get("type")
                        if isinstance(record, dict) else None)
                if kind not in ("meta", "result", "quarantine",
                                "unit"):
                    raise JournalError("unknown journal record %r"
                                       % kind)
            except json.JSONDecodeError:
                if index == len(lines) - 1:
                    report.truncated_tail = True
                    break                     # killed mid-append
                if strict:
                    raise JournalError("corrupt journal line %d in %s"
                                       % (index + 1, path))
                report.corrupt_lines.append((index + 1, line[:120]))
                continue
            except JournalError:
                if strict:
                    raise
                report.corrupt_lines.append((index + 1, line[:120]))
                continue
            if kind == "meta":
                meta = record
            elif kind == "result":
                results[record["key"]] = record
            elif kind == "unit":
                report.units.append(record)
                continue                      # metadata, not a record
            else:
                quarantined[record["key"]] = record
            report.records += 1
        if report.corrupt_lines:
            _LOGGER.warning(
                "journal %s: salvage quarantined %d corrupt line(s) "
                "(lines %s); their points will be re-run", path,
                report.corrupt_count,
                ", ".join(str(number)
                          for number, __ in report.corrupt_lines[:8]))
        return meta, results, quarantined, report


_SHARD_SUFFIX = re.compile(r"\.shard\d+$")


def shard_journal_path(journal, shard):
    """Journal file of fleet worker (or legacy shard) *shard*."""
    return "%s.shard%d" % (journal, shard)


def discover_shard_journals(journal):
    """Existing ``<journal>.shardK`` files, sorted, for any worker
    count."""
    return sorted(path for path in glob.glob("%s.shard*" % journal)
                  if _SHARD_SUFFIX.search(path))


@dataclass
class JournalMember:
    """One loaded file of a :class:`JournalFamily`."""

    path: str
    meta: dict | None = None
    results: dict = field(default_factory=dict)
    quarantined: dict = field(default_factory=dict)
    report: JournalLoadReport | None = None
    #: why the file could not be read (salvage loads only; strict
    #: loads raise instead).
    error: JournalError | None = None


@dataclass
class JournalFamily:
    """A campaign journal and its ``<journal>.shardK`` files, loaded.

    A serial run writes the base file only; a fleet run writes one
    shard file per worker (plus the parent's inline file) and unit
    markers in the base file; the retired shard runner wrote the same
    shard files.  ``results``/``quarantined`` merge every member by
    point key: duplicates (a point that moved between workers across
    resumes) are harmless, because the emulator is deterministic and
    every copy carries the same record.
    """

    members: list = field(default_factory=list)
    results: dict = field(default_factory=dict)
    quarantined: dict = field(default_factory=dict)

    @classmethod
    def load(cls, journal, strict=True):
        """Load the existing base file and shard files of the base path
        *journal*.  ``strict`` is as for :meth:`CampaignJournal.load`;
        a salvage load records a member it cannot read on
        :attr:`JournalMember.error` and carries on.  An empty family
        means no member exists."""
        family = cls()
        for path in cls.paths(journal):
            try:
                meta, results, quarantined, report = \
                    CampaignJournal.load_with_report(path,
                                                     strict=strict)
            except JournalError as error:
                if strict:
                    raise
                family.members.append(JournalMember(path, error=error))
                continue
            family.members.append(JournalMember(
                path, meta, results, quarantined, report))
            family.results.update(results)
            family.quarantined.update(quarantined)
        return family

    @staticmethod
    def paths(journal):
        """The family's existing files: the base journal, then its
        shard files in shard order."""
        journal = str(journal)
        paths = [journal] if os.path.exists(journal) else []
        return paths + discover_shard_journals(journal)

    @property
    def metas(self):
        return [member.meta for member in self.members
                if member.meta is not None]

    @property
    def units(self):
        return [marker for member in self.members
                if member.report is not None
                for marker in member.report.units]


def journal_meta(daemon, client_name, options):
    """The ``meta`` header of a campaign's journal files, and what a
    resume checks every member's header against."""
    return {"daemon": type(daemon).__name__, "client": client_name,
            "encoding": options.encoding,
            "model": get_fault_model(options.fault_model).name,
            "budget": options.budget}


def resume_state(daemon, client_name, options):
    """The ``(results, quarantined)`` records, keyed by point, a
    campaign starts from.  Only its :class:`CampaignOwner` calls
    this; work units never read a journal.  With ``resume`` the whole
    :class:`JournalFamily` loads, whichever engine wrote it, and every
    member's meta must name this campaign; without, the family starts
    afresh (base file truncated, ``.shardK`` files removed)."""
    journal = options.journal
    if journal is None:
        return {}, {}
    if not options.resume:
        open(journal, "w").close()
        for path in discover_shard_journals(journal):
            os.remove(path)
        return {}, {}
    family = JournalFamily.load(journal,
                                strict=not options.journal_salvage)
    expected = journal_meta(daemon, client_name, options)
    for member in family.members:
        if member.meta is not None:
            validate_journal_meta(member.meta, expected, member.path)
    _close_dangling_units(family)
    return family.results, family.quarantined


def _close_dangling_units(family):
    """Close every ``started`` unit marker that has no completion
    marker: its run stopped (a checkpoint or a kill), and whichever
    engine resumes it writes its own markers, so without a ``closed``
    marker ``repro status`` would report the unit in flight forever."""
    from ..obs.top import CampaignView
    for member in family.members:
        if member.report is None:
            continue
        dangling = CampaignView.of(member.report.units).in_flight
        if dangling and member.report.truncated_tail:
            # append after whole lines only
            CampaignJournal(member.path)._truncate_partial_tail()
        for unit in dangling:
            CampaignJournal.mark_unit(member.path, unit, 0,
                                      status="closed")


# ----------------------------------------------------------------------
# The campaign owner

class StopCheck:
    """A campaign owner's one stop check: SIGTERM/SIGINT under
    ``graceful_signals`` and the ``deadline``, counted from
    construction.  Calling it returns why the campaign should
    checkpoint now, or ``None``; as a context manager it puts the
    previous signal handlers back on exit."""

    def __init__(self, options):
        self.signal = None
        self._deadline_at = (None if options.deadline is None
                             else time.monotonic() + options.deadline)
        self._restore = (install_stop_handlers(self._request)
                         if options.graceful_signals else (lambda: None))

    def _request(self, name):
        # flag, not raise: the current experiment finishes and the
        # journal closes before CampaignInterrupted surfaces
        self.signal = name

    def __call__(self):
        if self.signal is not None:
            return self.signal
        if (self._deadline_at is not None
                and time.monotonic() > self._deadline_at):
            return "deadline"
        return None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._restore()
        return False


class CampaignOwner:
    """The owner of one campaign, serial or on the fleet.

    Opening it (construction) loads the resume state
    (:func:`resume_state`), opens the tracer, the sampler and the root
    ``campaign`` span, records the golden run (``golden`` hands in a
    cached one), enumerates the points into a
    :class:`~repro.injection.scheduler.CampaignScheduler` preloaded
    with the resumed records, and emits the ``golden`` and
    ``campaign-started`` milestones plus one ``outcomes`` delta for
    the resumed results.  Whatever runs the points hands their records
    to :meth:`record` and each unit's timing, volatile metrics and
    shipped spans to :meth:`report`; :meth:`close` merges, folds and
    writes the sinks.  Records are deserialized once, where they enter
    the owner (resume preload here, payload receipt and salvage in the
    fleet): the owner holds result objects only.

    Milestones go on ``bus`` under ``label`` and into the trace; a
    dict ``decodes`` receives the golden CPU's decodes when the owner
    records the golden run (:func:`record_golden`).
    """

    def __init__(self, daemon, client_name, client_factory, options,
                 golden=None, bus=None, label=None, workers=1,
                 unit_instructions=UNIT_INSTRUCTIONS, decodes=None):
        from ..analysis.serialize import (quarantined_from_dict,
                                          result_from_dict)
        self.started = time.monotonic()
        self.daemon = daemon
        self.client_name = client_name
        self.client_factory = client_factory
        self.options = options
        self.model = get_fault_model(options.fault_model)
        self.bus = bus
        self.label = label
        self.workers = workers
        resumed, quarantined = resume_state(daemon, client_name, options)
        sampler = options.sampler
        if sampler is None and options.profile is not None:
            sampler = Sampler()
        self.sampler = as_sampler(sampler)
        #: the campaign's tracer (a profiled run without a trace sink
        #: keeps span totals only, for the profile's host seconds).
        self.tracer = as_tracer(options.trace,
                                timed=self.sampler is not None)
        self._root = self.tracer.span("campaign", workers=workers,
                                      campaign=label)
        self.root_span = self._root.__enter__()
        self.golden_reused = golden is not None
        with self.tracer.span("golden-run") as span:
            if golden is None:
                golden = record_golden(daemon, client_factory,
                                       options.budget, decodes)
            else:
                span.set("reused", True)
            span.set("coverage_eips", len(golden.coverage))
        self.golden = golden
        ranges = (options.ranges if options.ranges is not None
                  else daemon.auth_ranges())
        points = self.model.enumerate_points(daemon.module, ranges,
                                             options.kinds)
        if options.max_points is not None:
            points = points[:options.max_points]
        self.scheduler = scheduler = CampaignScheduler(
            points, unit_instructions=unit_instructions)
        scheduler.preload(
            {key: result_from_dict(record)
             for key, record in resumed.items() if key in scheduler.order},
            {key: quarantined_from_dict(record)
             for key, record in quarantined.items()
             if key in scheduler.order})
        #: unit index -> ``(timing, volatile metrics, shipped spans)``.
        self.units = {}
        self.emit("golden", reused=self.golden_reused,
                  coverage_eips=len(golden.coverage))
        self.emit("campaign-started", points=len(points),
                  workers=workers, resumed=len(scheduler.resumed))
        if scheduler.results:
            self.emit("outcomes",
                      delta=outcome_delta(scheduler.results.values()))
        _LOGGER.debug("%s %s (%s, %s): %d experiment(s), %d resumed",
                      type(daemon).__name__, client_name,
                      options.encoding, self.model.name, len(points),
                      len(scheduler.resumed))

    def emit(self, type, campaign=None, **payload):
        """One milestone: on the bus under this campaign's label and
        as an instant in its trace.  The signature is the bus's, so a
        serial runner reports its ``outcomes`` on the owner (its own
        ``campaign`` label is then ignored)."""
        emit_milestone(self.bus, (self.tracer,), type, self.label,
                       **payload)

    def record(self, results=(), quarantined=()):
        """Completed records (result objects and quarantined points),
        from any source."""
        scheduler = self.scheduler
        for result in results:
            scheduler.record(result.point.key, result)
        for entry in quarantined:
            scheduler.record_quarantine(entry.point.key, entry)

    def report(self, index, timing, metrics, trace=None):
        """Unit *index*'s timing and volatile metrics registry, plus
        the spans a fleet worker shipped home."""
        self.units[index] = (timing or {}, metrics, trace)

    def close(self, supervision=None, interrupted=None):
        """Merge the records by enumeration order, fold the
        deterministic metrics over them (:func:`campaign_metrics`) and
        add the units' volatile registries, time the campaign,
        announce it and write the trace, profile and metrics sinks.
        Returns the :class:`~repro.injection.campaign.CampaignResult`;
        a checkpointed campaign (``interrupted`` names why) raises
        :class:`CampaignInterrupted` after the sinks instead.
        ``supervision`` is a fleet's event counts; a fleet's timing
        also lists its units' timings."""
        options = self.options
        scheduler = self.scheduler
        units = [self.units[index] for index in sorted(self.units)]
        with self.tracer.span("merge"):
            campaign = CampaignResult(
                daemon_name=type(self.daemon).__name__,
                client_name=self.client_name, encoding=options.encoding,
                fault_model=self.model.name, golden=self.golden,
                results=scheduler.merged_results(),
                quarantined=scheduler.merged_quarantined())
            registry = campaign_metrics(campaign.results,
                                        campaign.quarantined,
                                        scheduler.total)
            perf = PerfCounters()
            if not self.golden_reused:
                perf.absorb_dict(self.golden.perf)
            for timing, metrics, __ in units:
                registry.absorb_dict(metrics)
                perf.absorb_dict(timing.get("perf"))
            executed = sum(timing.get("executed", 0)
                           for timing, __, __ in units)
            wall_clock = time.monotonic() - self.started
            campaign.timing = campaign_timing(
                wall_clock=wall_clock,
                experiments=scheduler.completed, executed=executed,
                workers=self.workers,
                shards=(None if supervision is None
                        else [timing for timing, __, __ in units]),
                perf=perf.as_dict())
            self._runtime_metrics(registry, campaign.timing)
            if supervision is not None:
                record_supervision_metrics(registry, supervision)
            campaign.metrics = registry.as_dict()
        if interrupted is None:
            self.emit("campaign-finished",
                      counts=campaign.counts(refined=True),
                      quarantined=len(campaign.quarantined))
        self.root_span.set("experiments", len(campaign.results))
        self._root.__exit__(None, None, None)
        for __, __, trace in units:
            self.tracer.absorb(trace or ())
        self.tracer.close()
        if options.profile is not None and self.sampler is not None:
            self.sampler.save(options.profile, self.tracer.host_seconds())
        if options.metrics is not None:
            registry.save(options.metrics)
        if interrupted is not None:
            raise CampaignInterrupted(interrupted, journal=options.journal,
                                      completed=scheduler.completed)
        _LOGGER.debug("%s %s done: %d experiment(s) in %.1fs",
                      type(self.daemon).__name__, self.client_name,
                      len(campaign.results), wall_clock)
        return campaign

    def _runtime_metrics(self, registry, timing):
        """The owner's volatile measurements: resume and golden reuse,
        wall clock, throughput and the execution engine's counters.
        They differ between worker counts and runs (a fleet records a
        golden run per worker too), which is why they are volatile."""
        counter = registry.counter
        counter("runtime.resumed",
                volatile=True).inc(len(self.scheduler.resumed))
        counter("runtime.golden_reused" if self.golden_reused
                else "runtime.golden_runs", volatile=True).inc()
        registry.gauge("wall_clock_seconds",
                       volatile=True).set(timing["wall_clock"])
        registry.gauge("experiments_per_sec",
                       volatile=True).set(timing["experiments_per_sec"])
        registry.gauge("workers", volatile=True).set(self.workers)
        for name, value in timing["perf"].items():
            counter("engine.%s" % name, volatile=True).inc(value)


def run_serial_campaign(daemon, client_name, client_factory, options):
    """One campaign in this process: its :class:`CampaignOwner` opens
    it, one :class:`CampaignRunner` runs the points the owner's
    scheduler still lacks (with the campaign's tracer, sampler and
    base journal, reporting on the owner as its bus), and the owner
    closes it -- also when the stop check checkpoints the run."""
    # a serial run is "shard 0, attempt 0" to a chaos policy (an
    # already-built agent passes through).
    if hasattr(options.chaos, "agent"):
        options = replace(options, chaos=options.chaos.agent(0, 0))
    with StopCheck(options) as stop:
        decodes = {}
        owner = CampaignOwner(daemon, client_name, client_factory,
                              options, bus=options.telemetry,
                              label=options.telemetry_campaign,
                              decodes=decodes)
        runner = CampaignRunner(
            daemon, client_name, client_factory, options,
            points=owner.scheduler.remaining, golden=owner.golden,
            decodes=decodes,
            stop_check=stop, trace=owner.tracer, sampler=owner.sampler,
            telemetry=(owner if options.telemetry is not None
                       or owner.tracer.keep_spans else None))
        interrupted = None
        try:
            runner.run()
        except CampaignInterrupted as checkpoint:
            interrupted = checkpoint.reason
        owner.record(runner.campaign.results,
                     runner.campaign.quarantined)
        owner.report(0, runner.campaign.timing, runner.campaign.metrics)
        if interrupted is not None:
            owner.emit("checkpoint", reason=interrupted,
                       completed=owner.scheduler.completed)
        return owner.close(interrupted=interrupted)


# ----------------------------------------------------------------------
# The runner

@dataclass
class _PendingPoint:
    point: object
    location: str
    round: int = 0
    observed: list = field(default_factory=list)


class CampaignRunner:
    """Runs exactly the points and golden run it is handed,
    fault-tolerantly.

    Takes the campaign's
    :class:`~repro.injection.campaign.RunOptions` (keywords naming its
    fields override ``options``), the ``points`` in enumeration order
    and the cell's ``golden`` run.  Each experiment is isolated,
    unstable points are retried and quarantined, pruning runs one
    representative per class, every record is journaled to
    ``options.journal`` and each batch's ``outcomes`` delta goes on
    ``options.telemetry`` (the owner in a serial run, a worker's
    heartbeat bus in a fleet unit).  When ``stop_check()`` returns a
    reason the runner raises :class:`CampaignInterrupted` at the next
    clean boundary, its journal closed.  Everything else -- golden
    run, enumeration, resume, deadline and signals, the merge, the
    deterministic metrics and the sinks -- is its
    :class:`CampaignOwner`'s.

    :meth:`run` returns a
    :class:`~repro.injection.campaign.CampaignResult` holding the
    records in execution order, the runner's timing and its volatile
    metrics registry; :attr:`campaign` holds what an interrupted run
    completed.  ``decodes``, the golden CPU's decodes when the golden
    run was recorded in this process, start the daemon's machine when
    the session cache has none yet.
    """

    def __init__(self, daemon, client_name, client_factory, options=None,
                 *, points, golden, stop_check=None, decodes=None,
                 **kwargs):
        self.options = options = RunOptions.resolve(options, **kwargs)
        self.daemon = daemon
        self.client_name = client_name
        self.client_factory = client_factory
        self.model = get_fault_model(options.fault_model)
        self.watchdog = (options.watchdog
                         if isinstance(options.watchdog, Watchdog)
                         else Watchdog(options.watchdog))
        self.points = list(points)
        self.golden = golden
        self._decodes = decodes
        self._early = EarlyExits(golden)
        #: deterministic sampling profiler (:mod:`repro.obs.sampler`).
        self.sampler = as_sampler(options.sampler)
        #: span tracer (a sink path or a
        #: :class:`~repro.obs.trace.Tracer`).
        self.tracer = as_tracer(options.trace,
                                timed=self.sampler is not None)
        self.watchdog.tracer = self.tracer
        self.stop_check = (stop_check if stop_check is not None
                           else (lambda: None))
        #: volatile measurements (sessions, pruning, early exits).
        self.registry = MetricsRegistry()
        #: execution-engine counters of this runner's sessions.
        self.perf = PerfCounters()
        # Session cache: points arrive in address order, so a private
        # cache keeps one live session (plus the unreachable set, so a
        # disagreeing address is probed once, not once per bit).  A
        # caller-supplied cache is shared across campaigns -- e.g. a
        # fault-model sweep reusing one site snapshot per model.
        self.session_cache = (options.session_cache
                              if options.session_cache is not None
                              else SessionCache(capacity=1))
        self._session = None
        self._session_address = None
        self._active_guard = None
        self._reported = 0
        self.campaign = None

    # -- public entry point --------------------------------------------

    def run(self):
        options = self.options
        started = time.monotonic()
        campaign = self.campaign = CampaignResult(
            daemon_name=type(self.daemon).__name__,
            client_name=self.client_name, encoding=options.encoding,
            fault_model=self.model.name, golden=self.golden)
        journal = None
        if options.journal is not None:
            journal = CampaignJournal(
                options.journal, fsync_every=options.journal_fsync,
                write_hook=(options.chaos.on_journal_write
                            if options.chaos is not None else None))
            journal.open(journal_meta(self.daemon, self.client_name,
                                      options))
        self._fanned = 0
        self._extra_runs = 0
        self._chaos_tick = 0
        try:
            if options.prune:
                self._run_pruned(campaign, journal)
            else:
                self._drain_queue(campaign, self._pending(self.points),
                                  journal)
            self._retire_session()
        except BaseException:
            # the machine may have stopped mid-experiment with its
            # session still the owner: rebuild it, as a harness fault
            # does
            self.session_cache.drop_machine(self.daemon)
            raise
        finally:
            if journal is not None:
                journal.close()
            # fanned-out class members were journaled without running;
            # audit re-executions ran without journaling a record of
            # their own -- correct the throughput accounting for both.
            experiments = len(campaign.results) + len(campaign.quarantined)
            campaign.timing = campaign_timing(
                wall_clock=time.monotonic() - started,
                experiments=experiments,
                executed=experiments - self._fanned + self._extra_runs,
                perf=self.perf.as_dict())
            self.registry.counter("runtime.watchdog_probes",
                                  volatile=True).inc(self.watchdog.probes)
            campaign.metrics = self.registry.as_dict()
        return campaign

    def _check_stop(self, campaign):
        """Checkpoint now if the owner asks: the journal holds every
        completed experiment (``run`` closes it on the way out), so a
        resume finishes the campaign identically."""
        reason = self.stop_check()
        if reason:
            raise CampaignInterrupted(
                reason if isinstance(reason, str) else "stop-requested",
                journal=self.options.journal,
                completed=len(campaign.results)
                + len(campaign.quarantined))

    def _pending(self, points):
        return deque(_PendingPoint(point=point,
                                   location=self.model.location(point))
                     for point in points)

    # -- main loop -----------------------------------------------------

    def _drain_queue(self, campaign, queue, journal):
        """Run pending points one at a time with retry/quarantine
        semantics (the exhaustive inner loop; pruning reuses it for
        singleton classes and declassified members)."""
        while queue:
            self._check_stop(campaign)
            pending = queue.popleft()
            result = self._guarded_experiment(pending)
            if result is None:
                # Unstable across re-executions: back off on the
                # experiment list, or quarantine once the cap is hit.
                if pending.round + 1 < MAX_RETRY_ROUNDS:
                    pending.round += 1
                    self.registry.counter("runtime.retry_requeues",
                                          volatile=True).inc()
                    queue.append(pending)
                    continue
                self._quarantine(campaign, pending, journal)
            else:
                campaign.results.append(result)
                if journal is not None:
                    journal.append_result(result)
            self._report(campaign)
            self._chaos_tick += 1
            if self.options.chaos is not None:
                # After journaling: a chaos kill here leaves the
                # journal at a deterministic resume boundary.
                self.options.chaos.on_point(self._chaos_tick)

    # -- pruned main loop ----------------------------------------------

    def _run_pruned(self, campaign, journal):
        """Class-at-a-time execution (:mod:`repro.injection.pruning`).

        Classes form over the handed points only.  Sites are sealed
        lazily against their live snapshot, each class runs one
        representative (guarded when the equivalence argument needs
        the re-fetch watch) and fans the outcome out to its members;
        the owner's merge puts the records back in enumeration order.
        """
        ranges = (self.options.ranges if self.options.ranges is not None
                  else self.daemon.auth_ranges())
        plan = self.model.classify_points(
            self.daemon.module, self.points, self.options.encoding,
            self.golden.coverage, ranges)
        self.registry.counter("pruning.sites",
                              volatile=True).inc(len(plan.sites))
        for site in plan.sites:
            if not site.sealed:
                session = self._session_for(site.address)
                site.seal(session.process.cpu
                          if session is not None else None)
            self.registry.counter("pruning.classes",
                                  volatile=True).inc(len(site.classes))
            for cls in site.classes:
                self._check_stop(campaign)
                self._run_class(campaign, cls, journal)

    def _run_class(self, campaign, cls, journal):
        from .pruning import GuardedWatchdog, PRUNE_SOLO
        if cls.size == 1 or cls.kind == PRUNE_SOLO:
            # Singletons take the exhaustive path, retries included.
            self._drain_queue(campaign, self._pending(cls.points),
                              journal)
            return
        guard = None
        if cls.needs_guard:
            guard = GuardedWatchdog(self.watchdog.config, cls.watch,
                                    tracer=self.tracer, site=cls.site,
                                    dispositions=cls.dispositions)
        representative = cls.representative
        pending = _PendingPoint(
            point=representative,
            location=self.model.location(representative))
        self._active_guard = guard
        try:
            result = self._guarded_experiment(pending)
        finally:
            self._active_guard = None
        self.registry.counter("pruning.rep_runs", volatile=True).inc()
        if guard is not None:
            self.watchdog.probes += guard.probes
        if result is None:
            # The representative was unstable across confirmations --
            # the determinism premise of fanning out is gone, so run
            # every member individually (retry/quarantine as usual).
            self.registry.counter("pruning.declassified",
                                  volatile=True).inc()
            self._drain_queue(campaign, self._pending(cls.points),
                              journal)
            return
        if guard is not None and guard.tripped:
            # The suffix re-fetched the corrupted span: cross-image
            # equivalence is void.  Dissolve into same-bytes subgroups
            # (unconditionally sound); the representative's completed
            # run still stands for its own image.
            self.registry.counter("pruning.guard_trips",
                                  volatile=True).inc()
            self._declassify(campaign, cls, result, journal)
            return
        self._fan_out(campaign, cls, result, journal)

    def _declassify(self, campaign, cls, rep_result, journal):
        from .pruning import split_by_image
        for subgroup in split_by_image(self.model, self.daemon.module,
                                       cls, self.options.encoding):
            if subgroup.representative is cls.representative:
                # already executed (the tripped run itself)
                self._fan_out(campaign, subgroup, rep_result, journal)
                continue
            sub_pending = _PendingPoint(
                point=subgroup.representative,
                location=self.model.location(subgroup.representative))
            result = self._guarded_experiment(sub_pending)
            self.registry.counter("pruning.rep_runs",
                                  volatile=True).inc()
            if result is None:
                self.registry.counter("pruning.declassified",
                                      volatile=True).inc()
                self._drain_queue(campaign,
                                  self._pending(subgroup.points), journal)
                continue
            self._fan_out(campaign, subgroup, result, journal)

    def _fan_out(self, campaign, cls, rep_result, journal):
        """Journal the representative's outcome for every member
        (class provenance stamped on multi-member classes) and, when
        the class is in the audit sample, exhaustively re-run the
        other members and hard-fail on divergence."""
        from .pruning import (PruningAuditError, class_is_audited,
                              fan_out_result, result_signature)
        stamp = cls.size > 1
        if stamp:
            rep_result.class_id = cls.class_id
            rep_result.representative = _point_key(cls.representative)
        rep_key = _point_key(cls.representative)
        for point in cls.points:
            if _point_key(point) == rep_key:
                result = rep_result
            else:
                result = fan_out_result(rep_result, point,
                                        self.model.location(point))
                self._fanned += 1
                self.registry.counter("pruning.fanned_out",
                                      volatile=True).inc()
            campaign.results.append(result)
            if journal is not None:
                journal.append_result(result)
        self._report(campaign)
        self._chaos_tick += 1
        if self.options.chaos is not None:
            self.options.chaos.on_point(self._chaos_tick)
        if not (stamp and class_is_audited(cls.class_id,
                                           self.options.audit_fraction,
                                           self.options.audit_seed)):
            return
        self.registry.counter("pruning.audited_classes",
                              volatile=True).inc()
        expected = result_signature(rep_result)
        for point in cls.points:
            if _point_key(point) == rep_key:
                continue
            confirm = self._execute(point, self.model.location(point))
            self._extra_runs += 1
            self.registry.counter("pruning.audit_runs",
                                  volatile=True).inc()
            got = result_signature(confirm)
            if got != expected:
                raise PruningAuditError(
                    "class %s: member %s diverged from representative "
                    "%s\n  expected %r\n  got      %r"
                    % (cls.class_id, _point_key(point), rep_key,
                       expected, got))

    def _report(self, campaign):
        """The ``outcomes`` milestone for the results recorded since
        the last one (skipped when no bus is watching)."""
        bus = self.options.telemetry
        if bus is None:
            return
        fresh = campaign.results[self._reported:]
        if fresh:
            bus.emit("outcomes", campaign=self.options.telemetry_campaign,
                     delta=outcome_delta(fresh))
            self._reported = len(campaign.results)

    def _quarantine(self, campaign, pending, journal):
        campaign.quarantined.append(QuarantinedPoint(
            point=pending.point, location=pending.location,
            outcomes=tuple(pending.observed), rounds=pending.round + 1))
        if journal is not None:
            journal.append_quarantine(pending.point, pending.location,
                                      pending.observed,
                                      pending.round + 1)

    # -- one experiment, isolated --------------------------------------

    def _guarded_experiment(self, pending):
        """Run one point (plus confirmation re-executions).  Returns
        the accepted :class:`InjectionResult`, or ``None`` when the
        outcome was unstable and the point should be retried."""
        try:
            result = self._execute(pending.point, pending.location)
        except EarlyExitAuditError:
            raise                             # the engine is wrong
        except Exception:
            return self._harness_fault(pending)
        if self.options.retries <= 0 or not result.activated:
            return result
        confirmations = min(self.options.retries * (2 ** pending.round),
                            MAX_CONFIRMATIONS_PER_ROUND)
        signature = (result.outcome, result.exit_kind,
                     result.crash_latency)
        pending.observed.append(result.outcome)
        for __ in range(confirmations):
            try:
                confirm = self._execute(pending.point, pending.location)
            except EarlyExitAuditError:
                raise
            except Exception:
                return self._harness_fault(pending)
            if (confirm.outcome, confirm.exit_kind,
                    confirm.crash_latency) != signature:
                pending.observed.append(confirm.outcome)
                return None
        return result

    def _retire_session(self):
        """Release the live session, folding the share of its CPU perf
        counters accumulated under this runner into the campaign
        aggregate.  The session itself stays in the cache for reuse by
        a later campaign (another fault model or encoding)."""
        if self._session is not None:
            self.perf.absorb_dict(self._session.take_perf_delta())
            # the next acquirer (a later campaign or unit) must find
            # the site's state, which pruning seals against
            self._session.release()
        self._session = None
        self._session_address = None

    def _harness_fault(self, pending):
        """Convert an escaped exception into a HARNESS_FAULT record.

        The session and the daemon's shared machine (its memory, CPU
        and caches) may be corrupted, so both leave the cache; the
        next site rebuilds the machine.  Perf counters are plain
        integers and stay trustworthy, so they are kept.  Forensic
        state is snapshotted *before* the session goes."""
        forensics = None
        if self._session is not None:
            if self.options.forensics:
                try:
                    forensics = capture_forensics(
                        self._session.process.cpu)
                except Exception:
                    forensics = None          # never mask the fault
            self.session_cache.discard(SessionCache.key(
                self.daemon, self.client_name, self.options.budget,
                self._session_address))
        self._retire_session()
        self.session_cache.drop_machine(self.daemon)
        detail = traceback.format_exc(limit=8).strip()
        return InjectionResult(point=pending.point,
                               location=pending.location,
                               outcome=HARNESS_FAULT,
                               detail=detail[-1000:],
                               forensics=forensics)

    def _execute(self, point, location):
        if self.sampler is not None:
            # every experiment samples from the same phase, so a
            # profile does not depend on how units cut the campaign
            self.sampler.restart()
        with self.tracer.span("experiment", point=point.key,
                              location=location) as span:
            result = self._execute_inner(point, location)
            span.set("outcome", result.outcome)
            if result.crash_latency is not None:
                span.set("crash_latency", result.crash_latency)
            if result.hang_eip_range is not None:
                span.set("hang_eip_range",
                         ["0x%x" % eip
                          for eip in result.hang_eip_range])
            return result

    def _early_exits(self, session):
        """The :class:`~repro.injection.earlyexit.EarlyExits` this
        experiment may take, or ``None``: a profile claims every
        retired instruction."""
        if self.sampler is not None:
            return None
        return self._early

    def _execute_inner(self, point, location, early_exits=True):
        golden = self.golden
        if point.instruction_address not in golden.coverage:
            return InjectionResult(point=point, location=location,
                                   outcome=NOT_ACTIVATED)
        session = self._session_for(point.instruction_address)
        if session is None:
            # Defensive: coverage said reachable, the breakpoint run
            # disagreed.  Record the disagreement so it is visible in
            # the journal rather than silently folded into NA.
            return InjectionResult(
                point=point, location=location, outcome=NOT_ACTIVATED,
                detail="coverage/breakpoint disagreement at 0x%x"
                       % point.instruction_address)
        ring = session.process.cpu.forensic_ring
        if ring is not None:
            ring.clear()
        # a guarded representative run (pruning) swaps in the re-fetch
        # watchdog for exactly this experiment
        session.run_fn = self._active_guard or self.watchdog
        early = self._early_exits(session) if early_exits else None
        if early is not None:
            early.arm(session)
        try:
            with self.tracer.span("injection", cat="experiment") as span:
                status, kernel, client = self.model.apply(
                    session, point, self.options.encoding,
                    self.daemon.module)
                span.set("instret", status.instret)
                exited = getattr(status, "early_exit", None)
                if exited is not None:
                    if exited.kind == "converged":
                        span.set("converged_at", exited.index)
                        span.set("dead_regs", [REG32_NAMES[register]
                                               for register
                                               in exited.dead_regs])
                        span.set("dead_bytes", exited.dead_bytes)
                    else:
                        span.set("cycle_period", exited.period)
        finally:
            if early is not None:
                early.disarm(session)
                early.fold_counts(self.registry)
        if exited is not None and exited.kind == "converged":
            # the rest of the run is the golden run's
            outcome, detail = NOT_MANIFESTED, ""
            broke_in = golden.broke_in
        else:
            outcome, detail = classify_completed_run(
                golden, client, kernel.channel.normalized_transcript(),
                status)
            broke_in = client.broke_in()
        outcome, detail, eip_range = refine_limit_outcome(
            outcome, detail, status)
        latency = None
        if status.kind == "crash":
            latency = status.instret - session.activation_instret
        forensics = None
        if self.options.forensics and (status.kind == "crash"
                                       or outcome == HANG):
            forensics = capture_forensics(session.process.cpu)
        result = InjectionResult(
            point=point, location=location, outcome=outcome,
            activated=True,
            activation_instret=session.activation_instret,
            exit_kind=status.kind, exit_code=status.exit_code,
            signal=status.signal, crash_latency=latency,
            broke_in=broke_in,
            crashed_after_breakin=(outcome == SECURITY_BREAKIN
                                   and status.kind == "crash"),
            detail=detail, hang_eip_range=eip_range,
            forensics=forensics)
        if exited is not None:
            self._early_exited(result, exited)
        return result

    def _early_exited(self, result, exited):
        """Count an early exit and, when the audit samples it, run the
        experiment again in full and raise on any difference."""
        from .pruning import class_is_audited, result_signature
        counter = self.registry.counter
        if exited.kind == "converged":
            counter("early_exit.converged", volatile=True).inc()
            if exited.shift:
                counter("early_exit.shifted", volatile=True).inc()
            if exited.dead_regs or exited.dead_bytes:
                counter("early_exit.converged_dead", volatile=True).inc()
        else:
            counter("early_exit.cycles", volatile=True).inc()
        counter("early_exit.insns_skipped",
                volatile=True).inc(exited.skipped)
        key = _point_key(result.point)
        if not class_is_audited(key, self.options.audit_fraction,
                                self.options.audit_seed):
            return
        # a guarded run's trip verdict is part of what it decides
        expected = (result_signature(result), result.forensics,
                    getattr(self._active_guard, "tripped", False))
        full = self._execute_inner(result.point, result.location,
                                   early_exits=False)
        self._extra_runs += 1
        counter("early_exit.audited", volatile=True).inc()
        got = (result_signature(full), full.forensics,
               getattr(self._active_guard, "tripped", False))
        if got != expected:
            raise EarlyExitAuditError(
                "point %s: %s exit diverged from the full run\n"
                "  early %r\n  full  %r" % (key, exited.kind, expected,
                                              got))

    def _session_for(self, address):
        """Breakpoint session for *address*, cached across the bits of
        one instruction (and, through a shared :class:`SessionCache`,
        across fault models and encodings); ``None`` when the
        breakpoint is unreachable (cached too, so the disagreement is
        probed only once)."""
        if self._session_address == address:
            return self._session
        key = SessionCache.key(self.daemon, self.client_name,
                               self.options.budget, address)
        if self.session_cache.unreachable_arrival(key) is not None:
            return None
        self._retire_session()
        machine = self.session_cache.machine(self.daemon, self._decodes)
        session = self.session_cache.lookup(key)
        if session is not None:
            self.registry.counter("runtime.sessions_reused",
                                  volatile=True).inc()
            # the machine it was built on may since have been dropped
            session.machine = machine
        else:
            with self.tracer.span("client-session", cat="experiment",
                                  address="0x%x" % address) as span:
                session = BreakpointSession(self.daemon,
                                            self.client_factory,
                                            address, self.options.budget,
                                            run_fn=self.watchdog,
                                            machine=machine,
                                            golden=self.golden)
                span.set("reached", session.reached)
                span.set("chained", session.chained)
            self.registry.counter("runtime.sessions",
                                  volatile=True).inc()
            if session.chained:
                self.registry.counter("runtime.sessions_chained",
                                      volatile=True).inc()
            if not session.reached:
                self.session_cache.mark_unreachable(key, session.arrival)
                self.registry.counter("runtime.sessions_unreachable",
                                      volatile=True).inc()
                self.perf.absorb_dict(session.take_perf_delta())
                return None
            self.session_cache.store(key, session)
        # Put the machine at the site before anyone reads its CPU
        # (pruning seals sites against it), then (re)bind per-runner
        # policy: a cached session may have been created by a campaign
        # with different settings.
        session.acquire()
        session.run_fn = self.watchdog
        session.full_restore = self.options.full_restore
        session.process.cpu.forensic_ring = (
            make_forensic_ring() if self.options.forensics else None)
        session.process.cpu.sampler = self.sampler
        session.tracer = self.tracer
        self._session = session
        self._session_address = address
        return session
