"""Warm worker fleet: the campaign engine's parallel execution layer.

Selective-exhaustive campaigns are embarrassingly parallel over
injection points, and everything here is deterministic, so
``run_campaign(..., workers=N)``, the CLI's ``--workers`` and the
``repro serve`` service all run on this one engine, under the
scheduling layer of :mod:`repro.injection.scheduler`:

* a :class:`WorkerFleet` holds ``N`` long-lived worker processes that
  *outlive campaigns*: each worker keeps its rebuilt daemons, golden
  runs and a bounded
  :class:`~repro.injection.injector.SessionCache` warm per campaign
  cell, so the second campaign for a cell skips the golden run and the
  per-site snapshot captures entirely;
* workers pull :class:`~repro.injection.scheduler.WorkUnit`\\ s from a
  :class:`~repro.injection.scheduler.CampaignScheduler` whenever they
  go idle (work stealing by pull), interleaving units from several
  concurrent campaigns;
* every unit runs through the ordinary fault-tolerant
  :class:`~repro.injection.runner.CampaignRunner` (isolation,
  watchdog, retries, quarantine, pruning all apply per unit) and
  journals to the worker's ``<journal>.shardK`` file; resume loads
  every shard file of the journal family
  (:class:`~repro.injection.runner.JournalFamily`), so the worker
  count may change between runs;
* the parent supervises: every event a unit runner emits onto its
  worker's private bus is a heartbeat, dead or wedged workers are
  respawned with exponential backoff against a per-incarnation
  restart budget, whatever a dead worker journaled is salvaged and
  the remainder of its unit requeued, a worker that
  exhausts its budget is retired (its units migrate to siblings), the
  parent finishes units inline as the last resort, and SIGTERM or a
  deadline drains every in-flight unit to a resumable checkpoint.

Determinism: completions are keyed by point and merged by enumeration
index (:meth:`CampaignScheduler.merged_results`), so Tables 1/3/5,
Figure 4 and the deterministic metrics core are byte-identical to a
serial run no matter how units interleaved, migrated between workers,
or were salvaged and requeued after a crash.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection

from ..emu.perf import PerfCounters
from ..obs.events import emit_milestone, EventBus, outcome_delta
from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, record_supervision_metrics
from ..obs.sampler import as_sampler, Sampler
from ..obs.trace import as_tracer, Tracer
from .campaign import CampaignResult, RunOptions
from .faultmodels import get_fault_model
from .golden import record_golden
from .injector import SessionCache
from .runner import (_point_key, backoff_delay, CampaignInterrupted,
                     CampaignJournal, campaign_timing, CampaignRunner,
                     declare_campaign_metrics, EVENT_NAMES,
                     install_stop_handlers, join_process, JournalError,
                     JournalFamily, record_result_metrics,
                     record_runtime_metrics, shard_journal_path,
                     validate_journal_meta, Watchdog, WatchdogConfig)
from .scheduler import CampaignScheduler, UNIT_INSTRUCTIONS

_LOGGER = get_logger("fleet")

#: worker slot states.
IDLE = "idle"
BUSY = "busy"
BACKOFF = "backoff"
RETIRED = "retired"


@dataclass
class FleetConfig:
    """Tunables for :class:`WorkerFleet` (``run_campaign``'s
    ``supervisor=``).

    ``max_restarts`` is the per-worker-*incarnation* budget (a worker
    that keeps dying is retired, its queued unit migrates to a
    sibling); respawns wait ``backoff_base * 2**(n-1)`` seconds, capped
    at ``backoff_cap``.  ``heartbeat_timeout`` defaults to twice the
    watchdog's wall-clock limit plus slack, so a worker inside its
    slowest legal experiment is never declared wedged; ``dead_grace``
    delays the verdict on a dead process long enough for its final
    message to drain, and ``drain_timeout`` bounds a checkpoint drain
    before stragglers are SIGKILLed.  ``unit_attempts`` bounds how
    often one unit may bounce between failing workers before the
    parent runs it inline.  ``unit_instructions`` sizes work units and
    ``session_capacity`` bounds each worker's warm
    :class:`~repro.injection.injector.SessionCache` (LRU).
    """

    workers: int = 2
    unit_instructions: int = UNIT_INSTRUCTIONS
    session_capacity: int = 64
    max_restarts: int = 2
    unit_attempts: int = 3
    backoff_base: float = 0.5
    backoff_cap: float = 8.0
    heartbeat_timeout: float | None = None
    poll_interval: float = 0.25
    dead_grace: float = 0.5
    drain_timeout: float = 30.0


# ----------------------------------------------------------------------
# Worker side

class RebuildDaemon:
    """Picklable recipe that rebuilds the parent's daemon in a worker.

    Daemons are deterministic compilations of fixed source, so a
    rebuild from the same class and constructor data is bit-identical
    to the parent's instance.
    """

    def __init__(self, daemon_class, kwargs):
        self.daemon_class = daemon_class
        self.kwargs = kwargs

    def __call__(self):
        return self.daemon_class(**self.kwargs)


def default_daemon_factory(daemon):
    """Zero-config factory for the stock daemons: reuse the class,
    carrying over the password database and FTP file tree when the
    daemon has them (the app-layer :class:`~repro.apps.common.Daemon`
    protocol)."""
    kwargs = {}
    for name in ("database", "files"):
        if hasattr(daemon, name):
            kwargs[name] = getattr(daemon, name)
    return RebuildDaemon(type(daemon), kwargs)


def _record_key(record):
    """Point key of a serialized result record (journal records carry
    an explicit ``key``; unit payloads inline the point fields)."""
    key = record.get("key")
    if key is not None:
        return key
    from ..analysis.serialize import point_from_dict
    return point_from_dict(record).key


class _IncarnationChaos:
    """Adapt a per-incarnation :class:`ChaosAgent` to per-unit runners.

    Chaos ``after`` thresholds count experiments (or journal writes)
    since the *incarnation* started, but every unit's runner restarts
    its own counters at zero -- so accumulate across units here."""

    def __init__(self, agent):
        self.agent = agent
        self._points = 0
        self._writes = 0

    def on_point(self, executed):
        self._points += 1
        self.agent.on_point(self._points)

    def on_journal_write(self, index):
        self.agent.on_journal_write(self._writes)
        self._writes += 1


def _fleet_worker_main(worker, incarnation, conn, config,
                       chaos_policy=None):
    """Long-lived warm worker: serve units until told to stop.

    ``conn`` is this incarnation's private duplex pipe (one writer per
    end, so a worker killed mid-send tears only its own channel).
    Inbound messages: ``("campaign", ctx)`` registers a campaign
    context, ``("unit", cid, unit)`` runs one work unit, ``("stop",)``
    exits.  Every outbound message is tagged
    ``(kind, worker, incarnation, ...)`` so the parent can discard a
    killed incarnation's leftovers as stale.

    Warm state held across units *and campaigns*: one rebuilt daemon
    and one golden run per campaign cell, plus a bounded shared
    session cache -- the second campaign for a cell skips the golden
    run and re-uses site snapshots.
    """
    stop = {"reason": None}

    def emit(kind, *rest):
        try:
            conn.send((kind, worker, incarnation) + rest)
        except (BrokenPipeError, OSError):
            pass      # parent gone; journals are flushed regardless

    def request_stop(signum, frame):
        stop["reason"] = signal.Signals(signum).name

    try:
        signal.signal(signal.SIGTERM, request_stop)
        signal.signal(signal.SIGINT, request_stop)
    except ValueError:
        pass          # not this process's main thread (test harness)

    contexts = {}     # cid -> campaign context dict
    daemons = {}      # cell -> rebuilt daemon
    goldens = {}      # cell -> GoldenRun
    sessions = SessionCache(capacity=config.session_capacity)
    agent = (chaos_policy.agent(worker, incarnation)
             if chaos_policy is not None else None)
    chaos = _IncarnationChaos(agent) if agent is not None else None

    emit("hello")
    try:
        while stop["reason"] is None:
            if not conn.poll(config.poll_interval):
                continue
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break                     # parent gone: shut down
            kind = message[0]
            if kind == "stop":
                break
            if kind == "campaign":
                ctx = message[1]
                contexts[ctx["cid"]] = ctx
                continue
            if kind != "unit":
                continue
            cid, unit = message[1], message[2]
            try:
                _run_unit(emit, stop, contexts[cid], unit, daemons,
                          goldens, sessions, worker, chaos)
            except CampaignInterrupted as interrupted:
                emit("unit-checkpoint", cid, unit.unit_id,
                     interrupted.completed)
            except BaseException:
                emit("unit-error", cid, unit.unit_id,
                     traceback.format_exc())
    finally:
        emit("bye")
        conn.close()


def _run_unit(emit, stop, ctx, unit, daemons, goldens, sessions,
              worker, chaos):
    """One work unit through the ordinary fault-tolerant runner."""
    cid = ctx["cid"]
    cell = ctx["cell"]
    options = ctx["options"]
    daemon = daemons.get(cell)
    if daemon is None:
        daemon = options.daemon_factory()
        daemons[cell] = daemon
    tracer = _unit_tracer(options, worker + 1)
    # The liveness heartbeat subscribes to a bus private to this
    # worker: its events never leave the worker, so the parent still
    # owns every campaign's sequence numbers (and no history is kept).
    heartbeat = EventBus(capacity=1)
    heartbeat.subscribe(lambda event: emit("heartbeat", cid,
                                           unit.unit_id))
    # per-unit sampler: guest samples are deterministic per unit and
    # ship home in the payload for the parent to fold together.
    sampler = as_sampler(options.sampler)
    runner = CampaignRunner(
        daemon, ctx["client_name"], ctx["client_factory"], options,
        points=list(unit.points), trace_root="shard",
        trace_attrs={"shard": worker, "unit": unit.unit_id},
        stop_check=lambda: stop["reason"], golden=goldens.get(cell),
        telemetry=heartbeat, resume=True, trace=tracer, chaos=chaos,
        session_cache=sessions, sampler=sampler,
        journal=(shard_journal_path(options.journal, worker)
                 if options.journal is not None else None))
    campaign = runner.run()
    goldens[cell] = runner._golden
    payload = _unit_payload(campaign, unit, worker, tracer, sampler)
    if runner.options.journal is not None:
        CampaignJournal.mark_unit(
            runner.options.journal, unit.unit_id,
            len(payload["results"]) + len(payload["quarantined"]),
            campaign=cid)
    emit("unit-done", cid, unit.unit_id, payload)


def _unit_tracer(options, tid):
    """A unit runner's tracer, or ``None`` when the campaign is
    neither traced nor profiled.  It keeps every span: they ship home
    in the unit payload, and the parent folds them into its trace
    file and its profile's host seconds."""
    if options.trace is None and options.sampler is None:
        return None
    return Tracer(tid=tid)


def _unit_payload(campaign, unit, worker, tracer, sampler, **timing):
    """A finished unit's results as plain dicts for the parent."""
    from ..analysis.serialize import (quarantined_to_dict,
                                      result_to_dict)
    # The worker journal accumulates every unit of this campaign, and
    # a resume loads *all* its quarantine records -- restrict the
    # payload (and its metrics counter) to this unit's own points so
    # the parent's exact metric aggregation never double-counts.
    unit_keys = set(unit.keys)
    quarantined = [entry for entry in campaign.quarantined
                   if _point_key(entry.point) in unit_keys]
    metrics = campaign.metrics
    metrics["counters"]["quarantined"] = len(quarantined)
    timing = {**(campaign.timing or {}), **timing}
    timing.update(shard=worker, unit=unit.unit_id,
                  points=len(unit.points),
                  experiments=len(campaign.results) + len(quarantined))
    return {
        "results": [result_to_dict(result)
                    for result in campaign.results],
        "quarantined": [quarantined_to_dict(entry)
                        for entry in quarantined],
        "timing": timing,
        "metrics": metrics,
        "trace": tracer.events() if tracer is not None else None,
        "profile": sampler.as_dict() if sampler is not None else None,
    }


# ----------------------------------------------------------------------
# Parent side

@dataclass
class WorkerSlot:
    """One long-lived worker's supervision record."""

    worker: int
    max_restarts: int
    incarnation: int = 0
    restarts: int = 0
    status: str = IDLE
    process: object = None
    conn: object = None
    last_beat: float = 0.0
    resume_due: float = 0.0
    dead_since: float | None = None
    #: ``(cid, unit)`` while BUSY.
    current: tuple | None = None
    #: campaign ids whose context this incarnation has received.
    known: set = field(default_factory=set)
    failures: list = field(default_factory=list)


@dataclass
class FleetCampaignState:
    """Parent-side record of one submitted campaign."""

    cid: str
    daemon: object
    client_name: str
    client_factory: object
    #: the campaign's :class:`~repro.injection.campaign.RunOptions` as
    #: submitted, and the resolved copy workers receive
    #: (:meth:`RunOptions.for_worker`: fault model, watchdog config,
    #: daemon factory and sampler period filled in, parent-only
    #: fields cleared).
    options: RunOptions
    worker_options: RunOptions
    scheduler: CampaignScheduler
    golden: object
    golden_reused: bool
    #: parent-side tracer (the no-op one when the campaign is neither
    #: traced nor profiled) and its open root ``campaign`` span.
    tracer: object
    root_cm: object
    root_span: object
    #: parent-side profile sampler that worker profiles fold into.
    sampler: object = None
    on_unit: object = None
    resumed_quarantined: dict = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)
    #: unit payloads keyed by unit index (exact metric absorption
    #: happens in unit order at finalize).
    payloads: dict = field(default_factory=dict)
    executed: int = 0
    interrupted: str | None = None

    def __post_init__(self):
        #: telemetry label (defaults to the fleet-local cid).
        self.telemetry_campaign = (
            self.options.telemetry_campaign
            if self.options.telemetry_campaign is not None
            else self.cid)

    @property
    def cell(self):
        return _cell(self.daemon, self.client_name, self.options.budget)

    @property
    def model(self):
        return self.worker_options.fault_model

    @property
    def finished(self):
        return self.scheduler.finished

    def context(self):
        """The picklable campaign context a worker needs."""
        return {"cid": self.cid, "cell": self.cell,
                "client_name": self.client_name,
                "client_factory": self.client_factory,
                "options": self.worker_options}


def _cell(daemon, client_name, budget):
    """Warm-cache key: golden runs and daemons are per (daemon class,
    client, budget)."""
    return "%s:%s:%s" % (type(daemon).__name__, client_name, budget)


class WorkerFleet:
    """A persistent fleet of warm workers serving campaign units.

    Lifecycle::

        fleet = WorkerFleet(FleetConfig(workers=4))
        fleet.start()
        cid = fleet.submit(daemon, "Client1", factory, journal=path)
        while not fleet.finished(cid):
            fleet.pump()
        campaign = fleet.finalize(cid)      # CampaignResult
        ...more submits: same workers, warm caches...
        fleet.stop()

    The fleet outlives campaigns (that is its point); `submit` may be
    called while other campaigns are still running, and idle workers
    interleave units from every live campaign.  Each worker slot is a
    small state machine::

        IDLE --unit--> BUSY --unit-done--> IDLE
        IDLE/BUSY --dead/wedged--> BACKOFF --delay--> IDLE (respawn)
        BACKOFF --restart budget exhausted--> RETIRED

    A unit runner's events are heartbeats; a slot is *dead* when its
    process is not alive, whatever its exit code, and *wedged* when
    busy but silent past the heartbeat deadline (SIGKILLed).  Whatever
    a dead worker journaled is salvaged and the remainder of its unit
    requeued (at the front, so salvaged work finishes first); when
    every slot is retired the parent finishes remaining units inline
    with its own daemons.  :meth:`drain` checkpoints every in-flight
    unit (SIGTERM, graceful shutdown, deadline).  Every transition is
    counted in :attr:`events` (exported as volatile ``supervisor.*``
    metrics).
    """

    def __init__(self, config=None, chaos=None, telemetry=None):
        self.config = config if config is not None else FleetConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1, got %r"
                             % self.config.workers)
        self.chaos = chaos
        #: :class:`~repro.obs.events.EventBus` for live campaign
        #: events (``self.events`` is the supervision counter dict, a
        #: different thing).  Only the parent emits, on message
        #: receipt, so per-campaign sequence numbers stay contiguous.
        self.telemetry = telemetry
        self.slots = {}
        self.campaigns = {}
        self.events = {name: 0 for name in EVENT_NAMES}
        self.failures = []
        #: parent-side golden cache per campaign cell: the second
        #: submission of a cell skips the reference run entirely.
        self.goldens = {}
        self.context = self._context()
        self._next_cid = 0
        self._assign_rotor = 0
        self._draining = False
        self._started = False
        self._heartbeat_timeout = self.config.heartbeat_timeout
        self._inline_sessions = SessionCache(
            capacity=self.config.session_capacity)
        self._inline_tid = self.config.workers + 1

    # -- lifecycle -----------------------------------------------------

    def start(self):
        if self._started:
            return
        self._started = True
        for worker in range(self.config.workers):
            slot = WorkerSlot(worker=worker,
                              max_restarts=self.config.max_restarts)
            self.slots[worker] = slot
            self._spawn(slot)

    def stop(self):
        """Shut the fleet down (workers exit cleanly, then join)."""
        for slot in self.slots.values():
            if slot.conn is not None and slot.process is not None \
                    and slot.process.is_alive():
                try:
                    slot.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        deadline = time.monotonic() + 5.0
        while (any(slot.process is not None
                   and slot.process.is_alive()
                   for slot in self.slots.values())
               and time.monotonic() < deadline):
            self._pump_messages()
        for slot in self.slots.values():
            if slot.process is not None:
                if slot.process.is_alive():
                    slot.process.terminate()
                join_process(slot.process)
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
        self._started = False

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _spawn(self, slot):
        if slot.conn is not None:
            slot.conn.close()
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=_fleet_worker_main,
            args=(slot.worker, slot.incarnation, child_conn,
                  self.config, self.chaos))
        process.daemon = True
        process.start()
        child_conn.close()
        slot.conn = parent_conn
        slot.process = process
        slot.status = IDLE
        slot.current = None
        slot.known = set()
        slot.last_beat = time.monotonic()
        slot.dead_since = None

    # -- telemetry -----------------------------------------------------

    def _emit(self, state, type, **payload):
        """The fleet's one milestone helper.  A campaign's milestone
        goes on the bus under its label and into its trace; a
        fleet-scoped one (``state=None``: worker lifecycle, shared by
        every live campaign) goes on the bus campaign-less and into
        every live campaign's trace."""
        if state is None:
            tracers = [live.tracer for live in self.campaigns.values()]
            campaign = None
        else:
            tracers, campaign = (state.tracer,), state.telemetry_campaign
        emit_milestone(self.telemetry, tracers, type, campaign,
                       **payload)

    # -- submission ----------------------------------------------------

    def submit(self, daemon, client_name, client_factory, options=None,
               on_unit=None, **kwargs):
        """Submit one campaign; returns its campaign id.

        Takes the campaign's
        :class:`~repro.injection.campaign.RunOptions` (keywords naming
        its fields override ``options``).  ``on_unit(state, unit,
        payload)`` is called as each unit completes (the service
        streams from it).  ``telemetry_campaign`` labels this
        campaign's events on the fleet's bus (default: the fleet-local
        cid); ``sampler``/``profile`` attach the sampling profiler
        (workers sample their own units, the parent folds the profiles
        and saves the merge at ``profile``).  Fleet-level options --
        ``chaos``, ``telemetry``, ``deadline``, ``graceful_signals`` --
        belong to the fleet and :func:`run_fleet_campaign`, not to one
        submission.
        """
        options = RunOptions.resolve(options, **kwargs)
        if not self._started:
            self.start()
        cid = "c%04d" % self._next_cid
        self._next_cid += 1
        model = get_fault_model(options.fault_model)
        watchdog = options.watchdog
        if isinstance(watchdog, Watchdog):
            watchdog = watchdog.config
        elif watchdog is None:
            watchdog = WatchdogConfig()
        sampler = options.sampler
        if sampler is None and options.profile is not None:
            sampler = Sampler()
        sampler = as_sampler(sampler)
        tracer = as_tracer(options.trace, timed=sampler is not None)
        root_cm = tracer.span("campaign", workers=self.config.workers,
                              campaign=cid)
        root_span = root_cm.__enter__()
        cell = _cell(daemon, client_name, options.budget)
        golden = self.goldens.get(cell)
        golden_reused = golden is not None
        if golden is None:
            with tracer.span("golden-run") as span:
                golden = record_golden(daemon, client_factory,
                                       options.budget)
                span.set("coverage_eips", len(golden.coverage))
            self.goldens[cell] = golden
        ranges = (options.ranges if options.ranges is not None
                  else daemon.auth_ranges())
        points = model.enumerate_points(daemon.module, ranges,
                                        options.kinds)
        if options.max_points is not None:
            points = points[:options.max_points]
        scheduler = CampaignScheduler(
            points, unit_instructions=self.config.unit_instructions)
        resumed_quarantined = {}
        if options.resume and options.journal is not None:
            expected = {"daemon": type(daemon).__name__,
                        "client": client_name,
                        "encoding": options.encoding,
                        "model": model.name}
            family = JournalFamily.load(
                options.journal, strict=not options.journal_salvage,
                base=False)
            for meta in family.metas:
                validate_journal_meta(meta, expected, options.journal)
            scheduler.preload(family.results, family.quarantined)
            resumed_quarantined = {
                key: record
                for key, record in family.quarantined.items()
                if key in scheduler.order}
        worker_options = options.for_worker(
            fault_model=model, watchdog=watchdog, max_points=None,
            daemon_factory=(options.daemon_factory
                            if options.daemon_factory is not None
                            else default_daemon_factory(daemon)),
            sampler=sampler.period if sampler is not None else None,
            trace=None if options.trace is None else str(options.trace))
        state = FleetCampaignState(
            cid, daemon, client_name, client_factory, options,
            worker_options, scheduler, golden, golden_reused, tracer,
            root_cm, root_span, sampler=sampler, on_unit=on_unit,
            resumed_quarantined=resumed_quarantined)
        self.campaigns[cid] = state
        self._emit(state, "golden", reused=golden_reused,
                   coverage_eips=len(golden.coverage))
        self._emit(state, "campaign-started", points=len(points),
                   workers=self.config.workers,
                   resumed=len(scheduler.results))
        if self.config.heartbeat_timeout is None:
            wall = watchdog.wall_clock_limit or 60.0
            self._heartbeat_timeout = max(
                self._heartbeat_timeout or 0.0, 2.0 * wall + 30.0)
        _LOGGER.info("campaign %s submitted: %s %s (%d points, "
                     "%s golden)", cid, type(daemon).__name__,
                     client_name, len(points),
                     "warm" if golden_reused else "cold")
        return cid

    def finished(self, cid):
        state = self.campaigns[cid]
        return (state.finished or state.interrupted is not None)

    # -- the supervision loop ------------------------------------------

    def pump(self):
        """One supervision iteration: drain messages, check liveness,
        respawn, assign units, fall back inline when out of workers."""
        self._pump_messages()
        now = time.monotonic()
        for slot in list(self.slots.values()):
            if slot.status in (IDLE, BUSY):
                self._check_liveness(slot, now)
            elif slot.status == BACKOFF and now >= slot.resume_due:
                self._respawn(slot)
        if not self._draining:
            self._assign()
            self._inline_fallback()

    def _pump_messages(self):
        by_conn = {slot.conn: slot for slot in self.slots.values()
                   if slot.conn is not None}
        if not by_conn:
            time.sleep(self.config.poll_interval)
            return
        ready = _mp_connection.wait(list(by_conn),
                                    timeout=self.config.poll_interval)
        for conn in ready:
            self._drain_conn(by_conn[conn], conn)

    def _drain_conn(self, slot, conn):
        while True:
            try:
                if not conn.poll():
                    return
                message = conn.recv()
            except (EOFError, OSError) as error:
                # Normal teardown after ``bye``; while the slot still
                # has work it means the worker died mid-send.
                if slot.status == BUSY:
                    self.events["pipe_errors"] += 1
                    _LOGGER.warning(
                        "worker %d incarnation %d: message channel "
                        "torn while busy (%s); worker presumed dead "
                        "mid-send", slot.worker, slot.incarnation,
                        type(error).__name__)
                conn.close()
                if slot.conn is conn:
                    slot.conn = None
                return
            self._handle(slot, message)

    def _handle(self, slot, message):
        kind, worker, incarnation = message[0], message[1], message[2]
        if worker != slot.worker or incarnation != slot.incarnation:
            self.events["stale_messages"] += 1
            return
        slot.last_beat = time.monotonic()
        slot.dead_since = None
        if kind in ("hello", "bye", "heartbeat"):
            return
        cid = message[3]
        state = self.campaigns.get(cid)
        if state is None:
            self.events["stale_messages"] += 1
            return
        if kind == "unit-done":
            unit_id, payload = message[4], message[5]
            self._unit_done(slot, state, unit_id, payload)
        elif kind == "unit-checkpoint":
            self.events["checkpoints"] += 1
            self._release_unit(slot, state, salvage=True)
        elif kind == "unit-error":
            self.events["worker_errors"] += 1
            unit_id, detail = message[4], message[5]
            self.failures.append((slot.worker, detail))
            slot.failures.append(detail)
            _LOGGER.warning("worker %d: unit %s of %s errored:\n%s",
                            slot.worker, unit_id, cid, detail)
            self._release_unit(slot, state, salvage=True)

    def _unit_done(self, slot, state, unit_id, payload):
        if slot.current is None or slot.current[1].unit_id != unit_id:
            self.events["stale_messages"] += 1
            return
        unit = slot.current[1]
        slot.current = None
        slot.status = IDLE
        if state.sampler is not None:
            state.sampler.absorb_dict(payload.get("profile"))
        self._complete_unit(state, unit, payload, slot.worker)

    def _complete_unit(self, state, unit, payload, worker, **extra):
        """Record a finished unit's payload (from a worker, or from the
        parent's inline fallback) and tell every observer."""
        from ..analysis.serialize import point_from_dict
        scheduler = state.scheduler
        for record in payload["results"]:
            scheduler.record(_record_key(record), record)
        for record in payload["quarantined"]:
            key = _point_key(point_from_dict(record["point"]))
            scheduler.record_quarantine(key, record)
        scheduler.complete(unit)
        state.payloads[unit.index] = payload
        state.executed += payload["timing"].get("executed", 0)
        records = len(payload["results"]) + len(payload["quarantined"])
        self._mark_unit(state, unit, status="done", records=records)
        self._emit(state, "unit-finished", unit=unit.unit_id,
                   worker=worker, results=len(payload["results"]),
                   quarantined=len(payload["quarantined"]),
                   completed=scheduler.completed,
                   total=scheduler.total, **extra)
        if payload["results"]:
            self._emit(state, "outcomes",
                       delta=outcome_delta(payload["results"]))
        if state.on_unit is not None:
            state.on_unit(state, unit, payload)

    def _mark_unit(self, state, unit, status, records=0):
        """Parent-side unit marker in the *base* journal (workers own
        only their ``.shardK`` files, so the base path has a single
        appender and carries pure progress metadata: ``repro status``
        and ``repro top`` read in-flight units and the live ETA from
        it)."""
        if state.options.journal is None:
            return
        try:
            CampaignJournal.mark_unit(
                state.options.journal, unit.unit_id, records,
                campaign=state.cid, status=status,
                total=state.scheduler.total)
        except OSError:
            pass          # advisory metadata only, never fatal

    def _release_unit(self, slot, state, salvage):
        """Give a unit back to its scheduler (worker checkpointed,
        errored or died): salvage what its journal holds, requeue the
        uncovered remainder."""
        if slot.current is None:
            return
        unit = slot.current[1]
        slot.current = None
        if slot.status == BUSY:
            slot.status = IDLE
        if salvage:
            self._salvage_unit(state, unit, slot.worker)
        state.scheduler.requeue(unit)

    def _salvage_unit(self, state, unit, worker):
        """Recover what a worker already journaled for *unit* (only
        its own points: the worker journal also holds earlier units,
        whose payloads were already counted)."""
        if state.options.journal is None:
            return
        path = shard_journal_path(state.options.journal, worker)
        try:
            __, results, quarantined = CampaignJournal.load(
                path, strict=False)
        except (FileNotFoundError, JournalError):
            return
        unit_keys = set(unit.keys)
        new_results = {
            key: record for key, record in results.items()
            if key in unit_keys and key not in state.scheduler.results}
        new_quarantined = {
            key: record for key, record in quarantined.items()
            if key in unit_keys
            and key not in state.scheduler.quarantined}
        for key, record in new_results.items():
            state.scheduler.record(key, record)
        for key, record in new_quarantined.items():
            state.scheduler.record_quarantine(key, record)
        salvaged = len(new_results) + len(new_quarantined)
        if salvaged:
            self.events["salvaged_points"] += salvaged
            # No unit payload will arrive for these records: rebuild
            # their share of the deterministic metrics so the exact
            # aggregation still matches a serial run.
            from ..analysis.serialize import result_from_dict
            registry = declare_campaign_metrics(MetricsRegistry())
            for record in new_results.values():
                record_result_metrics(registry,
                                      result_from_dict(record))
            registry.counter("quarantined").inc(len(new_quarantined))
            state.payloads[unit.index] = {
                "results": [], "quarantined": [],
                "timing": {"shard": worker, "unit": unit.unit_id,
                           "executed": 0, "salvaged": salvaged},
                "metrics": registry.as_dict(),
                "trace": None,
            }
            _LOGGER.info("salvaged %d journaled record(s) of unit %s "
                         "from worker %d", salvaged, unit.unit_id,
                         worker)

    # -- liveness / respawn --------------------------------------------

    def _check_liveness(self, slot, now):
        process = slot.process
        if not process.is_alive():
            if slot.dead_since is None:
                slot.dead_since = now
            elif now - slot.dead_since >= self.config.dead_grace:
                self._failure(
                    slot, "worker %d incarnation %d died (exit code "
                    "%s)" % (slot.worker, slot.incarnation,
                             process.exitcode))
        elif (slot.status == BUSY and self._heartbeat_timeout
                and now - slot.last_beat > self._heartbeat_timeout):
            self.events["wedged"] += 1
            process.kill()
            join_process(process)
            self._failure(
                slot, "worker %d incarnation %d wedged: no heartbeat "
                "for %.0fs" % (slot.worker, slot.incarnation,
                               now - slot.last_beat))

    def _failure(self, slot, detail):
        slot.failures.append(detail)
        self.failures.append((slot.worker, detail))
        slot.dead_since = None
        if slot.current is not None:
            cid = slot.current[0]
            state = self.campaigns.get(cid)
            if state is not None:
                self._release_unit(slot, state, salvage=True)
        if slot.restarts >= slot.max_restarts:
            slot.status = RETIRED
            self.events["failed_shards"] += 1
            self._emit(None, "worker-retired", worker=slot.worker,
                       incarnation=slot.incarnation,
                       restarts=slot.restarts)
            _LOGGER.warning(
                "%s after %d restart(s); retiring worker %d (its "
                "units migrate to siblings)", detail.splitlines()[0],
                slot.restarts, slot.worker)
            return
        slot.restarts += 1
        delay = backoff_delay(self.config, slot.restarts)
        slot.status = BACKOFF
        slot.resume_due = time.monotonic() + delay
        self._emit(None, "worker-backoff", worker=slot.worker,
                   incarnation=slot.incarnation,
                   restarts=slot.restarts, delay=round(delay, 3))
        _LOGGER.warning("%s; respawning in %.1fs (restart %d/%d)",
                        detail.splitlines()[0], delay, slot.restarts,
                        slot.max_restarts)

    def _respawn(self, slot):
        self.events["respawns"] += 1
        slot.incarnation += 1
        self._emit(None, "worker-respawn", worker=slot.worker,
                   incarnation=slot.incarnation, restarts=slot.restarts)
        _LOGGER.info("respawning worker %d (incarnation %d)",
                     slot.worker, slot.incarnation)
        self._spawn(slot)

    # -- assignment ----------------------------------------------------

    def _assign(self):
        idle = [slot for slot in self.slots.values()
                if slot.status == IDLE and slot.process is not None
                and slot.process.is_alive()]
        if not idle:
            return
        cids = sorted(cid for cid, state in self.campaigns.items()
                      if state.interrupted is None)
        if not cids:
            return
        for slot in idle:
            assigned = False
            for offset in range(len(cids)):
                cid = cids[(self._assign_rotor + offset) % len(cids)]
                state = self.campaigns[cid]
                unit = state.scheduler.take()
                if unit is None:
                    continue
                if state.scheduler.attempts(unit) \
                        > self.config.unit_attempts:
                    # bounced between dying workers too often: the
                    # parent finishes it with its own daemon.
                    self._complete_inline(state, unit)
                    continue
                if self._dispatch(slot, state, unit):
                    self._assign_rotor = (self._assign_rotor + offset
                                          + 1) % len(cids)
                    assigned = True
                    break
                state.scheduler.requeue(unit)
            if not assigned:
                return

    def _dispatch(self, slot, state, unit):
        # A dead worker caught at send time (channel already torn, or
        # the send fails) is left to liveness.  A context that cannot
        # be pickled -- say, a locally defined daemon_factory -- is a
        # caller error and propagates: retrying it elsewhere would only
        # end in a silent inline run.
        if slot.conn is None:
            return False
        try:
            if state.cid not in slot.known:
                slot.conn.send(("campaign", state.context()))
                slot.known.add(state.cid)
            slot.conn.send(("unit", state.cid, unit))
        except (BrokenPipeError, OSError):
            return False
        slot.current = (state.cid, unit)
        slot.status = BUSY
        slot.last_beat = time.monotonic()
        self._mark_unit(state, unit, status="started")
        self._emit(state, "unit-started", unit=unit.unit_id,
                   worker=slot.worker, points=len(unit.points))
        return True

    # -- inline fallback -----------------------------------------------

    def _inline_fallback(self):
        """When every slot is retired, finish remaining units in the
        parent process with the campaigns' own daemons (which are
        known-good: they enumerated and ran golden)."""
        if any(slot.status in (IDLE, BUSY, BACKOFF)
               for slot in self.slots.values()):
            return
        pending = [state for state in self.campaigns.values()
                   if not state.finished and state.interrupted is None]
        if not pending:
            return
        self.events["degraded"] += 1
        for state in pending:
            while True:
                unit = state.scheduler.take()
                if unit is None:
                    break
                self._complete_inline(state, unit)

    def _complete_inline(self, state, unit):
        """Last resort: run *unit* in the parent.  Only when that fails
        too does the campaign raise, naming every worker failure."""
        try:
            self._run_unit_inline(state, unit)
        except Exception as error:
            details = "\n".join("worker %d: %s" % failure
                                for failure in self.failures)
            raise RuntimeError(
                "campaign could not self-heal: inline completion "
                "failed after worker failure(s):\n%s" % details) \
                from error

    def _run_unit_inline(self, state, unit):
        self.events["inline_points"] += len(unit.points)
        _LOGGER.warning("running unit %s of %s inline in the parent "
                        "(%d points)", unit.unit_id, state.cid,
                        len(unit.points))
        journal = state.options.journal
        tracer = _unit_tracer(state.worker_options, self._inline_tid + 1)
        runner = CampaignRunner(
            state.daemon, state.client_name, state.client_factory,
            state.worker_options, points=list(unit.points),
            trace_root="shard", golden=state.golden,
            trace_attrs={"shard": self._inline_tid,
                         "unit": unit.unit_id, "inline": True},
            journal=(shard_journal_path(journal, self._inline_tid)
                     if journal is not None else None),
            resume=True, journal_salvage=True, trace=tracer,
            session_cache=self._inline_sessions,
            # inline units run in the parent, feeding the campaign's
            # own sampler directly (no profile payload to fold).
            sampler=state.sampler)
        self._mark_unit(state, unit, status="started")
        self._emit(state, "unit-started", unit=unit.unit_id,
                   worker=self._inline_tid, points=len(unit.points),
                   inline=True)
        campaign = runner.run()
        payload = _unit_payload(campaign, unit, self._inline_tid,
                                tracer, None, inline=True)
        self._complete_unit(state, unit, payload, self._inline_tid,
                            inline=True)

    # -- checkpoint drain ----------------------------------------------

    def drain(self, reason):
        """Graceful checkpoint: SIGTERM busy workers, collect their
        unit checkpoints, mark every unfinished campaign interrupted.
        The fleet stays alive (idle workers keep their warm caches);
        call :meth:`stop` to shut it down."""
        self._draining = True
        self.events["checkpoint_exits"] += 1
        _LOGGER.warning("checkpoint requested (%s): draining fleet",
                        reason)
        for slot in self.slots.values():
            if slot.status == BUSY and slot.process is not None \
                    and slot.process.is_alive():
                slot.process.terminate()
        deadline = time.monotonic() + self.config.drain_timeout
        while (any(slot.status == BUSY for slot in self.slots.values())
               and time.monotonic() < deadline):
            self._pump_messages()
            for slot in self.slots.values():
                if slot.status == BUSY and slot.process is not None \
                        and not slot.process.is_alive() \
                        and slot.conn is None:
                    # died instead of checkpointing: salvage + requeue
                    cid = slot.current[0]
                    state = self.campaigns.get(cid)
                    if state is not None:
                        self._release_unit(slot, state, salvage=True)
        self._pump_messages()
        for slot in self.slots.values():
            if slot.status != BUSY:
                continue
            if slot.process is not None and slot.process.is_alive():
                slot.process.kill()
                join_process(slot.process)
            cid, state = slot.current[0], None
            state = self.campaigns.get(cid)
            if state is not None:
                self._release_unit(slot, state, salvage=True)
            slot.status = RETIRED
        for state in self.campaigns.values():
            if not state.finished and state.interrupted is None:
                state.interrupted = reason
                self._emit(state, "checkpoint", reason=reason,
                           completed=state.scheduler.completed)
        self._draining = False

    # -- finalize ------------------------------------------------------

    def finalize(self, cid):
        """Merge a finished campaign into a
        :class:`~repro.injection.campaign.CampaignResult` (or raise
        :class:`~repro.injection.runner.CampaignInterrupted` for a
        drained one); flushes its trace and metrics sinks either way
        and forgets the campaign."""
        state = self.campaigns.pop(cid)
        if state.interrupted is not None or not state.finished:
            registry = declare_campaign_metrics(MetricsRegistry())
            record_supervision_metrics(registry, self.events)
            self._flush_observability(state, registry)
            raise CampaignInterrupted(
                state.interrupted or "incomplete",
                journal=state.options.journal,
                completed=state.scheduler.completed)
        with state.tracer.span("merge"):
            campaign, registry = self._merge(state)
        self._emit(state, "campaign-finished",
                   counts=campaign.counts(),
                   quarantined=len(campaign.quarantined))
        self._flush_observability(state, registry)
        return campaign

    def _flush_observability(self, state, registry):
        """Close the root span (after the campaign's last milestone),
        fold the units' shipped spans into the campaign's tracer in
        unit order, and write the trace, profile and metrics sinks."""
        state.root_span.set("experiments",
                            len(state.scheduler.results))
        state.root_cm.__exit__(None, None, None)
        tracer = state.tracer
        for index in sorted(state.payloads):
            tracer.absorb(state.payloads[index].get("trace") or ())
        tracer.close()
        options = state.options
        if options.profile is not None and state.sampler is not None:
            state.sampler.save(options.profile, tracer.host_seconds())
        if options.metrics is not None and registry is not None:
            registry.save(options.metrics)

    def _merge(self, state):
        from ..analysis.serialize import (quarantined_from_dict,
                                          result_from_dict)
        scheduler = state.scheduler
        campaign = CampaignResult(
            daemon_name=type(state.daemon).__name__,
            client_name=state.client_name,
            encoding=state.options.encoding,
            fault_model=state.model.name, golden=state.golden)
        campaign.results = [result_from_dict(record)
                            for record in scheduler.merged_results()]
        campaign.quarantined = [
            quarantined_from_dict(record)
            for record in scheduler.merged_quarantined()]
        perf = PerfCounters()
        perf.absorb_dict(state.golden.perf)
        for index in sorted(state.payloads):
            perf.absorb_dict(
                state.payloads[index]["timing"].get("perf"))
        wall_clock = time.monotonic() - state.started
        campaign.timing = campaign_timing(
            wall_clock=wall_clock,
            experiments=len(campaign.results)
            + len(campaign.quarantined),
            executed=state.executed,
            workers=self.config.workers,
            shards=[state.payloads[index]["timing"]
                    for index in sorted(state.payloads)],
            perf=perf.as_dict())
        # Exact metric aggregation: unit registries absorbed in unit
        # order, then what only the parent saw -- records preloaded
        # from journals at submit, its own golden run (or cell-cache
        # reuse) and the fleet's supervision counters.  The
        # deterministic section comes out identical to a serial run's.
        registry = declare_campaign_metrics(MetricsRegistry())
        for index in sorted(state.payloads):
            registry.absorb_dict(state.payloads[index].get("metrics"))
        order = scheduler.order
        resumed_results = sorted(
            (key for key in scheduler.resumed
             if key in scheduler.results), key=order.__getitem__)
        for key in resumed_results:
            record_result_metrics(
                registry, result_from_dict(scheduler.results[key]))
        registry.counter("runtime.resumed", volatile=True).inc(
            len(scheduler.resumed))
        registry.counter("quarantined").inc(
            len(state.resumed_quarantined))
        registry.gauge("points").set(scheduler.total)
        if state.golden_reused:
            registry.counter("runtime.golden_reused",
                             volatile=True).inc()
        else:
            registry.counter("runtime.golden_runs",
                             volatile=True).inc()
        parent_perf = PerfCounters()
        parent_perf.absorb_dict(state.golden.perf)
        record_runtime_metrics(registry, wall_clock, state.executed,
                               perf=parent_perf.as_dict(),
                               workers=self.config.workers)
        record_supervision_metrics(registry, self.events)
        campaign.metrics = registry.as_dict()
        return campaign, registry


# ----------------------------------------------------------------------
# One-campaign facade (what ``run_campaign(workers=N)`` uses)

def run_fleet_campaign(daemon, client_name, client_factory, options=None,
                       *, workers=2, fleet=None, config=None, **kwargs):
    """Run one campaign on a (possibly shared) warm fleet.

    With ``fleet=None`` a private fleet is started (``config``, or a
    default :class:`FleetConfig` of ``workers`` workers, carrying the
    options' ``chaos`` policy and ``telemetry`` bus) and stopped around
    the campaign.  Passing an existing started :class:`WorkerFleet`
    reuses its warm workers (and leaves it running); the service
    front-end does exactly that.  The options' ``deadline`` and
    ``graceful_signals`` checkpoint the campaign through
    :meth:`WorkerFleet.drain`, raising
    :class:`~repro.injection.runner.CampaignInterrupted`.
    """
    options = RunOptions.resolve(options, **kwargs)
    owns = fleet is None
    if fleet is None:
        if config is None:
            config = FleetConfig(workers=workers)
        fleet = WorkerFleet(config, chaos=options.chaos,
                            telemetry=options.telemetry)
        fleet.start()
    stop = {"reason": None}
    restore = (install_stop_handlers(
        lambda name: stop.__setitem__("reason", name))
        if options.graceful_signals else (lambda: None))
    deadline_at = (time.monotonic() + options.deadline
                   if options.deadline is not None else None)
    try:
        cid = fleet.submit(daemon, client_name, client_factory, options)
        while not fleet.finished(cid):
            fleet.pump()
            reason = stop["reason"]
            if reason is None and deadline_at is not None \
                    and time.monotonic() > deadline_at:
                reason = "deadline"
            if reason is not None:
                fleet.drain(reason)
                break
        return fleet.finalize(cid)
    finally:
        restore()
        if owns:
            fleet.stop()
