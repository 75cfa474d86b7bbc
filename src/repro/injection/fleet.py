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
  watchdog, retries, quarantine, pruning all apply per unit) on the
  cell's golden run, which the worker records on its first unit of
  the cell, and journals to the worker's ``<journal>.shardK`` file.
  Units never read a journal;
* each campaign's owner half is the shared
  :class:`~repro.injection.runner.CampaignOwner`, the same steps a
  serial run takes: :meth:`WorkerFleet.submit` opens it (golden run,
  enumeration, resume preload of the whole journal family, so the
  worker count, or the engine, may change between runs),
  :meth:`WorkerFleet.finalize` closes it (merge, metrics fold,
  sinks).  The fleet itself is transport and supervision: it
  deserializes a unit's records once, on payload receipt or salvage,
  and hands them to the owner;
* the parent supervises: every event a unit runner emits onto its
  worker's private bus is a heartbeat, dead or wedged workers are
  respawned with exponential backoff against a per-incarnation
  restart budget, whatever a dead worker journaled is salvaged and
  the remainder of its unit requeued, a worker that
  exhausts its budget is retired (its units migrate to siblings), the
  parent finishes units inline as the last resort, and SIGTERM or a
  deadline drains every in-flight unit to a resumable checkpoint.

Determinism: completions are keyed by point and merged by enumeration
index (:meth:`CampaignScheduler.merged_results`), and the
deterministic metrics core is a fold over the merged records, so
Tables 1/3/5, Figure 4 and the core are byte-identical to a serial run
no matter how units interleaved, migrated between workers, or were
salvaged and requeued after a crash.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection

from ..obs.events import emit_milestone, EventBus, outcome_delta
from ..obs.log import get_logger
from ..obs.sampler import as_sampler
from ..obs.trace import as_tracer, Tracer
from .campaign import RunOptions
from .golden import record_golden
from .injector import SessionCache
from .runner import (backoff_delay, CampaignInterrupted,
                     CampaignJournal, CampaignOwner, CampaignRunner,
                     EVENT_NAMES, join_process, JournalError,
                     shard_journal_path, StopCheck, Watchdog,
                     WatchdogConfig)
from .scheduler import UNIT_INSTRUCTIONS

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
    ``poll_interval`` bounds a wait in which nothing happens: it paces
    the liveness and backoff checks, not the reaction to work (worker
    messages and :meth:`WorkerFleet.wake` end a wait at once).
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
                       chaos_policy=None, inherited=()):
    """Long-lived warm worker: serve units until told to stop.

    ``conn`` is this incarnation's private duplex pipe (one writer per
    end, so a worker killed mid-send tears only its own channel);
    ``inherited`` lists the parent's descriptors a forked worker
    closes first (the fleet's wake pipe).
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
    for fd in inherited:
        os.close(fd)
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
    """One work unit through the ordinary fault-tolerant runner, on
    the cell's golden run (recorded by this worker's first unit of the
    cell)."""
    cid = ctx["cid"]
    cell = ctx["cell"]
    options = ctx["options"]
    daemon = daemons.get(cell)
    if daemon is None:
        daemon = options.daemon_factory()
        daemons[cell] = daemon
    # The liveness heartbeat subscribes to a bus private to this
    # worker: its events never leave the worker, so the parent still
    # owns every campaign's sequence numbers (and no history is kept).
    heartbeat = EventBus(capacity=1)
    heartbeat.subscribe(lambda event: emit("heartbeat", cid,
                                           unit.unit_id))
    # per-unit sampler: guest samples are deterministic per unit and
    # ship home in the payload for the parent to fold together.
    sampler = as_sampler(options.sampler)
    runner, tracer = _run_unit_runner(
        daemon, ctx["client_name"], ctx["client_factory"], options,
        unit, worker, goldens.get(cell),
        stop_check=lambda: stop["reason"], telemetry=heartbeat,
        chaos=chaos, session_cache=sessions, sampler=sampler)
    goldens[cell] = runner.golden
    from ..analysis.serialize import campaign_to_dict
    emit("unit-done", cid, unit.unit_id, {
        **campaign_to_dict(runner.campaign),
        "trace": tracer.events() if tracer is not None else None,
        "profile": sampler.as_dict() if sampler is not None else None})


def _run_unit_runner(daemon, client_name, client_factory, options, unit,
                     shard, golden=None, trace_attrs=None, **extra):
    """Run a work unit's runner (exactly its points, journaled to
    *shard*'s ``.shardK`` file) inside a ``shard`` span, recording the
    cell's golden run first when no warm one is handed in.  Returns
    the finished runner and its tracer: ``None`` unless the campaign
    is traced or profiled, else keeping every span for the parent to
    fold into its trace file and profile host seconds."""
    tracer = (None if options.trace is None and options.sampler is None
              else Tracer(tid=shard + 1))
    spans = as_tracer(tracer)
    with spans.span("shard", shard=shard, unit=unit.unit_id,
                    **(trace_attrs or {})) as span:
        recorded = golden is None
        if recorded:
            with spans.span("golden-run") as golden_span:
                golden = record_golden(daemon, client_factory,
                                       options.budget)
                golden_span.set("coverage_eips", len(golden.coverage))
        runner = CampaignRunner(
            daemon, client_name, client_factory, options,
            points=unit.points, golden=golden, trace=tracer,
            journal=(shard_journal_path(options.journal, shard)
                     if options.journal is not None else None), **extra)
        if recorded:
            runner.perf.absorb_dict(golden.perf)
        runner.registry.counter(
            "runtime.golden_runs" if recorded
            else "runtime.golden_reused", volatile=True).inc()
        span.set("experiments", len(runner.run().results))
    return runner, tracer


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
    """Parent-side record of one submitted campaign: its
    :class:`~repro.injection.runner.CampaignOwner` plus what the
    fleet's transport needs."""

    cid: str
    owner: CampaignOwner
    #: the resolved options workers receive
    #: (:meth:`RunOptions.for_worker`: fault model, watchdog config,
    #: daemon factory and sampler period filled in, parent-only
    #: fields cleared).
    worker_options: RunOptions
    on_unit: object = None
    interrupted: str | None = None

    @property
    def scheduler(self):
        return self.owner.scheduler

    @property
    def options(self):
        return self.owner.options

    @property
    def finished(self):
        return self.scheduler.finished

    def context(self):
        """The picklable campaign context a worker needs."""
        owner = self.owner
        return {"cid": self.cid,
                "cell": _cell(owner.daemon, owner.client_name,
                              self.options.budget),
                "client_name": owner.client_name,
                "client_factory": owner.client_factory,
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
    interleave units from every live campaign.  `pump` blocks until a
    worker message or a `wake` (from any thread) arrives, or for at
    most ``poll_interval``.  Each worker slot is a
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
        #: the wake pipe's ``(read, write)`` descriptors while started:
        #: the read end joins every wait, :meth:`wake` writes a byte.
        self._wake_fds = ()
        self._wake_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------

    def start(self):
        if self._started:
            return
        self._started = True
        self._wake_fds = os.pipe()
        for fd in self._wake_fds:
            os.set_blocking(fd, False)
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
        while time.monotonic() < deadline:
            alive = self._sentinels(self.slots.values())
            if not alive:
                break
            self._pump_messages(max(0.0, deadline - time.monotonic()),
                                alive)
        for slot in self.slots.values():
            if slot.process is not None:
                if slot.process.is_alive():
                    slot.process.terminate()
                join_process(slot.process)
            if slot.conn is not None:
                slot.conn.close()
                slot.conn = None
        with self._wake_lock:
            for fd in self._wake_fds:
                os.close(fd)
            self._wake_fds = ()
        self._started = False

    def wake(self):
        """Return a :meth:`pump` blocked in its wait now (or make its
        next wait return at once).  Thread-safe; call it after handing
        the pumping thread work, such as a submission or a stop."""
        with self._wake_lock:
            if self._wake_fds:
                try:
                    os.write(self._wake_fds[1], b"\0")
                except BlockingIOError:
                    pass          # pipe full: a wake is already pending

    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        if "fork" in methods:
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _spawn(self, slot):
        if slot.conn is not None:
            slot.conn.close()
        parent_conn, child_conn = self.context.Pipe()
        forked = self.context.get_start_method() == "fork"
        process = self.context.Process(
            target=_fleet_worker_main,
            args=(slot.worker, slot.incarnation, child_conn,
                  self.config, self.chaos),
            kwargs={"inherited": self._wake_fds if forked else ()})
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
            emit_milestone(self.telemetry,
                           [live.owner.tracer
                            for live in self.campaigns.values()],
                           type, None, **payload)
        else:
            state.owner.emit(type, **payload)

    # -- submission ----------------------------------------------------

    def submit(self, daemon, client_name, client_factory, options=None,
               on_unit=None, **kwargs):
        """Submit one campaign: open its
        :class:`~repro.injection.runner.CampaignOwner` (on the fleet's
        cached golden run for the cell, if any); returns its campaign
        id.

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
        cid = "c%04d" % self._next_cid
        cell = _cell(daemon, client_name, options.budget)
        owner = CampaignOwner(
            daemon, client_name, client_factory, options,
            golden=self.goldens.get(cell), bus=self.telemetry,
            label=(options.telemetry_campaign
                   if options.telemetry_campaign is not None else cid),
            workers=self.config.workers,
            unit_instructions=self.config.unit_instructions)
        self._next_cid += 1
        self.goldens[cell] = owner.golden
        if not self._started:
            self.start()
        watchdog = options.watchdog
        if isinstance(watchdog, Watchdog):
            watchdog = watchdog.config
        elif watchdog is None:
            watchdog = WatchdogConfig()
        worker_options = options.for_worker(
            fault_model=owner.model, watchdog=watchdog, max_points=None,
            daemon_factory=(options.daemon_factory
                            if options.daemon_factory is not None
                            else default_daemon_factory(daemon)),
            sampler=(owner.sampler.period
                     if owner.sampler is not None else None),
            trace=None if options.trace is None else str(options.trace))
        self.campaigns[cid] = FleetCampaignState(cid, owner,
                                                 worker_options,
                                                 on_unit=on_unit)
        if self.config.heartbeat_timeout is None:
            wall = watchdog.wall_clock_limit or 60.0
            self._heartbeat_timeout = max(
                self._heartbeat_timeout or 0.0, 2.0 * wall + 30.0)
        _LOGGER.info("campaign %s submitted: %s %s (%d points, "
                     "%s golden)", cid, type(daemon).__name__,
                     client_name, owner.scheduler.total,
                     "warm" if owner.golden_reused else "cold")
        return cid

    def finished(self, cid):
        state = self.campaigns[cid]
        return (state.finished or state.interrupted is not None)

    # -- the supervision loop ------------------------------------------

    def pump(self):
        """One supervision iteration: assign queued units, wait for
        messages (or a :meth:`wake`) and drain them, check liveness,
        respawn, fall back inline when out of workers.  Assigning
        before the wait sends a new campaign's units out at once;
        ``poll_interval`` bounds the wait, so it paces only the
        liveness and backoff checks."""
        if not self._draining:
            self._assign()
        self._pump_messages()
        now = time.monotonic()
        for slot in list(self.slots.values()):
            if slot.status in (IDLE, BUSY):
                self._check_liveness(slot, now)
            elif slot.status == BACKOFF and now >= slot.resume_due:
                self._respawn(slot)
        if not self._draining:
            self._inline_fallback()

    def _pump_messages(self, timeout=None, sentinels=()):
        """Wait up to *timeout* (default ``poll_interval``) for a worker
        message, a wake, or one of *sentinels* (processes whose exit
        ends the wait), then drain every ready channel."""
        by_conn = {slot.conn: slot for slot in self.slots.values()
                   if slot.conn is not None}
        ready = _mp_connection.wait(
            [*by_conn, *self._wake_fds[:1], *sentinels],
            timeout=(self.config.poll_interval if timeout is None
                     else timeout))
        for waited in ready:
            if waited in by_conn:
                self._drain_conn(by_conn[waited], waited)
            elif waited in self._wake_fds[:1]:
                os.read(waited, 4096)     # clear the pending wakes

    @staticmethod
    def _sentinels(slots):
        """Exit sentinels of the live worker processes of *slots*."""
        return [slot.process.sentinel for slot in slots
                if slot.process is not None and slot.process.is_alive()]

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
        if state.owner.sampler is not None:
            state.owner.sampler.absorb_dict(payload.get("profile"))
        from ..analysis.serialize import campaign_from_dict
        self._complete_unit(state, unit, slot.worker,
                            campaign_from_dict(payload), payload["trace"],
                            payload)

    def _complete_unit(self, state, unit, worker, campaign, trace,
                       payload=None, **extra):
        """Record a finished unit -- *campaign* holds its result
        objects, timing and volatile metrics, *trace* its spans -- and
        tell every observer.  ``on_unit`` gets the unit as plain dicts:
        a worker's *payload* as received, serialized here only for the
        parent's inline fallback."""
        results, quarantined = campaign.results, campaign.quarantined
        state.owner.record(results, quarantined)
        state.owner.report(unit.index, {
            **(campaign.timing or {}), **extra, "shard": worker,
            "unit": unit.unit_id, "points": len(unit.points)},
            campaign.metrics, trace)
        scheduler = state.scheduler
        scheduler.complete(unit)
        self._mark_unit(state, unit, status="done",
                        records=len(results) + len(quarantined))
        self._emit(state, "unit-finished", unit=unit.unit_id,
                   worker=worker, results=len(results),
                   quarantined=len(quarantined),
                   completed=scheduler.completed,
                   total=scheduler.total, **extra)
        if results:
            self._emit(state, "outcomes", delta=outcome_delta(results))
        if state.on_unit is not None:
            from ..analysis.serialize import campaign_to_dict
            state.on_unit(state, unit, payload if payload is not None
                          else campaign_to_dict(campaign))

    def _mark_unit(self, state, unit, status, records=0):
        """A unit's marker in the *base* journal, the only one it gets
        (workers journal records to their ``.shardK`` files and no
        markers, so the base path has a single appender and carries
        pure progress metadata: ``repro status`` and ``repro top`` read
        in-flight units and the live ETA from it)."""
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
        already recorded from their payloads)."""
        from ..analysis.serialize import (quarantined_from_dict,
                                          result_from_dict)
        if state.options.journal is None:
            return
        path = shard_journal_path(state.options.journal, worker)
        try:
            __, results, quarantined = CampaignJournal.load(
                path, strict=False)
        except (FileNotFoundError, JournalError):
            return
        scheduler = state.scheduler
        keys = [key for key in unit.keys
                if key not in scheduler.results
                and key not in scheduler.quarantined]
        salvaged = ([result_from_dict(results[key])
                     for key in keys if key in results],
                    [quarantined_from_dict(quarantined[key])
                     for key in keys if key in quarantined])
        count = len(salvaged[0]) + len(salvaged[1])
        if count:
            state.owner.record(*salvaged)
            self.events["salvaged_points"] += count
            _LOGGER.info("salvaged %d journaled record(s) of unit %s "
                         "from worker %d", count, unit.unit_id, worker)

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
        owner = state.owner
        self._mark_unit(state, unit, status="started")
        self._emit(state, "unit-started", unit=unit.unit_id,
                   worker=self._inline_tid, points=len(unit.points),
                   inline=True)
        runner, tracer = _run_unit_runner(
            owner.daemon, owner.client_name, owner.client_factory,
            state.worker_options, unit, self._inline_tid, owner.golden,
            trace_attrs={"inline": True},
            session_cache=self._inline_sessions,
            # inline units run in the parent, feeding the campaign's
            # own sampler directly (no profile payload to fold).
            sampler=owner.sampler)
        self._complete_unit(
            state, unit, self._inline_tid, runner.campaign,
            tracer.events() if tracer is not None else None, inline=True)

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
            self._pump_messages(sentinels=self._sentinels(
                slot for slot in self.slots.values()
                if slot.status == BUSY))
            for slot in self.slots.values():
                if slot.status == BUSY and slot.process is not None \
                        and not slot.process.is_alive() \
                        and slot.conn is None:
                    # died instead of checkpointing: salvage + requeue
                    cid = slot.current[0]
                    state = self.campaigns.get(cid)
                    if state is not None:
                        self._release_unit(slot, state, salvage=True)
        self._pump_messages(timeout=0)
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
        """Close a finished campaign through its owner
        (:meth:`CampaignOwner.close
        <repro.injection.runner.CampaignOwner.close>`) into a
        :class:`~repro.injection.campaign.CampaignResult`, or raise
        :class:`~repro.injection.runner.CampaignInterrupted` for a
        drained one; writes its sinks either way and forgets the
        campaign."""
        state = self.campaigns.pop(cid)
        interrupted = None
        if state.interrupted is not None or not state.finished:
            interrupted = state.interrupted or "incomplete"
        return state.owner.close(supervision=self.events,
                                 interrupted=interrupted)


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
    try:
        with StopCheck(options) as stop:
            cid = fleet.submit(daemon, client_name, client_factory,
                               options)
            while not fleet.finished(cid):
                fleet.pump()
                reason = stop()
                if reason is not None:
                    fleet.drain(reason)
                    break
            return fleet.finalize(cid)
    finally:
        if owns:
            fleet.stop()
