"""Selective-exhaustive injection campaigns (Sections 4-6).

A campaign fixes a daemon, a client access pattern, an encoding
(old = stock IA-32, new = the Table 4 re-encoding) and a fault model
(:mod:`repro.injection.faultmodels`; default: the paper's single-bit
branch flips), then runs the model's full experiment list over the
authentication functions and tallies the outcome distribution.
:class:`CampaignSpec` names one cell of that
daemon x client x encoding x fault-model space; specs are what get
enumerated, sharded, journaled and resumed.

Execution is delegated to the fault-tolerant engine in
:mod:`repro.injection.runner`: experiments are isolated (a harness
exception becomes one ``HARNESS_FAULT`` record instead of killing the
campaign), hangs are caught by a watchdog, and an optional JSONL
journal makes campaigns resumable (``journal=path, resume=True``).
:class:`RunOptions` carries every execution option; ``workers=N``
runs the campaign on the warm worker fleet of
:mod:`repro.injection.fleet`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, replace

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from .outcomes import (ALL_OUTCOMES, FAIL_SILENCE_VIOLATION,
                       FOLD_TO_PAPER, HANG, REFINED_OUTCOMES,
                       SECURITY_BREAKIN, SYSTEM_DETECTION)
from .targets import DEFAULT_TARGET_KINDS

ENCODING_OLD = "old"
ENCODING_NEW = "new"
ALL_ENCODINGS = (ENCODING_OLD, ENCODING_NEW)


@dataclass(frozen=True)
class CampaignSpec:
    """One cell of the campaign design space: which daemon, driven by
    which scripted client, under which instruction encoding, injected
    with which fault model.

    A spec is pure data (names, not objects), so it is picklable,
    journal-stampable and cheap to enumerate; :meth:`build_daemon`,
    :meth:`client_factory` and :meth:`model` resolve the names through
    the daemon and fault-model registries when a run is actually
    wanted.
    """

    daemon: str = "ftpd"
    client: str = "Client1"
    encoding: str = ENCODING_OLD
    fault_model: str = "branch-bit"

    def daemon_spec(self):
        from ..apps.registry import get_daemon_spec
        return get_daemon_spec(self.daemon)

    def build_daemon(self, **kwargs):
        return self.daemon_spec().build(**kwargs)

    def client_factory(self):
        return self.daemon_spec().client_factory(self.client)

    def model(self):
        from .faultmodels import get_fault_model
        return get_fault_model(self.fault_model)

    def label(self):
        return "%s %s %s %s" % (self.daemon, self.client,
                                self.encoding, self.fault_model)


def enumerate_specs(daemons=None, clients=None, encodings=(ENCODING_OLD,),
                    fault_models=None):
    """The daemon x client x encoding x fault-model product, as specs.

    ``None`` means "everything registered" for daemons and fault
    models, and "every client of that daemon" for clients.  This is
    the sweep the CI plugin matrix and extension studies iterate.
    """
    from ..apps.registry import available_daemons, get_daemon_spec
    from .faultmodels import available_fault_models
    if daemons is None:
        daemons = available_daemons()
    if fault_models is None:
        fault_models = available_fault_models()
    specs = []
    for daemon in daemons:
        daemon_clients = (clients if clients is not None
                          else get_daemon_spec(daemon).clients())
        for client in daemon_clients:
            for encoding in encodings:
                for fault_model in fault_models:
                    specs.append(CampaignSpec(
                        daemon=daemon, client=client,
                        encoding=encoding, fault_model=fault_model))
    return specs


#: :class:`RunOptions` field roles (``dataclasses.field`` metadata).
#: ``wire`` fields are plain data a service client may set on a
#: submission; ``parent`` fields belong to the process that owns the
#: campaign (callables, sinks, signal and deadline handling) and are
#: reset to their defaults before options reach a fleet worker.
_WIRE = {"wire": True}
_PARENT = {"parent": True}


@dataclass(frozen=True)
class RunOptions:
    """Every execution option of one campaign, in one place.

    :func:`run_campaign`, :class:`~repro.injection.runner.CampaignRunner`,
    :meth:`WorkerFleet.submit <repro.injection.fleet.WorkerFleet.submit>`
    and the service all take a ``RunOptions`` (or keywords naming its
    fields), so adding an option touches this class only: the fleet's
    worker context is :meth:`for_worker` and the service's wire
    whitelist is :meth:`wire_fields`.  Options are resolved once per
    campaign (or per fleet work unit), never per experiment.

    What to inject: ``encoding``, ``fault_model`` (registry name or
    instance, default the paper's ``branch-bit``), target ``kinds``,
    the per-connection instruction ``budget``, ``max_points``
    (truncates the experiment list; used by fast tests) and
    ``ranges`` (overrides the daemon's authentication functions, e.g.
    for the path-validation extension experiments).

    Journal: ``journal`` appends every result to a JSONL file as it
    completes; ``resume=True`` skips already-journaled points, so a
    killed campaign restarts where it stopped with identical tallies.
    ``journal_fsync=N`` fsyncs every N records and
    ``journal_salvage=True`` quarantines corrupt journal lines on
    resume instead of raising.

    Execution: ``retries`` re-executes each activated experiment that
    many times and quarantines points whose outcome will not
    stabilise; ``watchdog`` is a
    :class:`~repro.injection.runner.Watchdog` or its config;
    ``full_restore=True`` rewrites every memory region between
    experiments instead of only dirtied pages.  ``prune=True`` runs
    one representative per equivalence class
    (:mod:`repro.injection.pruning`) and fans its outcome out;
    ``audit_fraction`` exhaustively re-runs a seeded (``audit_seed``)
    sample of classes and raises
    :class:`~repro.injection.pruning.PruningAuditError` on divergence.

    Observability: ``trace`` writes a Chrome-trace span file,
    ``metrics`` the serialized metrics registry, ``forensics=True``
    captures the last-instructions ring and a register snapshot on
    every SD/HANG/HF record; ``telemetry`` is an
    :class:`~repro.obs.events.EventBus` for live events labelled
    ``telemetry_campaign`` -- progress reporting is a subscriber
    (:class:`~repro.obs.log.ProgressReporter`); ``sampler`` attaches
    the sampling profiler (instance, period or ``True``) and
    ``profile`` saves its JSON, with host seconds taken from the span
    totals.  All of these are observational: tallies and the
    deterministic metrics core are byte-identical with any
    combination enabled.

    Resilience: ``deadline`` bounds the wall clock and
    ``graceful_signals=True`` converts SIGTERM/SIGINT into a clean
    checkpoint -- both raise
    :class:`~repro.injection.runner.CampaignInterrupted` with a
    resumable journal.  ``chaos`` injects harness faults from a
    :class:`~repro.injection.chaos.ChaosPolicy`.

    Process plumbing: ``daemon_factory`` is how a fleet worker
    rebuilds the daemon (default: the daemon's own class and data);
    ``session_cache`` shares breakpoint sessions across sequential
    serial campaigns (fleet workers keep their own).
    """

    encoding: str = ENCODING_OLD
    fault_model: object = None
    kinds: tuple = DEFAULT_TARGET_KINDS
    budget: int = field(default=CONNECTION_INSTRUCTION_BUDGET,
                        metadata=_WIRE)
    max_points: int | None = field(default=None, metadata=_WIRE)
    ranges: object = None
    journal: object = field(default=None, metadata=_WIRE)
    resume: bool = field(default=False, metadata=_WIRE)
    journal_fsync: int | None = field(default=None, metadata=_WIRE)
    journal_salvage: bool = field(default=False, metadata=_WIRE)
    retries: int = field(default=0, metadata=_WIRE)
    watchdog: object = None
    full_restore: bool = field(default=False, metadata=_WIRE)
    prune: bool = field(default=False, metadata=_WIRE)
    audit_fraction: float = field(default=0.0, metadata=_WIRE)
    audit_seed: int = field(default=0, metadata=_WIRE)
    forensics: bool = field(default=False, metadata=_WIRE)
    trace: object = field(default=None, metadata=_WIRE)
    metrics: object = field(default=None,
                            metadata={**_WIRE, **_PARENT})
    profile: object = field(default=None,
                            metadata={**_WIRE, **_PARENT})
    sampler: object = None
    telemetry: object = field(default=None, metadata=_PARENT)
    telemetry_campaign: object = field(default=None, metadata=_PARENT)
    deadline: float | None = field(default=None, metadata=_PARENT)
    graceful_signals: bool = field(default=False, metadata=_PARENT)
    chaos: object = field(default=None, metadata=_PARENT)
    daemon_factory: object = None
    session_cache: object = field(default=None, metadata=_PARENT)

    @classmethod
    def resolve(cls, options=None, **overrides):
        """*options* (default: all defaults) with keyword
        *overrides* applied; an unknown keyword raises
        :class:`TypeError`."""
        if options is None:
            return cls(**overrides)
        return replace(options, **overrides) if overrides else options

    @classmethod
    def wire_fields(cls):
        """Names a service submission may set."""
        return frozenset(spec.name for spec in fields(cls)
                         if spec.metadata.get("wire"))

    def for_worker(self, **overrides):
        """These options with every parent-only field reset, plus
        *overrides* -- what crosses the pipe to a fleet worker."""
        reset = {spec.name: spec.default for spec in fields(self)
                 if spec.metadata.get("parent")}
        return replace(self, **{**reset, **overrides})


@dataclass
class QuarantinedPoint:
    """A point whose outcome would not stabilise across re-executions
    (nondeterminism smoke signal); excluded from every tally, counted
    explicitly."""

    point: object
    location: str
    outcomes: tuple          # the disagreeing outcomes observed
    rounds: int              # retry rounds spent before giving up


@dataclass
class CampaignResult:
    """All experiments of one (daemon, client, encoding) campaign."""

    daemon_name: str
    client_name: str
    encoding: str
    fault_model: str = "branch-bit"
    results: list = field(default_factory=list)
    golden: object = None
    #: points excluded after quarantine-with-retry; never part of
    #: ``results`` or any percentage.
    quarantined: list = field(default_factory=list)
    #: wall-clock/throughput record (see
    #: :func:`repro.injection.runner.campaign_timing`); observational
    #: metadata only -- never part of any tally or comparison.
    timing: dict | None = None
    #: serialized metrics registry
    #: (:class:`repro.obs.metrics.MetricsRegistry`): outcome tallies,
    #: crash-latency histogram, quarantine/retry counts, plus a
    #: ``volatile`` section (wall clock, engine counters) that may
    #: differ between runs.  Observational only, like ``timing``.
    metrics: dict | None = None

    @property
    def total_runs(self):
        return len(self.results)

    @property
    def quarantined_count(self):
        return len(self.quarantined)

    def counts(self, refined=False):
        """Outcome tally.  The default folds the runner's refinements
        back onto the paper's five-way taxonomy (HANG into FSV, HF
        into NA) so Tables 1/3/5 are directly comparable; pass
        ``refined=True`` for the full seven-way breakdown."""
        tally = Counter(result.outcome for result in self.results)
        if refined:
            return {outcome: tally.get(outcome, 0)
                    for outcome in REFINED_OUTCOMES}
        folded = Counter()
        for outcome, count in tally.items():
            folded[FOLD_TO_PAPER.get(outcome, outcome)] += count
        return {outcome: folded.get(outcome, 0)
                for outcome in ALL_OUTCOMES}

    @property
    def activated_count(self):
        return sum(1 for result in self.results if result.activated)

    def percentage_of_activated(self, outcome):
        activated = self.activated_count
        if not activated:
            return 0.0
        table = self.counts(refined=outcome not in ALL_OUTCOMES)
        return 100.0 * table[outcome] / activated

    def crash_latencies(self):
        """Instruction counts between activation and crash (Figure 4)."""
        return [result.crash_latency for result in self.results
                if result.outcome == SYSTEM_DETECTION
                and result.crash_latency is not None]

    def by_location(self, outcomes=(SECURITY_BREAKIN,
                                    FAIL_SILENCE_VIOLATION, HANG)):
        """Location breakdown of selected outcomes (Table 3).  HANG is
        included by default because it folds into FSV there."""
        tally = Counter(result.location for result in self.results
                        if result.outcome in outcomes)
        return dict(tally)

    def results_with_outcome(self, outcome):
        return [result for result in self.results
                if result.outcome == outcome]


def run_campaign(daemon, client_name, client_factory, options=None, *,
                 workers=None, supervisor=None, **kwargs):
    """Run one full selective-exhaustive campaign.

    Execution options come as a :class:`RunOptions` (``options``),
    as keywords naming its fields, or both (keywords override); see
    :class:`RunOptions` for what each one does.  An unknown keyword
    raises :class:`TypeError`.

    ``workers=N`` (N > 1) runs the campaign on a private warm worker
    fleet (:func:`repro.injection.fleet.run_fleet_campaign`); tallies,
    tables and the deterministic metrics core are identical to a
    serial run, and the journal becomes the base path's unit markers
    plus one ``<journal>.shardK`` file per worker that ran work.
    ``supervisor`` is the :class:`~repro.injection.fleet.FleetConfig`
    for that fleet (restart budget, backoff, heartbeat deadline, unit
    size); ``workers`` fills its ``workers`` field.  Serial runs
    ignore it.
    """
    options = RunOptions.resolve(options, **kwargs)
    if workers is not None and workers > 1:
        from .fleet import FleetConfig, run_fleet_campaign
        config = replace(supervisor if supervisor is not None
                         else FleetConfig(), workers=workers)
        return run_fleet_campaign(daemon, client_name, client_factory,
                                  options, config=config)
    from .runner import CampaignRunner
    # a serial run is "shard 0, attempt 0" to a chaos policy (an
    # already-built agent passes through).
    if hasattr(options.chaos, "agent"):
        options = replace(options, chaos=options.chaos.agent(0, 0))
    return CampaignRunner(daemon, client_name, client_factory,
                          options).run()


def run_spec(spec, daemon=None, **kwargs):
    """Run the campaign a :class:`CampaignSpec` names.

    The daemon is compiled through the registry (pass ``daemon=`` to
    reuse an already-compiled instance); every execution option of
    :func:`run_campaign` (``workers``, ``journal``, ``resume``, ...)
    passes through unchanged.
    """
    if daemon is None:
        daemon = spec.build_daemon()
    return run_campaign(daemon, spec.client, spec.client_factory(),
                        encoding=spec.encoding,
                        fault_model=spec.fault_model, **kwargs)


def _instruction_bytes(module, point):
    offset = point.instruction_address - module.text_base
    return bytes(module.text[offset:offset + point.instruction_length])


def run_both_encodings(daemon, client_name, client_factory, **kwargs):
    """Convenience: the Table 1 and Table 5 campaigns for one client.

    A ``journal`` argument is split into ``<journal>.old`` and
    ``<journal>.new`` so the two campaigns never share a file.
    """
    journal = kwargs.pop("journal", None)
    old = run_campaign(daemon, client_name, client_factory,
                       encoding=ENCODING_OLD,
                       journal=None if journal is None
                       else "%s.old" % journal, **kwargs)
    new = run_campaign(daemon, client_name, client_factory,
                       encoding=ENCODING_NEW,
                       journal=None if journal is None
                       else "%s.new" % journal, **kwargs)
    return old, new
