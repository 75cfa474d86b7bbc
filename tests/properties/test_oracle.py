"""The equivalence oracle: every configuration of the engine must
reproduce the reference run record for record.

The reference is the plainest execution the engine has: serial, no
pruning, every memory region rewritten between experiments
(``full_restore=True``), no observers, every instruction decoded and
dispatched one at a time (``CPU.run`` routed to
:meth:`CPU._run_reference`, so no compiled block runs, the golden
run's included), every prefix run from boot on a machine that decodes
the daemon itself (no chained prefixes, no golden decodes handed
over), and every experiment run to its end (no early exit,
:mod:`repro.injection.earlyexit`).  It is cached per (cell, encoding,
window).

:func:`test_configuration_matches_reference` draws a configuration
from every axis the engine offers -- serial or a fleet, pruning with
or without an audit, dirty-page or full restore, any set of observers,
the cell, the encoding and the point window, and one disturbance
(a chaos schedule, a corrupted journal resumed with salvage, a
truncated journal resumed under another worker count, or a deadline
checkpoint then resume) -- and asserts
:func:`~repro.analysis.equivalence.campaign_differences` against the
reference is empty.  Every configuration but the reference runs with
early exits armed.  Each axis also checks that it did something: the
chaos schedule fired, the audit re-ran classes, the deadline
interrupted, the journal lost a record, the event stream is whole, the
profile matches one sampled through the reference loop (and no
profiled run exited early), and the early exits fired where the window
has them.  The
``@example``\\ s are the configurations the per-slice CI scripts and
tests used to check one by one, so they run on every tier-1 run; the
drawn ones add fresh combinations (nightly runs the property under a
new ``--hypothesis-seed``).  The tests at the end pin defects the
oracle found, and a journal family reused without resume.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import assume, example, given, HealthCheck, settings
from hypothesis import strategies as st

from repro.analysis.equivalence import (campaign_differences,
                                        deterministic_core)
from repro.apps.registry import available_daemons, get_daemon_spec
from repro.emu.cpu import CPU
from repro.injection import (available_fault_models,
                             CampaignInterrupted, ChaosAction,
                             ChaosPolicy,
                             corrupt_journal_tail,
                             discover_shard_journals, FleetConfig,
                             get_fault_model, run_campaign,
                             SessionCache)
from repro.injection.injector import Machine
from repro.injection.runner import CampaignRunner, JournalFamily
from repro.injection.scheduler import instruction_groups
from repro.obs import check_contiguous, EventBus, EventLog, fold_events

#: test-speed fleet: short backoff and polls, one instruction per work
#: unit so every worker takes work from the start.
FLEET = FleetConfig(backoff_base=0.1, backoff_cap=0.5,
                    poll_interval=0.05, dead_grace=0.2,
                    unit_instructions=1)

OBSERVERS = ("forensics", "profile", "events", "trace", "metrics")
DISTURBANCES = ("none", "chaos", "salvage", "truncate", "deadline")
TELEMETRY_LABEL = "oracle"


@dataclass(frozen=True)
class Config:
    """One point of the configuration space.  ``window`` is
    ``max_points`` (``None``: the whole cell); ``seed`` seeds the
    chaos schedule or the journal corruption; ``chaos_max_point``
    bounds how many points a worker runs before its fault fires."""

    daemon: str = "ftpd"
    model: str = "branch-bit"
    encoding: str = "old"
    window: int | None = 60
    workers: int = 1
    prune: bool = False
    audit_fraction: float = 0.0
    audit_seed: int = 0
    full_restore: bool = False
    observers: frozenset = frozenset()
    journal: bool = False
    disturbance: str = "none"
    seed: int = 0
    chaos_max_point: int = 1
    resume_workers: int | None = None


@pytest.fixture(scope="module")
def daemons(ftp_daemon, ssh_daemon, pop3_daemon):
    built = {"ftpd": ftp_daemon, "sshd": ssh_daemon,
             "pop3d": pop3_daemon}
    for name in available_daemons():
        if name not in built:
            built[name] = get_daemon_spec(name).build()
    return built


def _run(daemons, config, **options):
    spec = get_daemon_spec(config.daemon)
    return run_campaign(daemons[config.daemon], spec.attacker_client,
                        spec.client_factory(spec.attacker_client),
                        fault_model=config.model,
                        encoding=config.encoding,
                        max_points=config.window, **options)


def _reference_loop():
    """A ``CPU.run`` for one reference campaign:
    :meth:`CPU._run_reference`, one instruction at a time when a
    sampler is attached, sampling as the sampler's contract says (the
    EIP of every ``period``-th instruction that retires in one
    experiment, counted across calls).  The countdowns are its own,
    so they do not depend on the engine's sampler arithmetic;
    ``run.restart()`` starts them over."""
    countdowns = {}

    def run(cpu, max_instructions, stop=frozenset()):
        sampler = cpu.sampler
        if sampler is None:
            return cpu._run_reference(max_instructions, stop)
        countdown = countdowns.get(sampler, sampler.period - 1)
        try:
            while True:
                eip, retired = cpu.eip, cpu.instret
                status = cpu._run_reference(
                    min(max_instructions, retired + 1), stop)
                if status[0] != "crash" and cpu.instret > retired:
                    if countdown == 0:
                        sampler.samples[eip] = \
                            sampler.samples.get(eip, 0) + 1
                        countdown = sampler.period
                    countdown -= 1
                if status != ("limit", None) \
                        or cpu.instret >= max_instructions:
                    return status
        finally:
            countdowns[sampler] = countdown

    run.restart = countdowns.clear
    return run


def _use_reference_loop(patch):
    """Route ``CPU.run`` to a fresh :func:`_reference_loop` whose
    countdowns restart wherever the runner starts an experiment, run
    every prefix from boot on a machine that decodes the daemon
    itself, and run every experiment to its end."""
    loop = _reference_loop()
    execute = CampaignRunner._execute
    build_machine = SessionCache.machine

    def restarted(runner, *args):
        loop.restart()
        return execute(runner, *args)

    patch.setattr(CPU, "run", loop)
    patch.setattr(CampaignRunner, "_execute", restarted)
    patch.setattr(CampaignRunner, "_early_exits",
                  lambda runner, session: None)
    patch.setattr(Machine, "chain_start", lambda machine, *args: None)
    patch.setattr(SessionCache, "machine",
                  lambda cache, daemon, decodes=None:
                  build_machine(cache, daemon))


#: reference campaigns and profiles, cached for the module.
_REFERENCES = {}
_PROFILES = {}


def reference(daemons, config):
    """The reference campaign for *config*'s cell, encoding and
    window.  The patch on ``CPU.run`` is undone before any fleet
    forks."""
    key = (config.daemon, config.model, config.encoding, config.window)
    if key not in _REFERENCES:
        with pytest.MonkeyPatch.context() as patch:
            _use_reference_loop(patch)
            _REFERENCES[key] = _run(daemons, config, full_restore=True)
        counters = _REFERENCES[key].metrics["volatile"]["counters"]
        assert "runtime.sessions_chained" not in counters
    return _REFERENCES[key]


def reference_samples(daemons, config, scratch):
    """Guest samples of a serial run with *config*'s pruning through
    the reference loop: the profile every configuration must
    reproduce."""
    key = (config.daemon, config.model, config.encoding, config.window,
           config.prune, config.audit_fraction, config.audit_seed)
    if key not in _PROFILES:
        path = scratch / "serial.profile.json"
        with pytest.MonkeyPatch.context() as patch:
            _use_reference_loop(patch)
            _run(daemons, config, prune=config.prune,
                 audit_fraction=config.audit_fraction,
                 audit_seed=config.audit_seed, profile=str(path))
        _PROFILES[key] = json.loads(path.read_text())["samples"]
    return _PROFILES[key]


def _journal_files(base):
    """The files of a journal family that hold result records."""
    return [path for path in [str(base)] + discover_shard_journals(base)
            if '"type": "result"' in Path(path).read_text()]


def _cut_after_last_result(path):
    """Drop the lines after *path*'s last result record (unit
    markers), so a tail truncation lands inside a record."""
    lines = Path(path).read_text().splitlines(keepends=True)
    last = max(index for index, line in enumerate(lines)
               if '"type": "result"' in line)
    Path(path).write_text("".join(lines[:last + 1]))


def _options(config, scratch, workers):
    """Keyword options for one run of *config* (observers write into
    *scratch*; the event log is returned for the caller to close)."""
    options = dict(prune=config.prune,
                   audit_fraction=config.audit_fraction,
                   audit_seed=config.audit_seed,
                   full_restore=config.full_restore,
                   forensics="forensics" in config.observers)
    if workers > 1:
        options.update(workers=workers, supervisor=FLEET)
    if config.journal or config.disturbance != "none":
        options["journal"] = scratch / "run.jsonl"
    for name in ("profile", "trace", "metrics"):
        if name in config.observers:
            options[name] = str(scratch / ("%s.json" % name))
    log = None
    if "events" in config.observers:
        bus = EventBus()
        log = EventLog(scratch / "events.jsonl")
        bus.subscribe(log)
        options.update(telemetry=bus,
                       telemetry_campaign=TELEMETRY_LABEL)
    return options, log


def _observed_run(daemons, config, scratch, workers=None, **extra):
    options, log = _options(config, scratch, workers or config.workers)
    try:
        return _run(daemons, config, **options, **extra)
    finally:
        if log is not None:
            log.close()


def run_configuration(daemons, config, scratch):
    """Run *config*, disturbance included; returns the final
    campaign after checking the disturbance actually happened."""
    if config.disturbance == "chaos":
        chaos = ChaosPolicy.seeded(config.seed, shards=config.workers,
                                   max_point=config.chaos_max_point)
        campaign = _observed_run(daemons, config, scratch, chaos=chaos)
        counters = campaign.metrics["volatile"]["counters"]
        assert sum(counters.get("supervisor.%s" % name, 0)
                   for name in ("respawns", "worker_errors",
                                "wedged")), \
            "the chaos schedule never fired: %s" % chaos.describe()
        return campaign
    if config.disturbance == "deadline":
        with pytest.raises(CampaignInterrupted) as interrupted:
            _observed_run(daemons, config, scratch, deadline=0.0)
        assert interrupted.value.reason == "deadline"
        return _observed_run(daemons, config, scratch, resume=True)
    campaign = _observed_run(daemons, config, scratch)
    if config.disturbance == "none":
        return campaign
    files = _journal_files(scratch / "run.jsonl")
    victim = files[config.seed % len(files)]
    if config.disturbance == "salvage":
        corrupt_journal_tail(victim, mode="garbage-line",
                             seed=config.seed)
        return _observed_run(daemons, config, scratch, resume=True,
                             journal_salvage=True)
    _cut_after_last_result(victim)
    corrupt_journal_tail(victim, mode="truncate-tail")
    kept = JournalFamily.load(scratch / "run.jsonl").results
    assert len(kept) == campaign.total_runs - 1
    resumed = _observed_run(daemons, config, scratch,
                            workers=config.resume_workers, resume=True)
    reused = resumed.metrics["volatile"]["counters"]["runtime.resumed"]
    assert reused == len(kept)
    return resumed


def check_configuration(daemons, config):
    expected = reference(daemons, config)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        campaign = run_configuration(daemons, config, scratch)
        assert campaign_differences(campaign, expected) == []
        if config.workers > 1 and config.disturbance == "none":
            assert campaign.timing["workers"] == config.workers
        counters = campaign.metrics["volatile"]["counters"]
        if config.audit_fraction and config.disturbance == "none" \
                and any(result.class_id for result in campaign.results):
            # the window has a multi-member class to audit
            assert counters["pruning.audited_classes"] > 0
            assert counters["pruning.audit_runs"] > 0
        check_early_exits(config, counters)
        if config.window is None and config.workers == 1 \
                and config.disturbance == "none":
            # the whole cell, serial: most prefixes chain
            assert counters.get("runtime.sessions_chained", 0) > 0
        if "events" in config.observers:
            events = [json.loads(line) for line in
                      (scratch / "events.jsonl").read_text().splitlines()]
            assert check_contiguous(events) == []
            stream = [event for event in events
                      if event.get("campaign") == TELEMETRY_LABEL]
            assert {"golden", "campaign-started"} \
                <= {event["type"] for event in stream}
            assert stream[-1]["type"] == "campaign-finished"
            assert stream[-1]["counts"] == expected.counts(refined=True)
            view = fold_events(stream)[TELEMETRY_LABEL]
            assert view.finished and view.completed == view.points
        if "metrics" in config.observers:
            saved = json.loads((scratch / "metrics.json").read_text())
            assert deterministic_core(saved) \
                == deterministic_core(expected.metrics)
        if "profile" in config.observers \
                and config.disturbance == "none":
            profile = json.loads((scratch / "profile.json").read_text())
            assert profile["samples"]
            assert profile["samples"] \
                == reference_samples(daemons, config, scratch)


def check_early_exits(config, counters):
    """The early exits fired where the window has them, never under a
    sampler, and the audit re-ran them."""
    early = {name: counters.get("early_exit.%s" % name, 0)
             for name in ("converged", "shifted", "cycles", "audited")}
    if "profile" in config.observers:
        assert not any(early.values()), early
        return
    if config.disturbance != "none" \
            or (config.daemon, config.model) != ("ftpd", "branch-bit"):
        return
    if config.window == 60:
        assert early["converged"] > 0, early
    if config.window is None:
        # the whole Client1 cell: its two budget runs are exact
        # cycles, and some runs rejoin the golden run shifted
        assert early["cycles"] > 0 and early["shifted"] > 0, early
    if config.audit_fraction and early["converged"] + early["cycles"]:
        assert early["audited"] > 0, early


@st.composite
def configurations(draw):
    workers = draw(st.sampled_from((1, 2, 3)))
    disturbance = draw(st.sampled_from(
        DISTURBANCES if workers > 1 else
        tuple(name for name in DISTURBANCES if name != "chaos")))
    prune = draw(st.sampled_from(("off", "on", "audit")))
    config = Config(
        daemon=draw(st.sampled_from(available_daemons())),
        model=draw(st.sampled_from(available_fault_models())),
        encoding=draw(st.sampled_from(("old", "new"))),
        window=draw(st.sampled_from((24, 48, 60, 96))),
        workers=workers,
        prune=prune != "off",
        audit_fraction=1.0 if prune == "audit" else 0.0,
        audit_seed=draw(st.integers(0, 2 ** 16)),
        full_restore=draw(st.booleans()),
        observers=frozenset(draw(st.sets(st.sampled_from(OBSERVERS)))),
        journal=draw(st.booleans()),
        disturbance=disturbance,
        seed=draw(st.integers(0, 2 ** 16)))
    if disturbance == "truncate":
        config = replace(config, resume_workers=draw(st.sampled_from(
            [count for count in (1, 2, 3) if count != workers])))
    return config


def _spans_every_worker(daemons, config):
    """True when the window has a work unit for every worker (each
    unit is one instruction), so any worker a chaos fault targets
    runs at least one point."""
    daemon = daemons[config.daemon]
    points = get_fault_model(config.model).enumerate_points(
        daemon.module, daemon.auth_ranges())[:config.window]
    return len(instruction_groups(points)) >= config.workers


FULL_CELL = Config(window=None, prune=True)
TELEMETRY = frozenset(("events", "profile", "metrics"))


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configurations())
# benchmarks/check_pruning.py: the full ftpd Client1 cell, pruned,
# serial and on three workers, both encodings; a 25% seeded audit
@example(config=FULL_CELL)
@example(config=replace(FULL_CELL, encoding="new"))
@example(config=replace(FULL_CELL, workers=3))
@example(config=replace(FULL_CELL, encoding="new", workers=3))
@example(config=replace(FULL_CELL, audit_fraction=0.25,
                        audit_seed=2026))
# benchmarks/check_chaos.py: seeded kill + ENOSPC on two workers,
# a garbage line resumed with salvage, a deadline checkpoint resumed
@example(config=Config(window=48, workers=2, journal=True,
                       disturbance="chaos", seed=2026,
                       chaos_max_point=8))
@example(config=Config(window=48, disturbance="salvage", seed=3))
@example(config=Config(window=48, workers=2, disturbance="deadline"))
# benchmarks/check_obs.py telemetry: telemetry and sampler off and on,
# serial and on three workers
@example(config=Config(workers=3, observers=frozenset(("metrics",))))
@example(config=Config(observers=TELEMETRY))
@example(config=Config(workers=3, observers=TELEMETRY))
# the observers the telemetry matrix leaves out, serial
@example(config=Config(observers=frozenset(("forensics", "trace",
                                            "metrics"))))
# tests: three workers (quarantine included), a truncated fleet
# journal resumed on two, a journaled two-worker fleet
@example(config=Config(window=96, workers=3))
@example(config=Config(window=96, workers=3, disturbance="truncate",
                       resume_workers=2))
@example(config=Config(window=40, workers=2, journal=True))
# a serial pruned campaign resumed with its last record cut: classes
# form over the missing points only, as on the fleet
@example(config=Config(window=96, prune=True, disturbance="truncate",
                       observers=frozenset(("events", "metrics"))))
# a cell where a guarded representative re-fetches its corrupted span
@example(config=Config(daemon="sshd", model="burst2", encoding="new",
                       window=96, prune=True))
def test_configuration_matches_reference(daemons, config):
    if config.disturbance == "chaos":
        assume(_spans_every_worker(daemons, config))
    check_configuration(daemons, config)


@pytest.mark.parametrize("daemon,model,prune", [
    pytest.param(daemon, model, prune,
                 id="%s-%s%s" % (daemon, model,
                                 "" if prune else "-unpruned"))
    for daemon in available_daemons()
    for model in available_fault_models()
    for prune in (True, False)])
def test_pruned_cell_matches_reference(daemons, daemon, model, prune):
    """Every registered daemon x fault model: a 60-point window
    (dirty-page restore), pruned and unpruned, equals the
    reference."""
    config = Config(daemon=daemon, model=model, prune=prune)
    assert reference(daemons, config).activated_count > 0
    check_configuration(daemons, config)


def test_fleet_profile_spanning_units_matches_serial(daemons):
    """Activated points at several instructions, so the fleet samples
    them in several units: each experiment restarts the sampler's
    countdown, so the profile does not depend on the cut."""
    config = Config(daemon="sshd", window=32, workers=2,
                    observers=frozenset(("profile",)))
    assert len({result.point.instruction_address
                for result in reference(daemons, config).results
                if result.activated}) > 1
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        _observed_run(daemons, config, scratch)
        profile = json.loads((scratch / "profile.json").read_text())
        assert profile["samples"] \
            == reference_samples(daemons, config, scratch)


@pytest.mark.parametrize("workers,resume_workers", [(1, 2), (2, 1)])
def test_journal_resumes_across_serial_and_fleet(daemons, workers,
                                                 resume_workers):
    """A journal that lost one record re-runs only that record under
    the other engine: both load the whole journal family."""
    config = Config(window=24, workers=workers, disturbance="truncate",
                    resume_workers=resume_workers)
    with tempfile.TemporaryDirectory() as scratch:
        resumed = run_configuration(daemons, config, Path(scratch))
    assert resumed.timing["executed"] == 1


def test_pruned_fleet_survives_a_failed_journal_write(daemons):
    """ENOSPC on worker 0's first journal write: the unit fails with
    the shared machine mid-experiment, which the runner drops so the
    retried unit's sites seal against a restored machine."""
    config = Config(window=200, workers=2, prune=True)
    chaos = ChaosPolicy(actions=(ChaosAction(kind="fail-write", shard=0,
                                             after=1),))
    with tempfile.TemporaryDirectory() as scratch:
        campaign = _observed_run(daemons, replace(config, journal=True),
                                 Path(scratch), chaos=chaos)
    assert campaign_differences(campaign,
                                reference(daemons, config)) == []


def test_pruned_campaigns_share_a_session_cache(daemons):
    """The second campaign starts at the site the first ended at, on
    the machine the first left mid-experiment: its sites must seal
    against the site's state."""
    config = Config(window=16, prune=True)
    cache = SessionCache(capacity=1)
    for __ in range(2):
        campaign = _run(daemons, config, prune=True, session_cache=cache)
    assert campaign_differences(campaign,
                                reference(daemons, config)) == []


@pytest.mark.parametrize("model", ["branch-bit", "register-bit"])
def test_fresh_fleet_run_ignores_a_used_journal(daemons, model):
    """A fleet run without resume at a path an earlier run used, for
    the same cell or another, starts the journal family afresh: every
    point runs, and no unit trips over the old files' meta."""
    used = Config(window=24, workers=2, journal=True)
    config = replace(used, model=model)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        _observed_run(daemons, used, scratch)
        campaign = _observed_run(daemons, config, scratch)
    assert campaign_differences(campaign,
                                reference(daemons, config)) == []
    assert campaign.timing["executed"] == campaign.total_runs
    counters = campaign.metrics["volatile"]["counters"]
    assert counters["supervisor.worker_errors"] == 0
    assert counters["supervisor.inline_points"] == 0
