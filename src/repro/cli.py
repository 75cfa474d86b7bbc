"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``campaign``   run one selective-exhaustive injection campaign and
               print its Table 1 column (optionally under the new
               encoding).
``disasm``     disassemble a daemon's authentication functions with
               the injection targets marked.
``table4``     print the regenerated branch re-encoding table.
``figure4``    run the FTP attacker campaign and print the crash
               latency histogram.
``random``     run the Section 7 random-injection testbed.
``forensics``  render the crash-forensics snapshots stored in a
               campaign journal (``--divergence`` replays a point and
               locates where it left the golden path).
``serve``      run the persistent campaign service: a warm worker
               fleet behind a Unix socket accepting concurrent
               campaign submissions (see :mod:`repro.service`).
``status``     summarise a campaign journal (and its shard files):
               completed points, quarantines, unit progress,
               in-flight units, live ETA, salvageable damage.
``top``        live terminal view of running campaigns: point a
               target at a service socket (streams telemetry) or a
               journal base path (polls markers and shard files).
``report``     render a self-contained HTML campaign report from a
               journal (plus optional ``--events`` / ``--profile``
               artifacts).

Every command takes ``--daemon`` (any daemon registered in
:mod:`repro.apps.registry`; ``--app`` is a back-compat alias), and
``campaign`` takes ``--fault-model`` (any model registered in
:mod:`repro.injection.faultmodels`).  An option-first invocation such
as ``python -m repro --daemon pop3d --fault-model register-bit``
implies the ``campaign`` command.  ``--verbose`` / ``--quiet`` adjust
the ``repro`` logger (:mod:`repro.obs.log`); progress and warnings go
to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .analysis import (build_histogram, build_table1, build_table3,
                       format_forensics, format_histogram,
                       format_table1, format_table3)
from .apps.registry import available_daemons, get_daemon_spec
from .encoding import format_table4, minimum_branch_distance
from .injection import (available_fault_models, CampaignInterrupted,
                        DEFAULT_FAULT_MODEL, describe_targets,
                        JournalFamily, run_campaign,
                        run_random_campaign)

#: exit status of a checkpointed (interrupted but resumable) campaign
#: -- EX_TEMPFAIL: re-running with ``--resume`` will finish the job.
EXIT_CHECKPOINTED = 75
from .obs import configure_logging, ProgressReporter
from .x86 import disassemble_range, format_listing


def _make_daemon(name):
    """Resolve a daemon name through the registry
    (:mod:`repro.apps.registry`): compiled daemon + client factories."""
    spec = get_daemon_spec(name)
    return spec.build(), spec.client_factories


def _add_daemon_arg(parser):
    """``--daemon`` with every registered daemon as a choice;
    ``--app`` is kept as an alias for pre-registry scripts."""
    parser.add_argument("--daemon", "--app", dest="daemon",
                        choices=available_daemons(), default="ftpd",
                        help="target daemon (registered: %s)"
                             % ", ".join(available_daemons()))


@contextmanager
def _telemetry(args):
    """Map ``--events`` / ``--progress`` / ``--profile`` /
    ``--sample-period`` to the engine's telemetry keywords.  Yields
    ``(log, kwargs)``.  A bus is built only when ``--events`` or
    ``--progress`` subscribes to it (zero overhead when off: no flag,
    no object); ``log`` is the ``--events`` file's
    :class:`~repro.obs.events.EventLog` subscriber, or ``None``, and
    is closed on exit, checkpointed or not."""
    kwargs = {}
    log = None
    if args.events or args.progress:
        from .obs.events import EventBus, EventLog
        bus = kwargs["telemetry"] = EventBus()
        if args.events:
            log = EventLog(args.events)
            bus.subscribe(log)
        if args.progress:
            # through the ``repro.campaign`` logger: --quiet silences it
            bus.subscribe(ProgressReporter())
    if getattr(args, "sample_period", None):
        from .obs.sampler import Sampler
        kwargs["sampler"] = Sampler(getattr(args, "sample_period"))
    if getattr(args, "profile", None):
        kwargs["profile"] = args.profile
    try:
        yield log, kwargs
    finally:
        if log is not None:
            log.close()


def _write_telemetry_artifacts(out, args, log, daemon=None):
    """Acknowledge the artifact paths (the same contract as the
    ``trace:`` / ``metrics:`` lines)."""
    if log is not None:
        out.write("events: %s (%d event(s))\n" % (log.path, log.count))
    if getattr(args, "profile", None):
        out.write("profile: %s\n" % args.profile)
        if daemon is not None:
            from .obs.sampler import hotspot_table, load_profile
            out.write(hotspot_table(load_profile(args.profile),
                                    daemon.module) + "\n")


def _write_timing(out, campaign):
    timing = campaign.timing
    if not timing:
        return
    out.write("timing: %.1fs wall clock, %d experiments "
              "(%.1f/sec, %d worker%s)\n"
              % (timing["wall_clock"], timing["experiments"],
                 timing["experiments_per_sec"], timing["workers"],
                 "" if timing["workers"] == 1 else "s"))
    perf = timing.get("perf")
    if perf:
        out.write("engine: %d cached-decode hits / %d misses, "
                  "%d flags forced / %d elided, %d supersteps "
                  "(%d instructions), %d blocks compiled, %d syscalls\n"
                  % (perf.get("prepared_hits", 0),
                     perf.get("prepared_misses", 0),
                     perf.get("flags_forced", 0),
                     perf.get("flags_elided", 0),
                     perf.get("superstep_entries", 0),
                     perf.get("superstep_instructions", 0),
                     perf.get("blocks_compiled", 0),
                     perf.get("syscalls", 0)))


def cmd_campaign(args, out):
    daemon, clients = _make_daemon(args.daemon)
    if args.client not in clients:
        raise SystemExit("unknown client %r (have: %s)"
                         % (args.client, ", ".join(sorted(clients))))
    with _telemetry(args) as (log, telemetry):
        campaign = run_campaign(
            daemon, args.client, clients[args.client],
            workers=args.workers, encoding=args.encoding,
            fault_model=args.fault_model, max_points=args.max_points,
            journal=args.journal, resume=args.resume,
            retries=args.retries, trace=args.trace,
            metrics=args.metrics, forensics=args.forensics,
            deadline=args.deadline, journal_fsync=args.journal_fsync,
            journal_salvage=args.journal_salvage,
            full_restore=args.full_restore, prune=args.prune,
            audit_fraction=args.audit_fraction,
            audit_seed=args.audit_seed,
            # SIGTERM/SIGINT checkpoint the campaign instead of
            # killing it; resume with --resume.
            graceful_signals=True, **telemetry)
    if args.journal:
        # the files this run actually wrote: the base path alone for
        # a serial run; parent unit markers plus one file per worker
        # that ran work (and the parent's inline file) for a fleet run
        out.write("journal: %s\n"
                  % ", ".join(JournalFamily.paths(args.journal)))
    if args.trace:
        out.write("trace: %s\n" % args.trace)
    if args.metrics:
        out.write("metrics: %s\n" % args.metrics)
    _write_telemetry_artifacts(out, args, log, daemon=daemon)
    _write_timing(out, campaign)
    if campaign.quarantined_count:
        out.write("quarantined (unstable, excluded from percentages): "
                  "%d\n" % campaign.quarantined_count)
    if args.save:
        from .analysis import save_campaign
        save_campaign(campaign, args.save)
        out.write("saved raw results to %s\n" % args.save)
    title = "%s %s (%s encoding)" % (args.daemon, args.client,
                                     args.encoding)
    if args.fault_model != DEFAULT_FAULT_MODEL:
        title = "%s %s (%s encoding, %s faults)" % (
            args.daemon, args.client, args.encoding, args.fault_model)
    out.write(format_table1(build_table1([campaign]), title) + "\n")
    out.write("\nBRK+FSV by location:\n")
    out.write(format_table3(build_table3([campaign]), "") + "\n")
    if args.forensics:
        section = format_forensics(campaign)
        if section:
            out.write("\n" + section + "\n")
    return 0


def cmd_disasm(args, out):
    daemon, __ = _make_daemon(args.daemon)
    functions = ([args.function] if args.function
                 else list(daemon.AUTH_FUNCTIONS))
    info = describe_targets(daemon.module, daemon.auth_ranges())
    out.write("injection targets: %d branch instructions / %d bits "
              "(%.1f%% of the section bytes)\n\n"
              % (info["instructions"], info["bits"],
                 100 * info["branch_fraction"]))
    for function in functions:
        start, end = daemon.program.function_range(function)
        out.write("%s: [0x%x, 0x%x)\n" % (function, start, end))
        listing = disassemble_range(daemon.module.text,
                                    daemon.module.text_base, start, end)
        if args.branches_only:
            listing = [i for i in listing
                       if i.kind in ("cond_branch", "jump")]
        out.write(format_listing(listing) + "\n\n")
    return 0


def cmd_table4(args, out):
    out.write(format_table4() + "\n")
    out.write("\nminimum intra-block Hamming distance: old=%d new=%d\n"
              % (minimum_branch_distance("old"),
                 minimum_branch_distance("new")))
    return 0


def cmd_figure4(args, out):
    daemon, clients = _make_daemon(args.daemon)
    attacker = get_daemon_spec(args.daemon).attacker_client
    with _telemetry(args) as (log, telemetry):
        campaign = run_campaign(
            daemon, attacker, clients[attacker], workers=args.workers,
            trace=args.trace, metrics=args.metrics,
            graceful_signals=True, **telemetry)
    histogram = build_histogram(campaign.crash_latencies())
    out.write(format_histogram(histogram) + "\n")
    _write_telemetry_artifacts(out, args, log, daemon=daemon)
    _write_timing(out, campaign)
    return 0


def cmd_random(args, out):
    daemon, clients = _make_daemon(args.daemon)
    attacker = get_daemon_spec(args.daemon).attacker_client
    result = run_random_campaign(daemon, clients[attacker],
                                 trials=args.trials, seed=args.seed)
    out.write("trials: %d\n" % result.trials)
    for outcome in sorted(result.outcomes):
        out.write("  %-4s %d\n" % (outcome, result.outcomes[outcome]))
    if result.breakin_count:
        out.write("break-in rate: one in %.0f\n" % result.one_in)
    else:
        out.write("no break-ins in this sample\n")
    return 0


def _spec_from_journal_meta(meta):
    """Map a journal's recorded daemon class name ("FtpDaemon") back to
    its registry spec, so the ``forensics`` command can rebuild the
    campaign for a divergence replay."""
    recorded = meta.get("daemon")
    for name in available_daemons():
        spec = get_daemon_spec(name)
        if spec.daemon_class.__name__ == recorded:
            return spec
    raise SystemExit("journal daemon %r matches no registered daemon "
                     "(have: %s)" % (recorded,
                                     ", ".join(available_daemons())))


def cmd_forensics(args, out):
    from .analysis import point_from_dict
    from .obs.forensics import format_forensics_record
    family = JournalFamily.load(args.journal, strict=False)
    if not family.metas:
        raise SystemExit("journal %s has no meta header" % args.journal)
    meta = family.metas[0]
    records = sorted(family.results.values(),
                     key=lambda record: point_from_dict(record).sort_key)
    if args.key:
        records = [record for record in records
                   if record.get("key") == args.key]
        if not records:
            raise SystemExit("no journaled record with key %r"
                             % args.key)
    snapshots = [record for record in records
                 if record.get("forensics")]
    if not snapshots:
        out.write("no forensics snapshots in %s (campaign ran without "
                  "--forensics?)\n" % args.journal)
        return 1
    shown = snapshots[:args.limit] if args.limit else snapshots
    out.write("%d snapshot(s) in %s (showing %d)\n"
              % (len(snapshots), args.journal, len(shown)))
    for record in shown:
        out.write("\n%s  %s at %s  (%s)\n"
                  % (record["key"], record["outcome"],
                     record["location"], record.get("detail") or "-"))
        out.write(format_forensics_record(record["forensics"]) + "\n")
        if args.divergence:
            _write_divergence(out, meta, record)
    return 0


def _write_divergence(out, meta, record):
    """Replay one journaled point (clean vs flipped) and report where
    the faulty run left the golden path (offline divergence locator:
    two traced replays per point are far too slow to run in-campaign).
    """
    from .analysis import analyze_propagation, format_propagation
    point = None
    try:
        from .analysis import point_from_dict
        point = point_from_dict(record)
        flip_address = point.flip_address
    except (KeyError, AttributeError):
        out.write("  (divergence replay supports bit-flip points "
                  "only)\n")
        return
    spec = _spec_from_journal_meta(meta)
    daemon = spec.build()
    client_factory = spec.client_factory(meta["client"])
    report = analyze_propagation(
        daemon, client_factory, point.instruction_address,
        flip_address, point.bit,
        budget=meta.get("budget") or 2_000_000)
    out.write(format_propagation(report) + "\n")


def cmd_serve(args, out):
    from .injection.fleet import FleetConfig
    from .service import CampaignService
    config = FleetConfig(workers=args.workers,
                         session_capacity=args.session_capacity)
    if args.unit_instructions:
        config.unit_instructions = args.unit_instructions
    service = CampaignService(socket_path=args.socket, config=config,
                              quota=args.quota)
    out.write("serving on %s (%d workers, quota %d per client)\n"
              % (service.socket_path, args.workers, args.quota))
    out.flush()
    return service.run()


def cmd_status(args, out):
    from .obs.top import format_eta, unit_progress, view_from_journals
    family = JournalFamily.load(args.journal, strict=False)
    if not family.members:
        raise SystemExit("no journal at %s (or %s.shard*)"
                         % (args.journal, args.journal))
    damage = 0
    for member in family.members:
        path, report = member.path, member.report
        if member.error is not None:
            out.write("%s: unreadable (%s)\n" % (path, member.error))
            damage += 1
            continue
        meta = member.meta
        out.write("%s:\n" % path)
        if meta is not None:
            out.write("  campaign: %s %s (%s encoding, %s faults, "
                      "schema v%s)\n"
                      % (meta.get("daemon"), meta.get("client"),
                         meta.get("encoding"),
                         meta.get("model", "branch-bit"),
                         meta.get("schema")))
        else:
            out.write("  campaign: no meta header\n")
        out.write("  results: %d   quarantined: %d\n"
                  % (len(member.results), len(member.quarantined)))
        if report.units:
            in_flight, done, __, __, __ = unit_progress(report.units)
            line = "  work units: %d completed" % done
            if in_flight:
                shown = [str(marker.get("unit"))
                         for marker in in_flight[:4]]
                more = len(in_flight) - len(shown)
                line += ", %d in flight (%s%s)" % (
                    len(in_flight), ", ".join(shown),
                    ", +%d more" % more if more else "")
            out.write(line + "\n")
        if report.corrupt_count or report.truncated_tail:
            damage += 1
            notes = []
            if report.corrupt_count:
                notes.append("%d corrupt line(s)"
                             % report.corrupt_count)
            if report.truncated_tail:
                notes.append("truncated tail")
            out.write("  damage: %s (salvageable with "
                      "--journal-salvage)\n" % ", ".join(notes))
    out.write("total: %d completed point(s), %d quarantined, across "
              "%d journal file(s)\n"
              % (len(family.results), len(family.quarantined),
                 len(family.members)))
    # the same fold ``repro top <journal>`` renders
    view = view_from_journals(args.journal, family)
    if view.points:
        line = ("progress: %d/%d point(s) (%.0f%%)"
                % (view.completed, view.points,
                   100.0 * view.completed / view.points))
        eta = view.eta_seconds()
        if eta:
            line += (", eta %s at the journaled rate"
                     % format_eta(eta))
        out.write(line + "\n")
    out.write("resume with: repro campaign --journal %s --resume%s\n"
              % (args.journal,
                 " --journal-salvage" if damage else ""))
    return 0


def cmd_top(args, out):
    import os
    import stat
    try:
        mode = os.stat(args.target).st_mode
    except OSError:
        mode = 0
    if stat.S_ISSOCK(mode):
        return _top_socket(args, out)
    return _top_journal(args, out)


def _render_frame(out, frame, live):
    """One frame; live TTY mode repaints in place (ANSI clear)."""
    if live and getattr(out, "isatty", lambda: False)():
        out.write("\x1b[2J\x1b[H")
    out.write(frame + "\n")
    out.flush()


def _top_journal(args, out):
    """``repro top <journal>``: poll the journal's unit markers and
    shard files until the campaign looks finished (or forever with a
    live TTY; ^C exits cleanly)."""
    import time
    from .obs.top import render_top, view_from_journals
    try:
        while True:
            try:
                view = view_from_journals(args.target)
            except FileNotFoundError as missing:
                raise SystemExit(str(missing))
            _render_frame(out, render_top({args.target: view}),
                          live=not args.once)
            if args.once or view.finished:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _top_socket(args, out):
    """``repro top <socket>``: subscribe to the service's telemetry
    plane and fold the live event stream into frames.  A reader
    thread pumps the blocking line protocol; the main loop renders
    every ``--interval`` seconds (one frame with ``--once``)."""
    import threading
    import time
    from .obs.top import fold_events, render_top
    from .service import ServiceClient
    client = ServiceClient(args.target)
    received = []
    drained = threading.Event()

    def pump():
        try:
            for event in client.telemetry():
                received.append(event)
        finally:
            drained.set()

    client.subscribe()
    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    views = {}
    cursor = 0
    try:
        while True:
            time.sleep(args.interval)
            batch = received[cursor:]
            cursor += len(batch)
            views = fold_events(batch, views)
            _render_frame(out, render_top(views),
                          live=not args.once)
            if args.once or drained.is_set():
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def cmd_report(args, out):
    from .analysis.htmlreport import write_html_report
    family = JournalFamily.load(args.journal, strict=False)
    if not family.members:
        raise SystemExit("no journal at %s (or %s.shard*)"
                         % (args.journal, args.journal))
    # Symbolizing hotspots needs the compiled program's module; the
    # journal meta records which daemon that is.
    module = None
    if args.profile and family.metas:
        module = _spec_from_journal_meta(family.metas[0]).build().module
    output = args.out if args.out else args.journal + ".html"
    write_html_report(output, args.journal, events_path=args.events,
                      profile_path=args.profile, module=module)
    out.write("report: %s\n" % output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'An Experimental Study of "
                    "Security Vulnerabilities Caused by Errors' "
                    "(DSN 2001)")
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument("-v", "--verbose", action="count",
                           default=0,
                           help="per-component debug detail on stderr")
    verbosity.add_argument("-q", "--quiet", action="count", default=0,
                           help="warnings only on stderr")
    commands = parser.add_subparsers(dest="command", required=True)

    campaign = commands.add_parser(
        "campaign", parents=[verbosity],
        help="run an injection campaign")
    _add_daemon_arg(campaign)
    campaign.add_argument("--client", default="Client1")
    campaign.add_argument("--encoding", choices=("old", "new"),
                          default="old")
    campaign.add_argument("--fault-model",
                          choices=available_fault_models(),
                          default=DEFAULT_FAULT_MODEL,
                          help="injected fault family (registered "
                               "models: %s)"
                               % ", ".join(available_fault_models()))
    campaign.add_argument("--max-points", type=int, default=None,
                          help="truncate the experiment list (smoke "
                               "runs)")
    campaign.add_argument("--progress", action="store_true",
                          help="log 'N / M experiments' lines as it runs")
    campaign.add_argument("--save", default=None, metavar="PATH",
                          help="write per-experiment records as JSON")
    campaign.add_argument("--journal", default=None, metavar="PATH",
                          help="append-only JSONL run journal (one "
                               "record per completed experiment)")
    campaign.add_argument("--resume", action="store_true",
                          help="skip experiments already present in "
                               "the journal and rebuild their records "
                               "from it")
    campaign.add_argument("--retries", type=int, default=0,
                          metavar="N",
                          help="re-execute each activated experiment "
                               "N times; quarantine points whose "
                               "outcome will not stabilise")
    campaign.add_argument("--workers", type=int, default=None,
                          metavar="N",
                          help="run the campaign on a warm fleet of N "
                               "worker processes; tallies are "
                               "identical to a serial run (each "
                               "worker journals to <journal>.shardK)")
    campaign.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS",
                          help="checkpoint and exit (status %d) after "
                               "this much wall clock; the journal "
                               "stays resumable" % EXIT_CHECKPOINTED)
    campaign.add_argument("--journal-fsync", type=int, default=None,
                          metavar="N",
                          help="fsync the journal every N records "
                               "(1 = every record); opt-in durability "
                               "against power loss / host SIGKILL")
    campaign.add_argument("--journal-salvage", action="store_true",
                          help="on resume, quarantine corrupt journal "
                               "lines (re-running their points) "
                               "instead of refusing the journal")
    campaign.add_argument("--full-restore", action="store_true",
                          help="rewrite every memory region between "
                               "experiments instead of only pages the "
                               "previous run dirtied (escape hatch; "
                               "outcomes are identical either way)")
    _add_obs_args(campaign)
    campaign.add_argument("--prune", action="store_true", default=False,
                          help="partition points into equivalence "
                               "classes and run one representative per "
                               "class (tables stay byte-identical to "
                               "the exhaustive sweep)")
    campaign.add_argument("--no-prune", dest="prune",
                          action="store_false",
                          help="force the exhaustive sweep (default)")
    campaign.add_argument("--audit-fraction", type=float, default=0.0,
                          metavar="F",
                          help="re-run in full a seeded fraction F "
                               "of the experiments that exited early "
                               "(and, with --prune, of the fanned-out "
                               "classes) and fail on any divergence")
    campaign.add_argument("--audit-seed", type=int, default=0,
                          help="seed for the audit sample "
                               "(default 0)")
    campaign.add_argument("--forensics", action="store_true",
                          help="capture the last-instructions ring and "
                               "a register/flags snapshot on every "
                               "SD/HANG/HF record (see the "
                               "'forensics' command)")
    campaign.set_defaults(handler=cmd_campaign)

    disasm = commands.add_parser(
        "disasm", parents=[verbosity],
        help="disassemble the authentication sections")
    _add_daemon_arg(disasm)
    disasm.add_argument("--function", default=None)
    disasm.add_argument("--branches-only", action="store_true")
    disasm.set_defaults(handler=cmd_disasm)

    table4 = commands.add_parser(
        "table4", parents=[verbosity],
        help="print the branch re-encoding table")
    table4.set_defaults(handler=cmd_table4)

    figure4 = commands.add_parser(
        "figure4", parents=[verbosity],
        help="crash-latency histogram (Figure 4)")
    _add_daemon_arg(figure4)
    figure4.add_argument("--progress", action="store_true",
                         help="log 'N / M experiments' lines as it runs")
    figure4.add_argument("--workers", type=int, default=None,
                         metavar="N",
                         help="run the campaign on a warm fleet of N "
                              "worker processes")
    _add_obs_args(figure4)
    figure4.set_defaults(handler=cmd_figure4)

    random_cmd = commands.add_parser(
        "random", parents=[verbosity],
        help="random-injection testbed (Section 7)")
    _add_daemon_arg(random_cmd)
    random_cmd.add_argument("--trials", type=int, default=1000)
    random_cmd.add_argument("--seed", type=int, default=2001)
    random_cmd.set_defaults(handler=cmd_random)

    forensics = commands.add_parser(
        "forensics", parents=[verbosity],
        help="render crash-forensics snapshots from a campaign "
             "journal")
    forensics.add_argument("journal",
                           help="JSONL journal written by 'campaign "
                                "--journal ... --forensics'")
    forensics.add_argument("--key", default=None,
                           metavar="ADDR:BYTE:BIT",
                           help="show only the record with this point "
                                "key")
    forensics.add_argument("--limit", type=int, default=10,
                           metavar="N",
                           help="show at most N snapshots (0 = all)")
    forensics.add_argument("--divergence", action="store_true",
                           help="replay each shown point and report "
                                "where it left the golden path")
    forensics.set_defaults(handler=cmd_forensics)

    serve = commands.add_parser(
        "serve", parents=[verbosity],
        help="persistent campaign service on a Unix socket (warm "
             "worker fleet; see repro.service for the protocol)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="Unix socket path (default "
                            "repro-service.sock)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="long-lived warm workers in the fleet")
    serve.add_argument("--quota", type=int, default=2, metavar="N",
                       help="max in-flight campaigns per client "
                            "connection")
    serve.add_argument("--unit-instructions", type=int,
                       default=None, metavar="K",
                       help="whole instructions per work unit")
    serve.add_argument("--session-capacity", type=int, default=64,
                       metavar="N",
                       help="per-worker breakpoint-session cache "
                            "bound (LRU)")
    serve.set_defaults(handler=cmd_serve)

    status = commands.add_parser(
        "status", parents=[verbosity],
        help="summarise a campaign journal and its shard files")
    status.add_argument("journal",
                        help="journal base path (shard files "
                             "<journal>.shardK are discovered too)")
    status.set_defaults(handler=cmd_status)

    top = commands.add_parser(
        "top", parents=[verbosity],
        help="live campaign progress view (service socket or "
             "journal)")
    top.add_argument("target",
                     help="service Unix socket (streams telemetry) "
                          "or journal base path (polls markers)")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="refresh period (default 1s)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (scripts, CI)")
    top.set_defaults(handler=cmd_top)

    report = commands.add_parser(
        "report", parents=[verbosity],
        help="self-contained HTML campaign report from a journal")
    report.add_argument("journal",
                        help="journal base path (shard files "
                             "<journal>.shardK are discovered too)")
    report.add_argument("--out", default=None, metavar="FILE",
                        help="output path (default <journal>.html)")
    report.add_argument("--events", default=None, metavar="FILE",
                        help="telemetry stream saved by campaign "
                             "--events: adds the supervision "
                             "timeline")
    report.add_argument("--profile", default=None, metavar="FILE",
                        help="profile saved by campaign --profile: "
                             "adds guest hotspot tables")
    report.set_defaults(handler=cmd_report)

    return parser


def _add_obs_args(parser):
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome-trace span file "
                             "(chrome://tracing / Perfetto); parallel "
                             "runs merge every worker's spans into "
                             "FILE")
    parser.add_argument("--metrics", default=None, metavar="FILE",
                        help="write the unified metrics registry "
                             "(outcome tallies, crash-latency "
                             "histogram, engine counters) as JSON")
    parser.add_argument("--events", default=None, metavar="FILE",
                        help="write the campaign's whole telemetry "
                             "event stream (unit/worker/outcome "
                             "milestones) as JSONL, one line per "
                             "event as it is emitted; replayable by "
                             "'repro report --events'")
    parser.add_argument("--profile", default=None, metavar="FILE",
                        help="write a deterministic guest-EIP "
                             "sampling profile as JSON (implies the "
                             "default --sample-period)")
    parser.add_argument("--sample-period", type=int, default=None,
                        metavar="N",
                        help="sample the guest EIP every N retired "
                             "instructions (default 997 when "
                             "--profile is set)")


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    # ``python -m repro --daemon pop3d --fault-model register-bit``:
    # option-first invocations implicitly mean "campaign".
    if argv and argv[0].startswith("-") and argv[0] not in ("-h",
                                                            "--help"):
        argv = ["campaign"] + argv
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(getattr(args, "verbose", 0)
                      - getattr(args, "quiet", 0))
    try:
        return args.handler(args, out)
    except CampaignInterrupted as interrupted:
        out.write("%s\n" % interrupted)
        out.write("hint: %s\n" % interrupted.resume_hint())
        return EXIT_CHECKPOINTED
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); exit quietly.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
