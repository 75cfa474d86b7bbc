"""Command-line interface."""

from __future__ import annotations

import io

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestTable4Command:
    def test_prints_mapping(self):
        code, text = run_cli("table4")
        assert code == 0
        assert "JNE" in text
        assert "old=1 new=2" in text


class TestDisasmCommand:
    def test_default_functions(self):
        code, text = run_cli("disasm", "--app", "ftpd")
        assert code == 0
        assert "user:" in text
        assert "pass_:" in text
        assert "injection targets:" in text

    def test_single_function_branches_only(self):
        code, text = run_cli("disasm", "--app", "sshd",
                             "--function", "auth_password",
                             "--branches-only")
        assert code == 0
        assert "auth_password:" in text
        # branches-only listings contain jumps but no mov
        assert "\tmov" not in text

    def test_unknown_function_raises(self):
        with pytest.raises(KeyError):
            run_cli("disasm", "--function", "nonexistent")


class TestCampaignCommand:
    def test_smoke_campaign(self):
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--client", "Client1",
                             "--max-points", "80")
        assert code == 0
        assert "NA" in text and "BRK" in text
        assert "2BC" in text

    def test_new_encoding(self):
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--client", "Client1",
                             "--encoding", "new",
                             "--max-points", "80")
        assert code == 0
        assert "new encoding" in text

    def test_unknown_client(self):
        with pytest.raises(SystemExit):
            run_cli("campaign", "--client", "Client9")

    def test_journal_and_resume(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40",
                             "--journal", journal)
        assert code == 0
        assert journal in text
        with open(journal) as handle:
            complete = sum(1 for line in handle)
        assert complete == 41  # meta + one record per experiment
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40",
                             "--journal", journal, "--resume")
        assert code == 0
        with open(journal) as handle:
            assert sum(1 for line in handle) == complete

    def test_retries_flag(self):
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "24", "--retries", "1")
        assert code == 0
        assert "quarantined" not in text

    def test_daemon_flag_reaches_pop3d(self):
        code, text = run_cli("campaign", "--daemon", "pop3d",
                             "--max-points", "24")
        assert code == 0
        assert "pop3d Client1 (old encoding)" in text
        assert "POP3 Client1" in text

    def test_fault_model_flag(self):
        code, text = run_cli("campaign", "--daemon", "ftpd",
                             "--fault-model", "register-bit",
                             "--max-points", "24")
        assert code == 0
        assert "register-bit faults" in text

    def test_implicit_campaign_command(self, tmp_path):
        """``python -m repro --daemon pop3d --fault-model
        register-bit`` means ``campaign`` (the PR's acceptance
        invocation), journaled and resumable."""
        journal = str(tmp_path / "imp.jsonl")
        code, text = run_cli("--daemon", "pop3d",
                             "--fault-model", "register-bit",
                             "--max-points", "16",
                             "--journal", journal, "--resume")
        assert code == 0
        assert "register-bit faults" in text
        with open(journal) as handle:
            assert sum(1 for line in handle) == 17
        code, __ = run_cli("--daemon", "pop3d",
                           "--fault-model", "register-bit",
                           "--max-points", "16",
                           "--journal", journal, "--resume")
        assert code == 0


class TestObservabilityFlags:
    def test_trace_and_metrics_sinks(self, tmp_path):
        import json
        trace = str(tmp_path / "trace.json")
        metrics = str(tmp_path / "metrics.json")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40",
                             "--trace", trace, "--metrics", metrics)
        assert code == 0
        assert trace in text and metrics in text
        with open(trace) as handle:
            events = json.load(handle)["traceEvents"]
        assert any(event["name"] == "campaign" for event in events)
        with open(metrics) as handle:
            registry = json.load(handle)
        assert registry["counters"]["experiments"] == 40

    def test_forensics_flag_prints_section(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "60",
                             "--journal", journal, "--forensics")
        assert code == 0
        assert "Crash forensics" in text
        assert "last" in text and "instruction" in text
        # forensics never changes the journal's record count
        with open(journal) as handle:
            assert sum(1 for line in handle) == 61


class TestResilienceFlags:
    def test_deadline_checkpoint_exits_75_and_resumes(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40",
                             "--journal", journal,
                             "--deadline", "0.0")
        assert code == 75
        assert "checkpointed (deadline)" in text
        assert "--resume" in text and journal in text
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40",
                             "--journal", journal, "--resume")
        assert code == 0
        assert "Total" in text

    def test_serial_resume_of_a_fleet_checkpoint_leaves_no_unit_in_flight(
            self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd", "--workers", "2",
                           "--max-points", "48", "--journal", journal,
                           "--deadline", "0.0")
        assert code == 75
        code, text = run_cli("status", journal)
        assert "in flight" in text
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "48", "--journal", journal,
                           "--resume")
        assert code == 0
        code, text = run_cli("status", journal)
        assert code == 0
        assert "48/48" in text
        assert "in flight" not in text
        assert "0 completed" in text

    def test_journal_fsync_flag(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40",
                           "--journal", journal,
                           "--journal-fsync", "2")
        assert code == 0
        with open(journal) as handle:
            assert sum(1 for line in handle) == 41

    def test_journal_salvage_flag(self, tmp_path):
        from repro.injection import corrupt_journal_tail, JournalError
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40",
                           "--journal", journal)
        assert code == 0
        corrupt_journal_tail(journal, mode="garbage-line", seed=1)
        with pytest.raises(JournalError):
            run_cli("campaign", "--app", "ftpd",
                    "--max-points", "40",
                    "--journal", journal, "--resume")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40",
                             "--journal", journal, "--resume",
                             "--journal-salvage")
        assert code == 0
        assert "Total" in text

    def test_parser_accepts_resilience_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["campaign", "--deadline", "3600",
             "--journal-fsync", "8", "--journal-salvage"])
        assert args.deadline == 3600.0
        assert args.journal_fsync == 8
        assert args.journal_salvage is True


class TestForensicsCommand:
    def test_renders_journaled_snapshots(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "60",
                           "--journal", journal, "--forensics")
        assert code == 0
        code, text = run_cli("forensics", journal, "--limit", "2")
        assert code == 0
        assert "snapshot(s)" in text
        assert "final state: eip=0x" in text
        assert "eflags=0x" in text

    def test_reads_a_fleet_journal(self, tmp_path):
        # a fleet run keeps its records, snapshots included, in the
        # .shardK files; the base file holds unit markers only
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "60", "--workers", "2",
                           "--journal", journal, "--forensics")
        assert code == 0
        code, text = run_cli("forensics", journal, "--limit", "1")
        assert code == 0
        assert "final state: eip=0x" in text

    def test_divergence_replay(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_cli("campaign", "--app", "ftpd", "--max-points", "60",
                "--journal", journal, "--forensics")
        code, text = run_cli("forensics", journal, "--limit", "1",
                             "--divergence")
        assert code == 0
        assert "propagation report" in text
        assert "diverged" in text

    def test_journal_without_snapshots(self, tmp_path):
        journal = str(tmp_path / "bare.jsonl")
        run_cli("campaign", "--app", "ftpd", "--max-points", "24",
                "--journal", journal)
        code, text = run_cli("forensics", journal)
        assert code == 1
        assert "no forensics snapshots" in text

    def test_unknown_key_rejected(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_cli("campaign", "--app", "ftpd", "--max-points", "60",
                "--journal", journal, "--forensics")
        with pytest.raises(SystemExit):
            run_cli("forensics", journal, "--key", "dead:0:0")


class TestRandomCommand:
    def test_small_sample(self):
        code, text = run_cli("random", "--trials", "60", "--seed", "3")
        assert code == 0
        assert "trials: 60" in text


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--app", "telnetd"])

    def test_app_alias_still_parses(self):
        args = build_parser().parse_args(["campaign", "--app", "sshd"])
        assert args.daemon == "sshd"

    def test_every_registered_daemon_is_a_choice(self):
        for daemon in ("ftpd", "pop3d", "sshd"):
            args = build_parser().parse_args(["disasm", "--daemon",
                                              daemon])
            assert args.daemon == daemon

    def test_rejects_unknown_fault_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--fault-model",
                                       "cosmic-ray"])


class TestWorkersFlag:
    def test_fleet_path_matches_serial_table(self):
        # only the runtime summary (wall clock, worker count, parent
        # syscall tally) may differ; every table line is byte-equal
        def tables(text):
            return [line for line in text.splitlines()
                    if not line.startswith(("timing:", "engine:"))]

        serial_code, serial_text = run_cli(
            "campaign", "--app", "ftpd", "--client", "Client1",
            "--max-points", "80")
        fleet_code, fleet_text = run_cli(
            "campaign", "--app", "ftpd", "--client", "Client1",
            "--max-points", "80", "--workers", "2")
        assert serial_code == fleet_code == 0
        assert tables(fleet_text) == tables(serial_text)
        assert "2 workers" in fleet_text

    def test_journal_line_lists_inline_fallback_file(self, tmp_path,
                                                     monkeypatch):
        # every worker dies during set-up, so the parent finishes the
        # campaign inline into <journal>.shard{workers+1}; the journal
        # line must name the files that actually exist, that one too
        from repro.injection import fleet, JournalFamily

        def exploding_worker_main(*args, **kwargs):
            raise RuntimeError("synthetic worker set-up fault")

        monkeypatch.setattr(fleet, "_fleet_worker_main",
                            exploding_worker_main)
        journal = str(tmp_path / "run.jsonl")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40", "--journal", journal,
                             "--workers", "2")
        assert code == 0
        (line,) = [line for line in text.splitlines()
                   if line.startswith("journal: ")]
        listed = line[len("journal: "):].split(", ")
        assert listed == JournalFamily.paths(journal)
        assert journal + ".shard3" in listed
        assert journal + ".shard0" not in listed


class TestStatusCommand:
    def test_reports_fleet_shard_journals(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40",
                           "--journal", journal, "--workers", "2")
        assert code == 0
        code, text = run_cli("status", journal)
        assert code == 0
        assert ".shard" in text
        assert "work units:" in text
        assert "40 completed point(s)" in text
        assert "resume with: repro campaign --journal %s --resume" \
            % journal in text

    def test_fleet_progress_line_is_the_top_fold(self, tmp_path):
        # a fleet journal with a unit in flight: the parent's last
        # "done" marker and the unit's last journaled result are gone,
        # as if the worker were still running it.  ``status`` must
        # report what ``top <journal>`` folds from the same files.
        import json
        import pathlib

        from repro.injection import JournalFamily
        from repro.obs.top import format_eta, view_from_journals
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40",
                           "--journal", journal, "--workers", "2")
        assert code == 0

        def drop_last(path, kind, status=None):
            lines = pathlib.Path(path).read_text().splitlines(True)
            for index in reversed(range(len(lines))):
                record = json.loads(lines[index])
                if record.get("type") == kind and (
                        status is None or record.get("status") == status):
                    del lines[index]
                    break
            pathlib.Path(path).write_text("".join(lines))

        drop_last(journal, "unit", status="done")
        drop_last(JournalFamily.paths(journal)[-1], "result")
        view = view_from_journals(journal)
        assert len(view.in_flight) == 1
        assert (view.completed, view.points) == (39, 40)
        code, text = run_cli("status", journal)
        assert code == 0
        assert "1 in flight" in text
        (line,) = [line for line in text.splitlines()
                   if line.startswith("progress: ")]
        expected = "progress: 39/40 point(s) (98%)"
        eta = view.eta_seconds()
        if eta:
            expected += (", eta %s at the journaled rate"
                         % format_eta(eta))
        assert line == expected
        # the work-units line of ``status`` and section of ``report``
        # read the same view
        shown = ", ".join(str(unit) for unit in view.in_flight)
        assert ("  work units: %d completed, 1 in flight (%s)"
                % (view.units_done, shown)) in text.splitlines()
        report = str(tmp_path / "report.html")
        assert run_cli("report", journal, "--out", report)[0] == 0
        assert ("<p>%d completed unit(s), 1 still in flight (%s).</p>"
                % (view.units_done, shown)
                in pathlib.Path(report).read_text())

    def test_reports_serial_journal(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40",
                           "--journal", journal)
        assert code == 0
        code, text = run_cli("status", journal)
        assert code == 0
        assert "campaign: FtpDaemon Client1" in text
        assert "results: 40   quarantined: 0" in text

    def test_flags_damage_as_salvageable(self, tmp_path):
        from repro.injection import corrupt_journal_tail
        journal = str(tmp_path / "run.jsonl")
        run_cli("campaign", "--app", "ftpd", "--max-points", "40",
                "--journal", journal)
        corrupt_journal_tail(journal, mode="garbage-line", seed=1)
        code, text = run_cli("status", journal)
        assert code == 0
        assert "damage:" in text
        assert "--journal-salvage" in text

    def test_missing_journal_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("status", str(tmp_path / "absent.jsonl"))


class TestTelemetryFlags:
    def test_campaign_writes_events_and_profile(self, tmp_path):
        events = str(tmp_path / "run.events")
        profile = str(tmp_path / "run.profile")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40",
                             "--events", events,
                             "--profile", profile)
        assert code == 0
        assert "events: %s" % events in text
        assert "guest hotspots" in text
        from repro.obs import check_contiguous, load_event_stream
        stream = load_event_stream(events)
        assert check_contiguous(stream) == []
        assert stream[-1]["type"] == "campaign-finished"
        from repro.obs import load_profile
        assert load_profile(profile)["samples"]["experiment"]

    def test_fleet_path_writes_the_same_artifacts(self, tmp_path):
        events = str(tmp_path / "run.events")
        profile = str(tmp_path / "run.profile")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40", "--workers", "2",
                             "--events", events,
                             "--profile", profile)
        assert code == 0
        from repro.obs import check_contiguous, load_event_stream
        stream = load_event_stream(events)
        assert check_contiguous(stream) == []
        kinds = [event["type"] for event in stream]
        assert "unit-started" in kinds
        assert "unit-finished" in kinds

    def test_events_file_holds_the_whole_stream(self, tmp_path,
                                                monkeypatch):
        # the bus keeps only a bounded ring of recent events; the
        # --events file must still hold every event the run emitted
        # (a ring small enough for a 40-point smoke run stands in for
        # the 4,096-event ring of a full register-bit cell)
        from functools import partial

        from repro.obs import events as events_module
        from repro.obs import fold_events, load_event_stream
        monkeypatch.setattr(events_module, "EventBus",
                            partial(events_module.EventBus, capacity=16))
        events = str(tmp_path / "run.events")
        code, text = run_cli("campaign", "--app", "ftpd",
                             "--max-points", "40", "--events", events)
        assert code == 0
        stream = load_event_stream(events)
        # golden, campaign-started, one outcomes per point, finished
        assert [event["seq"] for event in stream] == list(range(43))
        assert [event["type"] for event in stream[:2]] \
            == ["golden", "campaign-started"]
        assert stream[-1]["type"] == "campaign-finished"
        assert "events: %s (43 event(s))" % events in text
        (view,) = fold_events(stream).values()
        assert view.points == 40 and view.completed == 40

    @pytest.mark.parametrize("workers", [[], ["--workers", "2"]],
                             ids=["serial", "workers2"])
    def test_progress_prints_the_final_line(self, capsys, workers):
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40", "--progress",
                           *workers)
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert "  ... 40 / 40 experiments" in lines

    # both engines close the campaign through one merge
    @pytest.mark.parametrize("workers,phases", [
        ([], {"experiment", "golden-run", "merge", "restore"}),
        (["--workers", "2"], {"experiment", "golden-run", "merge",
                              "restore"}),
    ], ids=["serial", "workers2"])
    def test_profile_host_seconds_are_the_trace_spans(self, tmp_path,
                                                      workers, phases):
        # one clock: the profile's host seconds are the trace's span
        # totals, not a second timer around the same intervals
        from repro.obs import load_profile
        from repro.obs.trace import load_trace_file
        trace = str(tmp_path / "run.trace.json")
        profile = str(tmp_path / "run.profile")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--client", "Client1", "--max-points", "200",
                           "--trace", trace, "--profile", profile,
                           *workers)
        assert code == 0
        host_seconds = load_profile(profile)["volatile"]["host_seconds"]
        assert set(host_seconds) == phases
        totals = {}
        for event in load_trace_file(trace):
            if event["ph"] == "X":
                totals[event["name"]] = (totals.get(event["name"], 0)
                                         + event["dur"])
        for name, seconds in host_seconds.items():
            assert seconds == pytest.approx(totals[name] / 1e6,
                                            abs=1e-6), name

    def test_sample_period_parses(self):
        args = build_parser().parse_args(
            ["campaign", "--sample-period", "499"])
        assert args.sample_period == 499


class TestTopCommand:
    def test_journal_mode_renders_once(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40",
                           "--journal", journal, "--workers", "2")
        assert code == 0
        code, text = run_cli("top", journal, "--once")
        assert code == 0
        assert "repro top" in text
        assert "100.0%" in text
        assert "40/40 experiments" in text

    def test_missing_target_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("top", str(tmp_path / "absent.jsonl"), "--once")


class TestReportCommand:
    def test_report_from_fleet_journal(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        events = str(tmp_path / "run.events")
        profile = str(tmp_path / "run.profile")
        code, __ = run_cli("campaign", "--app", "ftpd",
                           "--max-points", "40", "--workers", "2",
                           "--journal", journal,
                           "--events", events, "--profile", profile)
        assert code == 0
        output = str(tmp_path / "report.html")
        code, text = run_cli("report", journal, "--out", output,
                             "--events", events,
                             "--profile", profile)
        assert code == 0
        assert "report: %s" % output in text
        import pathlib
        html = pathlib.Path(output).read_text()
        assert "Outcome distribution" in html
        assert "Guest hotspots" in html
        assert "Supervision timeline" in html
        # the profile symbolized against the journal's daemon
        assert "strlen" in html or "main" in html

    def test_default_output_path(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        run_cli("campaign", "--app", "ftpd", "--max-points", "40",
                "--journal", journal)
        code, text = run_cli("report", journal)
        assert code == 0
        assert journal + ".html" in text

    def test_missing_journal_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("report", str(tmp_path / "absent.jsonl"))


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workers == 2
        assert args.quota == 2
        assert args.session_capacity == 64
        assert args.unit_instructions is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--socket", "/tmp/x.sock", "--workers", "4",
             "--quota", "1", "--unit-instructions", "2",
             "--session-capacity", "16"])
        assert args.socket == "/tmp/x.sock"
        assert args.workers == 4
        assert args.quota == 1
        assert args.unit_instructions == 2
        assert args.session_capacity == 16

    def test_status_requires_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["status"])
