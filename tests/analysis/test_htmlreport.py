"""HTML campaign report: sections, escaping, self-containment."""

from __future__ import annotations

import json

import pytest

from repro.analysis.htmlreport import (build_html_report,
                                       write_html_report)
from repro.analysis.report import build_pruning_report
from repro.analysis.serialize import result_to_dict
from repro.injection import InjectionPoint, InjectionResult, run_campaign


def _result_line(index, outcome, latency, class_id=None,
                 representative=None):
    """One journal result line, as the runner writes it."""
    point = InjectionPoint(instruction_address=0x8048000, byte_offset=1,
                           bit=index, instruction_length=2,
                           mnemonic="jz", opcode=0x74,
                           kind="cond_branch")
    result = InjectionResult(point=point, location="2BC",
                             outcome=outcome, activated=outcome != "NA",
                             crash_latency=latency, class_id=class_id,
                             representative=representative)
    return {"type": "result", "key": point.key, **result_to_dict(result)}


@pytest.fixture
def journal(tmp_path):
    path = tmp_path / "run.jsonl"
    lines = [{"type": "meta", "schema": 8, "daemon": "FtpDaemon",
              "client": "Client1", "encoding": "old"}]
    outcomes = (("NA", None), ("NA", None), ("SD", 12), ("SD", 900),
                ("FSV", None), ("BRK", None))
    for index, (outcome, latency) in enumerate(outcomes):
        # the first two records form one class: the representative's
        # key is stamped on both, as the runner's fan-out does
        classed = ({"class_id": "dead:8048000",
                    "representative": "8048000:1:0"}
                   if index < 2 else {})
        lines.append(_result_line(index, outcome, latency, **classed))
    lines.append({"type": "unit", "unit": "u0", "status": "started",
                  "records": 0, "total": 6, "ts": 1.0})
    lines.append({"type": "unit", "unit": "u0", "status": "done",
                  "records": 6, "total": 6, "ts": 2.0})
    path.write_text("".join(json.dumps(line) + "\n"
                            for line in lines))
    return str(path)


def _pruning_rows(html):
    """The counts of the pruning table, by row label."""
    rows = {}
    for label in ("in multi-member classes", "executed representatives",
                  "synthesized members"):
        cell = html.split("<td class='label'>%s</td><td>" % label)[1]
        rows[label] = int(cell.split("<")[0])
    return rows


class TestBuild:
    def test_core_sections_render(self, journal):
        html = build_html_report(journal, generated="2001-06-01")
        assert html.startswith("<!DOCTYPE html>")
        assert "FtpDaemon Client1 (old encoding)" in html
        assert "Outcome distribution" in html
        assert "BRK+FSV by location" in html
        assert "Crash latency (Figure 4)" in html
        assert "Pruning" in html
        assert "Work units" in html
        # optional sections stay out unless their artifact is given
        assert "Supervision timeline" not in html
        assert "Guest hotspots" not in html

    def test_outcome_counts_and_quarantine_note(self, journal):
        html = build_html_report(journal)
        assert "<td>2</td>" in html           # two NA records
        assert "quarantined" not in html      # none in this journal

    def test_latency_section_uses_sd_records(self, journal):
        html = build_html_report(journal)
        assert "2 SD crash(es)" in html

    def test_pruning_stats(self, journal):
        html = build_html_report(journal)
        assert _pruning_rows(html) == {"in multi-member classes": 2,
                                       "executed representatives": 1,
                                       "synthesized members": 1}

    def test_pruning_stats_of_a_real_pruned_journal(self, ftp_daemon,
                                                    tmp_path):
        """Fan-out stamps the representative's key on every member of
        a class, so only the record whose own key it is was run."""
        from repro.apps.ftpd import client1
        path = tmp_path / "pruned.jsonl"
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=200, prune=True,
                                journal=str(path))
        report = build_pruning_report(campaign)
        assert report["fanned_out"] > 0
        rows = _pruning_rows(build_html_report(str(path)))
        classed = rows["in multi-member classes"]
        assert rows["synthesized members"] == report["fanned_out"]
        assert rows["executed representatives"] \
            == classed - report["fanned_out"]
        assert rows["executed representatives"] == len(
            {result.class_id for result in campaign.results
             if result.class_id is not None})

    def test_event_stream_adds_timeline(self, journal):
        events = [{"seq": 0, "type": "golden", "campaign": "c0",
                   "ts": 10.0, "reused": False},
                  {"seq": 1, "type": "campaign-started",
                   "campaign": "c0", "ts": 10.5, "points": 6},
                  {"seq": 2, "type": "worker-respawn",
                   "campaign": None, "ts": 11.0, "worker": 1}]
        html = build_html_report(journal, events=events)
        assert "Supervision timeline" in html
        assert "worker-respawn" in html

    def test_profile_adds_hotspots_without_module(self, journal):
        profile = {"schema": 1, "period": 997,
                   "samples": {"experiment": {"0x1000": 5}},
                   "volatile": {"host_seconds": {"restore": 0.25}}}
        html = build_html_report(journal, profile=profile)
        assert "Guest hotspots" in html
        assert "0x1000" in html
        assert "Host phases" in html

    def test_is_self_contained(self, journal):
        html = build_html_report(journal)
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html

    def test_title_is_escaped(self, journal):
        html = build_html_report(journal, title="<x>&amp")
        assert "<x>" not in html
        assert "&lt;x&gt;" in html

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_html_report(str(tmp_path / "absent.jsonl"))


class TestWrite:
    def test_write_loads_side_artifacts(self, journal, tmp_path):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(json.dumps(
            {"seq": 0, "type": "campaign-finished", "campaign": "c0",
             "ts": 1.0, "counts": {"NA": 2}}) + "\n")
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps(
            {"schema": 1, "period": 3,
             "samples": {"experiment": {"0x10": 1}},
             "volatile": {"host_seconds": {}}}))
        output = tmp_path / "report.html"
        returned = write_html_report(str(output), journal,
                                     events_path=str(events_path),
                                     profile_path=str(profile_path))
        assert returned == str(output)
        html = output.read_text()
        assert "Supervision timeline" in html
        assert "Guest hotspots" in html
