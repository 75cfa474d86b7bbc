"""Self-contained HTML campaign report (``repro report``).

One journal (plus its ``.shardK`` files) in, one HTML file out: the
outcome distribution with percentages, the BRK+FSV location
breakdown, the Figure 4 crash-latency histogram, pruning statistics,
optional guest hotspots (from a ``--profile`` file) and an optional
supervision timeline (from an ``--events`` file).  The output embeds
its CSS and uses no scripts or external assets, so it can be attached
to a CI run or mailed around as a single artifact.

The journal family loads as a
:class:`~repro.injection.campaign.CampaignResult`, and every section
is one of its ordinary views (``counts``, ``by_location``,
``crash_latencies``, :func:`~repro.analysis.report.build_pruning_report`)
-- the report never re-runs experiments and never touches the
deterministic metrics core.
"""

from __future__ import annotations

import html
import os
import time

from ..injection.outcomes import OUTCOME_ORDER

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 60em; color: #1a1a2e; }
h1 { border-bottom: 2px solid #1a1a2e; padding-bottom: .2em; }
h2 { margin-top: 1.6em; }
table { border-collapse: collapse; margin: .8em 0; }
th, td { border: 1px solid #bbb; padding: .25em .7em;
         text-align: right; }
th { background: #eef; }
td.label, th.label { text-align: left; }
.bar { background: #4a6fa5; display: inline-block; height: .8em; }
.muted { color: #777; font-size: .9em; }
pre { background: #f4f4f8; padding: .8em; overflow-x: auto; }
"""


def _load_journal(journal):
    """Meta, campaign and unit markers of a base journal path and its
    shard files (a salvage load: unreadable lines are skipped)."""
    from ..injection.runner import JournalFamily
    from .serialize import campaign_from_family
    family = JournalFamily.load(journal, strict=False)
    if not family.members:
        raise FileNotFoundError("no journal at %s (or %s.shard*)"
                                % (journal, journal))
    metas = family.metas
    return (metas[0] if metas else None, campaign_from_family(family),
            family.units)


def _outcome_section(campaign):
    tally = {outcome: count
             for outcome, count in campaign.counts(refined=True).items()
             if count}
    total = sum(tally.values())
    rows = []
    peak = max(tally.values()) if tally else 1
    for outcome in OUTCOME_ORDER:
        count = tally.get(outcome)
        if not count:
            continue
        pct = 100.0 * count / total
        width = int(round(240.0 * count / peak))
        rows.append(
            "<tr><td class='label'>%s</td><td>%d</td>"
            "<td>%.1f%%</td><td class='label'>"
            "<span class='bar' style='width:%dpx'></span></td></tr>"
            % (html.escape(outcome), count, pct, width))
    quarantined = campaign.quarantined_count
    note = ("<p class='muted'>%d quarantined point(s) excluded from "
            "percentages.</p>" % quarantined if quarantined else "")
    return ("<h2>Outcome distribution</h2>"
            "<table><tr><th class='label'>outcome</th><th>count</th>"
            "<th>share</th><th class='label'></th></tr>%s</table>%s"
            % ("".join(rows), note))


def _location_section(campaign):
    tally = campaign.by_location()
    if not tally:
        return ("<h2>BRK+FSV by location</h2>"
                "<p class='muted'>no BRK/FSV/HANG records.</p>")
    total = sum(tally.values())
    rows = "".join(
        "<tr><td class='label'>%s</td><td>%d</td><td>%.1f%%</td></tr>"
        % (html.escape(str(location)), count, 100.0 * count / total)
        for location, count in sorted(tally.items(),
                                      key=lambda kv: (-kv[1], kv[0])))
    return ("<h2>BRK+FSV by location</h2>"
            "<table><tr><th class='label'>location</th><th>count</th>"
            "<th>share</th></tr>%s</table>" % rows)


def _latency_section(campaign):
    from .histogram import build_histogram
    latencies = campaign.crash_latencies()
    if not latencies:
        return ("<h2>Crash latency (Figure 4)</h2>"
                "<p class='muted'>no SD records with a latency.</p>")
    histogram = build_histogram(latencies)
    peak = max(histogram.bins) if histogram.bins else 1
    rows = []
    for index, count in enumerate(histogram.bins):
        low = 1 if index == 0 else (1 << (index - 1)) + 1
        high = 1 << index
        width = int(round(240.0 * count / peak))
        rows.append(
            "<tr><td class='label'>%d..%d</td><td>%d</td>"
            "<td class='label'>"
            "<span class='bar' style='width:%dpx'></span></td></tr>"
            % (low, high, count, width))
    return ("<h2>Crash latency (Figure 4)</h2>"
            "<p class='muted'>instructions between activation and "
            "crash, log2 bins; %d SD crash(es), median %d.</p>"
            "<table><tr><th class='label'>instructions</th>"
            "<th>count</th><th class='label'></th></tr>%s</table>"
            % (len(latencies),
               histogram.latencies[len(histogram.latencies) // 2],
               "".join(rows)))


def _pruning_section(campaign):
    from ..injection.pruning import PRUNE_SOLO
    from .report import build_pruning_report
    report = build_pruning_report(campaign)
    classed = report["points"] - report["kinds"][PRUNE_SOLO]["members"]
    if not classed:
        return ("<h2>Pruning</h2><p class='muted'>exhaustive sweep "
                "(no equivalence-class records).</p>")
    synthesized = report["fanned_out"]
    return ("<h2>Pruning</h2>"
            "<table><tr><th class='label'>records</th><th>count</th>"
            "</tr>"
            "<tr><td class='label'>in multi-member classes</td>"
            "<td>%d</td></tr>"
            "<tr><td class='label'>executed representatives</td>"
            "<td>%d</td></tr>"
            "<tr><td class='label'>synthesized members</td>"
            "<td>%d</td></tr></table>"
            "<p class='muted'>%.1f%% of classed records were "
            "synthesized from their representative.</p>"
            % (classed, classed - synthesized, synthesized,
               100.0 * synthesized / classed))


def _hotspot_section(profile, module):
    from ..obs.sampler import resolve_samples
    samples = profile.get("samples") or {}
    parts = ["<h2>Guest hotspots</h2>",
             "<p class='muted'>deterministic EIP samples, period %d "
             "retired instruction(s).</p>"
             % profile.get("period", 0)]
    if not samples:
        parts.append("<p class='muted'>profile holds no samples.</p>")
    for phase in sorted(samples):
        counts = {int(eip_hex, 16): count
                  for eip_hex, count in samples[phase].items()}
        total = sum(counts.values())
        parts.append("<h3>%s (%d sample(s))</h3>"
                     % (html.escape(phase), total))
        if module is not None:
            rows = "".join(
                "<tr><td class='label'>%s</td><td>%d</td>"
                "<td>%.1f%%</td></tr>"
                % (html.escape(name), count, 100.0 * count / total)
                for name, count, __ in resolve_samples(
                    counts, module)[:12])
            parts.append(
                "<table><tr><th class='label'>function</th>"
                "<th>samples</th><th>share</th></tr>%s</table>" % rows)
        else:
            rows = "".join(
                "<tr><td class='label'>0x%x</td><td>%d</td></tr>"
                % (eip, count)
                for eip, count in sorted(counts.items(),
                                         key=lambda kv:
                                         (-kv[1], kv[0]))[:12])
            parts.append(
                "<table><tr><th class='label'>eip</th>"
                "<th>samples</th></tr>%s</table>"
                "<p class='muted'>(no module map available; raw "
                "addresses)</p>" % rows)
    volatile = (profile.get("volatile") or {}).get("host_seconds")
    if volatile:
        rows = "".join(
            "<tr><td class='label'>%s</td><td>%.3f</td></tr>"
            % (html.escape(name), seconds)
            for name, seconds in sorted(volatile.items()))
        parts.append("<h3>Host phases (wall seconds, volatile)</h3>"
                     "<table><tr><th class='label'>phase</th>"
                     "<th>seconds</th></tr>%s</table>" % rows)
    return "".join(parts)


_TIMELINE_TYPES = ("golden", "campaign-started", "worker-respawn",
                   "worker-backoff", "worker-retired", "checkpoint",
                   "campaign-finished")


def _timeline_section(events):
    shown = [event for event in events
             if event.get("type") in _TIMELINE_TYPES]
    if not shown:
        return ("<h2>Supervision timeline</h2><p class='muted'>no "
                "supervision events in the stream.</p>")
    base = min(event.get("ts", 0) for event in shown)
    rows = []
    for event in shown:
        detail = {key: value for key, value in event.items()
                  if key not in ("seq", "type", "campaign", "ts")}
        rows.append(
            "<tr><td>%+.2fs</td><td class='label'>%s</td>"
            "<td class='label'>%s</td><td class='label'>%s</td></tr>"
            % (event.get("ts", base) - base,
               html.escape(str(event.get("campaign"))),
               html.escape(str(event.get("type"))),
               html.escape(", ".join(
                   "%s=%s" % (key, value)
                   for key, value in sorted(detail.items())))))
    return ("<h2>Supervision timeline</h2>"
            "<table><tr><th>t</th><th class='label'>campaign</th>"
            "<th class='label'>event</th><th class='label'>detail"
            "</th></tr>%s</table>" % "".join(rows))


def _progress_section(units):
    from ..obs.top import format_eta, unit_progress
    if not units:
        return ""
    in_flight, done, total, first_ts, last_ts = unit_progress(units)
    parts = ["<h2>Work units</h2>",
             "<p>%d completed unit(s)" % done]
    if in_flight:
        parts.append(", %d still in flight (%s)"
                     % (len(in_flight),
                        html.escape(", ".join(
                            str(marker.get("unit"))
                            for marker in in_flight[:6]))))
    parts.append(".</p>")
    if first_ts is not None and last_ts is not None \
            and last_ts > first_ts:
        parts.append("<p class='muted'>marker window %s.</p>"
                     % format_eta(last_ts - first_ts))
    return "".join(parts)


def build_html_report(journal, events=None, profile=None, module=None,
                      title=None, generated=None):
    """The report as one HTML string.

    *events* is an event list (:func:`repro.obs.events
    .load_event_stream`), *profile* a profile dict
    (:func:`repro.obs.sampler.load_profile`) and *module* the compiled
    program module used to symbolize hotspots -- all optional.
    """
    meta, campaign, units = _load_journal(journal)
    if title is None:
        if meta is not None:
            title = "%s %s (%s encoding)" % (meta.get("daemon"),
                                             meta.get("client"),
                                             meta.get("encoding"))
        else:
            title = os.path.basename(str(journal))
    generated = (time.strftime("%Y-%m-%d %H:%M:%S")
                 if generated is None else generated)
    sections = [
        "<h1>%s</h1>" % html.escape(title),
        "<p class='muted'>campaign report generated %s from %s "
        "(%d record(s)).</p>"
        % (html.escape(generated), html.escape(str(journal)),
           campaign.total_runs),
        _outcome_section(campaign),
        _location_section(campaign),
        _latency_section(campaign),
        _pruning_section(campaign),
    ]
    if profile is not None:
        sections.append(_hotspot_section(profile, module))
    if events is not None:
        sections.append(_timeline_section(events))
    sections.append(_progress_section(units))
    return ("<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
            "<title>%s</title><style>%s</style></head>\n<body>\n"
            "%s\n</body></html>\n"
            % (html.escape(title), _STYLE, "\n".join(sections)))


def write_html_report(path, journal, events_path=None,
                      profile_path=None, module=None, title=None):
    """Build and write the report; returns *path*.

    Convenience wrapper loading the optional events / profile
    artifacts from disk (the CLI's entry point).
    """
    events = profile = None
    if events_path is not None:
        from ..obs.events import load_event_stream
        events = load_event_stream(events_path)
    if profile_path is not None:
        from ..obs.sampler import load_profile
        profile = load_profile(profile_path)
    content = build_html_report(journal, events=events,
                                profile=profile, module=module,
                                title=title)
    with open(path, "w") as handle:
        handle.write(content)
    return path
