"""Live campaign progress views: the model behind ``repro top``.

:meth:`CampaignView.apply` is the one reducer of campaign progress.
It folds telemetry events (a service ``subscribe`` stream or a saved
``--events`` file) and journal records (results, quarantined points
and the schema-v8 unit markers) alike; everything else only feeds it:

* :func:`fold_events` splits an event sequence by campaign;
* :func:`view_from_journals` feeds a journal family offline;
* the ``--progress`` log lines, ``repro status`` and ``repro
  report``'s work-units section read the views it builds.

A finished campaign's ``campaign-finished`` event carries its refined
tally, which replaces whatever the view folded before, so every view
of a finished campaign ends at exactly that tally -- also a late
subscriber's, which missed the earlier events.

:func:`render_top` turns the state into one text frame -- progress
bar, outcome tallies, per-shard throughput, worker health, ETA --
used verbatim by ``repro top`` (both socket and journal modes).

Everything here is read-only over volatile data (timestamps, rates):
nothing feeds back into the deterministic metrics core.
"""

from __future__ import annotations

import time

from ..injection.outcomes import OUTCOME_ORDER

#: record type -> unit status; a journal ``unit`` marker carries its
#: own (none for a completion marker).
_UNIT_STATUS = {"unit-started": "started", "unit-finished": "done",
                "unit": None}


class CampaignView:
    """Mutable per-campaign progress state (one box in the frame)."""

    def __init__(self, campaign=None):
        self.campaign = campaign
        self.points = None            # total experiments, when known
        self.outcomes = {}            # outcome -> count
        self.quarantined = 0
        self.in_flight = {}           # unit id -> worker (or None)
        self.units_done = 0
        self.per_worker = {}          # worker -> completed units
        self.respawns = 0
        self.backoffs = 0
        self.retired = 0
        self.checkpoint = None        # reason, when checkpointed
        self.finished = False
        self.first_ts = None
        self.last_ts = None
        self.shards = {}              # label -> record count (journal)

    @classmethod
    def of(cls, records, campaign=None):
        """A new view with every one of *records* applied in order."""
        view = cls(campaign)
        for record in records:
            view.apply(record)
        return view

    def apply(self, record):
        """Fold one record: a telemetry event or a journal ``result``,
        ``quarantine`` or ``unit`` record."""
        self._stamp(record.get("ts"))
        kind = record.get("type")
        if kind in _UNIT_STATUS:
            self._unit(record, _UNIT_STATUS[kind] or record.get("status"))
        elif kind == "outcomes":
            for outcome, count in (record.get("delta") or {}).items():
                self.outcomes[outcome] = (self.outcomes.get(outcome, 0)
                                          + count)
        elif kind == "result":
            outcome = record.get("outcome")
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        elif kind == "quarantine":
            self.quarantined += 1
        elif kind == "campaign-started":
            self.points = record.get("points", self.points)
        elif kind == "worker-respawn":
            self.respawns += 1
        elif kind == "worker-backoff":
            self.backoffs += 1
        elif kind == "worker-retired":
            self.retired += 1
        elif kind == "checkpoint":
            self.checkpoint = record.get("reason")
        elif kind == "campaign-finished":
            # the final tally replaces the folded one
            self.finished = True
            self.outcomes = {outcome: count for outcome, count
                             in (record.get("counts") or {}).items()
                             if count}
            self.quarantined = record.get("quarantined", 0)
            if self.points is None:
                self.points = self.completed

    def _unit(self, record, status):
        """A unit started, completed or (``closed``) ended without
        completing."""
        unit = record.get("unit")
        if record.get("total") is not None:
            self.points = record["total"]
        if status == "started":
            self.in_flight[unit] = record.get("worker")
            return
        self.in_flight.pop(unit, None)
        if status == "closed":
            return
        self.units_done += 1
        if "worker" in record:
            worker = record["worker"]
            self.per_worker[worker] = self.per_worker.get(worker, 0) + 1
        self.quarantined += record.get("quarantined", 0)

    # -- derived -------------------------------------------------------

    def _stamp(self, ts):
        if ts is None:
            return
        if self.first_ts is None or ts < self.first_ts:
            self.first_ts = ts
        if self.last_ts is None or ts > self.last_ts:
            self.last_ts = ts

    @property
    def completed(self):
        """Experiments with a record: results plus quarantined
        points."""
        return sum(self.outcomes.values()) + self.quarantined

    @property
    def rate(self):
        """Completed experiments per second over the observed window
        (``None`` until two timestamps exist)."""
        if (self.first_ts is None or self.last_ts is None
                or self.last_ts <= self.first_ts or not self.completed):
            return None
        return self.completed / (self.last_ts - self.first_ts)

    def eta_seconds(self):
        """Seconds until done at the observed rate (``None`` when the
        total or the rate is unknown)."""
        rate = self.rate
        if rate is None or self.points is None:
            return None
        remaining = max(0, self.points - self.completed)
        return remaining / rate


def fold_events(events, views=None):
    """Reduce telemetry *events* into ``{campaign: CampaignView}``.

    Accepts both raw bus events and service ``telemetry`` lines (the
    payload shape is identical).  Pass the returned dict back in as
    *views* to fold incrementally.
    """
    views = {} if views is None else views
    for event in events:
        cid = event.get("campaign")
        view = views.get(cid)
        if view is None:
            view = views[cid] = CampaignView(cid)
        view.apply(event)
    return views


def view_from_journals(journal, family=None):
    """Rebuild a :class:`CampaignView` offline from a journal base
    path and its ``.shardK`` files, or its already loaded *family*
    (``repro top <journal>``, ``repro status`` and ``repro
    report``).  Points count once however many members journal them
    (a point that moved between workers across resumes); the unit
    markers are the parent's, in the base journal.

    Raises :class:`FileNotFoundError` when neither the base journal
    nor any shard exists.
    """
    import os
    if family is None:
        from ..injection.runner import JournalFamily
        family = JournalFamily.load(journal, strict=False)
    if not family.members:
        raise FileNotFoundError("no journal at %s (or %s.shard*)"
                                % (journal, journal))
    base = str(journal)
    view = CampaignView.of([*family.results.values(),
                            *family.quarantined.values(), *family.units])
    for member in family.members:
        if member.error is not None:
            continue
        label = os.path.basename(member.path)
        if member.results or member.path != base:
            view.shards[label] = len(member.results)
        if member.meta is not None and view.campaign is None:
            view.campaign = "%s %s" % (member.meta.get("daemon"),
                                       member.meta.get("client"))
    view.finished = (view.points is not None
                     and view.completed >= view.points
                     and not view.in_flight)
    return view


# ----------------------------------------------------------------------
# Rendering

def _bar(fraction, width=30):
    fraction = max(0.0, min(1.0, fraction))
    filled = int(round(fraction * width))
    return "[%s%s]" % ("#" * filled, "." * (width - filled))


def format_eta(seconds):
    if seconds is None:
        return "--"
    seconds = int(round(seconds))
    if seconds >= 3600:
        return "%dh%02dm" % (seconds // 3600, (seconds % 3600) // 60)
    if seconds >= 60:
        return "%dm%02ds" % (seconds // 60, seconds % 60)
    return "%ds" % seconds


def render_view(view, now=None):
    """One campaign's lines of the frame (no trailing newline)."""
    now = time.time() if now is None else now
    lines = []
    title = view.campaign if view.campaign is not None else "campaign"
    state = ("done" if view.finished
             else "checkpointed (%s)" % view.checkpoint
             if view.checkpoint else "running")
    lines.append("%s  --  %s" % (title, state))
    if view.points:
        fraction = view.completed / view.points
        lines.append("  %s %5.1f%%  %d/%d experiments"
                     % (_bar(fraction), 100.0 * fraction,
                        view.completed, view.points))
    else:
        lines.append("  %d experiment(s) completed" % view.completed)
    tallies = ["%s %d" % (outcome, view.outcomes[outcome])
               for outcome in OUTCOME_ORDER
               if outcome in view.outcomes]
    tallies += ["%s %d" % (outcome, count)
                for outcome, count in sorted(view.outcomes.items())
                if outcome not in OUTCOME_ORDER]
    if tallies:
        line = "  outcomes: " + "  ".join(tallies)
        if view.quarantined:
            line += "  (quarantined %d)" % view.quarantined
        lines.append(line)
    rate = view.rate
    if not view.finished:
        lines.append("  rate: %s  eta: %s"
                     % ("%.1f/s" % rate if rate else "--",
                        format_eta(view.eta_seconds())))
    if view.shards:
        parts = ["%s:%d" % (label, count)
                 for label, count in sorted(view.shards.items())]
        lines.append("  shards: " + "  ".join(parts))
    if view.per_worker:
        parts = ["w%s:%d" % (worker, count)
                 for worker, count in sorted(view.per_worker.items(),
                                             key=lambda kv:
                                             str(kv[0]))]
        lines.append("  units: %d done via " % view.units_done
                     + "  ".join(parts))
    elif view.units_done or view.in_flight:
        lines.append("  units: %d done" % view.units_done)
    if view.in_flight:
        shown = list(view.in_flight)[:6]
        more = len(view.in_flight) - len(shown)
        lines.append("  in flight: " + ", ".join(
            str(unit) for unit in shown)
            + (" (+%d more)" % more if more else ""))
    health = []
    if view.respawns:
        health.append("%d respawn(s)" % view.respawns)
    if view.backoffs:
        health.append("%d backoff(s)" % view.backoffs)
    if view.retired:
        health.append("%d retired" % view.retired)
    if health:
        lines.append("  workers: " + ", ".join(health))
    return "\n".join(lines)


def render_top(views, now=None, clock=None):
    """One full frame for ``repro top``: a header plus one block per
    campaign, ordered by campaign id."""
    now = time.time() if now is None else now
    stamp = (time.strftime("%H:%M:%S", time.localtime(now))
             if clock is None else clock)
    header = "repro top  --  %d campaign(s)  --  %s" % (len(views),
                                                        stamp)
    blocks = [header, "=" * len(header)]
    for cid in sorted(views, key=str):
        blocks.append(render_view(views[cid], now=now))
    return "\n\n".join(blocks)
