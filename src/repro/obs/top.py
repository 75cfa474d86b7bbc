"""Live campaign progress views: the model behind ``repro top``.

Two sources feed one renderer:

* **event streams** -- :func:`fold_events` reduces a telemetry event
  sequence (from a service ``subscribe`` stream or a saved
  ``--events`` file) into per-campaign :class:`CampaignView` state;
* **journals** -- :func:`view_from_journals` rebuilds the same state
  offline from a campaign journal and its shard files, using the
  schema-v8 unit markers for in-flight units and the live ETA.

:func:`render_top` turns the state into one text frame -- progress
bar, outcome tallies, per-shard throughput, worker health, ETA --
used verbatim by ``repro top`` (both socket and journal modes) and,
in condensed form, by ``repro status``.

Everything here is read-only over volatile data (timestamps, rates):
nothing feeds back into the deterministic metrics core.
"""

from __future__ import annotations

import time

#: canonical outcome display order (Table 1 column order).
OUTCOME_ORDER = ("NA", "NM", "FSV", "SD", "BRK", "HANG", "HF")


class CampaignView:
    """Mutable per-campaign progress state (one box in the frame)."""

    def __init__(self, campaign):
        self.campaign = campaign
        self.points = None            # total experiments, when known
        self.workers = None
        self.resumed = 0
        self.golden_reused = None
        self.completed = 0            # experiments with an outcome
        self.outcomes = {}            # outcome -> count
        self.in_flight = {}           # unit id -> worker (or None)
        self.units_done = 0
        self.per_worker = {}          # worker -> completed units
        self.respawns = 0
        self.backoffs = 0
        self.retired = 0
        self.checkpoint = None        # reason, when checkpointed
        self.finished = False
        self.quarantined = 0
        self.first_ts = None
        self.last_ts = None
        self.shards = {}              # label -> record count (journal)

    # -- derived -------------------------------------------------------

    def _stamp(self, ts):
        if ts is None:
            return
        if self.first_ts is None or ts < self.first_ts:
            self.first_ts = ts
        if self.last_ts is None or ts > self.last_ts:
            self.last_ts = ts

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
        view._stamp(event.get("ts"))
        kind = event.get("type")
        if kind == "campaign-started":
            view.points = event.get("points", view.points)
            view.workers = event.get("workers", view.workers)
            view.resumed = event.get("resumed", view.resumed)
        elif kind == "golden":
            view.golden_reused = event.get("reused")
        elif kind == "unit-started":
            view.in_flight[event.get("unit")] = event.get("worker")
        elif kind == "unit-finished":
            view.in_flight.pop(event.get("unit"), None)
            view.units_done += 1
            worker = event.get("worker")
            view.per_worker[worker] = view.per_worker.get(worker,
                                                          0) + 1
            if event.get("total") is not None:
                view.points = event["total"]
            if event.get("completed") is not None:
                view.completed = max(view.completed,
                                     event["completed"])
        elif kind == "outcomes":
            for outcome, count in (event.get("delta") or {}).items():
                view.outcomes[outcome] = (view.outcomes.get(outcome, 0)
                                          + count)
            view.completed = max(view.completed,
                                 sum(view.outcomes.values()))
        elif kind == "worker-respawn":
            view.respawns += 1
        elif kind == "worker-backoff":
            view.backoffs += 1
        elif kind == "worker-retired":
            view.retired += 1
        elif kind == "checkpoint":
            view.checkpoint = event.get("reason")
        elif kind == "campaign-finished":
            view.finished = True
            view.quarantined = event.get("quarantined", 0)
            counts = event.get("counts") or {}
            for outcome, count in counts.items():
                view.outcomes[outcome] = max(
                    view.outcomes.get(outcome, 0), count)
            view.completed = max(view.completed,
                                 sum(view.outcomes.values()))
    return views


def unit_progress(units):
    """Split schema-v8 unit markers into progress facts.

    Returns ``(in_flight, done, total, first_ts, last_ts)`` where
    *in_flight* is the ordered list of ``started`` markers with no
    completion marker yet.
    """
    started = {}
    done = 0
    total = None
    first_ts = last_ts = None
    for marker in units:
        ts = marker.get("ts")
        if ts is not None:
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
        if marker.get("total") is not None:
            total = marker["total"]
        unit = marker.get("unit")
        if marker.get("status") == "started":
            started.setdefault(unit, marker)
        else:
            started.pop(unit, None)
            done += 1
    return list(started.values()), done, total, first_ts, last_ts


def view_from_journals(journal, family=None):
    """Rebuild a :class:`CampaignView` offline from a journal base
    path and its ``.shardK`` files, or its already loaded *family*
    (``repro top <journal>`` and the ``repro status`` progress line).

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
    view = CampaignView(None)
    # by point key: a point journaled twice (it moved between workers
    # across resumes) counts once
    for record in family.results.values():
        outcome = record.get("outcome")
        view.outcomes[outcome] = view.outcomes.get(outcome, 0) + 1
    view.quarantined = len(family.quarantined)
    base_units = []
    shard_units = []
    for member in family.members:
        if member.error is not None:
            continue
        path, meta, results = member.path, member.meta, member.results
        # Fleet runs mark every unit twice: the parent appends
        # started/done markers to the base journal and the worker
        # marks its own shard file.  The base markers carry the
        # campaign-level status/total, so they win when present.
        (base_units if path == base else shard_units).extend(
            member.report.units)
        label = os.path.basename(path)
        if results or path != base:
            view.shards[label] = len(results)
        if meta is not None and view.campaign is None:
            view.campaign = "%s %s" % (meta.get("daemon"),
                                       meta.get("client"))
    units = base_units if base_units else shard_units
    view.completed = sum(view.outcomes.values())
    in_flight, done, total, first_ts, last_ts = unit_progress(units)
    for marker in in_flight:
        view.in_flight[marker.get("unit")] = None
    view.units_done = done
    if total is not None:
        view.points = total
    view.first_ts = first_ts
    view.last_ts = last_ts
    if (view.points is not None and view.completed >= view.points
            and not view.in_flight):
        view.finished = True
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
