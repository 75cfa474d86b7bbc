"""Typed campaign event bus: the live telemetry plane.

A :class:`EventBus` turns the engine's milestones -- unit
started/finished, outcome-tally deltas, worker respawn/backoff,
checkpoint, golden reuse -- into a bounded, subscribable stream of
typed events: the service streams it to ``subscribe`` clients,
``repro top`` renders it live, and ``--events`` and ``--progress``
are subscribers.

* **one emit site per milestone** -- the runner and the fleet send
  every milestone through :func:`emit_milestone`: the bus event (when
  a bus is attached) plus the same fact as an instant in each live
  campaign's trace (when tracing is on).  Nothing builds a bus by
  default;
* **deterministic modulo timestamps** -- ``seq`` is per campaign and
  assigned in the *parent* process.  A fleet unit runner emits only
  onto a bus private to its worker (the liveness heartbeat
  subscribes there); unit completions ride the worker's pipe and the
  parent emits on receipt, so streams are gap-free per campaign
  (``seq`` contiguous from 0);
* **bounded** -- the history is a ring of the newest
  :data:`EVENT_RING_CAPACITY` events (:attr:`dropped` counts the
  rest); live subscribers, an :class:`EventLog` file among them, see
  every event;
* **mergeable** -- :func:`merge_event_streams` interleaves histories
  deterministically by (campaign, seq).

Event wire shape (one JSON-able dict per event)::

    {"seq": 17, "type": "unit-finished", "campaign": "c0000",
     "ts": 1723108712.41, ...payload...}

``ts`` is wall clock and *volatile*: consumers that feed the
deterministic metrics core ignore it.  The schema table lives in
DESIGN.md section 17.
"""

from __future__ import annotations

import json
import time

from .ring import RingBuffer

#: bounded history: the newest this-many events are retained.
EVENT_RING_CAPACITY = 4096

#: the closed set of event types (DESIGN.md section 17 documents the
#: payload of each).  Emitting an unknown type is a programming error
#: caught eagerly, so the wire format cannot drift silently.
EVENT_TYPES = frozenset((
    "campaign-started",     # points, units, warm
    "golden",               # reused: bool
    "unit-started",         # unit, worker
    "unit-finished",        # unit, worker, completed, total
    "outcomes",             # delta: {outcome: count} for one batch
    "worker-respawn",       # worker, incarnation
    "worker-backoff",       # worker, restarts, delay
    "worker-retired",       # worker, restarts
    "checkpoint",           # reason, completed
    "campaign-finished",    # counts, quarantined
))


class EventBus:
    """Bounded, subscribable, per-campaign-sequenced event stream.

    Thread-safety contract: all emits happen on one thread (the fleet
    dispatcher or the serial runner); subscribers may be registered
    from other threads (list append/remove is atomic under the GIL)
    and their callbacks run on the emitting thread -- the service
    bridges to asyncio with ``call_soon_threadsafe``.
    """

    def __init__(self, capacity=EVENT_RING_CAPACITY, clock=None):
        self._ring = RingBuffer(capacity)
        self._seqs = {}           # campaign id -> next seq
        self._subscribers = []
        self._clock = clock if clock is not None else time.time
        self.dropped = 0
        self.emitted = 0

    # -- emitting ------------------------------------------------------

    def emit(self, type, campaign=None, **payload):
        """Record one event and fan it out to subscribers."""
        if type not in EVENT_TYPES:
            raise ValueError("unknown event type %r" % type)
        seq = self._seqs.get(campaign, 0)
        self._seqs[campaign] = seq + 1
        event = {"seq": seq, "type": type, "campaign": campaign,
                 "ts": self._clock()}
        event.update(payload)
        ring = self._ring
        if ring.capacity is not None and len(ring) == ring.capacity:
            self.dropped += 1
        ring.append(event)
        self.emitted += 1
        for callback in list(self._subscribers):
            callback(event)
        return event

    # -- subscribing ---------------------------------------------------

    def subscribe(self, callback):
        """Register ``callback(event_dict)``; returns an unsubscribe
        callable."""
        self._subscribers.append(callback)

        def unsubscribe():
            try:
                self._subscribers.remove(callback)
            except ValueError:
                pass
        return unsubscribe

    # -- history -------------------------------------------------------

    def events(self):
        """Retained events, oldest first."""
        return self._ring.snapshot()

    def __len__(self):
        return len(self._ring)


class EventLog:
    """Subscriber appending each event to a JSONL file as it is
    emitted (``--events``): the whole stream, not the bounded ring.
    :attr:`count` is the number of events written."""

    def __init__(self, path):
        self.path = str(path)
        self.count = 0
        # line-buffered: a killed run still leaves every event it
        # emitted on disk
        self._handle = open(self.path, "w", buffering=1)

    def __call__(self, event):
        self._handle.write(json.dumps(event) + "\n")
        self.count += 1

    def close(self):
        self._handle.close()


def outcome_delta(records):
    """``{outcome: count}`` of a completed record batch (result
    objects or their dicts): the ``outcomes`` event payload."""
    delta = {}
    for record in records:
        outcome = (record.get("outcome") if isinstance(record, dict)
                   else record.outcome)
        delta[outcome] = delta.get(outcome, 0) + 1
    return dict(sorted(delta.items()))


def emit_milestone(bus, tracers, type, campaign=None, **payload):
    """The one emit site of a campaign milestone: the *bus* event
    (``None`` = no bus) and the same fact as an instant in each of
    *tracers*, the live campaigns' traces."""
    if bus is not None:
        bus.emit(type, campaign=campaign, **payload)
    for tracer in tracers:
        tracer.instant(type, cat="milestone", **payload)


def load_event_stream(path):
    """Events from a file written by :class:`EventLog`."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def merge_event_streams(*streams):
    """Interleave several event histories into one deterministic
    stream ordered by ``(campaign, seq)`` -- timestamps do not
    participate, so the merge is stable across runs."""
    merged = []
    for stream in streams:
        merged.extend(stream)
    merged.sort(key=lambda event: (event.get("campaign") or "",
                                   event.get("seq", 0)))
    return merged


def check_contiguous(events):
    """Per-campaign gap check: returns a list of human-readable
    problems (empty when every campaign's ``seq`` runs 0..N-1 with no
    gaps or duplicates) -- the service gate's core assertion."""
    problems = []
    by_campaign = {}
    for event in events:
        by_campaign.setdefault(event.get("campaign"), []).append(
            event.get("seq"))
    for campaign, seqs in sorted(by_campaign.items(),
                                 key=lambda item: str(item[0])):
        expected = list(range(len(seqs)))
        if sorted(seqs) != expected:
            problems.append(
                "campaign %s: sequence gap or duplicate (%d event(s),"
                " seqs %r...)" % (campaign, len(seqs),
                                  sorted(seqs)[:10]))
    return problems
