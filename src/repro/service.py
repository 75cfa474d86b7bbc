"""Campaign service front-end: ``repro serve``.

The service layer turns the warm worker fleet
(:mod:`repro.injection.fleet`) into a persistent local daemon: an
asyncio front-end on a Unix socket accepts
:class:`~repro.injection.campaign.CampaignSpec` submissions from any
number of concurrent clients and streams results back as JSON lines
while the shared fleet interleaves every campaign's work units.  The
payoff is the warm path: the second submission for a campaign cell
reuses the fleet's cached daemons, golden runs and breakpoint-session
snapshots, skipping the reference execution entirely.

Wire protocol (one JSON object per line, both directions)::

    -> {"op": "submit", "spec": {"daemon": "ftpd", "client": "Client1",
        "encoding": "old", "fault_model": "branch-bit"},
        "options": {"max_points": 40, "journal": "...", ...}}
    <- {"event": "accepted", "campaign": "c0000", "points": 120,
        "units": 9, "warm": false}
    <- {"event": "unit", "campaign": "c0000", "unit": "u00003",
        "completed": 52, "total": 120,
        "results": [{..record.., "order": 17}, ...],
        "quarantined": [...]}          # per completed work unit
    <- {"event": "done", "campaign": "c0000", "counts": {...},
        "quarantined": 0, "timing": {...}, "metrics": {...}}
    <- {"event": "checkpoint", "campaign": "c0000", "reason":
        "SIGTERM", "journal": "...", "completed": 52}
    <- {"event": "error", ...} | {"event": "rejected", "reason": ...}

A second verb subscribes a connection to the fleet's live telemetry
plane (:mod:`repro.obs.events`)::

    -> {"op": "subscribe"}
    <- {"event": "subscribed"}
    <- {"event": "telemetry", "type": "unit-finished",
        "campaign": "c0000", "seq": 7, "ts": ..., ...}   # per event
    <- {"event": "telemetry-end"}                        # at drain

Subscribers are pure observers: result streaming, its ordering and
the deterministic metrics core are byte-for-byte unaffected by any
number of attached subscribers.  Registration happens on the
dispatcher thread -- the only thread that emits -- with a replay of
the bus's ring first, so a subscriber's per-campaign sequence numbers
are contiguous (gap-free, duplicate-free) from the moment it attaches.

Every streamed record carries its ``order`` index in the campaign's
enumeration, so a client re-sorts the stream into exactly the serial
result list no matter how units interleaved -- the scheduler's
determinism argument, extended over the wire.

Threading: the asyncio loop owns the socket; a single dispatcher
thread owns the :class:`~repro.injection.fleet.WorkerFleet` (daemon
builds, scheduling, supervision) and ships events back with
``loop.call_soon_threadsafe``; every request and stop handed to it
calls :meth:`WorkerFleet.wake`, so it never waits out a poll interval
for them.  SIGTERM drains the fleet through the
checkpoint protocol -- every in-flight campaign stops at a
journal-consistent boundary, clients get a ``checkpoint`` event with
the resume journal, and the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import queue
import signal
import socket as _socket
import threading
import traceback

from .injection.campaign import CampaignSpec, RunOptions
from .injection.fleet import _record_key, FleetConfig, WorkerFleet
from .injection.runner import CampaignInterrupted
from .obs.events import EventBus
from .obs.log import get_logger

_LOGGER = get_logger("service")

#: campaign options a submission may set: the plain-data ``wire``
#: fields of :class:`~repro.injection.campaign.RunOptions` (everything
#: else is rejected: callables and runner internals do not cross the
#: wire).
SUBMIT_OPTIONS = RunOptions.wire_fields()


def default_socket_path():
    return "repro-service.sock"


class ServiceError(RuntimeError):
    pass


class _ClientCampaign:
    """One accepted submission: links a fleet campaign id to the
    asyncio queue its connection streams from."""

    def __init__(self, cid, events, connection):
        self.cid = cid
        self.events = events          # asyncio.Queue
        self.connection = connection


class CampaignService:
    """The ``repro serve`` daemon.

    ``quota`` bounds in-flight campaigns per client connection;
    further submissions are rejected (not queued) so one client cannot
    monopolise the fleet.
    """

    def __init__(self, socket_path=None, config=None, quota=2):
        self.socket_path = (socket_path if socket_path is not None
                            else default_socket_path())
        self.config = config if config is not None else FleetConfig()
        self.quota = quota
        self.fleet = None
        self._loop = None
        self._requests = queue.Queue()
        self._active = {}             # cid -> _ClientCampaign
        self._daemons = {}            # daemon name -> built daemon
        self._stopping = threading.Event()
        self._stop_event = None
        self._drain_reason = None
        self._dispatcher = None
        self._streams = set()
        #: the fleet's live telemetry bus and the asyncio queues of
        #: attached ``subscribe`` connections (mutated only on the
        #: dispatcher thread, except for discards on disconnect).
        self.telemetry = EventBus()
        self._subscribers = set()

    # -- entry point ---------------------------------------------------

    def run(self):
        """Serve until SIGTERM/SIGINT; returns 0 after a clean drain."""
        asyncio.run(self._serve())
        return 0

    async def _serve(self):
        self._loop = asyncio.get_running_loop()
        self.fleet = WorkerFleet(self.config,
                                 telemetry=self.telemetry)
        self.telemetry.subscribe(self._on_telemetry)
        self.fleet.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="fleet-dispatcher",
            daemon=True)
        self._dispatcher.start()
        server = await asyncio.start_unix_server(
            self._handle_connection, path=self.socket_path)
        stop = self._stop_event = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self._request_stop,
                    signal.Signals(signum).name)
            except (NotImplementedError, RuntimeError):
                pass      # not the main thread (embedded/test use)
        _LOGGER.info("serving on %s (%d workers, quota %d)",
                     self.socket_path, self.config.workers, self.quota)
        async with server:
            await stop.wait()
        # Drain: the dispatcher checkpoints every in-flight campaign
        # (clients get their checkpoint events), then exits.
        await self._loop.run_in_executor(
            None, self._dispatcher.join,
            self.config.drain_timeout + 30)
        if self._streams:
            # every stream has a terminal event queued now; let them
            # write it out before the sockets go away
            await asyncio.wait(self._streams, timeout=10)
        self.fleet.stop()
        _LOGGER.info("drained; exiting 0")

    def _request_stop(self, name):
        if self._drain_reason is None:
            _LOGGER.warning("%s received: draining service", name)
            self._drain_reason = name
            self._stopping.set()
            self._stop_event.set()
            self.fleet.wake()

    def shutdown(self, reason="shutdown"):
        """Programmatic SIGTERM equivalent: drain and exit.  Safe to
        call from any thread (embedded service in tests)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._request_stop,
                                            reason)

    # -- asyncio side: one task per client connection ------------------

    async def _handle_connection(self, reader, writer):
        connection = {"in_flight": 0, "writer": writer,
                      "lock": asyncio.Lock()}
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    request = json.loads(line)
                except json.JSONDecodeError:
                    await self._send(connection, {
                        "event": "rejected",
                        "reason": "request is not valid JSON"})
                    continue
                await self._handle_request(connection, request)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # loop teardown with the connection still open (normal for
            # a subscriber riding out the drain): exit quietly.
            pass
        finally:
            writer.close()

    async def _handle_request(self, connection, request):
        if request.get("op") == "subscribe":
            await self._subscribe(connection)
            return
        if request.get("op") != "submit":
            await self._send(connection, {
                "event": "rejected",
                "reason": "unknown op %r" % request.get("op")})
            return
        if self._stopping.is_set():
            await self._send(connection, {
                "event": "rejected", "reason": "service is draining"})
            return
        if connection["in_flight"] >= self.quota:
            await self._send(connection, {
                "event": "rejected",
                "reason": "quota exceeded (%d campaign(s) in flight)"
                % connection["in_flight"]})
            return
        options = request.get("options") or {}
        unknown = set(options) - SUBMIT_OPTIONS
        if unknown:
            await self._send(connection, {
                "event": "rejected",
                "reason": "unsupported option(s): %s"
                % ", ".join(sorted(unknown))})
            return
        try:
            spec = CampaignSpec(**(request.get("spec") or {}))
        except TypeError as error:
            await self._send(connection, {
                "event": "rejected", "reason": "bad spec: %s" % error})
            return
        connection["in_flight"] += 1
        events = asyncio.Queue()
        self._request("submit", spec, options, events, connection)
        # stream this campaign's events until its terminal event
        task = asyncio.ensure_future(self._stream(connection, events))
        self._streams.add(task)
        task.add_done_callback(self._streams.discard)

    async def _subscribe(self, connection):
        """Attach this connection to the telemetry plane.  The ack is
        written before the dispatcher registers the queue, so the
        ``subscribed`` line always precedes the first telemetry line;
        registration itself happens on the dispatcher thread (with a
        ring replay) so sequences arrive contiguous."""
        await self._send(connection, {"event": "subscribed"})
        events = asyncio.Queue()
        self._request("subscribe", events)
        task = asyncio.ensure_future(
            self._stream_telemetry(connection, events))
        self._streams.add(task)
        task.add_done_callback(self._streams.discard)

    async def _stream_telemetry(self, connection, events):
        try:
            while True:
                event = await events.get()
                if event is None:           # drain sentinel
                    await self._send(connection,
                                     {"event": "telemetry-end"})
                    return
                await self._send(connection,
                                 {"event": "telemetry", **event})
        except (ConnectionResetError, BrokenPipeError):
            pass          # observer went away; campaigns are unmoved
        finally:
            self._subscribers.discard(events)

    async def _stream(self, connection, events):
        while True:
            event = await events.get()
            try:
                await self._send(connection, event)
            except (ConnectionResetError, BrokenPipeError):
                # client went away; the campaign itself keeps running
                # (its journal is the durable output).
                pass
            if event.get("event") in ("done", "checkpoint", "error",
                                      "rejected"):
                connection["in_flight"] -= 1
                return

    async def _send(self, connection, event):
        async with connection["lock"]:
            writer = connection["writer"]
            writer.write((json.dumps(event) + "\n").encode())
            await writer.drain()

    def _push(self, events, event):
        self._loop.call_soon_threadsafe(events.put_nowait, event)

    def _request(self, *item):
        """Hand the dispatcher a request and wake its pump."""
        self._requests.put(item)
        self.fleet.wake()

    # -- dispatcher thread: owns the fleet -----------------------------

    def _dispatch_loop(self):
        try:
            while True:
                self._admit_requests()
                if self._stopping.is_set():
                    self._drain()
                    return
                self.fleet.pump()
                self._finalize_finished()
        except Exception:
            _LOGGER.error("dispatcher crashed:\n%s",
                          traceback.format_exc())
            for client in list(self._active.values()):
                self._push(client.events, {
                    "event": "error", "campaign": client.cid,
                    "detail": "service dispatcher crashed"})
            raise

    def _on_telemetry(self, event):
        """Bus callback (runs on the emitting dispatcher thread):
        fan the event out to every subscriber queue."""
        loop = self._loop
        if loop is None:
            return
        for events in list(self._subscribers):
            self._push(events, dict(event))

    def _admit_requests(self):
        while True:
            try:
                item = self._requests.get_nowait()
            except queue.Empty:
                return
            kind = item[0]
            if kind == "subscribe":
                # Replay the ring, then go live -- all on this thread,
                # the only emitter, so the hand-off is seamless.
                events = item[1]
                for event in self.telemetry.events():
                    self._push(events, dict(event))
                self._subscribers.add(events)
                continue
            __, spec, options, events, connection = item
            assert kind == "submit"
            try:
                client = self._submit(spec, options, events,
                                      connection)
            except Exception as error:
                self._push(events, {
                    "event": "rejected",
                    "reason": "%s: %s" % (type(error).__name__,
                                          error)})
                continue
            self._active[client.cid] = client

    def _submit(self, spec, options, events, connection):
        options = RunOptions(encoding=spec.encoding,
                             fault_model=spec.fault_model, **options)
        daemon = self._daemons.get(spec.daemon)
        if daemon is None:
            daemon = spec.build_daemon()
            self._daemons[spec.daemon] = daemon
        warm = ("%s:%s:%s" % (type(daemon).__name__, spec.client,
                              options.budget)
                in self.fleet.goldens)
        client = _ClientCampaign(None, events, connection)

        def on_unit(state, unit, payload):
            order = state.scheduler.order
            results = []
            for record in payload["results"]:
                record = dict(record)
                record["order"] = order[_record_key(record)]
                results.append(record)
            self._push(events, {
                "event": "unit", "campaign": client.cid,
                "unit": unit.unit_id,
                "completed": state.scheduler.completed,
                "total": state.scheduler.total,
                "results": results,
                "quarantined": list(payload["quarantined"]),
            })

        cid = self.fleet.submit(daemon, spec.client,
                                spec.client_factory(), options,
                                on_unit=on_unit)
        client.cid = cid
        state = self.fleet.campaigns[cid]
        self._push(events, {
            "event": "accepted", "campaign": cid,
            "points": state.scheduler.total,
            "units": len(state.scheduler.units), "warm": warm})
        return client

    def _finalize_finished(self):
        for cid in list(self._active):
            if not self.fleet.finished(cid):
                continue
            client = self._active.pop(cid)
            self._finalize(client)

    def _finalize(self, client):
        cid = client.cid
        try:
            campaign = self.fleet.finalize(cid)
        except CampaignInterrupted as interrupted:
            self._push(client.events, {
                "event": "checkpoint", "campaign": cid,
                "reason": interrupted.reason,
                "journal": interrupted.journal,
                "completed": interrupted.completed})
            return
        except Exception:
            self._push(client.events, {
                "event": "error", "campaign": cid,
                "detail": traceback.format_exc()})
            return
        self._push(client.events, {
            "event": "done", "campaign": cid,
            "counts": campaign.counts(),
            "quarantined": campaign.quarantined_count,
            "activated": campaign.activated_count,
            "crash_latencies": campaign.crash_latencies(),
            "by_location": campaign.by_location(),
            "timing": campaign.timing,
            "metrics": campaign.metrics,
        })

    def _drain(self):
        reason = self._drain_reason or "shutdown"
        if any(not self.fleet.finished(cid) for cid in self._active):
            self.fleet.drain(reason)
        for cid in list(self._active):
            client = self._active.pop(cid)
            self._finalize(client)
        for events in list(self._subscribers):
            self._push(events, None)      # telemetry-end sentinel
        self._subscribers.clear()


# ----------------------------------------------------------------------
# Client side

class ServiceClient:
    """Synchronous line-protocol client for :class:`CampaignService`.

    One client holds one connection; several campaigns can be
    submitted on it (up to the server's quota) and their event streams
    are demultiplexed by campaign id.
    """

    def __init__(self, socket_path):
        self.socket_path = socket_path
        self._sock = _socket.socket(_socket.AF_UNIX,
                                    _socket.SOCK_STREAM)
        self._sock.connect(socket_path)
        self._reader = self._sock.makefile("r")
        self._pending = {}            # cid -> buffered events
        self._unclaimed = []          # events before their cid is known

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def submit(self, spec, **options):
        """Send one submission; returns the ``accepted`` event (or
        raises :class:`ServiceError` on rejection)."""
        if isinstance(spec, CampaignSpec):
            spec = {"daemon": spec.daemon, "client": spec.client,
                    "encoding": spec.encoding,
                    "fault_model": spec.fault_model}
        request = {"op": "submit", "spec": spec, "options": options}
        self._sock.sendall((json.dumps(request) + "\n").encode())
        event = self._next_event()
        if event.get("event") == "rejected":
            raise ServiceError(event.get("reason", "rejected"))
        if event.get("event") != "accepted":
            raise ServiceError("expected accepted, got %r" % event)
        return event

    def subscribe(self):
        """Attach this connection to the service's telemetry plane
        (op ``subscribe``).  Use a dedicated connection: telemetry
        lines interleave with nothing else there, and campaign
        submissions elsewhere are unaffected."""
        request = {"op": "subscribe"}
        self._sock.sendall((json.dumps(request) + "\n").encode())
        event = self._read()
        if event.get("event") == "rejected":
            raise ServiceError(event.get("reason", "rejected"))
        if event.get("event") != "subscribed":
            raise ServiceError("expected subscribed, got %r" % event)
        return event

    def telemetry(self):
        """Iterate telemetry events until the service drains
        (``telemetry-end``) or the connection closes.  Non-telemetry
        events are buffered for their campaign streams."""
        while True:
            try:
                event = self._read()
            except ServiceError:
                return                    # connection closed
            kind = event.get("event")
            if kind == "telemetry-end":
                return
            if kind != "telemetry":
                self._pending.setdefault(event.get("campaign"),
                                         []).append(event)
                continue
            yield event

    def events(self, campaign):
        """Iterate one campaign's events through its terminal event."""
        while True:
            event = self._next_for(campaign)
            yield event
            if event.get("event") in ("done", "checkpoint", "error"):
                return

    def collect(self, campaign):
        """Consume one campaign to completion.  Returns ``(done_event,
        results)`` with ``results`` re-sorted into exact enumeration
        order by each record's ``order`` index; raises
        :class:`ServiceError` on checkpoint or error."""
        records = []
        for event in self.events(campaign):
            if event["event"] == "unit":
                records.extend(event["results"])
            elif event["event"] == "done":
                records.sort(key=lambda record: record["order"])
                return event, records
            elif event["event"] == "checkpoint":
                raise ServiceError(
                    "campaign %s checkpointed (%s); resume from %s"
                    % (campaign, event.get("reason"),
                       event.get("journal")))
            else:
                raise ServiceError(event.get("detail", "error"))

    # -- demultiplexing ------------------------------------------------

    def _next_event(self):
        """Next event that is not yet claimed by a campaign stream
        (used for submit acknowledgements)."""
        while True:
            event = self._read()
            cid = event.get("campaign")
            if event.get("event") in ("accepted", "rejected"):
                return event
            self._pending.setdefault(cid, []).append(event)

    def _next_for(self, campaign):
        buffered = self._pending.get(campaign)
        if buffered:
            return buffered.pop(0)
        while True:
            event = self._read()
            if event.get("campaign") == campaign:
                return event
            self._pending.setdefault(event.get("campaign"),
                                     []).append(event)

    def _read(self):
        line = self._reader.readline()
        if not line:
            raise ServiceError("service connection closed")
        return json.loads(line)


def run_remote_campaign(socket_path, spec, **options):
    """One-shot convenience: submit *spec* to a running service and
    block until done.  Returns ``(done_event, results)`` like
    :meth:`ServiceClient.collect`."""
    with ServiceClient(socket_path) as client:
        accepted = client.submit(spec, **options)
        return client.collect(accepted["campaign"])
