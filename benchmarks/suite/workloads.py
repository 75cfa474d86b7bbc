"""The benchmark's four workloads and the load they generate.

Every workload is closed-loop and driven from the benchmark process:
the serial ones run one cell after another, ``service-warm`` keeps two
client connections with at most two campaigns in flight each (the
service's per-client quota) against a two-worker fleet.  Two is the
core count of the machine the benchmark was sized on; neither number
may exceed ``nproc``.

A workload's passes take their cell order from the caller (the seed);
nothing else about the inputs varies, so every pass must reproduce the
committed reference tallies exactly.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.apps.registry import get_daemon_spec
from repro.injection.campaign import CampaignSpec, run_spec
from repro.injection.fleet import FleetConfig
from repro.service import CampaignService

#: fleet workers and client connections (each <= nproc).
WORKERS = 2
CONNECTIONS = 2
#: campaigns a connection keeps in flight: the service's default quota.
QUOTA = 2
#: back-to-back daemon builds timed by a serial set-up (``setup_s`` is
#: their median).
SERIAL_SETUPS = 8


@dataclass(frozen=True)
class Cell:
    """One campaign: a daemon, its scripted client and a fault model
    (always under the stock encoding)."""

    daemon: str
    client: str
    fault_model: str = "branch-bit"

    @property
    def name(self):
        return "%s/%s/%s" % (self.daemon, self.client, self.fault_model)

    def spec(self):
        return CampaignSpec(daemon=self.daemon, client=self.client,
                            fault_model=self.fault_model)


@dataclass
class CellResult:
    """What one pass learned about one cell."""

    cell: str
    #: seconds from the cell's submission to its final tally.
    latency: float
    #: ``{"runs", "activated", "counts"}``; ``None`` when the cell
    #: produced no result at all (rejected, checkpointed, errored).
    tally: dict | None
    points: int
    #: seconds from the start of the pass to the cell's final tally.
    finished: float = 0.0
    #: harness faults plus quarantined points (rejections: all points).
    failed: int = 0
    executed: int = 0
    experiments: int = 0
    counters: dict = field(default_factory=dict)
    #: per-unit timing records and service campaign id (fleet only).
    units: list = field(default_factory=list)
    campaign: str | None = None


@dataclass
class PassResult:
    #: ``time.perf_counter()`` at the start and end of the pass.
    start: float
    end: float
    cpu: float
    cells: list

    @property
    def wall(self):
        return self.end - self.start


def cpu_seconds(pid):
    """User plus system CPU seconds of *pid*, all threads."""
    with open("/proc/%d/stat" % pid) as handle:
        text = handle.read()
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid):
    """``VmHWM`` of *pid* in MiB."""
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM for pid %d" % pid)


def _cpu_total(pids):
    total = 0.0
    for pid in pids:
        try:
            total += cpu_seconds(pid)
        except FileNotFoundError:
            pass            # a worker replaced mid-pass
    return total


def _volatile_counters(metrics):
    return dict((metrics or {}).get("volatile", {}).get("counters", {}))


def _tally(runs, activated, counts):
    return {"runs": runs, "activated": activated, "counts": dict(counts)}


def build_daemons(cells):
    """Compile every daemon *cells* need, by registry name."""
    return {name: get_daemon_spec(name).build()
            for name in sorted({cell.daemon for cell in cells})}


class SerialWorkload:
    """Cells run one after another in the benchmark process, each
    journaled to its own file in the pass's work directory."""

    uses_fleet = False
    #: processes a pass's work is spread over.
    lanes = 1

    def __init__(self, cells, prune=False, passes=1):
        self.cells = tuple(cells)
        self.prune = prune
        #: timed passes per run (the end-to-end metrics are their
        #: medians); see :data:`WORKLOADS`.
        self.passes = passes
        self._daemons = None
        #: ``(start, end)`` of each set-up (``setup_s`` is their median).
        self.setup_windows = []

    def build(self):
        return build_daemons(self.cells)

    def setup(self, order, workdir, max_points):
        """Build every daemon the cells need, ``SERIAL_SETUPS`` times
        in a row, each build timed; there is no cold pass."""
        for __ in range(SERIAL_SETUPS):
            start = time.perf_counter()
            self._daemons = self.build()
            self.setup_windows.append((start, time.perf_counter()))
        return None

    def pids(self):
        return [os.getpid()]

    def run_pass(self, order, workdir, max_points):
        cpu_start = _cpu_total(self.pids())
        start = time.perf_counter()
        results = []
        for index, cell in enumerate(order):
            journal = os.path.join(workdir, "cell%d.jsonl" % index)
            began = time.perf_counter()
            campaign = run_spec(cell.spec(),
                                daemon=self._daemons[cell.daemon],
                                journal=journal, prune=self.prune,
                                max_points=max_points)
            finished = time.perf_counter()
            refined = campaign.counts(refined=True)
            timing = campaign.timing or {}
            results.append(CellResult(
                cell=cell.name, latency=finished - began,
                finished=finished - start,
                tally=_tally(campaign.total_runs,
                             campaign.activated_count,
                             campaign.counts()),
                points=campaign.total_runs + campaign.quarantined_count,
                failed=refined["HF"] + campaign.quarantined_count,
                executed=timing.get("executed", 0),
                experiments=timing.get("experiments", 0),
                counters=_volatile_counters(campaign.metrics)))
        return PassResult(start=start, end=time.perf_counter(),
                          cpu=_cpu_total(self.pids()) - cpu_start,
                          cells=results)

    def close(self):
        pass


class ServiceWorkload:
    """An in-process :class:`CampaignService` on a Unix socket in the
    work directory, loaded by closed-loop client connections."""

    uses_fleet = True
    lanes = WORKERS
    #: a warm pass is 5 s at reference speed, and how long it takes
    #: also depends on which worker gets which unit; the median of
    #: three seeded passes keeps that inside the bounds.
    passes = 3

    def __init__(self, cells):
        self.cells = tuple(cells)
        self.service = None
        self._thread = None
        self.socket_path = None
        self.setup_windows = []

    def build(self):
        return build_daemons(self.cells)

    def setup(self, order, workdir, max_points):
        """Start the service and run the cold pass (the fleet's
        workers build daemons, record goldens and capture sessions);
        all of it is set-up, done once.  Returns the cold pass."""
        start = time.perf_counter()
        # relative, so the path stays under the Unix-socket length cap
        self.socket_path = os.path.relpath(
            os.path.join(workdir, "service.sock"))
        self.service = CampaignService(
            socket_path=self.socket_path,
            config=FleetConfig(workers=WORKERS), quota=QUOTA)
        self._thread = threading.Thread(target=self.service.run,
                                        name="campaign-service")
        self._thread.start()
        while not os.path.exists(self.socket_path):
            if not self._thread.is_alive():
                raise RuntimeError("campaign service failed to start")
            time.sleep(0.01)
        cold = self.run_pass(order, workdir, max_points)
        self.setup_windows.append((start, time.perf_counter()))
        return cold

    def pids(self):
        pids = [os.getpid()]
        fleet = self.service.fleet if self.service is not None else None
        if fleet is not None:
            pids += [slot.process.pid for slot in fleet.slots.values()
                     if slot.process is not None]
        return pids

    def run_pass(self, order, workdir, max_points):
        options = {} if max_points is None else {"max_points": max_points}
        shares = [list(order[index::CONNECTIONS])
                  for index in range(CONNECTIONS)]
        results = []
        errors = []
        pids = self.pids()
        cpu_start = _cpu_total(pids)
        start = time.perf_counter()
        threads = [threading.Thread(
            target=self._connection,
            args=(share, options, start, results, errors))
            for share in shares]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        if errors:
            raise RuntimeError("client connection failed: %s" % errors[0])
        return PassResult(start=start, end=end,
                          cpu=_cpu_total(pids) - cpu_start, cells=results)

    def _connection(self, cells, options, start, results, errors):
        """One client: submit, keep up to ``QUOTA`` campaigns in
        flight, submit the next as each one's ``done`` arrives."""
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(self.socket_path)
                with sock.makefile("r") as reader:
                    self._drive(sock, reader, deque(cells), options,
                                start, results)
        except Exception as error:      # reported by run_pass
            errors.append("%s: %s" % (type(error).__name__, error))

    def _drive(self, sock, reader, pending, options, start, results):
        inflight = {}
        backlog = deque()

        def read():
            line = reader.readline()
            if not line:
                raise ConnectionError("service closed the connection")
            return json.loads(line)

        while pending or inflight:
            while pending and len(inflight) < QUOTA:
                cell = pending.popleft()
                sent = time.perf_counter()
                sock.sendall((json.dumps({
                    "op": "submit", "options": options,
                    "spec": {"daemon": cell.daemon, "client": cell.client,
                             "encoding": "old",
                             "fault_model": cell.fault_model},
                }) + "\n").encode())
                while True:
                    event = read()
                    if event["event"] in ("accepted", "rejected"):
                        break
                    backlog.append(event)
                if event["event"] == "rejected":
                    now = time.perf_counter()
                    results.append(CellResult(
                        cell=cell.name, tally=None, points=0,
                        latency=now - sent, finished=now - start))
                    continue
                inflight[event["campaign"]] = (cell, sent, event["points"])
            if not inflight:
                continue
            event = backlog.popleft() if backlog else read()
            kind = event["event"]
            if kind not in ("done", "checkpoint", "error"):
                continue
            cell, sent, points = inflight.pop(event["campaign"])
            now = time.perf_counter()
            if kind != "done":
                results.append(CellResult(cell=cell.name, tally=None,
                                          points=points, failed=points,
                                          latency=now - sent,
                                          finished=now - start))
                continue
            metrics = event["metrics"]
            timing = event["timing"] or {}
            counts = event["counts"]
            results.append(CellResult(
                cell=cell.name, latency=now - sent, finished=now - start,
                tally=_tally(sum(counts.values()), event["activated"],
                             counts),
                points=points,
                failed=(metrics["counters"].get("outcome.HF", 0)
                        + event["quarantined"]),
                executed=timing.get("executed", 0),
                experiments=timing.get("experiments", 0),
                counters=_volatile_counters(metrics),
                units=list(timing.get("shards") or ()),
                campaign=event["campaign"]))

    def close(self):
        """Drain the service; its fleet joins every worker."""
        if self._thread is not None and self._thread.is_alive():
            self.service.shutdown("benchmark-done")
            self._thread.join(120)
            if self._thread.is_alive():
                raise RuntimeError("campaign service did not stop")


def cells(daemon, clients, fault_model="branch-bit"):
    return tuple(Cell(daemon, client, fault_model) for client in clients)


FTPD_TABLE1 = cells("ftpd", ("Client1", "Client2", "Client3", "Client4"))

#: name -> workload factory.  Why each workload exists is recorded
#: in BENCHMARK.json and README.md.  A serial pass takes 7-11 s at
#: reference host speed: ``table1-ftpd``, the longest, and the most
#: steady, gets one timed pass, the two others two, which is all that
#: fits the time the benchmark's runs are allowed in total.
WORKLOADS = {
    "table1-ftpd": lambda: SerialWorkload(FTPD_TABLE1),
    "table1-ftpd-pruned": lambda: SerialWorkload(FTPD_TABLE1, prune=True,
                                                 passes=2),
    "datafault-mixed": lambda: SerialWorkload(
        cells("ftpd", ("Client1",), "register-bit")
        + cells("pop3d", ("Client1",), "memory-bit"), passes=2),
    "service-warm": lambda: ServiceWorkload(
        cells("sshd", ("Client1", "Client2"))
        + cells("pop3d", ("Client1", "Client2", "ClientA"))),
}


def unit_busy_seconds(results):
    """Worker-busy seconds: summed wall clock of every fleet unit."""
    return sum(unit.get("wall_clock", 0.0)
               for result in results for unit in result.units)


def summed_counters(results):
    total = Counter()
    for result in results:
        total.update(result.counters)
    return total
