#!/usr/bin/env python
"""CI service gate: the campaign service must be invisible in the data.

Starts a real ``repro serve`` process (warm worker fleet behind a
Unix socket), submits two campaigns from two concurrent client
connections -- the ftpd branch-bit cell and the pop3d register-bit
cell -- and asserts that each streamed result set equals an
undisturbed serial run of the same cell record for record, with an
identical deterministic metrics core
(:func:`repro.analysis.equivalence.campaign_differences`).  A third
connection subscribes to the telemetry stream for the whole
concurrent phase: it must not perturb the results, and each
campaign's event stream must arrive gap-free (contiguous per-campaign
sequence numbers) ending in ``campaign-finished``.

Then the shutdown path: a third campaign is submitted with a journal
and the server is SIGTERMed mid-flight; the client must receive a
``checkpoint`` event naming a resumable journal, the server must exit
0, and a plain ``--resume`` of that journal must complete the
campaign with serial-identical records.

Usage::

    python benchmarks/check_service.py [--max-points N] [--workers N]
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.analysis import result_from_dict
from repro.analysis.equivalence import campaign_differences
from repro.apps.ftpd import CLIENT_FACTORIES as FTP_CLIENTS, FtpDaemon
from repro.apps.pop3d import (CLIENT_FACTORIES as POP3_CLIENTS,
                              Pop3Daemon)
from repro.injection import (CampaignResult, run_campaign,
                             run_fleet_campaign)
from repro.obs import check_contiguous
from repro.service import ServiceClient

CELLS = {
    "ftpd": {"daemon": "ftpd", "client": "Client1",
             "encoding": "old", "fault_model": "branch-bit"},
    "pop3d": {"daemon": "pop3d", "client": "Client1",
              "encoding": "old", "fault_model": "register-bit"},
}
DAEMON_CLASSES = {"ftpd": "FtpDaemon", "pop3d": "Pop3Daemon"}


def rebuild_campaign(spec, done, records):
    """A CampaignResult from a service stream, exactly as the
    analysis layer would consume it."""
    campaign = CampaignResult(
        daemon_name=DAEMON_CLASSES[spec["daemon"]],
        client_name=spec["client"], encoding=spec["encoding"],
        fault_model=spec["fault_model"])
    campaign.results = [result_from_dict(record)
                        for record in records]
    campaign.metrics = done["metrics"]
    return campaign


def compare(label, campaign, reference):
    """Failure messages for any divergence from *reference*."""
    return ["%s: %s" % (label, line)
            for line in campaign_differences(campaign, reference)]


def start_server(socket_path, workers):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket",
         socket_path, "--workers", str(workers)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    deadline = time.monotonic() + 30
    while not os.path.exists(socket_path):
        if process.poll() is not None or time.monotonic() > deadline:
            out = process.stdout.read().decode(errors="replace")
            raise SystemExit("service failed to start:\n%s" % out)
        time.sleep(0.1)
    return process


def check_concurrent(socket_path, references, max_points):
    """Two clients, two campaigns, fully interleaved on one fleet --
    with a telemetry subscriber attached for the duration."""
    failures = []
    outputs = {}
    campaign_ids = {}
    received = []
    subscriber = ServiceClient(socket_path)
    subscriber.subscribe()
    drained = threading.Event()

    def pump():
        try:
            for event in subscriber.telemetry():
                received.append(event)
        finally:
            drained.set()

    threading.Thread(target=pump, daemon=True).start()

    def run_cell(name):
        with ServiceClient(socket_path) as client:
            accepted = client.submit(CELLS[name],
                                     max_points=max_points)
            campaign_ids[name] = accepted["campaign"]
            outputs[name] = client.collect(accepted["campaign"])

    threads = [threading.Thread(target=run_cell, args=(name,))
               for name in CELLS]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for name in CELLS:
        done, records = outputs[name]
        campaign = rebuild_campaign(CELLS[name], done, records)
        failures += compare("service %s" % name, campaign,
                            references[name])
        print("service %s: %d record(s), counts %r"
              % (name, len(records), done["counts"]))

    # the subscriber saw both campaigns end, with no sequence gaps
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        finished = {event.get("campaign") for event in received
                    if event.get("type") == "campaign-finished"}
        if all(cid in finished for cid in campaign_ids.values()):
            break
        time.sleep(0.1)
    subscriber.close()
    drained.wait(10)
    for name, cid in sorted(campaign_ids.items()):
        stream = [event for event in received
                  if event.get("campaign") == cid]
        for problem in check_contiguous(stream):
            failures.append("telemetry %s: %s" % (name, problem))
        if not stream or stream[-1].get("type") != "campaign-finished":
            failures.append("telemetry %s: stream never finished "
                            "(saw %d event(s))" % (name, len(stream)))
        else:
            print("telemetry %s: %d event(s), gap-free"
                  % (name, len(stream)))
    return failures


def check_sigterm_drain(socket_path, server, workdir, reference,
                        daemon, max_points):
    """SIGTERM mid-campaign: checkpoint event, exit 0, resumable."""
    failures = []
    journal = str(workdir / "drain.jsonl")
    with ServiceClient(socket_path) as client:
        accepted = client.submit(CELLS["ftpd"], max_points=max_points,
                                 journal=journal)
        server.send_signal(signal.SIGTERM)
        events = list(client.events(accepted["campaign"]))
    terminal = events[-1]
    if terminal["event"] == "checkpoint":
        if not terminal.get("journal"):
            failures.append("checkpoint event names no journal")
        print("drain: checkpointed at %d/%d point(s)"
              % (terminal.get("completed", 0), max_points))
    elif terminal["event"] == "done":
        # the campaign beat the signal; shutdown still has to be clean
        print("drain: campaign finished before SIGTERM landed "
              "(checkpoint path not exercised this run)")
    else:
        failures.append("expected checkpoint/done terminal event, "
                        "got %r" % terminal)
    status = server.wait(timeout=90)
    if status != 0:
        failures.append("server exited %r after SIGTERM (want 0)"
                        % status)
    resumed = run_fleet_campaign(
        daemon, "Client1", FTP_CLIENTS["Client1"], workers=2,
        max_points=max_points, journal=journal, resume=True,
        journal_salvage=True)
    print("drain: resume re-executed %d of %d point(s)"
          % (resumed.timing["executed"], max_points))
    failures += compare("post-drain resume", resumed, reference)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--max-points", type=int, default=60,
                        help="experiments per concurrent campaign")
    parser.add_argument("--drain-points", type=int, default=600,
                        help="experiments in the SIGTERM-drain "
                             "campaign (big enough to catch the "
                             "signal mid-flight)")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    ftp_daemon = FtpDaemon()
    references = {
        "ftpd": run_campaign(ftp_daemon, "Client1",
                             FTP_CLIENTS["Client1"],
                             max_points=args.max_points),
        "pop3d": run_campaign(Pop3Daemon(), "Client1",
                              POP3_CLIENTS["Client1"],
                              fault_model="register-bit",
                              max_points=args.max_points),
    }
    drain_reference = run_campaign(ftp_daemon, "Client1",
                                   FTP_CLIENTS["Client1"],
                                   max_points=args.drain_points)

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        socket_path = str(workdir / "repro.sock")
        server = start_server(socket_path, args.workers)
        try:
            failures += check_concurrent(socket_path, references,
                                         args.max_points)
            failures += check_sigterm_drain(
                socket_path, server, workdir, drain_reference,
                ftp_daemon, args.drain_points)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    if failures:
        print("service gate FAILED:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    print("service gate passed: concurrent submissions serial-"
          "identical under a live subscriber, event streams gap-free, "
          "SIGTERM drain clean and resumable")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
