"""Warm-fleet benefit: cold vs warm campaign submission.

Infrastructure benchmark for the layered campaign engine, not a paper
experiment.  One :class:`~repro.injection.fleet.WorkerFleet` (the
execution layer behind ``repro serve`` and the CLI's ``--workers``
path) runs the ftpd Table 1 Client1 cell twice:

- **cold**: fresh fleet -- the parent and every worker build the
  daemon, run the golden reference execution and capture each
  injection site's breakpoint session from scratch;
- **warm**: the very next submission of the same cell on the same
  fleet -- the parent reuses its cell-cached golden run, and the
  workers reuse their daemons, goldens and session snapshots.

Both runs must produce identical deterministic output (that is the
fleet's equivalence invariant; the service-smoke CI job checks it
against serial byte-for-byte); this bench gates the *reason the
service exists* -- that the warm path actually skips the setup work.

Acceptance criteria: the warm run reuses the golden run instead of
re-recording it, and completes at least 1.15x faster than the cold
run (``service_warm_speedup``, tracked by check_regression.py
against a committed baseline).
"""

from __future__ import annotations

import time

from repro.analysis.equivalence import campaign_differences
from repro.apps.ftpd import CLIENT_FACTORIES as FTP_CLIENTS, FtpDaemon
from repro.injection import (FleetConfig, run_fleet_campaign,
                             WorkerFleet)

MAX_POINTS = 120
WORKERS = 2


def _counters(campaign):
    return campaign.metrics.get("volatile", {}).get("counters", {})


def test_service_warm_speedup(record_result, record_json):
    daemon = FtpDaemon()
    factory = FTP_CLIENTS["Client1"]
    fleet = WorkerFleet(FleetConfig(workers=WORKERS))
    fleet.start()
    try:
        start = time.perf_counter()
        cold = run_fleet_campaign(daemon, "Client1", factory,
                                  fleet=fleet, max_points=MAX_POINTS)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = run_fleet_campaign(daemon, "Client1", factory,
                                  fleet=fleet, max_points=MAX_POINTS)
        warm_wall = time.perf_counter() - start
    finally:
        fleet.stop()

    speedup = cold_wall / warm_wall if warm_wall > 0 else 0.0
    cold_counters = _counters(cold)
    warm_counters = _counters(warm)
    text = ("cold submission: %.2fs (%d golden run(s))\n"
            "warm submission: %.2fs (%d golden reuse(s), "
            "%d session reuse(s))\n"
            "warm speedup: %.2fx over %d points on %d workers"
            % (cold_wall, cold_counters.get("runtime.golden_runs", 0),
               warm_wall,
               warm_counters.get("runtime.golden_reused", 0),
               warm_counters.get("runtime.sessions_reused", 0),
               speedup, MAX_POINTS, WORKERS))
    record_result("service_warm", text)
    record_json("service_warm", {
        "cold_wall_clock": cold_wall,
        "warm_wall_clock": warm_wall,
        "service_warm_speedup": speedup,
        "golden_runs_cold": cold_counters.get("runtime.golden_runs",
                                              0),
        "golden_reused_warm": warm_counters.get(
            "runtime.golden_reused", 0),
        "sessions_reused_warm": warm_counters.get(
            "runtime.sessions_reused", 0),
        "points": MAX_POINTS,
        "workers": WORKERS,
    })

    # the warm path must actually be warm, not merely fast
    assert cold_counters.get("runtime.golden_runs", 0) >= 1
    assert cold_counters.get("runtime.golden_reused", 0) == 0
    assert warm_counters.get("runtime.golden_runs", 0) == 0
    assert warm_counters.get("runtime.golden_reused", 0) >= 1
    # and warm output must equal cold output exactly
    assert campaign_differences(warm, cold) == []
    assert speedup >= 1.15, \
        "warm submission only %.2fx faster than cold" % speedup
