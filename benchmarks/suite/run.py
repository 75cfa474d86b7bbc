#!/usr/bin/env python3
"""End-to-end campaign benchmark: time to a finished table, checked.

Usage::

    python benchmarks/suite/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out PATH]

With exactly one ``--workload`` the workload runs in this process:
one set-up (timed as ``setup_s``), then the workload's fixed number
of timed passes,
reporting their medians; ``--trace 1`` instead runs a traced
pass (after an untraced one on the serial workloads) and reports
the per-layer metrics.  The pass count is fixed, so the estimator does
not depend on how fast the code is; ``--seconds`` is accepted, as
BENCHMARK.json's command passes it, but changes nothing.  Times are
host-speed normalised by :mod:`gauge` (raw ones go to ``--out``).
Every pass's per-cell tallies are checked against ``reference.json``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
cell failed or mismatched.

Without ``--workload`` (or with several) every named workload runs in
a fresh subprocess, in the order given; a bare ``--trace`` adds a
traced subprocess per workload.  ``--smoke`` truncates every cell to
a few points, runs one pass and skips the reference check.

``--seed`` permutes the cell order of every pass (and, on
``service-warm``, which connection submits which cell); outputs must
not depend on it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from gauge import at_reference, Gauge, slowdown  # noqa: E402
from layers import installed, LayerClock  # noqa: E402
from workloads import (peak_rss_mb, summed_counters,  # noqa: E402
                       unit_busy_seconds, WORKERS, WORKLOADS)

#: scratch space for journals, the service socket and the gauge's
#: samples, inside the checkout; each run uses (and removes) its own
#: subdirectory.
WORK = ROOT / ".bench_work"
REFERENCE = SUITE / "reference.json"
#: points per cell under ``--smoke``.
SMOKE_POINTS = 40
#: BENCHMARK.json's ``run_seconds``: about what the longest run's timed
#: passes take at reference host speed.
DEFAULT_SECONDS = 20

E2E_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "apps.build_s": "s",
    "golden.s": "s",
    "pruning.s": "s",
    "pruning.executed_frac": "frac",
    "pruning.guard_trips": "count",
    "prefix.s": "s",
    "prefix.sessions": "count",
    "prefix.insns": "count",
    "prefix.insns_per_s": "1/s",
    "snapshot.capture_s": "s",
    "snapshot.restore_s": "s",
    "snapshot.restores": "count",
    "snapshot.pages_written": "count",
    "snapshot.kernel_rewinds": "count",
    "inject.s": "s",
    "emu.s": "s",
    "emu.insns": "count",
    "emu.insns_per_s": "1/s",
    "kernel.s": "s",
    "kernel.syscalls": "count",
    "watchdog.s": "s",
    "watchdog.probes": "count",
    "outcomes.classify_s": "s",
    "journal.s": "s",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "fleet.submit_s": "s",
    "fleet.pump_s": "s",
    "fleet.merge_s": "s",
    "fleet.worker_busy_s": "s",
    "fleet.worker_idle_frac": "frac",
    "fleet.units": "count",
    "fleet.respawns": "count",
    "fleet.golden_reused": "count",
    "fleet.sessions_reused": "count",
    "fleet.rss_growth_mb": "MB",
    "service.overhead_ms_p50": "ms",
    "unattributed_s": "s",
    "unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# correctness


def check_passes(passes, cells, reference, smoke):
    """``(attempted, failed, problems)`` over every pass.

    A cell that is missing, produced no tally or differs from the
    reference counts all its points as failed; otherwise its harness
    faults and quarantined points do."""
    attempted = failed = 0
    problems = []
    expected = sorted(cell.name for cell in cells)
    for number, result in enumerate(passes):
        seen = sorted(cell.cell for cell in result.cells)
        if seen != expected:
            problems.append("pass %d: cells %s, want %s"
                            % (number, seen, expected))
            attempted += 1
            failed += 1
        for cell in result.cells:
            points = max(cell.points, 1)
            attempted += points
            if cell.tally is None:
                problems.append("pass %d: %s produced no tally"
                                % (number, cell.cell))
                failed += points
            elif not smoke and cell.tally != reference.get(cell.cell):
                problems.append("pass %d: %s tally %s, reference %s"
                                % (number, cell.cell,
                                   json.dumps(cell.tally, sort_keys=True),
                                   json.dumps(reference.get(cell.cell),
                                              sort_keys=True)))
                failed += points
            else:
                failed += min(cell.failed, points)
    return attempted, failed, problems


# ----------------------------------------------------------------------
# metrics


def cell_p50_seconds(timed):
    """Median over cells x timed passes of the time from the start of
    the pass to the cell's final tally.  Reported, not bounded: it
    depends on the seeded cell order."""
    return statistics.median(c.finished for p in timed for c in p.cells)


def pass_figures(result, samples, lanes):
    """One pass's raw and host-speed-normalised figures.  CPU seconds,
    read once per pass, share the wall clock's effective factor."""
    work, wall, gauge_cpu = at_reference(samples, result.start, result.end,
                                         lanes)
    factor = work / wall
    return {
        "wall": wall,
        "cpu": (result.cpu - gauge_cpu) / factor,
        "points": sum(c.tally["runs"] for c in result.cells if c.tally),
        "factor": factor,
        "raw_wall": result.wall,
        "raw_cpu": result.cpu,
        "finished": {c.cell: c.finished for c in result.cells},
    }


def setup_seconds(windows, samples, lanes):
    """Median set-up at reference host speed, with the effective
    factor of the whole set-up (one build is too short to gauge)."""
    work, reference, __ = at_reference(samples, windows[0][0],
                                       windows[-1][1], lanes)
    return statistics.median(
        at_reference(samples, start, end, lanes)[0]
        for start, end in windows) * reference / work


def end_to_end_metrics(setup_s, figures, peak_rss):
    """Plain medians over the timed passes of each pass's normalised
    figures."""
    return {
        "wall_s": statistics.median(f["wall"] for f in figures),
        "points_per_s": statistics.median(
            _ratio(f["points"], f["wall"]) for f in figures),
        "cpu_s": statistics.median(f["cpu"] for f in figures),
        "peak_rss_mb": peak_rss,
        "setup_s": setup_s,
    }


def layer_metrics(traced, baseline, clock, build_clock, extra, samples):
    """Per-layer metrics of the traced pass (see README.md's map).

    Layer seconds are raw: the layer clock leaves this process's gauge
    samples out of every span, so the budget's wall leaves them out
    too.  ``trace.overhead_frac`` compares normalised walls."""
    seconds = clock.seconds()
    counts = clock.counters()
    counters = summed_counters(traced.cells)
    seconds_by_pid, __ = slowdown(samples, traced.start, traced.end)
    wall = traced.wall - seconds_by_pid.get(os.getpid(), 0.0)
    busy = unit_busy_seconds(traced.cells)
    marks = clock.marks()
    overheads = []
    for cell in traced.cells:
        submit = marks.get(("fleet.submit", cell.campaign))
        merge = marks.get(("fleet.merge", cell.campaign))
        if submit is not None and merge is not None:
            overheads.append(cell.latency - (merge[1] - submit[0]))
    attributed = sum(seconds.values())
    return {
        "apps.build_s": build_clock.seconds().get("apps", 0.0),
        "golden.s": seconds.get("golden", 0.0),
        "pruning.s": seconds.get("pruning", 0.0),
        "pruning.executed_frac": _ratio(
            sum(c.executed for c in traced.cells),
            sum(c.experiments for c in traced.cells)),
        "pruning.guard_trips": counters["pruning.guard_trips"],
        "prefix.s": seconds.get("prefix", 0.0),
        "prefix.sessions": counts.get("prefix.sessions", 0),
        "prefix.insns": counts.get("prefix.insns", 0),
        "prefix.insns_per_s": _ratio(counts.get("prefix.insns", 0),
                                     seconds.get("prefix", 0.0)),
        "snapshot.capture_s": seconds.get("snapshot.capture", 0.0),
        "snapshot.restore_s": seconds.get("snapshot.restore", 0.0),
        "snapshot.restores": counts.get("snapshot.restores", 0),
        "snapshot.pages_written": counts.get("snapshot.pages_written", 0),
        "snapshot.kernel_rewinds": counts.get("snapshot.kernel_rewinds",
                                              0),
        "inject.s": seconds.get("inject", 0.0),
        "emu.s": seconds.get("emu", 0.0),
        "emu.insns": counts.get("emu.insns", 0),
        "emu.insns_per_s": _ratio(counts.get("emu.insns", 0),
                                  seconds.get("emu", 0.0)),
        "kernel.s": seconds.get("kernel", 0.0),
        "kernel.syscalls": counts.get("kernel.syscalls", 0),
        "watchdog.s": seconds.get("watchdog", 0.0),
        "watchdog.probes": counters["runtime.watchdog_probes"],
        "outcomes.classify_s": seconds.get("outcomes.classify", 0.0),
        "journal.s": seconds.get("journal", 0.0),
        "journal.records": counts.get("journal.records", 0),
        "journal.bytes": extra["journal_bytes"],
        "fleet.submit_s": seconds.get("fleet.submit", 0.0),
        "fleet.pump_s": seconds.get("fleet.pump", 0.0),
        "fleet.merge_s": seconds.get("fleet.merge", 0.0),
        "fleet.worker_busy_s": busy,
        "fleet.worker_idle_frac": (max(0.0, 1.0 - busy / (WORKERS * wall))
                                   if extra["fleet"] else 0.0),
        "fleet.units": sum(len(c.units) for c in traced.cells),
        "fleet.respawns": extra["respawns"],
        "fleet.golden_reused": counters["runtime.golden_reused"],
        "fleet.sessions_reused": counters["runtime.sessions_reused"],
        "fleet.rss_growth_mb": extra["rss_growth_mb"],
        "service.overhead_ms_p50": (1000.0 * statistics.median(overheads)
                                    if overheads else 0.0),
        "unattributed_s": wall - attributed,
        "unattributed_frac": _ratio(wall - attributed, wall),
        # 0 on the fleet: the wrappers never reach the forked workers
        "trace.overhead_frac": (
            _ratio(pass_figures(traced, samples, 1)["wall"],
                   pass_figures(baseline, samples, 1)["wall"]) - 1.0
            if baseline is not None else 0.0),
    }


# ----------------------------------------------------------------------
# one workload, in this process


def _worker_hwm(workload):
    return {pid: peak_rss_mb(pid) for pid in workload.pids()[1:]}


def _journal_bytes(workdir):
    return sum(path.stat().st_size for path in Path(workdir).glob("*.jsonl"))


def measure(name, seed, trace, smoke, reference):
    """Run one workload; returns the detailed result record."""
    workload = WORKLOADS[name]()
    rng = random.Random(seed)
    orders = []
    max_points = SMOKE_POINTS if smoke else None
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=name + "-", dir=WORK)
    # the fleet's workers gauge themselves; this process only when it
    # does the work
    fleet = workload.uses_fleet
    gauge = Gauge(os.path.join(workdir, "gauge.bin"), here=not fleet,
                  children=fleet)

    def next_order():
        order = rng.sample(workload.cells, len(workload.cells))
        orders.append([cell.name for cell in order])
        return order

    def run_pass():
        result = workload.run_pass(next_order(), workdir, max_points)
        checked.append(result)
        return result

    checked = []
    timed = []
    figures = []
    try:
        gauge.start()
        cold = workload.setup(next_order(), workdir, max_points)
        if cold is not None:
            checked.append(cold)
        if not trace:
            timed = [run_pass()
                     for __ in range(1 if smoke else workload.passes)]
            peak = max(peak_rss_mb(pid) for pid in workload.pids())
            gauge.stop()
            samples = gauge.samples()
            figures = [pass_figures(p, samples, workload.lanes)
                       for p in timed]
            metrics = end_to_end_metrics(
                setup_seconds(workload.setup_windows, samples,
                              workload.lanes), figures, peak)
            units = E2E_UNITS
        else:
            hwm_after_setup = _worker_hwm(workload)
            respawns = (workload.service.fleet.events["respawns"]
                        if fleet else 0)
            # serial: an untraced pass first, the baseline of
            # trace.overhead_frac
            baseline = None if fleet else run_pass()
            with installed(LayerClock()) as build_clock:
                gauge.on_sample = build_clock.charge
                workload.build()
            with installed(LayerClock()) as clock:
                gauge.on_sample = clock.charge
                traced = run_pass()
            gauge.stop()
            hwm = _worker_hwm(workload)
            extra = {
                "fleet": fleet,
                "journal_bytes": _journal_bytes(workdir),
                "respawns": (workload.service.fleet.events["respawns"]
                             - respawns if fleet else 0),
                "rss_growth_mb": max(
                    (hwm[pid] - hwm_after_setup.get(pid, hwm[pid])
                     for pid in hwm), default=0.0),
            }
            metrics = layer_metrics(traced, baseline, clock, build_clock,
                                    extra, gauge.samples())
            units = LAYER_UNITS
    finally:
        try:
            gauge.stop()
            workload.close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed, problems = check_passes(
        checked, workload.cells, reference, smoke)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "smoke": smoke, "passes": len(checked),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": _ratio(failed, attempted), "problems": problems,
        "cell_p50_s": cell_p50_seconds(timed) if timed else None,
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units},
        "cells": {cell.cell: cell.tally for cell in checked[-1].cells},
        "timed_passes": figures,
        "orders": orders,
    }


def report(record):
    """Human-readable lines; the caller prints the JSON line last."""
    print("%s (seed %d, %d pass(es) checked%s)"
          % (record["workload"], record["seed"], record["passes"],
             ", traced" if record["trace"] else ""))
    for problem in record["problems"]:
        print("  MISMATCH %s" % problem)
    for key, metric in record["metrics"].items():
        print("  %-26s %16.6f %s" % (key, metric["value"], metric["unit"]))
    # reported beside the metrics, never bounded (see README.md)
    print("  %-26s %16.6f %s" % ("failed_frac", record["failed_frac"],
                                 "frac"))
    if record["cell_p50_s"] is not None:
        print("  %-26s %16.6f %s" % ("cell_p50_s", record["cell_p50_s"],
                                     "s"))
    for number, figures in enumerate(record["timed_passes"]):
        print("  pass %d: raw wall %.3f s, raw cpu %.3f s, host %.3fx "
              "slower than reference" % (number, figures["raw_wall"],
                                         figures["raw_cpu"],
                                         figures["factor"]))


# ----------------------------------------------------------------------
# several workloads, one subprocess each


def run_all(args, names):
    WORK.mkdir(exist_ok=True)
    records = {}
    ok = True
    for name in names:
        for trace in ((0, 1) if args.trace else (0,)):
            handle, out = tempfile.mkstemp(suffix=".json", dir=WORK)
            os.close(handle)
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace",
                       str(trace), "--out", out]
            if args.smoke:
                command.append("--smoke")
            try:
                status = subprocess.run(command).returncode
                with open(out) as stream:
                    text = stream.read()
            finally:
                os.unlink(out)
            if status != 0:
                ok = False
            if not text:
                print("%s: no result (exit %d)" % (name, status))
                continue
            record = json.loads(text)
            merged = records.setdefault(name, {
                "metrics": {}, "cells": record["cells"],
                "correct": True, "attempted": 0, "failed": 0,
                "orders": {}})
            merged["metrics"].update(record["metrics"])
            merged["correct"] &= record["correct"]
            merged["attempted"] += record["attempted"]
            merged["failed"] += record["failed"]
            merged["failed_frac"] = _ratio(merged["failed"],
                                           merged["attempted"])
            merged["orders"]["trace" if trace else "e2e"] = record["orders"]
            if not trace:
                merged["cell_p50_s"] = record["cell_p50_s"]
                merged["timed_passes"] = record["timed_passes"]
    ok = ok and len(records) == len(names)
    summary = {
        "correct": ok and all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {name: record["metrics"]
                    for name, record in records.items()},
    }
    if args.out:
        with open(args.out, "w") as stream:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "smoke": args.smoke, "order": names,
                       "workloads": records}, stream, indent=1,
                      sort_keys=True)
            stream.write("\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS),
                        help="workload to run (repeat for several, in "
                             "order; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="accepted and ignored: a run always "
                             "measures the workload's fixed pass count")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="1: report per-layer metrics from a traced "
                             "pass")
    parser.add_argument("--smoke", action="store_true",
                        help="%d points per cell, one pass, no reference "
                             "check" % SMOKE_POINTS)
    parser.add_argument("--out", help="write the detailed record here")
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)
    if len(names) != 1:
        return run_all(args, names)
    with open(REFERENCE) as stream:
        reference = json.load(stream)
    record = measure(names[0], args.seed, args.trace, args.smoke,
                     reference)
    report(record)
    if args.out:
        with open(args.out, "w") as stream:
            json.dump(record, stream, indent=1, sort_keys=True)
            stream.write("\n")
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
