"""Tests for the campaign benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
from gauge import (at_reference, Gauge, REFERENCE_SAMPLE, slowdown,
                   WINDOW)
from layers import installed, LayerClock, layer_targets, Target
from run import E2E_UNITS, LAYER_UNITS
from workloads import WORKLOADS

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
RUN = [sys.executable, str(SUITE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def run_benchmark(*args, timeout=300):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# the layer clock


def test_self_time_subtracts_nested_children():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def leaf():
        fake.now += 2

    leaf = clock.wrap(leaf, Target(None, "leaf", "kernel",
                                   calls="kernel.calls"))

    def middle():
        fake.now += 1
        leaf()
        fake.now += 1

    middle = clock.wrap(middle, Target(None, "middle", "emu"))

    def outer():
        fake.now += 3
        middle()
        fake.now += 4

    outer = clock.wrap(outer, Target(None, "outer", "watchdog"))

    def phase():
        fake.now += 5
        leaf()                          # charged to the phase

    phase = clock.wrap(phase, Target(None, "phase", "prefix",
                                     inclusive=True))

    start = fake()
    outer()
    phase()
    fake.now += 6                       # outside every layer
    wall = fake() - start

    seconds = clock.seconds()
    assert seconds == {"watchdog": 7, "emu": 2, "kernel": 2, "prefix": 7}
    assert clock.counters() == {"kernel.calls": 1}
    unattributed = wall - sum(seconds.values())
    assert unattributed == 6
    assert sum(seconds.values()) + unattributed == wall


def test_charged_gauge_time_leaves_the_open_span():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def run_():
        fake.now += 5
        clock.charge(2)                 # a gauge sample inside the span

    clock.wrap(run_, Target(None, "run", "emu"))()
    clock.charge(1)                     # outside every span: no-op
    assert clock.seconds() == {"emu": 3}


def test_wrappers_are_removed_after_the_traced_pass():
    targets = layer_targets()
    originals = [vars(t.owner)[t.name] for t in targets]
    with pytest.raises(RuntimeError):
        with installed(LayerClock(), targets):
            for target, original in zip(targets, originals):
                assert vars(target.owner)[target.name] is not original
            raise RuntimeError("pass failed mid-way")
    for target, original in zip(targets, originals):
        assert vars(target.owner)[target.name] is original, target.name


def test_metric_names_and_units_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as stream:
        bench = json.load(stream)
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert declared == E2E_UNITS
    assert layers == LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for name in list(declared) + list(layers) + list(WORKLOADS):
        assert NAME.fullmatch(name), name


# ----------------------------------------------------------------------
# the host-speed gauge


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_slowdown_is_the_mean_over_the_window():
    samples = [
        (0.5, 9.0, 1),                      # before the window
        (1.0, 2 * REFERENCE_SAMPLE, 1),
        (2.0, 4 * REFERENCE_SAMPLE, 1),
        (3.0, 3 * REFERENCE_SAMPLE, 2),
        (4.0, 9.0, 1),                      # at the end: outside
    ]
    seconds, factor = slowdown(samples, 1.0, 4.0)
    assert seconds == {1: 6 * REFERENCE_SAMPLE, 2: 3 * REFERENCE_SAMPLE}
    assert math.isclose(factor, 3.0)
    assert slowdown(samples, 5.0, 6.0) == ({}, None)


def test_each_slice_is_normalised_by_its_own_factor():
    ref = REFERENCE_SAMPLE
    samples = [
        (0.1, ref, os.getpid()),            # 1x, this process
        (0.6, 3 * ref, 99),                 # 3x, a worker of two
        (1.1, ref / 2, os.getpid()),        # faster than reference: 1x
    ]
    work, reference, gauge_cpu = at_reference(samples, 0.0, 3 * WINDOW,
                                              lanes=2)
    fast, slow, faster = WINDOW - ref, WINDOW - 1.5 * ref, WINDOW - ref / 2
    assert math.isclose(work, fast + slow + faster)
    assert math.isclose(reference, fast + slow / 3 + faster)
    assert math.isclose(gauge_cpu, 4.5 * ref)


def test_gauge_samples_this_process_until_stopped(tmp_path):
    gauge = Gauge(tmp_path / "gauge.bin")
    with gauge:
        _busy(0.4)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    taken = gauge.samples()
    assert len(taken) >= 5
    assert {pid for __, __, pid in taken} == {os.getpid()}
    _busy(0.2)
    assert gauge.samples() == taken


def test_gauge_reaches_forked_workers_only(tmp_path):
    gauge = Gauge(tmp_path / "gauge.bin", here=False, children=True)
    with gauge:
        worker = multiprocessing.get_context("fork").Process(
            target=_busy, args=(0.4,))
        worker.start()
        _busy(0.2)
        worker.join(10)
    assert not worker.is_alive() and worker.exitcode == 0
    assert {pid for __, __, pid in gauge.samples()} == {worker.pid}


# ----------------------------------------------------------------------
# end to end


def test_tampered_reference_fails_the_run(tmp_path, monkeypatch, capsys):
    with open(SUITE / "reference.json") as stream:
        reference = json.load(stream)
    reference["ftpd/Client3/branch-bit"]["counts"]["NA"] += 1
    tampered = tmp_path / "reference.json"
    tampered.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", tampered)
    out = tmp_path / "record.json"
    status = run.main(["--workload", "table1-ftpd-pruned",
                       "--out", str(out)])
    stdout = capsys.readouterr().out
    assert status == 1, stdout
    summary = last_json(stdout)
    record = json.loads(out.read_text())
    assert summary["correct"] is False
    # every point of the tampered cell fails, in each of the two passes
    assert record["passes"] == 2
    assert summary["failed"] == 2 * 1560
    assert record["failed_frac"] > 0
    assert "MISMATCH" in stdout


def test_seed_changes_order_but_not_tallies(tmp_path):
    records = []
    for seed in (1, 2):
        out = tmp_path / ("seed%d.json" % seed)
        result = run_benchmark("--workload", "table1-ftpd", "--smoke",
                               "--seed", str(seed), "--out", str(out))
        assert result.returncode == 0, result.stdout + result.stderr
        records.append(json.loads(out.read_text()))
    assert records[0]["orders"] != records[1]["orders"]
    assert records[0]["cells"] == records[1]["cells"]


def test_smoke_runs_every_workload_within_a_minute():
    start = time.monotonic()
    result = run_benchmark("--smoke", timeout=120)
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stdout + result.stderr
    summary = last_json(result.stdout)
    assert summary["correct"] and summary["failed"] == 0
    assert sorted(summary["metrics"]) == sorted(WORKLOADS)
    assert elapsed < 60
