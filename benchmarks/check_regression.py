#!/usr/bin/env python
"""CI benchmark-regression gate.

Compares the JSON metrics emitted by a fresh benchmark run
(``benchmarks/results/*.json``) against the committed baselines in
``benchmarks/results/baselines/`` and fails when a tracked
throughput metric drops by more than the threshold (default 25 %).

Usage::

    # after: pytest benchmarks/bench_emulator_speed.py benchmarks/bench_table1_ftp.py
    python benchmarks/check_regression.py

    # bless the current numbers as the new baseline
    python benchmarks/check_regression.py --update

The threshold is deliberately loose: it tolerates runner-to-runner
noise while still catching the order-of-magnitude slowdowns an
accidental fast-path bypass causes (the campaign loop is ~100x slower
without the block engine).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINE_DIR = RESULTS_DIR / "baselines"
DEFAULT_THRESHOLD = 0.25

#: tracked metrics: result-file stem -> list of higher-is-better keys
#: looked up in that file's top-level JSON object.
METRICS = {
    "emulator_speed": ["instructions_per_sec"],
    "sampler_overhead": ["sampled_instructions_per_sec"],
    "table1_ftp_timing": ["experiments_per_sec"],
    "snapshot_fork": ["experiments_per_sec", "restore_speedup"],
    "pruning": ["points_pruned_frac", "campaign_speedup"],
    "service_warm": ["service_warm_speedup"],
}

#: a top-level key that marks a result file as carrying gate-worthy
#: throughput numbers.  Any current result file with such a key that is
#: neither tracked in METRICS nor explicitly exempted below makes the
#: gate fail loudly -- silently skipping it would let a regression in a
#: new benchmark ship unnoticed.
GATE_KEY_SUFFIX = "_per_sec"
GATE_KEYS = frozenset({"restore_speedup", "points_pruned_frac",
                       "campaign_speedup", "service_warm_speedup"})

#: historical timing dumps committed before their benches joined the CI
#: gate; they carry experiments_per_sec but run outside the gate job,
#: so there is nothing to compare against.  Additions here must be
#: deliberate -- a new bench should get a baseline, not an exemption.
UNTRACKED_OK = frozenset({
    "table1_ssh_timing",
    "table3_timing",
    "table5_ftp_timing",
    "table5_ssh_timing",
})

UPDATE_HINT = (
    "If the change is an accepted trade-off (or the baseline machine "
    "changed), refresh the baselines with:\n"
    "    python benchmarks/check_regression.py --update\n"
    "and commit benchmarks/results/baselines/."
)


def gate_keys_in(payload):
    """The gate-worthy metric keys present in a result payload."""
    if not isinstance(payload, dict):
        return []
    return sorted(key for key, value in payload.items()
                  if isinstance(value, (int, float))
                  and (key.endswith(GATE_KEY_SUFFIX)
                       or key in GATE_KEYS))


def untracked_failures(currents, metrics=None, exempt=UNTRACKED_OK):
    """Fail loudly for current results carrying gate-worthy metrics
    that have no committed baseline and no exemption.

    Both the keys found in the payload and the recognised gate-key
    set quoted in the message are sorted -- GATE_KEYS is a frozenset,
    and hash-ordered output would make otherwise-identical failures
    from different matrix cells diff as changes.
    """
    failures = []
    for name in sorted(currents):
        if name in (metrics or METRICS) or name in exempt:
            continue
        keys = gate_keys_in(currents[name])
        if keys:
            failures.append(
                "%s: %s present in benchmarks/results/%s.json but the "
                "metric is untracked -- add it to METRICS and commit a "
                "baseline (or exempt the stem in UNTRACKED_OK); gate "
                "keys: *%s, %s"
                % (name, ", ".join(keys), name, GATE_KEY_SUFFIX,
                   ", ".join(sorted(GATE_KEYS))))
    return failures


def compare_metric(name, key, baseline_value, current_value,
                   threshold=DEFAULT_THRESHOLD):
    """Return a failure message, or ``None`` when within threshold.

    Metrics are throughputs: *higher* is better, and a current value
    below ``baseline * (1 - threshold)`` is a regression.
    """
    if baseline_value is None:
        return "%s: baseline has no %r metric" % (name, key)
    if current_value is None:
        return "%s: current run produced no %r metric" % (name, key)
    if baseline_value <= 0:
        return None
    ratio = current_value / baseline_value
    if ratio < 1.0 - threshold:
        return ("%s: %s regressed %.1f%% "
                "(baseline %.1f -> current %.1f, threshold %.0f%%)"
                % (name, key, (1.0 - ratio) * 100.0,
                   baseline_value, current_value, threshold * 100.0))
    return None


def compare_all(baselines, currents, threshold=DEFAULT_THRESHOLD,
                metrics=None):
    """Compare metric dicts keyed by result-file stem; returns the
    list of failure messages (empty == gate passes)."""
    failures = []
    for name, keys in (metrics or METRICS).items():
        baseline = baselines.get(name)
        current = currents.get(name)
        if baseline is None:
            failures.append(
                "%s: no committed baseline (benchmarks/results/"
                "baselines/%s.json)" % (name, name))
            continue
        if current is None:
            failures.append(
                "%s: benchmark run produced no benchmarks/results/"
                "%s.json -- did the bench fail?" % (name, name))
            continue
        for key in keys:
            failure = compare_metric(name, key, baseline.get(key),
                                     current.get(key), threshold)
            if failure:
                failures.append(failure)
    failures.extend(untracked_failures(currents, metrics))
    return failures


def _load_dir(directory):
    payloads = {}
    for path in sorted(directory.glob("*.json")):
        payloads[path.stem] = json.loads(path.read_text())
    return payloads


def update_baselines(currents):
    BASELINE_DIR.mkdir(parents=True, exist_ok=True)
    for name in METRICS:
        current = currents.get(name)
        if current is None:
            raise SystemExit(
                "cannot update baseline %s: benchmarks/results/%s.json "
                "missing -- run the benchmarks first" % (name, name))
        path = BASELINE_DIR / ("%s.json" % name)
        path.write_text(json.dumps(current, indent=1) + "\n")
        print("baseline updated: %s" % path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD,
                        help="allowed fractional drop (default 0.25)")
    parser.add_argument("--update", action="store_true",
                        help="bless current results as the baseline")
    args = parser.parse_args(argv)

    currents = _load_dir(RESULTS_DIR)
    if args.update:
        update_baselines(currents)
        return 0

    baselines = _load_dir(BASELINE_DIR)
    failures = compare_all(baselines, currents, args.threshold)
    if failures:
        print("benchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        print(UPDATE_HINT, file=sys.stderr)
        return 1
    for name, keys in METRICS.items():
        for key in keys:
            print("%s: %s %.1f (baseline %.1f) ok"
                  % (name, key, currents[name].get(key, 0.0),
                     baselines[name].get(key, 0.0)))
    print("benchmark regression gate passed "
          "(threshold %.0f%%)" % (args.threshold * 100.0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
