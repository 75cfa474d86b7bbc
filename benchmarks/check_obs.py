#!/usr/bin/env python
"""CI observability-artifact gate.

Validates the trace, event and metrics files a smoke campaign wrote:

``trace``
    the file loads as Chrome-trace/Perfetto JSON, every event carries
    the required keys (``ph``/``ts``/``pid``/``tid``/``name``), and
    the span tree nests temporally -- every event (milestone instants
    included) falls inside the single ``campaign`` root span, every
    ``experiment`` span falls inside a ``shard`` span when shards are
    present.

``events``
    an ``--events`` JSONL file is the whole stream: per campaign,
    ``seq`` runs 0, 1, 2, ... in file order, ``golden`` and
    ``campaign-started`` are present and ``campaign-finished`` comes
    last (fleet-scoped worker-lifecycle events are checked for
    contiguity only); each finished stream folds
    (:func:`repro.obs.top.fold_events`, the one progress reducer) to a
    finished view whose ``completed`` is ``campaign-started``'s
    ``points`` and whose tally is ``campaign-finished``'s ``counts``.

``metrics-equal``
    two metrics-registry dumps agree on the deterministic core
    (:func:`repro.analysis.equivalence.deterministic_core`).  CI
    feeds it a serial and a ``--workers 2`` run of the same campaign:
    the emulator is deterministic, so any difference is an
    aggregation bug in the shard merge.

That observers leave records and metrics unchanged in-process is the
oracle's job (``tests/properties/test_oracle.py``).

Usage::

    python benchmarks/check_obs.py trace smoke-trace.json
    PYTHONPATH=src python benchmarks/check_obs.py events \\
        smoke-events.jsonl
    PYTHONPATH=src python benchmarks/check_obs.py metrics-equal \\
        serial.json sharded.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REQUIRED_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")


def load_events(path):
    payload = json.loads(pathlib.Path(path).read_text())
    if isinstance(payload, dict):
        payload = payload.get("traceEvents")
    if not isinstance(payload, list):
        raise SystemExit("%s: not a Chrome-trace file (expected an "
                         "object with traceEvents or a bare array)" % path)
    return payload


def _contains(outer, inner):
    return (outer["ts"] <= inner["ts"]
            and inner["ts"] + inner.get("dur", 0)
            <= outer["ts"] + outer.get("dur", 0))


def check_trace(path):
    """Return a list of failure messages for one trace file."""
    events = load_events(path)
    failures = []
    if not events:
        return ["%s: trace is empty" % path]
    for index, event in enumerate(events):
        missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            failures.append("%s: event #%d (%r) missing keys %s"
                            % (path, index, event.get("name"),
                               ", ".join(missing)))
    by_name = {}
    for event in events:
        by_name.setdefault(event.get("name"), []).append(event)
    roots = by_name.get("campaign", [])
    if len(roots) != 1:
        failures.append("%s: expected exactly one campaign span, got %d"
                        % (path, len(roots)))
        return failures
    (root,) = roots
    for event in events:
        if not _contains(root, event):
            failures.append(
                "%s: %r span at ts=%d escapes the campaign span"
                % (path, event.get("name"), event.get("ts", -1)))
    shards = by_name.get("shard", [])
    for experiment in by_name.get("experiment", []):
        candidates = ([shard for shard in shards
                       if shard["tid"] == experiment["tid"]]
                      if shards else [root])
        if not any(_contains(outer, experiment)
                   for outer in candidates):
            failures.append(
                "%s: experiment %r (tid %d) outside its shard span"
                % (path, experiment.get("args", {}).get("point"),
                   experiment.get("tid", -1)))
    if not by_name.get("golden-run"):
        failures.append("%s: no golden-run span" % path)
    return failures


#: campaign-less event types: worker lifecycle, shared by every live
#: campaign of a fleet.
FLEET_EVENT_TYPES = frozenset(("worker-respawn", "worker-backoff",
                               "worker-retired"))


def check_events(path):
    """Return a list of failure messages for one ``--events`` file."""
    from repro.obs.top import fold_events
    events = [json.loads(line)
              for line in pathlib.Path(path).read_text().splitlines()
              if line.strip()]
    if not events:
        return ["%s: event file is empty" % path]
    streams = {}
    for event in events:
        streams.setdefault(event.get("campaign"), []).append(event)
    failures = []
    for campaign, stream in sorted(streams.items(),
                                   key=lambda item: str(item[0])):
        label = "%s: campaign %s" % (path, campaign)
        seqs = [event.get("seq") for event in stream]
        if seqs != list(range(len(seqs))):
            failures.append("%s: seq is not contiguous from 0 in file "
                            "order (%r...)" % (label, seqs[:10]))
        types = [event.get("type") for event in stream]
        if set(types) <= FLEET_EVENT_TYPES:
            continue
        for required in ("golden", "campaign-started"):
            if required not in types:
                failures.append("%s: no %s event" % (label, required))
        if types[-1] != "campaign-finished":
            failures.append("%s: last event is %r, not "
                            "campaign-finished" % (label, types[-1]))
            continue
        view = fold_events(stream)[campaign]
        points = [event.get("points") for event in stream
                  if event.get("type") == "campaign-started"]
        counts = {outcome: count for outcome, count
                  in stream[-1].get("counts", {}).items() if count}
        if not view.finished:
            failures.append("%s: the fold is not finished" % label)
        if points and view.completed != points[0]:
            failures.append("%s: the fold completed %d of %d point(s)"
                            % (label, view.completed, points[0]))
        if view.outcomes != counts:
            failures.append("%s: the fold's tally %r is not "
                            "campaign-finished's %r"
                            % (label, view.outcomes, counts))
    return failures


def check_metrics_equal(left_path, right_path):
    """Return failure messages unless the deterministic cores match."""
    from repro.analysis.equivalence import deterministic_core
    left = json.loads(pathlib.Path(left_path).read_text())
    right = json.loads(pathlib.Path(right_path).read_text())
    failures = []
    for side, registry in ((left_path, left), (right_path, right)):
        if "counters" not in registry:
            failures.append("%s: no counters section -- not a metrics "
                            "registry dump" % side)
    if failures:
        return failures
    left_core = deterministic_core(left)
    right_core = deterministic_core(right)
    if left_core != right_core:
        for section in sorted(set(left_core) | set(right_core)):
            if left_core.get(section) != right_core.get(section):
                failures.append(
                    "deterministic core differs in %r:\n  %s: %s\n  %s: %s"
                    % (section, left_path,
                       json.dumps(left_core.get(section), sort_keys=True),
                       right_path,
                       json.dumps(right_core.get(section), sort_keys=True)))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    trace = commands.add_parser(
        "trace", help="validate Chrome-trace shape and span nesting")
    trace.add_argument("paths", nargs="+")
    events = commands.add_parser(
        "events", help="validate --events streams: contiguous seq, "
                       "golden and campaign-started present, "
                       "campaign-finished last, folds to its tally")
    events.add_argument("paths", nargs="+")
    equal = commands.add_parser(
        "metrics-equal",
        help="two registry dumps share a deterministic core")
    equal.add_argument("left")
    equal.add_argument("right")
    args = parser.parse_args(argv)

    if args.command in ("trace", "events"):
        check, verdict = ((check_trace, "span tree nests ok")
                          if args.command == "trace"
                          else (check_events, "event stream is whole"))
        failures = []
        for path in args.paths:
            failures.extend(check(path))
            if not failures:
                print("%s: %s" % (path, verdict))
    else:
        failures = check_metrics_equal(args.left, args.right)
        if not failures:
            print("%s and %s agree on the deterministic core"
                  % (args.left, args.right))
    if failures:
        print("observability gate FAILED:", file=sys.stderr)
        for failure in failures:
            print("  - " + failure, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
