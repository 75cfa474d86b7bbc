#!/usr/bin/env python3
"""Check that two full benchmark records of the same code agree.

Usage::

    python benchmarks/suite/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --trace --out`` records.  The
check fails (exit 1) unless, for every workload in both:

* each end-to-end metric of B is within its ``BENCHMARK.json`` bound
  of A's value;
* every deterministic layer count is identical;
* ``unattributed_frac`` is at most 5% on each serial workload, in
  both records (the layer budget accounts for the wall clock).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: counts that depend only on the inputs, never on timing or the seed.
COUNTS = ("emu.insns", "kernel.syscalls", "snapshot.restores",
          "snapshot.pages_written", "prefix.sessions", "journal.records",
          "fleet.units")
SERIAL = ("table1-ftpd", "table1-ftpd-pruned", "datafault-mixed")
UNATTRIBUTED_LIMIT = 0.05


def compare(first, second, bounds):
    """Failure messages; empty when the records agree."""
    failures = []
    for name in sorted(set(first) & set(second)):
        a = first[name]["metrics"]
        b = second[name]["metrics"]
        for metric, bound in bounds.items():
            if metric not in a or metric not in b:
                continue
            base, other = a[metric]["value"], b[metric]["value"]
            if abs(other - base) > bound * abs(base):
                failures.append("%s %s: %.6g vs %.6g (bound %g)"
                                % (name, metric, base, other, bound))
        for metric in COUNTS:
            if metric in a and metric in b \
                    and a[metric]["value"] != b[metric]["value"]:
                failures.append("%s %s: count %r vs %r"
                                % (name, metric, a[metric]["value"],
                                   b[metric]["value"]))
        if name in SERIAL:
            for label, metrics in (("first", a), ("second", b)):
                frac = metrics.get("unattributed_frac", {}).get("value")
                if frac is not None and frac > UNATTRIBUTED_LIMIT:
                    failures.append("%s: %s record leaves %.1f%% of wall "
                                    "unattributed" % (name, label,
                                                      100 * frac))
    missing = set(first) ^ set(second)
    if missing:
        failures.append("workloads in only one record: %s"
                        % ", ".join(sorted(missing)))
    return failures


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path) as stream:
            records.append(json.load(stream)["workloads"])
    with open(ROOT / "BENCHMARK.json") as stream:
        bounds = {metric["name"]: metric["bound"]
                  for metric in json.load(stream)["end_to_end"]}
    failures = compare(records[0], records[1], bounds)
    for failure in failures:
        print("FAIL " + failure)
    if not failures:
        print("records agree: end-to-end metrics within bounds, layer "
              "counts identical, serial budgets within %d%%"
              % (100 * UNATTRIBUTED_LIMIT))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
