"""Unified campaign metrics registry.

One JSON-serializable registry holds every number a campaign
produces: outcome tallies, the crash-latency distribution,
quarantine/retry counts, the execution engine's
:class:`~repro.emu.perf.PerfCounters` and wall-clock throughput.
Three instrument kinds cover them all --

``counter``
    monotonically increasing integer (``experiments``,
    ``outcome.SD``, ``engine.prepared_hits``);
``gauge``
    last-written value with an explicit merge policy
    (``points``, ``wall_clock_seconds``);
``histogram``
    fixed-bucket distribution (``crash_latency`` in power-of-two
    instruction buckets, mirroring Figure 4's axis).

Registries merge exactly through :meth:`MetricsRegistry.absorb_dict`
-- the same pattern :meth:`repro.emu.perf.PerfCounters.absorb_dict`
established for shard timing payloads -- so a parallel campaign's
shard registries aggregate to precisely the serial registry.

Every instrument is either *deterministic* (a pure function of the
experiment list: identical for any worker count or resume history) or
*volatile* (operational measurements -- wall clock, engine counters,
session/golden-run counts -- that legitimately vary between runs: a
parallel campaign performs one golden run per shard plus the
parent's).  ``as_dict(include_volatile=False)`` is the comparable
core; CI asserts it is identical for ``--workers 1`` and
``--workers 3``.
"""

from __future__ import annotations

import json

#: crash-latency buckets: powers of two from 1 to 2^20 instructions
#: (Figure 4's >16k transient window sits in the top decades).
LATENCY_BUCKET_BOUNDS = tuple(2 ** exp for exp in range(21))

#: gauge merge policies accepted by :class:`Gauge`.
GAUGE_MERGES = ("last", "sum", "min", "max")


class Counter:
    """Monotonic integer instrument."""

    __slots__ = ("name", "value", "volatile")

    def __init__(self, name, volatile=False):
        self.name = name
        self.value = 0
        self.volatile = volatile

    def inc(self, amount=1):
        self.value += amount


class Gauge:
    """Set-valued instrument with a merge policy for shard payloads."""

    __slots__ = ("name", "value", "volatile", "merge")

    def __init__(self, name, volatile=False, merge="last"):
        if merge not in GAUGE_MERGES:
            raise ValueError("unknown gauge merge %r" % merge)
        self.name = name
        self.value = None
        self.volatile = volatile
        self.merge = merge

    def set(self, value):
        self.value = value

    def absorb(self, value):
        if self.value is None or self.merge == "last":
            self.value = value
        elif self.merge == "sum":
            self.value += value
        elif self.merge == "min":
            self.value = min(self.value, value)
        else:
            self.value = max(self.value, value)


class Histogram:
    """Fixed-bucket distribution.

    ``bounds`` are inclusive upper bucket edges; one overflow bucket
    catches everything beyond the last edge, so ``counts`` has
    ``len(bounds) + 1`` entries and two histograms with equal bounds
    merge by element-wise addition (exactness is what lets shard
    registries aggregate to the serial registry).
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "low", "high", "volatile")

    def __init__(self, name, bounds=LATENCY_BUCKET_BOUNDS,
                 volatile=False):
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0
        self.low = None
        self.high = None
        self.volatile = volatile

    def observe(self, value):
        index = len(self.bounds)
        for position, bound in enumerate(self.bounds):
            if value <= bound:
                index = position
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        self.low = value if self.low is None else min(self.low, value)
        self.high = value if self.high is None else max(self.high,
                                                        value)

    def as_dict(self):
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.total,
                "min": self.low, "max": self.high}

    def absorb(self, record):
        if tuple(record["bounds"]) != self.bounds:
            raise ValueError(
                "histogram %r bucket bounds disagree: %r vs %r"
                % (self.name, record["bounds"], list(self.bounds)))
        for index, count in enumerate(record["counts"]):
            self.counts[index] += count
        self.count += record["count"]
        self.total += record["sum"]
        if record["min"] is not None:
            self.low = (record["min"] if self.low is None
                        else min(self.low, record["min"]))
        if record["max"] is not None:
            self.high = (record["max"] if self.high is None
                         else max(self.high, record["max"]))


def record_supervision_metrics(registry, events):
    """Fold a supervision run's event counts (respawns, wedge kills,
    degraded transitions, checkpoints; see
    :data:`repro.injection.runner.EVENT_NAMES`) into *registry* as
    ``supervisor.<event>`` counters.  Volatile by definition: they
    measure the run's failure history, not the campaign spec -- a
    chaos-recovered campaign and an undisturbed one still agree on the
    deterministic core."""
    for name in sorted(events or {}):
        registry.counter("supervisor.%s" % name,
                         volatile=True).inc(events[name])
    return registry


class MetricsRegistry:
    """Named instruments with exact, JSON-round-trippable merging."""

    SCHEMA = 1

    def __init__(self):
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- instrument access (get-or-create) -----------------------------

    def counter(self, name, volatile=False):
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name, volatile)
        return instrument

    def gauge(self, name, volatile=False, merge="last"):
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name, volatile,
                                                    merge)
        return instrument

    def histogram(self, name, bounds=LATENCY_BUCKET_BOUNDS,
                  volatile=False):
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, bounds, volatile)
        return instrument

    # -- serialization -------------------------------------------------

    def as_dict(self, include_volatile=True):
        """Plain-data snapshot.

        Deterministic instruments live at the top level; volatile ones
        under ``"volatile"`` so consumers comparing runs can strip
        them with one ``pop``.  Unset gauges are omitted.
        """

        def section(volatile):
            return {
                "counters": {c.name: c.value
                             for c in self._counters.values()
                             if c.volatile == volatile},
                "gauges": {g.name: g.value
                           for g in self._gauges.values()
                           if g.volatile == volatile
                           and g.value is not None},
                "histograms": {h.name: h.as_dict()
                               for h in self._histograms.values()
                               if h.volatile == volatile},
            }

        payload = {"schema": self.SCHEMA, **section(False)}
        if include_volatile:
            payload["volatile"] = section(True)
        return payload

    def absorb_dict(self, record):
        """Merge a serialized registry into this one.

        Counters and histogram buckets add; gauges follow their merge
        policy (instruments absent from this registry are created with
        the serialized section's volatility and a ``last`` gauge
        policy).  The merge is exact: absorbing every shard registry
        of a parallel campaign reproduces the serial campaign's
        deterministic section bit for bit.
        """
        if not record:
            return self
        self._absorb_section(record, volatile=False)
        self._absorb_section(record.get("volatile") or {},
                             volatile=True)
        return self

    def _absorb_section(self, section, volatile):
        for name, value in (section.get("counters") or {}).items():
            self.counter(name, volatile=volatile).inc(value)
        for name, value in (section.get("gauges") or {}).items():
            self.gauge(name, volatile=volatile).absorb(value)
        for name, payload in (section.get("histograms") or {}).items():
            self.histogram(name, bounds=payload["bounds"],
                           volatile=volatile).absorb(payload)

    def save(self, path):
        with open(path, "w") as handle:
            json.dump(self.as_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    def __repr__(self):
        return ("MetricsRegistry(%d counters, %d gauges, "
                "%d histograms)" % (len(self._counters),
                                    len(self._gauges),
                                    len(self._histograms)))
