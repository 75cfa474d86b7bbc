"""Deterministic sampling profiler for the emulator hot path.

Where does campaign time go *inside the guest*?  The trace spans of
:mod:`repro.obs.trace` attribute wall clock to host phases; this
module attributes *retired guest instructions* to guest code.  A
:class:`Sampler` attached to ``cpu.sampler`` samples the EIP every
``period`` retired instructions -- a count, not wall clock, so the
profile of a given campaign is deterministic and byte-identical
across reruns, worker counts and host load.

Zero-overhead-when-off discipline (shared with the forensic ring and
``coverage``): the ``CPU.run`` loop never references the sampler;
attaching one makes it call each block's observed variant
(``CPU._observed_block``) and the observed step, which feed every
attached observer.  A compiled variant subtracts a superstep's size
from ``skip`` inline and calls :meth:`Sampler.retire` only when a
sample is due; the closure before it and the step call it every time.
While a sampler is attached, every way of running the CPU -- to a
breakpoint, over a watch window, or one instruction at a time as the
pruning guard does -- goes through those callables.  Detached cost is exactly zero by construction and the
attached overhead is regression-gated at <= 5%
(``benchmarks/bench_emulator_speed.py::test_sampler_overhead``).

Two attributions are recorded:

* **guest samples** -- EIP hit counts, bucketed by the current
  *phase* (``golden`` / ``experiment`` -- guest code only runs in
  those) and resolved offline to the compiled program's function and
  assembly-line map (:meth:`resolve`), rendered as per-cell hotspot
  tables and a collapsed-stack file flamegraph tools accept;
* **host seconds** -- wall-seconds per engine phase (``golden-run``
  / ``restore`` / ``experiment`` / ``merge``), answering FastFlip's
  question of where the *analysis* time goes: the campaign tracer's
  span totals (:meth:`repro.obs.trace.Tracer.host_seconds`), written
  alongside.  They are volatile and never enter the metrics core.
"""

from __future__ import annotations

import json

#: default sample period in retired instructions (prime, so samples
#: do not phase-lock with loop bodies).
SAMPLE_PERIOD = 997

PROFILE_SCHEMA = 1


class Sampler:
    """Instruction-count EIP sampler (attach to ``cpu.sampler``).

    ``skip`` is the number of instructions still to retire before the
    next sample: 0 means "sample the very next instruction".
    :meth:`retire` decrements it by whole supersteps and indexes the
    block's address tuple for the sampled EIP, so cost is independent
    of the period.  The counter persists across ``run()`` slices and restarts
    (:meth:`restart`) at each experiment, so a profile is the same
    however a fleet cut the campaign into work units.
    """

    __slots__ = ("period", "skip", "samples", "by_phase")

    def __init__(self, period=SAMPLE_PERIOD):
        if period < 1:
            raise ValueError("sample period must be >= 1, got %r"
                             % period)
        self.period = period
        self.restart()
        self.by_phase = {}
        #: the current phase's eip -> count dict (what the CPU loop
        #: writes into).
        self.samples = self.by_phase.setdefault("experiment", {})

    def restart(self):
        """Sample the ``period``-th instruction from here next."""
        self.skip = self.period - 1

    def retire(self, addrs, count):
        """Count down the first *count* EIPs of *addrs* (the retired
        ops of a superstep, or a stepped one), sampling the ones due.
        A compiled observed variant subtracts *count* itself when none
        is (``skip >= count``)."""
        skip, samples = self.skip, self.samples
        while skip < count:
            eip = addrs[skip]
            samples[eip] = samples.get(eip, 0) + 1
            skip += self.period
        self.skip = skip - count

    # -- phase attribution ---------------------------------------------

    def set_phase(self, name):
        """Switch guest-sample attribution to *name* (``golden`` or
        ``experiment``)."""
        self.samples = self.by_phase.setdefault(name, {})

    # -- serialization --------------------------------------------------

    @property
    def total_samples(self):
        return sum(sum(counts.values())
                   for counts in self.by_phase.values())

    def as_dict(self, host_seconds=None):
        """JSON-able profile: deterministic guest samples and, apart,
        the volatile *host_seconds* (``{phase: seconds}``)."""
        host_seconds = host_seconds or {}
        return {
            "schema": PROFILE_SCHEMA,
            "period": self.period,
            "samples": {
                phase: {"0x%x" % eip: count
                        for eip, count in sorted(counts.items())}
                for phase, counts in sorted(self.by_phase.items())
                if counts},
            "volatile": {
                "host_seconds": {name: round(seconds, 6)
                                 for name, seconds
                                 in sorted(host_seconds.items())},
            },
        }

    def absorb_dict(self, payload):
        """Merge another sampler's guest samples from its
        :meth:`as_dict` (shard profiles fold into the parent's, like
        metrics registries; host seconds travel as trace spans)."""
        if not payload:
            return
        for phase, counts in (payload.get("samples") or {}).items():
            mine = self.by_phase.setdefault(phase, {})
            for eip_hex, count in counts.items():
                eip = int(eip_hex, 16)
                mine[eip] = mine.get(eip, 0) + count
        self.samples = self.by_phase.setdefault("experiment",
                                                self.samples)

    def save(self, path, host_seconds=None):
        with open(path, "w") as handle:
            json.dump(self.as_dict(host_seconds), handle, indent=1,
                      sort_keys=True)
            handle.write("\n")


def load_profile(path):
    """The raw profile dict written by :meth:`Sampler.save`."""
    with open(path) as handle:
        return json.load(handle)


def as_sampler(profile):
    """Coerce ``None`` / a period int / a :class:`Sampler` into a
    sampler object (mirrors :func:`repro.obs.trace.as_tracer`)."""
    if profile is None:
        return None
    if isinstance(profile, Sampler):
        return profile
    if profile is True:
        return Sampler()
    return Sampler(period=int(profile))


# ----------------------------------------------------------------------
# Symbolization: EIP samples -> function / line hotspots

def resolve_samples(counts, module):
    """Aggregate an ``eip -> count`` dict to functions of *module*.

    Returns ``[(function_name, count, {line: count}), ...]`` sorted by
    descending count.  EIPs outside every known function fall into
    ``"?"``; line numbers come from the module's address->line map
    when the assembler recorded one (``{}`` otherwise).
    """
    functions = module.function_symbols()
    starts = [symbol.address for symbol in functions]
    lines = getattr(module, "lines", None) or {}
    import bisect
    by_function = {}
    for eip, count in counts.items():
        index = bisect.bisect_right(starts, eip) - 1
        name = functions[index].name if index >= 0 else "?"
        entry = by_function.setdefault(name, [0, {}])
        entry[0] += count
        line = lines.get(eip)
        if line is not None:
            entry[1][line] = entry[1].get(line, 0) + count
    resolved = [(name, entry[0], entry[1])
                for name, entry in by_function.items()]
    resolved.sort(key=lambda item: (-item[1], item[0]))
    return resolved


def hotspot_table(profile, module, phase=None, limit=10):
    """Human-readable per-function hotspot table for one phase (or
    all phases merged when *phase* is None)."""
    samples = profile.get("samples") or {}
    counts = {}
    phases = ([phase] if phase is not None else sorted(samples))
    for name in phases:
        for eip_hex, count in (samples.get(name) or {}).items():
            eip = int(eip_hex, 16)
            counts[eip] = counts.get(eip, 0) + count
    total = sum(counts.values())
    lines = ["guest hotspots (%s, %d sample(s), period %d):"
             % (phase or "all phases", total,
                profile.get("period", 0))]
    if not total:
        lines.append("  (no samples)")
        return "\n".join(lines)
    for name, count, by_line in resolve_samples(
            counts, module)[:limit]:
        hottest = ""
        if by_line:
            line, line_count = max(by_line.items(),
                                   key=lambda item: (item[1],
                                                     -item[0]))
            hottest = "  (hottest line %d: %d)" % (line, line_count)
        lines.append("  %6.1f%%  %8d  %s%s"
                     % (100.0 * count / total, count, name, hottest))
    return "\n".join(lines)


def write_collapsed(path, profile, module):
    """Collapsed-stack output (``phase;function count`` per line) --
    the input format of flamegraph.pl, speedscope and friends."""
    samples = profile.get("samples") or {}
    with open(path, "w") as handle:
        for phase in sorted(samples):
            counts = {int(eip_hex, 16): count
                      for eip_hex, count in samples[phase].items()}
            for name, count, __ in resolve_samples(counts, module):
                handle.write("%s;%s %d\n" % (phase, name, count))
