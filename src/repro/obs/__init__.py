"""Campaign observability: span tracing, metrics, crash forensics.

The paper's claims are observations of *error propagation* -- crash
latency, activation vs. manifestation, which branch flips open the
BRK window -- so the pipeline needs a measurement layer of its own:

* :mod:`repro.obs.trace` -- Chrome-trace-event/Perfetto-compatible
  span tracing of every engine phase; per-name span totals are the
  profile's host seconds;
* :mod:`repro.obs.metrics` -- one mergeable registry of counters,
  gauges and fixed-bucket histograms unifying outcome tallies, the
  crash-latency distribution, quarantine/retry counts, the execution
  engine's :class:`~repro.emu.perf.PerfCounters` and per-shard
  throughput;
* :mod:`repro.obs.events` -- the live telemetry plane: a bounded,
  per-campaign-sequenced :class:`~repro.obs.events.EventBus` the
  service streams and ``repro top`` renders, fed by
  :func:`~repro.obs.events.emit_milestone`, the one emit site that
  puts each milestone on the bus and into the trace;
* :mod:`repro.obs.sampler` -- a deterministic (instruction-count)
  sampling profiler attributing retired guest instructions to the
  compiled program's functions;
* :mod:`repro.obs.forensics` -- last-N-instruction ring buffer plus
  register/flags snapshot captured when a run crashes or hangs, and
  the golden-trace divergence locator;
* :mod:`repro.obs.ring` -- the bounded-buffer / trace-recorder
  primitives the above (and :mod:`repro.analysis.propagation`) share;
* :mod:`repro.obs.log` -- ``logging`` set-up and the progress
  reporter, a bus subscriber.

Everything here is stdlib-only and observational: with no sink, ring,
bus or sampler attached, campaigns execute the exact same instruction
stream and produce byte-identical tables.
"""

from __future__ import annotations

from .events import (check_contiguous, EventBus, EventLog,
                     load_event_stream, merge_event_streams)
from .forensics import (capture_forensics, first_divergence,
                        format_forensics_record)
from .log import (configure_logging, get_logger, ProgressReporter,
                  warn_once)
from .metrics import MetricsRegistry
from .ring import RingBuffer, TraceRecorder
from .sampler import (hotspot_table, load_profile, Sampler,
                      write_collapsed)
from .top import fold_events, render_top, view_from_journals
from .trace import NULL_TRACER, Tracer

__all__ = [
    "capture_forensics",
    "check_contiguous",
    "configure_logging",
    "EventBus",
    "EventLog",
    "first_divergence",
    "fold_events",
    "format_forensics_record",
    "get_logger",
    "hotspot_table",
    "load_event_stream",
    "load_profile",
    "merge_event_streams",
    "MetricsRegistry",
    "NULL_TRACER",
    "ProgressReporter",
    "render_top",
    "RingBuffer",
    "Sampler",
    "view_from_journals",
    "TraceRecorder",
    "Tracer",
    "warn_once",
]
