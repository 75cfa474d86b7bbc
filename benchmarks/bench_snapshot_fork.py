"""Snapshot-fork engine costs: capture, restore, and throughput.

Infrastructure benchmark for the experiment engine, not a paper
experiment.  Measures, on the ftpd Table 1 Client1 cell:

- **capture**: freezing the full machine into a
  :class:`MachineSnapshot` (paid once per injection site);
- **restore**: returning the machine to the snapshot between
  experiments, three ways -- the default dirty-page delta, the
  ``full_restore`` escape hatch (every region rewritten), and the
  legacy cost model this engine replaced (full region rewrite plus a
  per-experiment ``copy.deepcopy`` of the kernel);
- **throughput**: end-to-end experiments/second for the whole
  campaign cell.

Restores are sampled across several injection sites and all eight bit
positions, so the sample carries the cell's real outcome mix --
suffixes that crash before their first syscall restore far cheaper
than ones that run the protocol to completion.  Dirty and legacy
restores are interleaved bit-by-bit so machine-speed drift over the
run cancels out of their ratio, and each site is warmed through two
full bit cycles first (the first visit to a site runs ~2x slower than
steady state while caches and allocator arenas settle).

Acceptance criterion: the dirty-page restore must be at least 5x
cheaper per experiment than the legacy full-copy path.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import time

from repro.injection import (BreakpointSession, enumerate_points,
                             MachineSnapshot, record_golden)

SITES = 6          # injection sites sampled across the cell
BITS = 8           # bit positions per site
CYCLES = 3         # timed dirty/legacy bit cycles per site
CAPTURE_REPS = 6   # capture timings per site
WARM_REPS = 16     # untimed experiment+restore cycles per site


def _ms(samples):
    """10%-trimmed mean in milliseconds.  A campaign pays the *mean*
    restore cost, not the median; the trim sheds scheduler hiccups
    that would otherwise dominate a ~10 us timed window."""
    ordered = sorted(samples)
    trim = len(ordered) // 10
    kept = ordered[trim:len(ordered) - trim] if trim else ordered
    return 1000.0 * sum(kept) / len(kept)


def _legacy_evict(cpu, address):
    """The seed's per-experiment cache invalidation: a 15-byte range
    scan of the decode cache plus a dead-scan over *every* cached
    basic block.  Reproduced here so the legacy column charges what
    the pre-snapshot engine actually paid each restore (its separate
    prepared-op cache, and that cache's scan, no longer exist)."""
    cache = cpu.decode_cache
    for start in range(address - 14, address + 1):
        cached = cache.get(start)
        if cached is not None and start + len(cached.raw) > address:
            del cache[start]
    if cpu.blocks:
        dead = [start for start, block in cpu.blocks.items()
                if any(low <= address < end for low, end in block[2])]
        for start in dead:
            cpu._evict_block(start)


@contextlib.contextmanager
def _no_gc():
    """Keep collector pauses out of the timed window: the garbage is
    made by the (untimed) experiment suffix, and a collection landing
    inside a ~10 us restore would be charged to the wrong account.
    The pause still happens -- right after the window."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_snapshot_fork_costs(cache, record_result, record_json):
    daemon = cache.daemon("FTP")
    factory = cache.clients("FTP")["Client1"]
    golden = record_golden(daemon, factory)
    points = [point for point in enumerate_points(daemon.module,
                                                  daemon.auth_ranges())
              if point.instruction_address in golden.coverage]
    stride = max(1, len(points) // SITES)
    sites = points[::stride][:SITES]
    sessions = []
    for point in sites:
        session = BreakpointSession(daemon, factory,
                                    point.instruction_address)
        assert session.reached
        for rep in range(WARM_REPS):
            session.run_with_flip(point.flip_address, rep % BITS)
        sessions.append((point, session))
    total_pages = sum(region.page_count()
                      for region in sessions[0][1].process.memory.regions)

    capture, dirty, full, legacy = [], [], [], []
    pages_written = restores = 0
    for point, session in sessions:
        # Capture: freeze the machine (also resets the dirty baseline,
        # so repeating it on the same state is safe).
        for __ in range(CAPTURE_REPS):
            with _no_gc():
                start = time.perf_counter()
                MachineSnapshot.capture(session.process,
                                        session.process.kernel)
                capture.append(time.perf_counter() - start)

        # Dirty vs legacy, interleaved bit-by-bit: run one experiment
        # suffix (untimed) to dirty the machine, time the dirty-page
        # restore; dirty it again, time the legacy path (full region
        # rewrite + the seed's cache dead-scan + kernel deepcopy).
        snapshot = session.snapshot
        stats = session.restore_stats
        for __ in range(CYCLES):
            for bit in range(BITS):
                session.run_with_flip(point.flip_address, bit)
                before = stats["pages_written"]
                with _no_gc():
                    start = time.perf_counter()
                    session._restore()
                    dirty.append(time.perf_counter() - start)
                pages_written += stats["pages_written"] - before
                restores += 1

                session.run_with_flip(point.flip_address, bit)
                with _no_gc():
                    start = time.perf_counter()
                    snapshot.restore_memory(session.process.memory,
                                            full=True)
                    snapshot.restore_cpu(session.process.cpu)
                    _legacy_evict(session.process.cpu,
                                  point.flip_address)
                    kernel = copy.deepcopy(snapshot.kernel)
                    legacy.append(time.perf_counter() - start)
                assert kernel is not snapshot.kernel

        # Full restore: the escape hatch rewrites every region.
        session.full_restore = True
        for bit in range(BITS):
            session.run_with_flip(point.flip_address, bit)
            with _no_gc():
                start = time.perf_counter()
                session._restore()
                full.append(time.perf_counter() - start)
        session.full_restore = False

    # End-to-end throughput on the same cell.
    campaign = cache.campaign("FTP", "Client1")
    throughput = campaign.timing["experiments_per_sec"]

    speedup = _ms(legacy) / _ms(dirty)
    mean_pages = pages_written / restores
    text = ("snapshot capture: %.3f ms\n"
            "restore, dirty pages: %.3f ms "
            "(%.1f of %d pages written back, "
            "%d sites x %d bits x %d cycles)\n"
            "restore, full regions: %.3f ms\n"
            "restore, legacy full copy + kernel deepcopy: %.3f ms\n"
            "dirty restore speedup over legacy: %.1fx\n"
            "campaign throughput (FTP Client1): %.1f experiments/sec"
            % (_ms(capture), _ms(dirty), mean_pages, total_pages,
               len(sessions), BITS, CYCLES, _ms(full), _ms(legacy),
               speedup, throughput))
    record_result("snapshot_fork", text)
    record_json("snapshot_fork", {
        "capture_ms": _ms(capture),
        "restore_dirty_ms": _ms(dirty),
        "restore_full_ms": _ms(full),
        "restore_legacy_ms": _ms(legacy),
        "mean_dirty_pages": mean_pages,
        "total_pages": total_pages,
        "restore_speedup": speedup,
        "experiments_per_sec": throughput,
    })

    assert speedup >= 5.0, \
        "dirty restore only %.1fx cheaper than the legacy path" % speedup
    assert 0 < mean_pages < total_pages
