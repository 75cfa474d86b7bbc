"""Infrastructure benchmark: raw emulator throughput.

Not a paper experiment -- this tracks the cost model behind every
campaign: instructions retired per second executing real compiled
code (the crypt13 hash loop and a golden FTP connection).
"""

from __future__ import annotations

from repro.cc import compile_program
from repro.emu import Process
from repro.injection import run_clean_connection
from repro.apps.ftpd import client1
from repro.kernel import Kernel

HASH_LOOP = r"""
int main() {
    int i;
    char *digest;
    i = 0;
    while (i < 50) {
        digest = crypt13("benchmark-password", "bm");
        i = i + 1;
    }
    return digest[2] & 0x7F;
}
"""


def test_emulator_throughput(benchmark, record_result, record_json):
    program = compile_program(HASH_LOOP)
    last_perf = {}

    def run_once():
        process = Process(program.module, Kernel())
        status = process.run(5_000_000)
        assert status.kind == "exit"
        last_perf.clear()
        last_perf.update(process.cpu.perf.as_dict())
        return status.instret

    instret = benchmark(run_once)
    stats = benchmark.stats.stats
    rate = instret / stats.mean if stats.mean else 0.0
    record_result("emulator_speed",
                  "emulated instructions per run: %d\n"
                  "mean wall time: %.4f s\n"
                  "throughput: %.0f instructions/second\n"
                  "engine: %d prepared-op hits / %d misses, "
                  "%d flags forced / %d elided, %d supersteps "
                  "(%d instructions), %d syscalls"
                  % (instret, stats.mean, rate,
                     last_perf.get("prepared_hits", 0),
                     last_perf.get("prepared_misses", 0),
                     last_perf.get("flags_forced", 0),
                     last_perf.get("flags_elided", 0),
                     last_perf.get("superstep_entries", 0),
                     last_perf.get("superstep_instructions", 0),
                     last_perf.get("syscalls", 0)))
    record_json("emulator_speed", {
        "instructions_per_run": instret,
        "mean_seconds": stats.mean,
        "min_seconds": stats.min,
        "instructions_per_sec": rate,
        "perf": dict(last_perf),
    })
    assert instret > 50_000
    assert rate > 50_000, "emulator slower than 50k instr/s"


def test_connection_throughput(benchmark, cache):
    daemon = cache.daemon("FTP")

    def run_once():
        status, __, ___ = run_clean_connection(daemon, client1)
        assert status.kind == "exit"
        return status.instret

    instret = benchmark(run_once)
    assert instret > 5_000


def test_forensic_ring_overhead(record_result, record_json):
    """The forensics acceptance gate: the block-granularity ring costs
    under 5% on the fast path when attached, and exactly nothing when
    not (``run()`` branches to a separate loop, so the plain path is
    untouched -- asserted structurally in :func:`test_sampler_overhead`;
    measured here for the attached case)."""
    import time

    from repro.obs.forensics import make_forensic_ring

    program = compile_program(HASH_LOOP)

    def run_once(with_ring):
        process = Process(program.module, Kernel())
        if with_ring:
            process.cpu.forensic_ring = make_forensic_ring()
        started = time.perf_counter()
        status = process.run(5_000_000)
        elapsed = time.perf_counter() - started
        assert status.kind == "exit"
        return elapsed, status.instret

    # best-of-N on both variants so scheduler noise cannot fake a
    # regression (or hide one)
    rounds = 5
    run_once(False)                      # warm the prepared-op cache
    plain = min(run_once(False)[0] for __ in range(rounds))
    ringed = min(run_once(True)[0] for __ in range(rounds))
    overhead = (ringed - plain) / plain if plain else 0.0
    record_result("forensic_ring_overhead",
                  "plain: %.4f s  ring: %.4f s  overhead: %.1f%%"
                  % (plain, ringed, 100 * overhead))
    record_json("forensic_ring_overhead", {
        "plain_seconds": plain,
        "ring_seconds": ringed,
        "overhead_fraction": overhead,
    })
    assert overhead < 0.05, (
        "forensic ring costs %.1f%% (budget: 5%%)" % (100 * overhead))


def test_sampler_overhead(record_result, record_json):
    """The telemetry acceptance gate: the sampling profiler costs
    under 5% on the fast path when attached, and exactly nothing when
    not.  Like the forensic ring, ``run()`` branches to the separate
    ``_run_observed`` loop, so the plain superstep loop never consults
    either observer -- asserted structurally below, then measured for
    the attached case."""
    import inspect
    import time

    from repro.emu.cpu import CPU
    from repro.obs.sampler import Sampler

    # detached cost is zero by construction: past the dispatch at the
    # top of run(), the plain loop body never touches an observer
    plain_loop = inspect.getsource(CPU.run).split(
        "while not self.halted", 1)[1]
    for observer in ("sampler", "forensic_ring"):
        assert observer not in plain_loop, (
            "plain CPU.run loop references the %s -- detached cost "
            "is no longer zero" % observer)
    assert CPU._run_observed is not CPU.run

    program = compile_program(HASH_LOOP)

    def run_once(with_sampler):
        process = Process(program.module, Kernel())
        if with_sampler:
            process.cpu.sampler = Sampler()
        started = time.perf_counter()
        status = process.run(5_000_000)
        elapsed = time.perf_counter() - started
        assert status.kind == "exit"
        return elapsed, status.instret

    rounds = 5
    run_once(False)                      # warm the prepared-op cache
    plain = min(run_once(False)[0] for __ in range(rounds))
    timings = [run_once(True) for __ in range(rounds)]
    sampled = min(elapsed for elapsed, __ in timings)
    instret = timings[0][1]
    overhead = (sampled - plain) / plain if plain else 0.0
    rate = instret / sampled if sampled else 0.0
    record_result("sampler_overhead",
                  "plain: %.4f s  sampled: %.4f s  overhead: %.1f%%\n"
                  "sampled throughput: %.0f instructions/second"
                  % (plain, sampled, 100 * overhead, rate))
    record_json("sampler_overhead", {
        "plain_seconds": plain,
        "sampled_seconds": sampled,
        "overhead_fraction": overhead,
        "sampled_instructions_per_sec": rate,
    })
    assert overhead < 0.05, (
        "sampler costs %.1f%% (budget: 5%%)" % (100 * overhead))
