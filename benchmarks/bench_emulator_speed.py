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
                  "engine: %d cached-decode hits / %d misses, "
                  "%d flags forced / %d elided, %d supersteps "
                  "(%d instructions), %d blocks compiled, %d syscalls"
                  % (instret, stats.mean, rate,
                     last_perf.get("prepared_hits", 0),
                     last_perf.get("prepared_misses", 0),
                     last_perf.get("flags_forced", 0),
                     last_perf.get("flags_elided", 0),
                     last_perf.get("superstep_entries", 0),
                     last_perf.get("superstep_instructions", 0),
                     last_perf.get("blocks_compiled", 0),
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
    # a silent bypass of the compiled tier would still pass the rate
    # floor above
    assert last_perf.get("blocks_compiled", 0) > 0, \
        "no block reached the compiled tier"


def test_connection_throughput(benchmark, cache):
    daemon = cache.daemon("FTP")

    def run_once():
        status, __, ___ = run_clean_connection(daemon, client1)
        assert status.kind == "exit"
        return status.instret

    instret = benchmark(run_once)
    assert instret > 5_000


def _observer_overhead(attach, rounds=5):
    """Best-of-*rounds* wall time of the hash loop without and with an
    observer (*attach* puts it on the CPU).  The plain and observed
    runs alternate in pairs, so a change in host speed during the
    measurement lands on both sides instead of reading as overhead.
    Returns ``(plain, observed, instret, overhead_fraction)``."""
    import time

    program = compile_program(HASH_LOOP)

    def run_once(observed):
        process = Process(program.module, Kernel())
        if observed:
            attach(process.cpu)
        started = time.perf_counter()
        status = process.run(5_000_000)
        elapsed = time.perf_counter() - started
        assert status.kind == "exit"
        return elapsed, status.instret

    run_once(False)                      # warm the code cache
    plain = observed = float("inf")
    for __ in range(rounds):
        plain = min(plain, run_once(False)[0])
        elapsed, instret = run_once(True)
        observed = min(observed, elapsed)
    return plain, observed, instret, (observed - plain) / plain


def test_forensic_ring_overhead(record_result, record_json):
    """The forensics acceptance gate: the block-granularity ring costs
    under 5% on the fast path when attached, and exactly nothing when
    not (``run()`` picks the blocks' observed variants at entry, so the
    plain path is untouched -- asserted structurally in
    :func:`test_sampler_overhead`; measured here for the attached
    case)."""
    from repro.obs.forensics import make_forensic_ring

    def attach(cpu):
        cpu.forensic_ring = make_forensic_ring()

    plain, ringed, __, overhead = _observer_overhead(attach)
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
    not.  Like the forensic ring and ``coverage``, it is fed by the
    blocks' observed variants, which ``run()`` picks once at entry, so
    the superstep loop never consults an observer -- asserted
    structurally below, then measured for the attached case."""
    import inspect

    from repro.emu.cpu import CPU
    from repro.obs.sampler import Sampler

    # detached cost is zero by construction: past the choice at the
    # top of run(), the plain loop body never touches an observer
    plain_loop = inspect.getsource(CPU.run).split(
        "while not self.halted", 1)[1]
    for observer in ("sampler", "forensic_ring", "coverage"):
        assert observer not in plain_loop, (
            "plain CPU.run loop references the %s -- detached cost "
            "is no longer zero" % observer)

    def attach(cpu):
        cpu.sampler = Sampler()

    plain, sampled, instret, overhead = _observer_overhead(attach)
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
