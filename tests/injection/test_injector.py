"""The breakpoint injector: snapshot/replay fidelity."""

from __future__ import annotations

import pytest

from repro.apps.ftpd import client1
from repro.emu import Process
from repro.injection import (BreakpointSession, enumerate_points,
                             record_golden, run_clean_connection)
from repro.kernel import ServerHang


@pytest.fixture(scope="module")
def covered_points(ftp_daemon):
    golden = record_golden(ftp_daemon, client1)
    points = enumerate_points(ftp_daemon.module, ftp_daemon.auth_ranges())
    return [point for point in points
            if point.instruction_address in golden.coverage]


class TestBreakpointSession:
    def test_reaches_covered_breakpoint(self, ftp_daemon,
                                        covered_points):
        point = covered_points[0]
        session = BreakpointSession(ftp_daemon, client1,
                                    point.instruction_address)
        assert session.reached
        assert session.activation_instret > 0

    def test_unreached_breakpoint(self, ftp_daemon):
        golden = record_golden(ftp_daemon, client1)
        points = enumerate_points(ftp_daemon.module,
                                  ftp_daemon.auth_ranges())
        uncovered = [p for p in points
                     if p.instruction_address not in golden.coverage]
        assert uncovered, "expected some NA points"
        session = BreakpointSession(ftp_daemon, client1,
                                    uncovered[0].instruction_address)
        assert not session.reached
        with pytest.raises(RuntimeError):
            session.run_with_flip(uncovered[0].flip_address, 0)

    def test_snapshot_replay_equals_fresh_run(self, ftp_daemon,
                                              covered_points):
        """The amortised snapshot/replay must give bit-identical
        results to a from-scratch run with a debugger breakpoint."""
        point = covered_points[len(covered_points) // 2]
        session = BreakpointSession(ftp_daemon, client1,
                                    point.instruction_address)
        replay_status, replay_kernel, __ = session.run_with_flip(
            point.flip_address, 3)

        # fresh, naive run of the same experiment
        fresh = BreakpointSession(ftp_daemon, client1,
                                  point.instruction_address)
        fresh_status, fresh_kernel, __ = fresh.run_with_flip(
            point.flip_address, 3)

        assert replay_status.kind == fresh_status.kind
        assert replay_status.instret == fresh_status.instret
        assert replay_kernel.channel.normalized_transcript() \
            == fresh_kernel.channel.normalized_transcript()

    def test_session_reusable_across_bits(self, ftp_daemon,
                                          covered_points):
        """Running several bits through one session must match running
        each through its own session."""
        point = covered_points[0]
        shared = BreakpointSession(ftp_daemon, client1,
                                   point.instruction_address)
        for bit in range(4):
            shared_status, shared_kernel, __ = shared.run_with_flip(
                point.flip_address, bit)
            own = BreakpointSession(ftp_daemon, client1,
                                    point.instruction_address)
            own_status, own_kernel, __ = own.run_with_flip(
                point.flip_address, bit)
            assert shared_status.kind == own_status.kind
            assert shared_status.instret == own_status.instret
            assert shared_kernel.channel.normalized_transcript() \
                == own_kernel.channel.normalized_transcript()

    def test_full_restore_escape_hatch_equivalent(self, ftp_daemon,
                                                  covered_points):
        """``full_restore=True`` rewrites every region instead of only
        dirtied pages; the two paths must be bit-identical run for
        run."""
        point = covered_points[0]
        dirty = BreakpointSession(ftp_daemon, client1,
                                  point.instruction_address)
        full = BreakpointSession(ftp_daemon, client1,
                                 point.instruction_address,
                                 full_restore=True)
        for bit in range(4):
            status_d, kernel_d, __ = dirty.run_with_flip(
                point.flip_address, bit)
            status_f, kernel_f, __ = full.run_with_flip(
                point.flip_address, bit)
            assert status_d.kind == status_f.kind
            assert status_d.instret == status_f.instret
            assert kernel_d.channel.normalized_transcript() \
                == kernel_f.channel.normalized_transcript()
        # both did the same number of restores, but the dirty path
        # wrote back far fewer pages.
        assert dirty.restore_stats["restores"] \
            == full.restore_stats["restores"] == 3
        assert dirty.restore_stats["pages_written"] \
            < full.restore_stats["pages_written"]

    def test_zero_flip_via_bytes_is_clean(self, ftp_daemon,
                                          covered_points):
        """Writing back the original bytes must reproduce the golden
        run exactly (sanity check of run_with_bytes)."""
        golden = record_golden(ftp_daemon, client1)
        point = covered_points[0]
        offset = point.instruction_address - ftp_daemon.module.text_base
        original = bytes(ftp_daemon.module.text[
            offset:offset + point.instruction_length])
        session = BreakpointSession(ftp_daemon, client1,
                                    point.instruction_address)
        status, kernel, client = session.run_with_bytes(
            point.instruction_address, original)
        assert status.kind == "exit"
        assert kernel.channel.normalized_transcript() == golden.transcript


class TestCleanConnection:
    def test_clean_run_matches_golden(self, ftp_daemon):
        golden = record_golden(ftp_daemon, client1)
        status, kernel, client = run_clean_connection(ftp_daemon, client1)
        assert status.kind == "exit"
        assert kernel.channel.normalized_transcript() == golden.transcript


class TestSessionCacheBound:
    """The LRU bound that keeps a long-lived warm worker's memory
    flat: ``capacity`` caps resident sessions, evictions are counted,
    and an evicted site simply re-captures on next use."""

    def _key(self, index):
        from repro.injection import SessionCache
        return SessionCache.key(object(), "Client1", 100, index)

    def test_capacity_bounds_resident_sessions(self):
        from repro.injection import SessionCache
        cache = SessionCache(capacity=3)
        for index in range(10):
            cache.store(self._key(index), "session-%d" % index)
        assert len(cache) == 3
        assert cache.evictions == 7
        assert cache.stats()["evictions"] == 7

    def test_lookup_refreshes_lru_position(self):
        from repro.injection import SessionCache
        cache = SessionCache(capacity=2)
        cache.store(self._key(0), "a")
        cache.store(self._key(1), "b")
        assert cache.lookup(self._key(0)) == "a"   # refresh 0
        cache.store(self._key(2), "c")             # evicts 1, not 0
        assert cache.lookup(self._key(0)) == "a"
        assert cache.lookup(self._key(1)) is None
        assert cache.evictions == 1

    def test_unbounded_by_default(self):
        from repro.injection import SessionCache
        cache = SessionCache()
        for index in range(100):
            cache.store(self._key(index), index)
        assert len(cache) == 100
        assert cache.evictions == 0

    def test_evicted_site_recaptures_with_identical_outcomes(
            self, ftp_daemon, covered_points):
        """A campaign slice squeezed through a capacity-1 cache (every
        site eviction forces a fresh prefix run) must produce the same
        outcomes as an unbounded cache."""
        from repro.apps.ftpd import CLIENT_FACTORIES
        from repro.injection import run_campaign, SessionCache
        bounded = SessionCache(capacity=1)
        tight = run_campaign(ftp_daemon, "Client1",
                             CLIENT_FACTORIES["Client1"],
                             max_points=24, session_cache=bounded)
        loose = run_campaign(ftp_daemon, "Client1",
                             CLIENT_FACTORIES["Client1"],
                             max_points=24)
        assert [r.outcome for r in tight.results] \
            == [r.outcome for r in loose.results]
        assert tight.counts() == loose.counts()


class TestSharedMachine:
    """Sessions of one daemon run on one warm machine."""

    def test_serial_campaign_builds_one_machine(self, ftp_daemon,
                                                monkeypatch):
        """The full ftpd Client1 branch-bit cell: the golden run and
        the shared machine are the only processes built, and the
        machine's warm caches cut prepared-op misses an order of
        magnitude (41,135 with a process per site) without moving
        any other execution counter."""
        import json
        from pathlib import Path

        from repro.apps.ftpd import CLIENT_FACTORIES
        from repro.injection import run_campaign
        built = []
        original = Process.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting_init)
        campaign = run_campaign(ftp_daemon, "Client1",
                                CLIENT_FACTORIES["Client1"])
        assert len(built) == 2
        perf = campaign.timing["perf"]
        assert perf["prepared_misses"] <= 5000
        committed = json.loads(
            (Path(__file__).resolve().parents[2] / "benchmarks"
             / "results" / "table1_ftp_timing.json").read_text())
        reference = committed["campaigns"]["FTP Client1 old"]["perf"]
        for name in ("prepared_hits", "superstep_instructions",
                     "syscalls"):
            assert perf[name] == reference[name], name
        assert perf["blocks_compiled"] > 0

    def test_flips_keep_pristine_code(self, ftp_daemon, monkeypatch):
        """A flip evicts the clean block covering the flipped byte, but
        on a machine (a CPU with a decode log) that block was built
        from pristine text, so its generated code stays cached.  The
        four ftpd branch-bit cells (86 injection sites) compile fewer
        blocks than when every poke-time eviction drops the code too:
        65 when measured.  (It was 85, about one per site, while every
        prefix ran from boot and re-entered the blocks of the sites
        before it; a chained prefix starts past them.)"""
        from repro.apps.ftpd import CLIENT_FACTORIES
        from repro.emu import CPU
        from repro.emu import cpu as cpu_module
        from repro.injection import run_campaign
        compiles = []
        compile_factory = cpu_module._compile_factory
        evict_block = CPU._evict_block
        monkeypatch.setattr(
            cpu_module, "_compile_factory",
            lambda instructions: compiles.append(1)
            or compile_factory(instructions))

        def count():
            monkeypatch.setattr(cpu_module, "_CODE_CACHE", {})
            del compiles[:]
            for client in ("Client1", "Client2", "Client3", "Client4"):
                run_campaign(ftp_daemon, client, CLIENT_FACTORIES[client])
            return len(compiles)

        kept = count()
        monkeypatch.setattr(
            CPU, "_evict_block",
            lambda cpu, start, drop_code=True: evict_block(cpu, start))
        dropped = count()
        assert 60 <= dropped - kept <= 70

    def test_finished_campaign_frees_its_machine(self, ftp_daemon,
                                                 monkeypatch):
        """The machine remembers the last prefix for chaining as its
        golden run, budget, site and snapshot, not as the session
        (which refers back to the machine): a 200-point ftpd window
        chains, and its machine is freed when the campaign returns,
        with the cycle collector off, instead of at the next full
        collection."""
        import gc
        import weakref

        from repro.apps.ftpd import CLIENT_FACTORIES
        from repro.injection import run_campaign
        from repro.injection.injector import Machine
        machines = []
        original = Machine.__init__

        def recording(self, daemon, decodes=None):
            machines.append(weakref.ref(self))
            original(self, daemon, decodes)

        monkeypatch.setattr(Machine, "__init__", recording)
        gc.collect()
        gc.disable()
        try:
            campaign = run_campaign(ftp_daemon, "Client1",
                                    CLIENT_FACTORIES["Client1"],
                                    max_points=200)
            assert machines and all(ref() is None for ref in machines)
        finally:
            gc.enable()
        assert campaign.metrics["volatile"]["counters"][
            "runtime.sessions_chained"] > 0

    def test_code_cache_bounded_across_runs(self, ftp_daemon):
        """Blocks compiled from corrupted text leave the process-wide
        code cache when their experiment's restore evicts them: a
        second run of the full ftpd Client1 cell in the same process
        leaves the cache exactly as large as the first did, and no
        entry the runs added holds corrupted bytes.  (Without the
        eviction both runs leave the same ten corrupted entries, so
        the size alone would not notice.)  A key's bytes are the
        members of a superblock, so each member is checked against the
        text at its own address."""
        from repro.apps.ftpd import CLIENT_FACTORIES
        from repro.emu.cpu import _CODE_CACHE
        from repro.injection import run_campaign
        from repro.x86 import decoder
        before = set(_CODE_CACHE)
        run_campaign(ftp_daemon, "Client1", CLIENT_FACTORIES["Client1"])
        size = len(_CODE_CACHE)
        run_campaign(ftp_daemon, "Client1", CLIENT_FACTORIES["Client1"])
        assert len(_CODE_CACHE) == size
        text = ftp_daemon.module.text
        base = ftp_daemon.module.text_base

        def pristine(start, raw):
            # walk the members as the block builder laid them out:
            # fall through, or on to a jmp/call target when bytes remain
            pc = start
            while raw:
                insn = decoder.decode(raw[:15], pc)
                length = len(insn.raw)
                if bytes(text[pc - base:pc - base + length]) != raw[:length]:
                    return False
                raw = raw[length:]
                pc = (insn.operands[0].target
                      if raw and insn.mnemonic in ("jmp", "call")
                      else pc + length)
            return True

        leaked = [(start, raw) for start, raw in set(_CODE_CACHE) - before
                  if not pristine(start, raw)]
        assert not leaked
