"""Decode-cache correctness: stale decodes after a flip would corrupt
every campaign, so invalidation is load-bearing."""

from __future__ import annotations

import pytest

from repro.emu import CPU, Memory


def machine(blob):
    memory = Memory()
    memory.map_region("text", 0x1000, blob, writable=False)
    memory.map_region("stack", 0x8000, 256)
    cpu = CPU(memory)
    cpu.cacheable = (0x1000, 0x1000 + len(blob))
    cpu.eip = 0x1000
    cpu.regs[4] = 0x8080
    return cpu, memory


class TestCaching:
    def test_cache_populated_inside_cacheable_range(self):
        cpu, __ = machine(b"\x90\x90")
        cpu.step()
        assert 0x1000 in cpu.decode_cache

    def test_cache_not_populated_outside_range(self):
        cpu, memory = machine(b"\x90\x90")
        cpu.cacheable = (0x1000, 0x1001)
        cpu.step()
        cpu.step()
        assert 0x1001 not in cpu.decode_cache

    def test_cache_hit_returns_same_object(self):
        # loop: jmp to self-ish; run twice over the same address
        cpu, __ = machine(b"\x90\xEB\xFD")   # nop; jmp -3 (to the nop)
        cpu.step()
        first = cpu.decode_cache[0x1000]
        cpu.step()   # jmp back
        cpu.step()   # nop again (cache hit)
        assert cpu.decode_cache[0x1000] is first

    def test_invalidate_after_poke(self):
        cpu, memory = machine(b"\xB8\x01\x00\x00\x00"   # mov $1, %eax
                              b"\xB8\x02\x00\x00\x00")  # mov $2, %eax
        cpu.step()
        assert cpu.regs[0] == 1
        # corrupt the first instruction's immediate and re-execute it
        memory.poke(0x1001, 0x07)
        cpu.invalidate_cache()
        cpu.eip = 0x1000
        cpu.step()
        assert cpu.regs[0] == 7

    def test_stale_cache_would_lie(self):
        """Demonstrates *why* invalidation matters: without it the old
        decode executes."""
        cpu, memory = machine(b"\xB8\x01\x00\x00\x00")
        cpu.step()
        memory.poke(0x1001, 0x07)
        # deliberately NOT invalidating
        cpu.eip = 0x1000
        cpu.step()
        assert cpu.regs[0] == 1   # stale decode; the hazard exists

    def test_selective_invalidation_keeps_other_entries(self):
        # two adjacent 5-byte movs; poking the first must not evict
        # the second's decode
        cpu, memory = machine(b"\xB8\x01\x00\x00\x00"   # 0x1000
                              b"\xB8\x02\x00\x00\x00")  # 0x1005
        cpu.step()
        cpu.step()
        assert 0x1000 in cpu.decode_cache
        assert 0x1005 in cpu.decode_cache
        memory.poke(0x1001, 0x07)
        cpu.invalidate_cache(0x1001)
        assert 0x1000 not in cpu.decode_cache
        assert 0x1005 in cpu.decode_cache
        cpu.eip = 0x1000
        cpu.step()
        assert cpu.regs[0] == 7   # re-decoded, not stale

    def test_selective_invalidation_is_range_exact(self):
        cpu, memory = machine(b"\xB8\x01\x00\x00\x00"
                              b"\xB8\x02\x00\x00\x00")
        cpu.step()
        cpu.step()
        # last byte of the first instruction: evicts only it
        cpu.invalidate_cache(0x1004)
        assert 0x1000 not in cpu.decode_cache
        assert 0x1005 in cpu.decode_cache
        cpu.eip = 0x1000
        cpu.step()
        # first byte of the second instruction: evicts only it
        cpu.invalidate_cache(0x1005)
        assert 0x1000 in cpu.decode_cache
        assert 0x1005 not in cpu.decode_cache

    def test_breakpoint_session_keeps_cache_warm(self):
        """Across injection experiments only decodes overlapping the
        flipped byte are dropped; the rest of the (auth-section) cache
        survives the snapshot restore."""
        from repro.injection import BreakpointSession
        from repro.kernel import Kernel, ScriptedClient
        from repro.x86 import assemble

        class NullClient(ScriptedClient):
            def receive(self, data):
                pass

            def broke_in(self):
                return False

        class TinyDaemon:
            def __init__(self):
                self.module = assemble("""
.text
.global _start
_start:
    movl $3, %ecx
loop:
    nop
    dec %ecx
    jnz loop
    movl $0, %ebx
    movl $1, %eax
    int $0x80
""")

            def make_kernel(self, client):
                return Kernel.for_client(client)

        daemon = TinyDaemon()
        branch = daemon.module.address_of("loop") + 2  # the jnz
        session = BreakpointSession(daemon, NullClient, branch,
                                    budget=5_000)
        assert session.reached
        session.run_with_flip(branch + 1, 0)
        warm_before = set(session.process.cpu.decode_cache)
        assert warm_before                      # prefix decodes cached
        session.run_with_flip(branch + 1, 1)
        warm_after = set(session.process.cpu.decode_cache)
        # everything cached before the second experiment survived its
        # restore except decodes covering the flipped byte
        evictable = {address for address in warm_before
                     if address <= branch + 1}
        assert warm_before - evictable <= warm_after

    def test_prepared_ops_bounded_outside_cacheable(self):
        """Outside the cacheable window nothing is retained: a wild
        jump into data must not grow the decode or block caches
        without bound, on the step path or the block path."""
        cpu, __ = machine(b"\x90\x90\x90\x90")
        cpu.cacheable = (0x1000, 0x1002)
        for _ in range(4):
            cpu.step()
        for _ in range(3):
            cpu.eip = 0x1000
            cpu.run(cpu.instret + 4)
        assert cpu.blocks
        assert all(0x1000 <= a < 0x1002 for a in cpu.decode_cache)
        assert all(0x1000 <= a < 0x1002 for a in cpu.blocks)
        assert all(end <= 0x1002 for block in cpu.blocks.values()
                   for __, end in block[2])

    def test_poke_mid_instruction_never_runs_stale_prepared_op(self):
        """Execution-level stale check: corrupting a *middle* byte of
        an instruction that sits inside a compiled block must rebuild
        the block -- the old compiled code may never run again."""
        # mov $1,%eax ; mov $2,%ebx ; mov $3,%ecx ; jmp back to start
        blob = (b"\xB8\x01\x00\x00\x00"
                b"\xBB\x02\x00\x00\x00"
                b"\xB9\x03\x00\x00\x00"
                b"\xEB\xEF")
        cpu, memory = machine(blob)
        cpu.run(8)                       # second entry compiles it
        assert cpu.perf.blocks_compiled == 1
        assert cpu.regs[0] == 1 and cpu.regs[3] == 2 and cpu.regs[1] == 3
        # corrupt the immediate (3rd byte) of the middle instruction
        memory.poke(0x1007, 0x7F)
        cpu.invalidate_cache(0x1007)
        cpu.eip = 0x1000
        cpu.run(cpu.instret + 4)
        assert cpu.regs[3] == 0x7F02     # new bytes executed, not stale

    def test_flip_bit_mid_block_reexecutes_fresh(self):
        """Same property through the Process.flip_bit plumbing used by
        real experiments."""
        from repro.x86 import assemble
        from repro.emu import Process
        from repro.kernel import Kernel
        module = assemble("""
.text
.global _start
_start:
    movl $1, %eax
    movl $2, %ebx
    movl $0, %ebx
    movl $1, %eax
    int $0x80
""")
        process = Process(module, Kernel())
        start = module.address_of("_start")
        process.run_until(start + 10)    # warm caches over the block
        # flip a bit inside the exit-code mov's immediate (mid-block);
        # a stale prepared op would still exit with status 0
        process.flip_bit(start + 11, 4)
        process.reset_cpu()
        status = process.run(1_000)
        assert status.kind == "exit"
        assert status.exit_code == 0x10  # fresh bytes, not the stale op

    def test_process_flip_bit_invalidates(self):
        from repro.x86 import assemble
        from repro.emu import Process
        from repro.kernel import Kernel
        module = assemble("""
.text
.global _start
_start:
    movl $5, %ebx
    movl $1, %eax
    int $0x80
""")
        process = Process(module, Kernel())
        # warm the caches by running to the exit syscall address (the
        # block builder may legitimately predecode *beyond* the first
        # instruction; those entries are still valid after the flip)
        start = module.address_of("_start")
        process.run_until(start + 5)
        assert start in process.cpu.decode_cache
        # flip imm bit of the first instruction (already executed, so
        # the flip matters only if we re-enter -- but every cache layer
        # must drop any entry covering the flipped byte)
        process.flip_bit(start + 1, 1)
        assert start not in process.cpu.decode_cache
        assert all(not (low <= start + 1 < end)
                   for block in process.cpu.blocks.values()
                   for low, end in block[2])


#: mov $1,%eax ; add $2,%eax ; jmp back to start
LOOP = b"\xB8\x01\x00\x00\x00\x83\xC0\x02\xEB\xF6"


class TestCodeCache:
    """Compiled blocks share generated code per (start, bytes), and
    the shared cache forgets a block when a CPU evicts it."""

    def test_cpus_over_one_image_share_code(self):
        first, __ = machine(LOOP)
        second, __ = machine(LOOP)
        first.run(12)
        second.run(12)
        fn_first = first.blocks[0x1000][0]
        fn_second = second.blocks[0x1000][0]
        assert first.perf.blocks_compiled == 1
        assert second.perf.blocks_compiled == 1
        assert fn_first is not fn_second         # each binds its CPU
        assert fn_first.__code__ is fn_second.__code__

    def test_evicting_corrupted_block_drops_its_code(self):
        from repro.emu.cpu import _CODE_CACHE, _code_key
        cpu, memory = machine(LOOP)
        cpu.decode_log = []
        cpu.run(12)
        clean = _code_key(cpu.blocks[0x1000])
        assert clean in _CODE_CACHE
        # inject: corrupt add's immediate, run the corrupted block hot
        memory.poke(0x1007, 0x40)
        cpu.invalidate_cache(0x1007)
        cpu.eip = 0x1000
        cpu.run(cpu.instret + 12)
        assert cpu.regs[0] == 0x41
        corrupted = _code_key(cpu.blocks[0x1000])
        assert corrupted != clean and corrupted in _CODE_CACHE
        # restore the text, then evict what the log says is suspect
        memory.poke(0x1007, 0x02)
        cpu.evict_suspect_decodes({0x1007})
        assert 0x1000 not in cpu.blocks
        assert corrupted not in _CODE_CACHE
