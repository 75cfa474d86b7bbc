"""Observed run loop: execution equivalence with the plain fast path,
crash-consistent ring contents, and a ring and a sampler fed
together."""

from __future__ import annotations

from repro.obs import Sampler
from repro.obs.forensics import flatten_ring, make_forensic_ring

from .harness import make_cpu, TEXT_BASE

LOOP = """
    movl $0, %eax
    movl $0, %ecx
loop:
    addl $3, %eax
    xorl %ecx, %eax
    incl %ecx
    cmpl $200, %ecx
    jne loop
"""

CRASH_MID_BLOCK = """
    movl $1, %eax
    movl $2, %ebx
    movl $0, %ecx
    movl (%ecx), %edx
    movl $3, %esi
"""

UNDECODABLE_BLOCK_START = """
    movl $1, %eax
    jmp bad
    nop
bad:
    .byte 0x0f, 0x0b
"""


def _run(source, ring=False, sampler=None, budget=10_000, stop=None):
    cpu, module = make_cpu(source)
    cpu.cacheable = (TEXT_BASE, TEXT_BASE + len(module.text))
    if ring:
        cpu.forensic_ring = make_forensic_ring()
    cpu.sampler = sampler
    status = cpu.run(budget) if stop is None else cpu.run(budget, stop)
    # every case here must exercise the superstep path, not only step()
    assert cpu.perf.superstep_entries > 0
    return cpu, module, status


class TestEquivalence:
    def test_same_architectural_state_with_and_without_ring(self):
        plain, __, plain_status = _run(LOOP)
        traced, ___, traced_status = _run(LOOP, ring=True)
        # ring runs must be observationally identical to plain runs
        assert traced_status[0] == plain_status[0]
        assert str(traced_status[1]) == str(plain_status[1])
        assert traced.instret == plain.instret
        assert list(traced.regs) == list(plain.regs)
        assert traced.eip == plain.eip
        assert traced.eflags == plain.eflags

    def test_ring_follows_execution(self):
        cpu, module, status = _run(LOOP, ring=True, budget=50)
        assert status == ("limit", None)
        eips = flatten_ring(cpu.forensic_ring, last_n=1_000)
        assert eips, "ring stayed empty"
        # every recorded EIP lies inside the text section
        end = TEXT_BASE + len(module.text)
        assert all(TEXT_BASE <= eip < end for eip in eips)


class TestCrashConsistency:
    def test_mid_block_fault_truncates_to_faulting_op(self):
        cpu, module, status = _run(CRASH_MID_BLOCK, ring=True)
        assert status[0] == "crash"
        eips = flatten_ring(cpu.forensic_ring, last_n=16)
        # the ring ends at the instruction the crash report points at,
        # with none of the block's unexecuted successors present
        assert eips[-1] == cpu.eip
        plain, __, plain_status = _run(CRASH_MID_BLOCK)
        assert plain_status[0] == "crash"
        assert cpu.eip == plain.eip
        assert cpu.instret == plain.instret
        # the retired prefix of the block is all there
        assert eips == [module.text_base + offset
                        for offset in (0, 5, 10, 15)][:len(eips)]

    def test_decode_fault_at_block_start_is_recorded(self):
        cpu, module, status = _run(UNDECODABLE_BLOCK_START, ring=True)
        assert status[0] == "crash"
        assert type(status[1]).__name__ == "InvalidOpcodeFault"
        assert cpu.eip == module.address_of("bad")
        assert cpu.forensic_ring[-1] == cpu.eip
        plain, __, plain_status = _run(UNDECODABLE_BLOCK_START)
        assert str(plain_status[1]) == str(status[1])
        assert plain.instret == cpu.instret


class TestObserversTogether:
    def _observe(self, ring=True, sampler=True, stop=None):
        cpu, module, status = _run(
            LOOP, ring=ring, sampler=Sampler(7) if sampler else None,
            budget=500, stop=stop)
        eips = (flatten_ring(cpu.forensic_ring, last_n=1_000)
                if ring else None)
        samples = cpu.sampler.samples if sampler else None
        return status, cpu.instret, eips, samples

    def test_ring_and_sampler_each_see_what_they_see_alone(self):
        status, instret, eips, samples = self._observe()
        assert eips and samples
        assert self._observe(sampler=False) == (status, instret, eips,
                                                None)
        assert self._observe(ring=False) == (status, instret, None,
                                             samples)

    def test_stop_set_never_hit_changes_nothing(self):
        plain = self._observe()
        assert plain[0] == ("limit", None)
        # a mid-instruction address and one past the text: never an
        # EIP, so the run must match the stop-free one exactly
        stop = frozenset({TEXT_BASE + 1, TEXT_BASE + 0x1000})
        assert self._observe(stop=stop) == plain

    def test_stop_set_hit_stops_before_executing(self):
        bad = make_cpu(UNDECODABLE_BLOCK_START)[1].address_of("bad")
        cpu, module, status = _run(UNDECODABLE_BLOCK_START, ring=True,
                                   sampler=Sampler(1),
                                   stop=frozenset({bad}))
        # the undecodable instruction at the stop address never runs
        assert status == ("stop", None)
        assert cpu.eip == bad
        assert cpu.instret == 2
        assert flatten_ring(cpu.forensic_ring) == [TEXT_BASE,
                                                   TEXT_BASE + 5]
        assert cpu.sampler.samples == {TEXT_BASE: 1, TEXT_BASE + 5: 1}
