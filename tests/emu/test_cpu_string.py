"""String instructions with and without REP prefixes."""

from __future__ import annotations

import pytest

from repro.x86.flags import DF, ZF
from repro.x86.registers import EAX, ECX, EDI, ESI

from .harness import DATA_BASE, make_cpu, run_snippet


class TestMovs:
    def test_single_movsb(self):
        cpu = run_snippet("""
    movl $src, %esi
    movl $dst, %edi
    movsb
""", data='src: .asciz "AB"\ndst: .space 4')
        assert cpu.memory.read8(DATA_BASE + 3) == ord("A")
        assert cpu.regs[ESI] == DATA_BASE + 1
        assert cpu.regs[EDI] == DATA_BASE + 4

    def test_rep_movsb(self):
        cpu = run_snippet("""
    movl $src, %esi
    movl $dst, %edi
    movl $5, %ecx
    rep movsb
""", data='src: .asciz "hello"\ndst: .space 8')
        assert cpu.memory.read_bytes(DATA_BASE + 6, 5) == b"hello"
        assert cpu.regs[ECX] == 0

    def test_movs_respects_direction_flag(self):
        cpu = run_snippet("""
    std
    movl $src+1, %esi
    movl $dst+1, %edi
    movl $2, %ecx
    rep movsb
    cld
""", data='src: .asciz "XY"\ndst: .space 4')
        assert cpu.memory.read_bytes(DATA_BASE + 3, 2) == b"XY"


class TestStosLods:
    def test_rep_stosb_memset(self):
        cpu = run_snippet("""
    movl $dst, %edi
    movb $0x41, %al
    movl $6, %ecx
    rep stosb
""", data="dst: .space 8")
        assert cpu.memory.read_bytes(DATA_BASE, 6) == b"AAAAAA"

    def test_rep_stosd(self):
        cpu = run_snippet("""
    movl $dst, %edi
    movl $0x11223344, %eax
    movl $2, %ecx
    rep stosd
""", data="dst: .space 8")
        assert cpu.memory.read32(DATA_BASE) == 0x11223344
        assert cpu.memory.read32(DATA_BASE + 4) == 0x11223344

    def test_lodsb(self):
        cpu = run_snippet("""
    movl $src, %esi
    lodsb
""", data='src: .byte 0x5A')
        assert cpu.read_reg(EAX, 1) == 0x5A


class TestCmpsScas:
    def test_repe_cmpsb_equal(self):
        cpu = run_snippet("""
    movl $a, %esi
    movl $b, %edi
    movl $3, %ecx
    repe cmpsb
""", data='a: .ascii "abc"\nb: .ascii "abc"')
        assert cpu.regs[ECX] == 0
        assert cpu.eflags & ZF

    def test_repe_cmpsb_difference_stops(self):
        cpu = run_snippet("""
    movl $a, %esi
    movl $b, %edi
    movl $4, %ecx
    repe cmpsb
""", data='a: .ascii "abxd"\nb: .ascii "abyd"')
        assert cpu.regs[ECX] == 1   # stopped at position 3
        assert not cpu.eflags & ZF

    def test_repne_scasb_strlen_idiom(self):
        cpu = run_snippet("""
    movl $s, %edi
    xorl %eax, %eax
    movl $100, %ecx
    repne scasb
""", data='s: .asciz "hello"')
        # ECX decremented once per byte scanned incl. the NUL: 100-6
        assert cpu.regs[ECX] == 94
        assert cpu.eflags & ZF


STRING_MNEMONICS = ("movsb", "movsd", "cmpsb", "cmpsd", "stosb",
                    "stosd", "lodsb", "lodsd", "scasb", "scasd")


def _loops(cpu):
    return {"reference": cpu._run_reference, "blocks": cpu.run}


class TestRetireCount:
    """A string op retires one instruction per iteration, and at
    least one (a ``rep`` with ECX=0 still retires the instruction
    itself), under the reference loop and the block loop alike."""

    @pytest.mark.parametrize("loop", ("reference", "blocks"))
    @pytest.mark.parametrize("prefix,count,retired",
                             [("", 3, 1), ("rep ", 0, 1),
                              ("rep ", 3, 3)])
    @pytest.mark.parametrize("mnemonic", STRING_MNEMONICS)
    def test_instret(self, mnemonic, prefix, count, retired, loop):
        # zeroed buffers and EAX=0: every cmps/scas compare is equal,
        # so a repe runs all ECX iterations
        cpu, module = make_cpu("""
    movl $src, %%esi
    movl $dst, %%edi
    movl $%d, %%ecx
    xorl %%eax, %%eax
op:
    %s%s
end:
    nop
""" % (count, prefix, mnemonic), data="src: .space 16\ndst: .space 16")
        run = _loops(cpu)[loop]
        op, end = module.address_of("op"), module.address_of("end")
        assert run(1000, frozenset((op,))) == ("stop", None)
        before = cpu.instret
        assert run(1000, frozenset((end,))) == ("stop", None)
        assert cpu.instret - before == retired
