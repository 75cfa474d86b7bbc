"""Data movement, ALU execution, stack discipline, flag visibility."""

from __future__ import annotations

from repro.x86.flags import CF, OF, SF, ZF
from repro.x86.registers import EAX, EBP, EBX, ECX, EDX, ESI, ESP

from .harness import DATA_BASE, run_snippet, STACK_TOP


class TestMov:
    def test_imm_to_reg(self):
        cpu = run_snippet("movl $42, %eax")
        assert cpu.regs[EAX] == 42

    def test_reg_to_reg(self):
        cpu = run_snippet("movl $7, %ecx\nmovl %ecx, %edx")
        assert cpu.regs[EDX] == 7

    def test_memory_roundtrip(self):
        cpu = run_snippet("""
    movl $0xDEADBEEF, %eax
    movl %eax, value
    movl value, %ebx
""", data="value: .long 0")
        assert cpu.regs[EBX] == 0xDEADBEEF

    def test_byte_ops_preserve_high_bits(self):
        cpu = run_snippet("""
    movl $0x11223344, %eax
    movb $0x99, %al
""")
        assert cpu.regs[EAX] == 0x11223399

    def test_high_byte_registers(self):
        cpu = run_snippet("""
    movl $0, %eax
    movb $0x7F, %ah
""")
        assert cpu.regs[EAX] == 0x7F00

    def test_movzbl(self):
        cpu = run_snippet("""
    movl $0xFFFFFFFF, %eax
    movb $0x80, %al
    movzbl %al, %eax
""")
        assert cpu.regs[EAX] == 0x80

    def test_movsbl_sign_extends(self):
        cpu = run_snippet("""
    movb $0x80, %cl
    movsbl %cl, %eax
""")
        assert cpu.regs[EAX] == 0xFFFFFF80

    def test_lea_computes_without_access(self):
        cpu = run_snippet("""
    movl $0x100, %eax
    movl $0x20, %ecx
    leal 5(%eax,%ecx,4), %edx
""")
        assert cpu.regs[EDX] == 0x100 + 0x80 + 5


class TestStack:
    def test_push_pop(self):
        cpu = run_snippet("""
    movl $123, %eax
    pushl %eax
    popl %ebx
""")
        assert cpu.regs[EBX] == 123

    def test_push_decrements_esp_by_4(self):
        cpu = run_snippet("pushl $1")
        assert cpu.regs[ESP] == STACK_TOP - 16 - 4

    def test_pusha_popa(self):
        cpu = run_snippet("""
    movl $1, %eax
    movl $2, %ecx
    movl $3, %ebx
    pusha
    movl $99, %eax
    movl $99, %ecx
    movl $99, %ebx
    popa
""")
        assert cpu.regs[EAX] == 1
        assert cpu.regs[ECX] == 2
        assert cpu.regs[EBX] == 3

    def test_enter_leave(self):
        cpu = run_snippet("""
    movl %esp, %esi
    enter $16, $0
    leave
""")
        assert cpu.regs[ESP] == cpu.regs[ESI]


class TestAluExecution:
    def test_add_sets_zf(self):
        cpu = run_snippet("""
    movl $0xFFFFFFFF, %eax
    addl $1, %eax
""")
        assert cpu.regs[EAX] == 0
        assert cpu.eflags & ZF
        assert cpu.eflags & CF

    def test_cmp_does_not_write(self):
        cpu = run_snippet("""
    movl $5, %eax
    cmpl $9, %eax
""")
        assert cpu.regs[EAX] == 5
        assert cpu.eflags & CF   # 5 < 9 unsigned borrow

    def test_test_is_nondestructive_and(self):
        cpu = run_snippet("""
    movl $0xF0, %eax
    testl %eax, %eax
""")
        assert cpu.regs[EAX] == 0xF0
        assert not cpu.eflags & ZF

    def test_xor_self_zeroes(self):
        cpu = run_snippet("""
    movl $123, %ebx
    xorl %ebx, %ebx
""")
        assert cpu.regs[EBX] == 0
        assert cpu.eflags & ZF

    def test_adc_chain(self):
        cpu = run_snippet("""
    movl $0xFFFFFFFF, %eax
    addl $1, %eax
    movl $0, %ebx
    adcl $0, %ebx
""")
        assert cpu.regs[EBX] == 1

    def test_imul(self):
        cpu = run_snippet("""
    movl $7, %eax
    movl $6, %ecx
    imull %ecx, %eax
""")
        assert cpu.regs[EAX] == 42

    def test_imul_wraps_mod32(self):
        cpu = run_snippet("""
    movl $1103515245, %eax
    movl $1103515245, %ecx
    imull %ecx, %eax
""")
        assert cpu.regs[EAX] == (1103515245 * 1103515245) & 0xFFFFFFFF

    def test_mul_flags_signed_and_unsigned_views(self):
        # 0x10000 * 0x8000 = 0x80000000: it fits 32 bits unsigned but
        # not signed, so imul sets CF/OF in every form and mul clears
        # them; -0x8000 * 0x10000 = -2**31 fits signed
        for source, eax, edx, overflow in (
                ("movl $0x8000, %ecx\n    imull %ecx, %eax",
                 0x80000000, 0, True),
                ("imull $0x8000, %eax, %eax", 0x80000000, 0, True),
                ("movl $0x8000, %ecx\n    imull %ecx",
                 0x80000000, 0, True),
                ("movl $0x8000, %ecx\n    mull %ecx", 0x80000000, 0, False),
                ("movl $0x10000, %ecx\n    mull %ecx", 0, 1, True),
                ("movl $-0x8000, %ecx\n    imull %ecx, %eax",
                 0x80000000, 0, False),
                ("movl $-0x8000, %ecx\n    imull %ecx",
                 0x80000000, 0xFFFFFFFF, False)):
            cpu = run_snippet("    movl $0, %edx\n    movl $0x10000, %eax\n"
                              "    " + source)
            assert (cpu.regs[EAX], cpu.regs[EDX]) == (eax, edx), source
            assert cpu.eflags & (CF | OF) == (
                (CF | OF) if overflow else 0), source

    def test_three_operand_imul_at_operand_size_16(self):
        # imul $-1, %cx, %ax with an imm16 and with a sign-extended
        # imm8: AX = 3 * -1, bits 16-31 of EAX kept, the product fits
        # 16 bits signed
        for encoding in (".byte 0x66, 0x69, 0xc1, 0xff, 0xff",
                         ".byte 0x66, 0x6b, 0xc1, 0xff"):
            cpu = run_snippet("    movl $0x12345678, %eax\n"
                              "    movl $3, %ecx\n    " + encoding)
            assert cpu.regs[EAX] == 0x1234FFFD, encoding
            assert cpu.eflags & (CF | OF) == 0, encoding
        # 0x4000 * 2 = 0x8000 overflows 16 bits signed
        cpu = run_snippet("    movl $0x4000, %ecx\n"
                          "    .byte 0x66, 0x6b, 0xc1, 0x02")
        assert cpu.regs[EAX] & 0xFFFF == 0x8000
        assert cpu.eflags & (CF | OF) == CF | OF

    def test_idiv_exact_past_2_53(self):
        # 350746864906756207 / -1495338284: a float quotient rounds to
        # -234560212 with remainder -1; truncation gives -234560211
        # with remainder 1495338283
        cpu = run_snippet("""
    movl $0x04de1a6a, %edx
    movl $0x50d9606f, %eax
    movl $-1495338284, %ecx
    idivl %ecx
""")
        assert cpu.regs[EAX] == -234560211 & 0xFFFFFFFF
        assert cpu.regs[EDX] == 1495338283

    def test_div(self):
        cpu = run_snippet("""
    movl $0, %edx
    movl $43, %eax
    movl $5, %ecx
    divl %ecx
""")
        assert cpu.regs[EAX] == 8
        assert cpu.regs[EDX] == 3

    def test_idiv_negative(self):
        cpu = run_snippet("""
    movl $-43, %eax
    cltd
    movl $5, %ecx
    idivl %ecx
""")
        assert cpu.regs[EAX] == (-8) & 0xFFFFFFFF
        assert cpu.regs[EDX] == (-3) & 0xFFFFFFFF

    def test_cdq_sign(self):
        cpu = run_snippet("""
    movl $0x80000000, %eax
    cltd
""")
        assert cpu.regs[EDX] == 0xFFFFFFFF

    def test_inc_dec_mem(self):
        cpu = run_snippet("""
    incl counter
    incl counter
    decl counter
""", data="counter: .long 10")
        assert cpu.memory.read32(DATA_BASE) == 11

    def test_setcc_movzbl_pattern(self):
        cpu = run_snippet("""
    movl $3, %eax
    cmpl $5, %eax
    setl %al
    movzbl %al, %eax
""")
        assert cpu.regs[EAX] == 1

    def test_bswap(self):
        cpu = run_snippet("""
    movl $0x11223344, %eax
    bswap %eax
""")
        assert cpu.regs[EAX] == 0x44332211

    def test_xchg(self):
        cpu = run_snippet("""
    movl $1, %eax
    movl $2, %ecx
    xchgl %eax, %ecx
""")
        assert cpu.regs[EAX] == 2 and cpu.regs[ECX] == 1

    def test_shift_by_cl(self):
        cpu = run_snippet("""
    movl $1, %eax
    movb $4, %cl
    shll %cl, %eax
""")
        assert cpu.regs[EAX] == 16


class TestFlagsOps:
    def test_lahf_sahf_roundtrip(self):
        cpu = run_snippet("""
    movl $0, %eax
    cmpl $1, %eax     # sets CF and SF
    lahf
    movl %eax, %esi
    clc
    sahf
""")
        assert cpu.eflags & CF

    def test_pushf_popf(self):
        cpu = run_snippet("""
    stc
    pushf
    clc
    popf
""")
        assert cpu.eflags & CF

    def test_salc(self):
        cpu = run_snippet("stc\nsalc")
        assert cpu.read_reg(EAX, 1) == 0xFF
