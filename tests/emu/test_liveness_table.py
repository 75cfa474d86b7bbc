"""The register read/write table behind golden liveness
(:mod:`repro.emu.liveness`) and the syscall read sets
(:func:`repro.kernel.syscalls.syscall_reads`).

Liveness is sound only if the table never claims an instruction
ignores a register it reads, or overwrites one it keeps part of.  The
differential property checks exactly that against
:meth:`CPU.slow_step`, the executable spec: a register outside an
entry's read set may hold anything without changing what the
instruction does, and one in its kill set ends the same either way.
The census checks that the table covers what the daemons execute, so
no golden run falls back to reading every register.
"""

from __future__ import annotations

import random

import pytest

from repro.apps.registry import available_daemons, get_daemon_spec
from repro.emu import CPU, CpuFault, Memory
from repro.emu.liveness import register_effects, TABLE
from repro.injection.golden import record_golden
from repro.kernel import Kernel
from repro.kernel.filesystem import FileSystem, OpenFile
from repro.kernel.syscalls import (SYS_CLOSE, SYS_EXIT, SYS_GETPID,
                                   SYS_OPEN, SYS_READ, SYS_TIME, SYS_WRITE,
                                   syscall_reads)
from repro.x86 import decode
from repro.x86.errors import DecodeOutOfBytesError, InvalidOpcodeError
from repro.x86.registers import EAX, EBX, ECX, EDX

TEXT = 0x08048000
#: a writable region at address 0 that every operand address of the
#: instances below falls in: registers hold 0..0xFFF and
#: displacements are 8-bit, so base + index * 8 + disp stays inside.
LOW_SIZE = 0x10000


def _shape(instruction):
    return (instruction.mnemonic,) + tuple(operand.kind
                                           for operand in instruction.operands)


def _instances(seed=7):
    """Decoded instructions for every table entry: each one- and
    two-byte opcode followed by random tails whose ModRM forms take a
    register, no displacement or an 8-bit one, for every value of the
    ModRM reg field."""
    rng = random.Random(seed)
    found = {}
    for opcode in [bytes([byte]) for byte in range(256) if byte != 0x0F] \
            + [bytes([0x0F, byte]) for byte in range(256)]:
        for field in range(48):
            modrm = (0xC0, 0x40, 0x00)[field % 3] | (field // 6) << 3 \
                | rng.randrange(8)
            if modrm & 0xC7 == 0x05:          # disp32, no base
                modrm |= 0x40
            sib = rng.randrange(256)
            if sib & 7 == 5:                  # disp32, no base
                sib &= ~1
            tail = bytes([modrm, sib]) + bytes(
                rng.randrange(256) for __ in range(8))
            try:
                instruction = decode(opcode + tail, TEXT)
            except (InvalidOpcodeError, DecodeOutOfBytesError):
                continue
            shape = _shape(instruction)
            if shape in TABLE and len(found.setdefault(shape, [])) < 3:
                found[shape].append(instruction)
    return found


INSTANCES = _instances()


def _step(instruction, regs, low):
    memory = Memory()
    memory.map_region("low", 0, low)
    memory.map_region("text", TEXT, instruction.raw + bytes(16),
                      writable=False)
    cpu = CPU(memory)
    cpu.regs = list(regs)
    cpu.eip = TEXT
    try:
        cpu.slow_step()
        fault = None
    except CpuFault as error:
        fault = (type(error).__name__, str(error))
    return (fault, cpu.eip, list(cpu.regs), cpu.eflags,
            bytes(memory.regions[0].data))


def test_every_table_entry_decodes():
    """The table holds only shapes the decoder produces, so the
    differential below exercises every entry."""
    assert sorted(set(TABLE) - set(INSTANCES)) == []


@pytest.mark.parametrize("shape", sorted(INSTANCES), ids="-".join)
def test_registers_outside_the_read_set_change_nothing(shape):
    rng = random.Random(repr(shape))
    for instruction in INSTANCES[shape]:
        reads, kills = register_effects(instruction)
        for __ in range(4):
            regs = [rng.randrange(0x100, 0x1000) for __ in range(8)]
            low = rng.randbytes(LOW_SIZE)
            fault, eip, after, eflags, memory = _step(instruction, regs,
                                                      low)
            for register in range(8):
                if reads >> register & 1:
                    continue
                perturbed = list(regs)
                perturbed[register] ^= rng.randrange(1, 0x1000)
                other = _step(instruction, perturbed, low)
                assert other[0] == fault and other[1] == eip \
                    and other[3] == eflags and other[4] == memory, \
                    (str(instruction), register)
                for index in range(8):
                    if index != register or kills >> index & 1:
                        assert other[2][index] == after[index], \
                            (str(instruction), register, index)


@pytest.mark.parametrize("register", range(8))
def test_eight_bit_operands_alias_the_low_four_registers(register):
    """``movb %<r8>, (%esi)`` reads EAX..EBX whichever of the eight
    byte registers it names (AH..BH are bits 8-15 of EAX..EBX)."""
    instruction = decode(bytes([0x88, 0x06 | register << 3]), TEXT)
    reads, kills = register_effects(instruction)
    assert reads == 1 << (register & 3) | 1 << 6 and kills == 0


def test_partial_writes_kill_nothing():
    """``movb $1, %al`` and ``movw $1, %ax`` keep the rest of EAX."""
    for raw in (b"\xb0\x01", b"\x66\xb8\x01\x00"):
        assert register_effects(decode(raw, TEXT)) == (0, 0)


# ----------------------------------------------------------------------
# Syscalls

PATH = 0x200
BUFFER = 0x400


def _syscall(regs):
    memory = Memory()
    low = bytearray(range(256)) * (LOW_SIZE // 256)
    low[PATH:PATH + 3] = b"/f\0"
    memory.map_region("low", 0, low)
    cpu = CPU(memory, Kernel(filesystem=FileSystem({"/f": b"abcdefgh"})))
    cpu.kernel.open_files[3] = OpenFile("/f", b"abcdefgh")
    cpu.regs = list(regs)
    cpu.kernel.syscall(cpu)
    kernel = cpu.kernel
    return (list(cpu.regs), bytes(memory.regions[0].data),
            bytes(kernel.stderr_log), kernel.next_fd,
            {fd: handle.position for fd, handle in kernel.open_files.items()},
            cpu.halted, getattr(cpu, "exit_code", None))


@pytest.mark.parametrize("number, ebx", [
    (SYS_EXIT, 3), (SYS_READ, 3), (SYS_WRITE, 2), (SYS_OPEN, PATH),
    (SYS_CLOSE, 3), (SYS_TIME, 0), (SYS_GETPID, 0), (99, 0)])
def test_syscalls_read_only_their_read_set(number, ebx):
    """What :meth:`Kernel.syscall` does does not depend on a register
    outside :func:`syscall_reads`; EAX (the result) is its only
    register write."""
    regs = [0x10] * 8
    regs[EAX], regs[EBX], regs[ECX], regs[EDX] = number, ebx, BUFFER, 4
    reads = syscall_reads(number)
    assert reads & 1 << EAX
    expected = _syscall(regs)
    for register in range(8):
        if reads >> register & 1:
            continue
        perturbed = list(regs)
        perturbed[register] += 2
        got = _syscall(perturbed)
        assert got[1:] == expected[1:], register
        assert [value for index, value in enumerate(got[0])
                if index != register] \
            == [value for index, value in enumerate(expected[0])
                if index != register], register


# ----------------------------------------------------------------------
# Census

def test_every_shape_the_golden_runs_execute_has_an_entry():
    """No golden run of any registered daemon and client falls back
    to the all-registers default."""
    missing = set()
    shapes = set()
    for name in available_daemons():
        spec = get_daemon_spec(name)
        daemon = spec.build()
        module = daemon.module
        for client in spec.clients():
            golden = record_golden(daemon, spec.client_factory(client))
            for address in golden.coverage:
                offset = address - module.text_base
                instruction = decode(module.text[offset:offset + 15],
                                     address)
                shapes.add(_shape(instruction))
                if register_effects(instruction) is None:
                    missing.add(_shape(instruction))
            assert any(dead for dead in golden.dead_regs)
    assert sorted(missing) == []
    assert len(shapes) >= 30
