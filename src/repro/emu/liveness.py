"""What an instruction reads and overwrites: the facts behind liveness.

Golden convergence (``DESIGN.md`` section 19) may ignore a register
or a memory byte that differs from the golden run when the golden
tail overwrites it before reading it.  The golden run supplies the
tail; this module supplies the two per-access facts:

* :func:`register_effects`, a conservative read/write table over a
  decoded :class:`~repro.x86.instruction.Instruction`, keyed by its
  mnemonic and operand kinds.  A memory operand reads its base and
  index registers; an 8-bit register operand reads and writes one of
  EAX..EBX (``index & 3``); only a 32-bit write kills a register,
  because a partial write keeps the rest of the old value.  A shape
  without an entry gets ``None``, which a caller must treat as
  reading every register;
* :class:`AccessLog`, the data accesses one :class:`Memory` serves,
  in order, the kernel's copy-in and copy-out included.
"""

from __future__ import annotations

from array import array

from ..x86.registers import EAX, EBP, EDX, ESP

#: every general-purpose register, as a bitmask (bit *i*: register
#: *i*).
ALL_REGISTERS = 0xFF

# operand roles
_NONE, _READ, _WRITE, _BOTH = 0, 1, 2, 3

_ALU = ("add", "or", "adc", "sbb", "and", "sub", "xor")
_SHIFTS = ("rol", "ror", "rcl", "rcr", "shl", "shr", "sar")
_JCC = ("jo", "jno", "jb", "jae", "je", "jne", "jbe", "ja",
        "js", "jns", "jp", "jnp", "jl", "jge", "jle", "jg")
_TWO_OPERAND = (("imm", "reg"), ("reg", "reg"), ("mem", "reg"),
                ("reg", "mem"), ("imm", "mem"))
_SHIFT_OPERANDS = (("imm", "reg"), ("reg", "reg"), ("imm", "mem"),
                   ("reg", "mem"))
_ONE_OPERAND = (("reg",), ("mem",))


def _mask(*registers):
    mask = 0
    for register in registers:
        mask |= 1 << register
    return mask


#: ``(mnemonic, operand kinds...)`` -> ``(roles, reads, kills)``: one
#: role per operand, and the registers the instruction reads and
#: fully overwrites besides its operands.
TABLE = {}


def _entries(mnemonics, shapes, roles, reads=0, kills=0):
    for mnemonic in mnemonics:
        for shape in shapes:
            TABLE[(mnemonic,) + shape] = (roles, reads, kills)


_entries(_ALU + tuple(name + "b" for name in _ALU), _TWO_OPERAND,
         (_READ, _BOTH))
_entries(("cmp", "cmpb"), _TWO_OPERAND, (_READ, _READ))
_entries(("test", "testb"), tuple(shape for shape in _TWO_OPERAND
                                  if shape != ("mem", "reg")),
         (_READ, _READ))
_entries(("mov", "movb"), _TWO_OPERAND, (_READ, _WRITE))
_entries(("lea",), (("mem", "reg"),), (_NONE, _WRITE))
_entries(("movzxb", "movzxw", "movsxb", "movsxw"),
         (("reg", "reg"), ("mem", "reg")), (_READ, _WRITE))
_entries(("imul2",), (("reg", "reg"), ("mem", "reg")), (_READ, _BOTH))
_entries(("inc", "incb", "dec", "decb", "not", "notb", "neg", "negb"),
         _ONE_OPERAND, (_BOTH,))
_entries(_SHIFTS + tuple(name + "b" for name in _SHIFTS),
         _SHIFT_OPERANDS, (_READ, _BOTH))
# the one-operand divides read EDX:EAX (AX for the byte forms, read
# here as EDX:EAX too) and write both
_entries(("div", "divb", "idiv", "idivb"), _ONE_OPERAND, (_READ,),
         reads=_mask(EAX, EDX))
_entries(("cdq",), ((),), (), reads=_mask(EAX), kills=_mask(EDX))
_entries(("push",), (("reg",), ("imm",), ("mem",)), (_READ,),
         reads=_mask(ESP))
_entries(("pop",), _ONE_OPERAND, (_WRITE,), reads=_mask(ESP))
_entries(_JCC + ("jmp",), (("rel",),), (_NONE,))
_entries(("call",), (("rel",),), (_NONE,), reads=_mask(ESP))
_entries(("jmp_ind",), _ONE_OPERAND, (_READ,))
_entries(("call_ind",), _ONE_OPERAND, (_READ,), reads=_mask(ESP))
_entries(("ret",), ((), ("imm",)), (_NONE,), reads=_mask(ESP))
# ESP <- EBP, then EBP <- pop: the old ESP is never read
_entries(("leave",), ((),), (), reads=_mask(EBP), kills=_mask(ESP, EBP))
_entries(("nop",), ((),), ())
# ``int 0x80`` reads what its syscall number uses; statically that is
# unknown, so the entry reads everything (a golden run refines it with
# the number it made, :func:`repro.kernel.syscalls.syscall_reads`)
_entries(("int",), (("imm",),), (_NONE,), reads=ALL_REGISTERS)


def register_effects(instruction):
    """``(reads, kills)``: bitmasks of the registers *instruction* may
    read and of those it overwrites in full (a register in both is
    read first).  ``None`` when its shape has no table entry."""
    operands = instruction.operands
    entry = TABLE.get((instruction.mnemonic,)
                      + tuple(operand.kind for operand in operands))
    if entry is None:
        return None
    roles, reads, kills = entry
    for operand, role in zip(operands, roles):
        kind = operand.kind
        if kind == "mem":
            if operand.base is not None:
                reads |= 1 << operand.base
            if operand.index is not None:
                reads |= 1 << operand.index
        elif kind == "reg":
            size = operand.size
            index = operand.index & 3 if size == 1 else operand.index
            if role & _READ:
                reads |= 1 << index
            if role & _WRITE and size == 4:
                kills |= 1 << index
    return reads, kills


class AccessLog:
    """The data accesses one :class:`~repro.emu.memory.Memory` serves,
    in order: access *i* covers ``spans[i]`` bytes from ``starts[i]``,
    and a write has its span negated.

    Attaching shadows the memory's read and write methods on that one
    instance, so no other memory pays for the log, and sets its
    ``access_log``, so a CPU block made meanwhile goes through those
    methods instead of a bound region; :meth:`detach` takes them off
    again (they refer to the memory, so until then the memory is only
    freed by the cycle collector).  A block made while the log is
    attached forwards a push to its pop without the pop's read: that
    read follows its own write with no syscall between them, so it
    changes no live mask
    (:class:`~repro.injection.golden.ByteLiveness`).  An access is
    logged once it succeeded; the per-byte fallbacks of a straddling
    or faulting access log each byte they reached, through the same
    shadowed methods.  ``read_cstring`` logs the NUL it stops at.
    Instruction fetches are not data accesses and are not logged.
    """

    def __init__(self, memory):
        self.starts = array("I")
        self.spans = array("i")
        self.memory = memory
        memory.access_log = self
        start, span = self.starts.append, self.spans.append
        for name, width in (("read8", 1), ("read16", 2), ("read32", 4),
                            ("write8", -1), ("write16", -2),
                            ("write32", -4)):
            setattr(memory, name, _logged(getattr(memory, name), width,
                                          start, span))

        read_bytes, write_bytes = memory.read_bytes, memory.write_bytes
        read_cstring = memory.read_cstring

        def logged_read_bytes(address, count, eip=0):
            data = read_bytes(address, count, eip)
            if data:
                start(address & 0xFFFFFFFF)
                span(len(data))
            return data

        def logged_write_bytes(address, blob, eip=0):
            write_bytes(address, blob, eip)
            if blob:
                start(address & 0xFFFFFFFF)
                span(-len(blob))

        def logged_read_cstring(address, limit=4096, eip=0):
            data = read_cstring(address, limit, eip)
            count = min(len(data) + 1, limit)
            if count > 0:
                start(address & 0xFFFFFFFF)
                span(count)
            return data

        memory.read_bytes = logged_read_bytes
        memory.write_bytes = logged_write_bytes
        memory.read_cstring = logged_read_cstring

    def detach(self):
        """Stop logging: the memory's own methods serve it again."""
        for name in _SHADOWED + ("access_log",):
            delattr(self.memory, name)
        self.memory = None

    def __len__(self):
        return len(self.starts)


_SHADOWED = ("read8", "read16", "read32", "write8", "write16", "write32",
             "read_bytes", "write_bytes", "read_cstring")


def _logged(method, width, start, span):
    if width > 0:
        def logged(address, eip=0):
            value = method(address, eip)
            start(address & 0xFFFFFFFF)
            span(width)
            return value
    else:
        def logged(address, value, eip=0):
            method(address, value, eip)
            start(address & 0xFFFFFFFF)
            span(width)
    return logged
