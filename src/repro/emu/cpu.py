"""IA-32 CPU execution engine.

Executes instructions decoded by :mod:`repro.x86.decoder` against a
:class:`repro.emu.memory.Memory`.  The engine favours architectural
fidelity over speed in semantics, but the hot loop is built for the
exhaustive injection campaigns (see ``DESIGN.md`` section 10):

* a **prepared-op cache** over the text segment: each cached entry is
  ``(callable, instruction, fall-through eip)``, so a retire costs one
  dict probe and one call instead of re-hashing the mnemonic and
  re-walking operands; the most frequent instruction forms get
  specialised closures with their operand accessors pre-resolved;
* **lazy EFLAGS**: ALU fast paths record the last op's operands
  instead of computing SF/ZF/PF/AF/OF/CF; the flags materialise only
  when something actually reads ``cpu.eflags`` (a Jcc, ``pushf``, a
  snapshot, a test) -- flags clobbered unread are never computed;
* **basic-block supersteps**: :meth:`CPU.run` executes straight-line
  runs of prepared ops without per-instruction stop-set/budget
  bookkeeping between branch boundaries.

There are three run loops, each taking a ``stop`` set of addresses
(a debugger breakpoint is a one-address set, plain execution the
empty set): the plain superstep loop :meth:`CPU.run`, which never
touches an observer; :meth:`CPU._run_observed`, the same loop feeding
whichever of the forensic ring and the sampler is attached; and
:meth:`CPU._run_reference` over :meth:`CPU.slow_step`, which keeps
the original decode-and-dispatch semantics, honours ``coverage`` and
``trace_hook``, and is differentially tested against the other two.
Perf counters live on :attr:`CPU.perf`.

Anything a corrupted byte stream can decode into is executable here:
BCD adjusts, rotate-through-carry, string ops, segment pops, x87
escapes -- and the privileged instructions fault with #GP exactly as
they would in ring 3, which is what turns many flipped bits into the
paper's SD (crash) category rather than silent corruption.
"""

from __future__ import annotations

from ..x86 import decoder as x86_decoder
from ..x86.errors import DecodeOutOfBytesError, InvalidOpcodeError
from ..x86.flags import (AF, CF, DF, FLAGS_FIXED_ONES, FLAGS_USER_MASK, IF,
                         OF, PF, SF, STATUS_FLAGS, ZF, condition_met,
                         parity_flag)
from ..x86.instruction import CONTROL_KINDS, Mem
from ..x86.registers import (EAX, EBP, EBX, ECX, EDI, EDX, ESI, ESP,
                             VALID_SELECTORS)
from . import alu
from .machine_exceptions import (BoundRangeFault, BreakpointTrap, CpuFault,
                                 DebugTrap, DivideErrorFault,
                                 GeneralProtectionFault, InvalidOpcodeFault,
                                 OverflowTrap, PageFault)
from .perf import PerfCounters

_ALU_NAMES = ("add", "or", "adc", "sbb", "and", "sub", "xor", "cmp")
_SHIFT_NAMES = ("rol", "ror", "rcl", "rcr", "shl", "shr", "sar")
_JCC_SUFFIXES = ("o", "no", "b", "ae", "e", "ne", "be", "a",
                 "s", "ns", "p", "np", "l", "ge", "le", "g")

# Linux i386 user-mode selector values.
_INITIAL_SEGMENTS = [0x2B, 0x23, 0x2B, 0x2B, 0x0, 0x33]

#: mnemonics that end a basic block even though their ``kind`` is not a
#: control kind: they can halt the CPU, trap, or loop, so the run loop
#: must regain control right after them.
_BLOCK_TERMINATORS = frozenset({
    "int3", "int1", "into", "iret", "hlt",
    "loop", "loope", "loopne", "jecxz",
})

#: mnemonics that may never join a block at all: they read or write
#: ``instret`` mid-execution (``int 0x80`` hands the kernel a CPU whose
#: retire count must be exact, ``rdtsc`` returns it, the string ops
#: self-adjust it per iteration), so they only run through
#: :meth:`CPU.step`, whose accounting is per-instruction.
#: Rep-prefixed instructions are excluded for the same reason (their
#: ``instret`` contribution is data-dependent).
_BLOCK_EXCLUDED = frozenset({
    "int", "rdtsc",
    "movsb", "movsd", "cmpsb", "cmpsd",
    "stosb", "stosd", "lodsb", "lodsd", "scasb", "scasd",
})

_MASK32 = 0xFFFFFFFF


class CPU:
    """One hardware thread executing a user-mode process image."""

    def __init__(self, memory, kernel=None):
        self.memory = memory
        self.kernel = kernel
        self.regs = [0] * 8
        self.eip = 0
        self.perf = PerfCounters()
        self._lazy = None         # pending lazy-EFLAGS record
        self._eflags = FLAGS_FIXED_ONES | IF
        self.segments = list(_INITIAL_SEGMENTS)
        self.instret = 0          # instructions retired
        self.halted = False
        self.decode_cache = {}
        self.prepared = {}        # address -> (fn, instruction, next_eip)
        self.blocks = {}          # address -> basic block of prepared ops
        #: eviction index: address bucket -> set of block start
        #: addresses whose byte span touches that bucket.  Lets a
        #: single-address invalidation check a handful of candidate
        #: blocks instead of scanning the whole block cache -- the
        #: invalidation runs once per experiment restore, so it is on
        #: the campaign hot path.  Entries may be stale (block already
        #: evicted or rebuilt shorter); they are dropped lazily.
        self.block_index = {}
        #: optional list of cache-insert start addresses (decodes,
        #: prepared ops, blocks) since last drained.  ``None`` (the
        #: default) disables logging; the snapshot injector enables it
        #: so a restore can evict exactly the entries built from
        #: modified text (see :meth:`evict_suspect_decodes`).
        self.decode_log = None
        self.cacheable = None     # (start, end) range eligible for caching
        self.coverage = None      # optional set of executed EIPs
        self.trace_hook = None    # optional fn(cpu, instruction) per step
        #: optional forensic EIP ring (:mod:`repro.obs.forensics`).
        #: ``None`` keeps the plain loop untouched (zero overhead); a
        #: ring switches :meth:`run` to :meth:`_run_observed`, which
        #: appends at basic-block granularity -- whole ``block[3]``
        #: address tuples -- and single EIPs on the step path.  The
        #: ring ends with the *faulting* instruction after a crash (it
        #: did not retire; ``instret`` stays exact).
        self.forensic_ring = None
        #: optional sampling profiler (:mod:`repro.obs.sampler`), on
        #: the same terms: a sampler switches :meth:`run` to
        #: :meth:`_run_observed`, which counts down whole supersteps
        #: and indexes ``block[3]`` for sampled EIPs.  A ring and a
        #: sampler attached together are both fed.
        self.sampler = None
        self._next_eip = 0
        self._dispatch = self._build_dispatch()

    # ------------------------------------------------------------------
    # Register access

    def read_reg(self, index, size=4):
        if size == 4:
            return self.regs[index]
        if size == 2:
            return self.regs[index] & 0xFFFF
        if index < 4:
            return self.regs[index] & 0xFF
        return (self.regs[index - 4] >> 8) & 0xFF

    def write_reg(self, index, value, size=4):
        if size == 4:
            self.regs[index] = value & 0xFFFFFFFF
        elif size == 2:
            self.regs[index] = (self.regs[index] & 0xFFFF0000) \
                | (value & 0xFFFF)
        elif index < 4:
            self.regs[index] = (self.regs[index] & 0xFFFFFF00) \
                | (value & 0xFF)
        else:
            self.regs[index - 4] = (self.regs[index - 4] & 0xFFFF00FF) \
                | ((value & 0xFF) << 8)

    # ------------------------------------------------------------------
    # Operand access

    def effective_address(self, operand):
        address = operand.disp
        if operand.base is not None:
            address += self.regs[operand.base]
        if operand.index is not None:
            address += self.regs[operand.index] * operand.scale
        return address & 0xFFFFFFFF

    def read_operand(self, operand):
        kind = operand.kind
        if kind == "reg":
            return self.read_reg(operand.index, operand.size)
        if kind == "imm":
            return operand.value
        if kind == "mem":
            address = self.effective_address(operand)
            if operand.size == 1:
                return self.memory.read8(address, self.eip)
            if operand.size == 2:
                return self.memory.read16(address, self.eip)
            return self.memory.read32(address, self.eip)
        if kind == "rel":
            return operand.target
        raise InvalidOpcodeFault(self.eip, "unreadable operand")

    def write_operand(self, operand, value):
        kind = operand.kind
        if kind == "reg":
            self.write_reg(operand.index, value, operand.size)
            return
        if kind == "mem":
            address = self.effective_address(operand)
            if operand.size == 1:
                self.memory.write8(address, value, self.eip)
            elif operand.size == 2:
                self.memory.write16(address, value, self.eip)
            else:
                self.memory.write32(address, value, self.eip)
            return
        raise InvalidOpcodeFault(self.eip, "unwritable operand")

    # ------------------------------------------------------------------
    # Stack

    def push32(self, value):
        esp = (self.regs[ESP] - 4) & 0xFFFFFFFF
        self.memory.write32(esp, value, self.eip)
        self.regs[ESP] = esp

    def pop32(self):
        esp = self.regs[ESP]
        value = self.memory.read32(esp, self.eip)
        self.regs[ESP] = (esp + 4) & 0xFFFFFFFF
        return value

    # ------------------------------------------------------------------
    # Flag helpers (lazy EFLAGS materialisation)
    #
    # The fast-path ALU closures do not compute status flags; they
    # stash ``("add"|"sub"|"logic", operands...)`` in ``_lazy`` and the
    # flags are computed -- through the same :mod:`repro.emu.alu`
    # routines the eager path uses -- only when ``eflags`` is read.  A
    # record overwritten before any read is counted as elided.

    @property
    def eflags(self):
        if self._lazy is not None:
            self._materialise_flags()
        return self._eflags

    @eflags.setter
    def eflags(self, value):
        if self._lazy is not None:
            self._lazy = None
            self.perf.flags_elided += 1
        self._eflags = value

    def _materialise_flags(self):
        lazy = self._lazy
        self._lazy = None
        kind = lazy[0]
        if kind == "sub":
            __, flags = alu.sub(lazy[1], lazy[2], lazy[3], lazy[4])
        elif kind == "add":
            __, flags = alu.add(lazy[1], lazy[2], lazy[3], lazy[4])
        else:  # logic
            __, flags = alu.logic(lazy[1], lazy[2])
        self._eflags = (self._eflags & ~STATUS_FLAGS) | flags
        self.perf.flags_forced += 1

    def set_status_flags(self, new_flags, mask=STATUS_FLAGS):
        if self._lazy is not None:
            if mask & STATUS_FLAGS == STATUS_FLAGS:
                # Every lazily pending bit is about to be overwritten:
                # the record can be dropped unmaterialised.
                self._lazy = None
                self.perf.flags_elided += 1
            else:
                self._materialise_flags()
        self._eflags = (self._eflags & ~mask) | (new_flags & mask)

    # ------------------------------------------------------------------
    # Execution loop

    def fetch_decode(self, address):
        cached = self.decode_cache.get(address)
        if cached is not None:
            return cached
        try:
            window = self.memory.fetch_window(address, 15)
            instruction = x86_decoder.decode(window, address)
        except InvalidOpcodeError as exc:
            raise InvalidOpcodeFault(address, str(exc)) from exc
        except DecodeOutOfBytesError as exc:
            raise PageFault(address, "exec", address) from exc
        if self.cacheable and (self.cacheable[0] <= address
                               < self.cacheable[1]):
            self.decode_cache[address] = instruction
            if self.decode_log is not None:
                self.decode_log.append(address)
        return instruction

    #: longest encodable IA-32 instruction; a cached decode starting
    #: up to this many bytes before a modified address may cover it.
    MAX_INSTRUCTION_LENGTH = 15

    def invalidate_cache(self, address=None):
        """Drop cached decodes, prepared ops and basic blocks after a
        text-segment modification.

        With no *address* every cache is dropped (arbitrary bytes may
        have changed).  With an *address*, only cached entries whose
        byte range covers that address are evicted -- a single-bit
        flip then costs a handful of evictions instead of a full
        re-decode of the auth section on every experiment.  Blocks are
        range-checked against their whole byte span, so a block is
        evicted whenever any of its member instructions is.
        """
        if address is None:
            self.decode_cache.clear()
            self.prepared.clear()
            self.blocks.clear()
            self.block_index.clear()
            return
        cache = self.decode_cache
        prepared = self.prepared
        for start in range(address - self.MAX_INSTRUCTION_LENGTH + 1,
                           address + 1):
            cached = cache.get(start)
            if cached is not None and start + len(cached.raw) > address:
                del cache[start]
            entry = prepared.get(start)
            if entry is not None \
                    and start + len(entry[1].raw) > address:
                del prepared[start]
        candidates = self.block_index.get(
            address >> self.BLOCK_BUCKET_SHIFT)
        if candidates:
            blocks = self.blocks
            for start in [s for s in candidates
                          if blocks.get(s) is None
                          or s <= address < blocks[s][2]]:
                candidates.discard(start)
                blocks.pop(start, None)

    def evict_suspect_decodes(self, addresses):
        """Drop cache entries decoded from since-restored text bytes.

        After a snapshot restore reverts the text segment, the only
        stale entries are ones *inserted while the bytes at
        `addresses` were modified* and whose span covers one of those
        bytes -- everything older was decoded from the identical clean
        image.  With :attr:`decode_log` enabled those inserts are
        known exactly, so the steady-state cost is a couple of span
        checks instead of a 15-byte range scan per modified address;
        entries decoded from clean suffix code stay warm.  Without a
        log this falls back to :meth:`invalidate_cache` per address.
        """
        log = self.decode_log
        if log is None:
            for address in addresses:
                self.invalidate_cache(address)
            return
        if log and addresses:
            cache = self.decode_cache
            prepared = self.prepared
            blocks = self.blocks
            addrs = tuple(addresses)
            for start in set(log):
                end = start
                cached = cache.get(start)
                if cached is not None:
                    end = start + len(cached.raw)
                entry = prepared.get(start)
                if entry is not None:
                    span = start + len(entry[1].raw)
                    if span > end:
                        end = span
                block = blocks.get(start)
                if block is not None and block[2] > end:
                    end = block[2]
                for address in addrs:
                    if start <= address < end:
                        cache.pop(start, None)
                        prepared.pop(start, None)
                        blocks.pop(start, None)
                        break
        del log[:]

    # -- prepared-op fast path -----------------------------------------

    def _prepare(self, address):
        """Build the prepared entry ``(fn, instruction, next_eip)`` for
        the instruction at *address*.

        ``fn()`` performs the instruction's full architectural effect
        -- including advancing ``eip`` to the fall-through or branch
        target -- but not the ``instret``/coverage/trace bookkeeping,
        which stays with the caller.  On a fault ``fn`` raises with
        ``eip`` still at *address*, exactly like the reference path.

        Raises the same :class:`CpuFault` the reference path would for
        undecodable or unimplemented instructions.
        """
        instruction = self.fetch_decode(address)
        next_eip = address + len(instruction.raw)
        builder = _SPECIALISERS.get(instruction.mnemonic)
        fn = None
        if builder is not None:
            fn = builder(self, instruction, address, next_eip)
        if fn is None:
            handler = self._dispatch.get(instruction.mnemonic)
            if handler is None:
                raise InvalidOpcodeFault(address, "unimplemented %s"
                                         % instruction.mnemonic)

            def fn(handler=handler, instruction=instruction,
                   next_eip=next_eip):
                self._next_eip = next_eip
                handler(instruction)
                self.eip = self._next_eip
        entry = (fn, instruction, next_eip)
        self.perf.prepared_misses += 1
        if self.cacheable and (self.cacheable[0] <= address
                               < self.cacheable[1]):
            self.prepared[address] = entry
            if self.decode_log is not None:
                self.decode_log.append(address)
        return entry

    #: basic blocks stop growing at this many instructions; bounds the
    #: cost of an eviction and of an over-long straight-line run.
    MAX_BLOCK_INSTRUCTIONS = 128

    #: granularity of :attr:`block_index` buckets (64-byte lines: a
    #: typical block spans one or two, keeping candidate sets tiny).
    BLOCK_BUCKET_SHIFT = 6

    def _block_at(self, address):
        """Build (and cache) the basic block starting at *address*.

        A block is ``(fns, inner_addresses, end_address, addresses)``:
        a tuple of prepared callables for a straight-line run, the set
        of member instruction addresses after the first (the ones a
        stop-set check must consult), the end of the block's byte
        range (for eviction), and the per-op address tuple (used to
        recover the retired count when a mid-block op faults, since
        every op raises with ``eip`` still at its own address).
        Returns ``None`` outside the cacheable range, or when the
        first instruction may not join a block or does not decode (the
        caller's :meth:`step` then raises its fault).

        The block ends at the first control transfer, block-terminating
        mnemonic (traps / ``loop`` family), undecodable tail
        instruction, or cacheable-range boundary.  ``int``/``rdtsc``
        and rep-prefixed string ops never join a block at all -- they
        observe or adjust ``instret`` mid-execution, so they only run
        through :meth:`step`, whose accounting is exact per
        instruction.
        """
        cacheable = self.cacheable
        if not cacheable or not (cacheable[0] <= address < cacheable[1]):
            return None
        fns = []
        addrs = []
        pc = address
        end = address
        limit = cacheable[1]
        while True:
            entry = self.prepared.get(pc)
            if entry is None:
                try:
                    entry = self._prepare(pc)
                except CpuFault:
                    # Undecodable: end the block before it and let
                    # step() raise the fault, with eip/instret (and
                    # any observer) reflecting the instructions before.
                    break
            fn, instruction, next_eip = entry
            if (instruction.mnemonic in _BLOCK_EXCLUDED
                    or instruction.rep is not None):
                break
            fns.append(fn)
            addrs.append(pc)
            end = next_eip
            if (instruction.kind in CONTROL_KINDS
                    or instruction.mnemonic in _BLOCK_TERMINATORS
                    or next_eip >= limit
                    or len(fns) >= self.MAX_BLOCK_INSTRUCTIONS):
                break
            pc = next_eip
        if not fns:
            return None
        block = (tuple(fns), frozenset(addrs[1:]), end, tuple(addrs))
        self.blocks[address] = block
        index = self.block_index
        for bucket in range(address >> self.BLOCK_BUCKET_SHIFT,
                            ((end - 1) >> self.BLOCK_BUCKET_SHIFT) + 1):
            index.setdefault(bucket, set()).add(address)
        if self.decode_log is not None:
            self.decode_log.append(address)
        return block

    def step(self):
        """Execute one instruction; raises CpuFault on a crash."""
        if self.coverage is not None or self.trace_hook is not None:
            return self.slow_step()
        entry = self.prepared.get(self.eip)
        if entry is None:
            entry = self._prepare(self.eip)
        else:
            self.perf.prepared_hits += 1
        entry[0]()
        self.instret += 1

    def slow_step(self):
        """Reference path: decode-and-dispatch one instruction with no
        prepared-op involvement.  Kept both as the executable spec the
        fast path is differentially tested against and as the path
        that honours ``coverage``/``trace_hook`` instrumentation.
        """
        eip = self.eip
        if self.coverage is not None:
            self.coverage.add(eip)
        instruction = self.fetch_decode(eip)
        self._next_eip = eip + len(instruction.raw)
        handler = self._dispatch.get(instruction.mnemonic)
        if handler is None:
            raise InvalidOpcodeFault(eip, "unimplemented %s"
                                     % instruction.mnemonic)
        handler(instruction)
        self.eip = self._next_eip
        self.instret += 1
        if self.trace_hook is not None:
            self.trace_hook(self, instruction)

    def run(self, max_instructions, stop=frozenset()):
        """Run until exit, fault, the instruction budget is spent, or
        EIP lands on an address in *stop* (before executing it, like a
        debugger breakpoint).

        Returns ``("exit", code)``, ``("crash", fault)``,
        ``("limit", None)`` or ``("stop", None)``.

        This is the plain superstep loop; it never touches an
        observer.  ``coverage``/``trace_hook`` switch to the reference
        loop (:meth:`_run_reference`), a forensic ring or a sampler to
        :meth:`_run_observed`.  A superstep only skips the stop check
        between its members when the block is disjoint from *stop*.
        """
        if self.coverage is not None or self.trace_hook is not None:
            return self._run_reference(max_instructions, stop)
        if self.forensic_ring is not None or self.sampler is not None:
            return self._run_observed(max_instructions, stop)
        perf = self.perf
        blocks = self.blocks
        try:
            while not self.halted:
                if stop and self.eip in stop:
                    return ("stop", None)
                remaining = max_instructions - self.instret
                if remaining <= 0:
                    return ("limit", None)
                block = blocks.get(self.eip)
                if block is None:
                    block = self._block_at(self.eip)
                if (block is not None and len(block[0]) <= remaining
                        and (not stop or stop.isdisjoint(block[1]))):
                    fns = block[0]
                    count = len(fns)
                    try:
                        for fn in fns:
                            fn()
                    except BaseException:
                        # Every op raises with eip still at its own
                        # address, so eip identifies the faulting op;
                        # retire exactly the ones before it.
                        count = block[3].index(self.eip)
                        raise
                    finally:
                        self.instret += count
                        perf.superstep_entries += 1
                        perf.superstep_instructions += count
                        perf.prepared_hits += count
                    continue
                self.step()
        except CpuFault as fault:
            return ("crash", fault)
        return ("exit", getattr(self, "exit_code", 0))

    def _run_observed(self, max_instructions, stop):
        """:meth:`run` with a forensic ring, a sampler, or both.

        A separate loop so the plain one pays nothing for observers.
        Both feed off the block's prebuilt ``block[3]`` address tuple:

        * the ring gets one append per superstep (one EIP per step);
          a mid-block fault truncates the last entry to the ops up to
          and including the faulting one, so the ring always ends at
          the instruction the crash report points at;
        * the sampler's ``skip`` counts retired instructions down to
          the next sample, usually one comparison and one subtraction
          per superstep.  A faulting instruction did not retire and
          is never sampled, so the profile stays exact.
        """
        perf = self.perf
        blocks = self.blocks
        ring = self.forensic_ring
        ring_append = ring.append if ring is not None else None
        sampler = self.sampler
        if sampler is not None:
            samples, period, skip = (sampler.samples, sampler.period,
                                     sampler.skip)
        try:
            while not self.halted:
                if stop and self.eip in stop:
                    return ("stop", None)
                remaining = max_instructions - self.instret
                if remaining <= 0:
                    return ("limit", None)
                block = blocks.get(self.eip)
                if block is None:
                    block = self._block_at(self.eip)
                if (block is not None and len(block[0]) <= remaining
                        and (not stop or stop.isdisjoint(block[1]))):
                    addrs = block[3]
                    count = len(addrs)
                    if ring_append is not None:
                        ring_append(addrs)
                    try:
                        for fn in block[0]:
                            fn()
                    except BaseException:
                        count = addrs.index(self.eip)
                        if ring_append is not None:
                            ring[-1] = addrs[:count + 1]
                        raise
                    finally:
                        if sampler is not None:
                            while skip < count:
                                eip = addrs[skip]
                                samples[eip] = samples.get(eip, 0) + 1
                                skip += period
                            skip -= count
                        self.instret += count
                        perf.superstep_entries += 1
                        perf.superstep_instructions += count
                        perf.prepared_hits += count
                    continue
                eip = self.eip
                if ring_append is not None:
                    ring_append(eip)
                self.step()
                if sampler is not None:
                    if skip == 0:
                        samples[eip] = samples.get(eip, 0) + 1
                        skip = period
                    skip -= 1
        except CpuFault as fault:
            return ("crash", fault)
        finally:
            if sampler is not None:
                sampler.skip = skip
        return ("exit", getattr(self, "exit_code", 0))

    def _run_reference(self, max_instructions, stop):
        """:meth:`run` through :meth:`slow_step` only: the loop for
        instrumentation that needs a hook between every instruction,
        and the spec the other two are differentially tested
        against."""
        try:
            while not self.halted:
                if stop and self.eip in stop:
                    return ("stop", None)
                if self.instret >= max_instructions:
                    return ("limit", None)
                self.slow_step()
        except CpuFault as fault:
            return ("crash", fault)
        return ("exit", getattr(self, "exit_code", 0))

    # ------------------------------------------------------------------
    # Dispatch table construction

    def _build_dispatch(self):
        table = {}
        for name in _ALU_NAMES:
            table[name] = self._make_alu(name)
            table[name + "b"] = table[name]
        for name in _SHIFT_NAMES:
            table[name] = self._make_shift(name)
            table[name + "b"] = table[name]
        for suffix in _JCC_SUFFIXES:
            table["j" + suffix] = self._op_jcc
            table["set" + suffix] = self._op_setcc
            table["cmov" + suffix] = self._op_cmovcc
        table.update({
            "mov": self._op_mov, "movb": self._op_mov,
            "lea": self._op_lea,
            "push": self._op_push, "pop": self._op_pop,
            "pusha": self._op_pusha, "popa": self._op_popa,
            "push_seg": self._op_push_seg, "pop_seg": self._op_pop_seg,
            "mov_from_seg": self._op_mov_from_seg,
            "mov_to_seg": self._op_mov_to_seg,
            "test": self._op_test, "testb": self._op_test,
            "xchg": self._op_xchg, "xchgb": self._op_xchg,
            "inc": self._op_inc, "incb": self._op_inc,
            "dec": self._op_dec, "decb": self._op_dec,
            "not": self._op_not, "notb": self._op_not,
            "neg": self._op_neg, "negb": self._op_neg,
            "mul": self._op_mul, "mulb": self._op_mul,
            "imul": self._op_imul, "imulb": self._op_imul,
            "imul2": self._op_imul2,
            "div": self._op_div, "divb": self._op_div,
            "idiv": self._op_idiv, "idivb": self._op_idiv,
            "call": self._op_call, "call_ind": self._op_call_ind,
            "jmp": self._op_jmp, "jmp_ind": self._op_jmp_ind,
            "ret": self._op_ret, "lret": self._op_privileged_ret,
            "lcall": self._op_far_transfer, "ljmp": self._op_far_transfer,
            "lcall_ind": self._op_far_transfer_ind,
            "ljmp_ind": self._op_far_transfer_ind,
            "loop": self._op_loop, "loope": self._op_loop,
            "loopne": self._op_loop, "jecxz": self._op_jecxz,
            "enter": self._op_enter, "leave": self._op_leave,
            "int": self._op_int, "int3": self._op_int3,
            "into": self._op_into, "int1": self._op_int1,
            "iret": self._op_privileged,
            "nop": self._op_nop, "fwait": self._op_nop,
            "fpu": self._op_fpu,
            "cwde": self._op_cwde, "cbw": self._op_cbw,
            "cdq": self._op_cdq, "cwd": self._op_cwd,
            "pushf": self._op_pushf, "popf": self._op_popf,
            "sahf": self._op_sahf, "lahf": self._op_lahf,
            "clc": self._op_clc, "stc": self._op_stc, "cmc": self._op_cmc,
            "cld": self._op_cld, "std": self._op_std,
            "daa": self._op_daa, "das": self._op_das,
            "aaa": self._op_aaa, "aas": self._op_aas,
            "aam": self._op_aam, "aad": self._op_aad,
            "salc": self._op_salc, "xlat": self._op_xlat,
            "bound": self._op_bound, "arpl": self._op_arpl,
            "les": self._op_lseg, "lds": self._op_lseg,
            "movsb": self._op_movs, "movsd": self._op_movs,
            "cmpsb": self._op_cmps, "cmpsd": self._op_cmps,
            "stosb": self._op_stos, "stosd": self._op_stos,
            "lodsb": self._op_lods, "lodsd": self._op_lods,
            "scasb": self._op_scas, "scasd": self._op_scas,
            "movzxb": self._op_movzx, "movzxw": self._op_movzx,
            "movsxb": self._op_movsx, "movsxw": self._op_movsx,
            "bt": self._op_bt, "bts": self._op_bt, "btr": self._op_bt,
            "btc": self._op_bt,
            "bsf": self._op_bsf, "bsr": self._op_bsr,
            "bswap": self._op_bswap,
            "xadd": self._op_xadd, "xaddb": self._op_xadd,
            "cmpxchg": self._op_cmpxchg, "cmpxchgb": self._op_cmpxchg,
            "cpuid": self._op_cpuid, "rdtsc": self._op_rdtsc,
            # Privileged: decode fine, fault at execution (ring 3).
            "hlt": self._op_privileged, "cli": self._op_privileged,
            "sti": self._op_privileged, "in": self._op_privileged,
            "out": self._op_privileged, "insb": self._op_privileged,
            "insd": self._op_privileged, "outsb": self._op_privileged,
            "outsd": self._op_privileged, "clts": self._op_privileged,
            "invd": self._op_privileged, "wbinvd": self._op_privileged,
            "wrmsr": self._op_privileged, "rdmsr": self._op_privileged,
            "lgdt": self._op_privileged, "mov_cr": self._op_privileged,
            "mov_dr": self._op_privileged,
        })
        return table

    # ------------------------------------------------------------------
    # ALU ops

    def _make_alu(self, name):
        def handler(instruction, _name=name):
            src, dst = instruction.operands
            size = dst.size
            a = self.read_operand(dst)
            b = self.read_operand(src)
            if _name == "add":
                result, flags = alu.add(a, b, size)
            elif _name == "adc":
                result, flags = alu.add(a, b, size,
                                        1 if self.eflags & CF else 0)
            elif _name == "sub":
                result, flags = alu.sub(a, b, size)
            elif _name == "sbb":
                result, flags = alu.sub(a, b, size,
                                        1 if self.eflags & CF else 0)
            elif _name == "cmp":
                result, flags = alu.sub(a, b, size)
                self.set_status_flags(flags)
                return
            elif _name == "and":
                result, flags = alu.logic(a & b, size)
            elif _name == "or":
                result, flags = alu.logic(a | b, size)
            else:  # xor
                result, flags = alu.logic(a ^ b, size)
            self.set_status_flags(flags)
            self.write_operand(dst, result)
        return handler

    def _make_shift(self, name):
        routine = getattr(alu, name)

        def handler(instruction, _routine=routine):
            count_op, target = instruction.operands
            count = self.read_operand(count_op) & 0xFF
            value = self.read_operand(target)
            result, flags = _routine(value, count, target.size, self.eflags)
            if (count & 0x1F) != 0:
                self.set_status_flags(flags)
            self.write_operand(target, result)
        return handler

    # ------------------------------------------------------------------
    # Data movement

    def _op_mov(self, instruction):
        src, dst = instruction.operands
        self.write_operand(dst, self.read_operand(src))

    def _op_lea(self, instruction):
        src, dst = instruction.operands
        self.write_reg(dst.index, self.effective_address(src), dst.size)

    def _op_push(self, instruction):
        value = self.read_operand(instruction.operands[0])
        if instruction.operand_size == 2:
            esp = (self.regs[ESP] - 2) & 0xFFFFFFFF
            self.memory.write16(esp, value, self.eip)
            self.regs[ESP] = esp
        else:
            self.push32(value)

    def _op_pop(self, instruction):
        if instruction.operand_size == 2:
            esp = self.regs[ESP]
            value = self.memory.read16(esp, self.eip)
            self.regs[ESP] = (esp + 2) & 0xFFFFFFFF
        else:
            value = self.pop32()
        self.write_operand(instruction.operands[0], value)

    def _op_pusha(self, instruction):
        esp = self.regs[ESP]
        for index in (EAX, ECX, EDX, EBX):
            self.push32(self.regs[index])
        self.push32(esp)
        for index in (EBP, ESI, EDI):
            self.push32(self.regs[index])

    def _op_popa(self, instruction):
        for index in (EDI, ESI, EBP):
            self.regs[index] = self.pop32()
        self.pop32()  # ESP image discarded
        for index in (EBX, EDX, ECX, EAX):
            self.regs[index] = self.pop32()

    def _op_push_seg(self, instruction):
        self.push32(self.segments[instruction.operands[0].index])

    def _op_pop_seg(self, instruction):
        value = self.pop32() & 0xFFFF
        self._load_segment(instruction.operands[0].index, value)

    def _op_mov_from_seg(self, instruction):
        seg, dst = instruction.operands
        value = self.segments[seg.index]
        if dst.kind == "reg":
            self.write_reg(dst.index, value, 4)  # zero-extends on P6
        else:
            self.write_operand(dst, value)

    def _op_mov_to_seg(self, instruction):
        src, seg = instruction.operands
        self._load_segment(seg.index, self.read_operand(src) & 0xFFFF)

    def _load_segment(self, index, selector):
        if selector not in VALID_SELECTORS:
            raise GeneralProtectionFault(self.eip,
                                         "bad selector 0x%x" % selector)
        self.segments[index] = selector

    def _op_xchg(self, instruction):
        first, second = instruction.operands
        a = self.read_operand(first)
        b = self.read_operand(second)
        self.write_operand(first, b)
        self.write_operand(second, a)

    def _op_movzx(self, instruction):
        src, dst = instruction.operands
        self.write_reg(dst.index, self.read_operand(src), dst.size)

    def _op_movsx(self, instruction):
        src, dst = instruction.operands
        value = alu.signed(self.read_operand(src), src.size)
        self.write_reg(dst.index, value & 0xFFFFFFFF, dst.size)

    def _op_bswap(self, instruction):
        reg = instruction.operands[0]
        value = self.regs[reg.index]
        self.regs[reg.index] = int.from_bytes(
            value.to_bytes(4, "little"), "big")

    # ------------------------------------------------------------------
    # Test / inc / dec / unary

    def _op_test(self, instruction):
        src, dst = instruction.operands
        result, flags = alu.logic(self.read_operand(dst)
                                  & self.read_operand(src), dst.size)
        self.set_status_flags(flags)

    def _op_inc(self, instruction):
        operand = instruction.operands[0]
        result, flags = alu.inc(self.read_operand(operand), operand.size,
                                self.eflags)
        self.set_status_flags(flags)
        self.write_operand(operand, result)

    def _op_dec(self, instruction):
        operand = instruction.operands[0]
        result, flags = alu.dec(self.read_operand(operand), operand.size,
                                self.eflags)
        self.set_status_flags(flags)
        self.write_operand(operand, result)

    def _op_not(self, instruction):
        operand = instruction.operands[0]
        mask = (1 << (operand.size * 8)) - 1
        self.write_operand(operand, ~self.read_operand(operand) & mask)

    def _op_neg(self, instruction):
        operand = instruction.operands[0]
        result, flags = alu.neg(self.read_operand(operand), operand.size)
        self.set_status_flags(flags)
        self.write_operand(operand, result)

    # ------------------------------------------------------------------
    # Multiply / divide

    def _op_mul(self, instruction):
        operand = instruction.operands[0]
        size = operand.size
        a = self.read_reg(EAX, size)
        product = a * self.read_operand(operand)
        self._write_product(product, size, signed=False)

    def _op_imul(self, instruction):
        operands = instruction.operands
        if len(operands) == 3:  # imm, src, dst
            imm, src, dst = operands
            product = alu.signed(self.read_operand(src), src.size) \
                * alu.signed(imm.value, 4)
            self.write_reg(dst.index, product & 0xFFFFFFFF, 4)
            self._set_mul_flags(product, 4)
            return
        operand = operands[0]
        size = operand.size
        product = alu.signed(self.read_reg(EAX, size), size) \
            * alu.signed(self.read_operand(operand), size)
        self._write_product(product & ((1 << (size * 16)) - 1), size,
                            signed=True, raw_product=product)

    def _op_imul2(self, instruction):
        src, dst = instruction.operands
        product = alu.signed(self.read_operand(src), src.size) \
            * alu.signed(self.read_reg(dst.index, dst.size), dst.size)
        self.write_reg(dst.index, product & 0xFFFFFFFF, dst.size)
        self._set_mul_flags(product, dst.size)

    def _write_product(self, product, size, signed, raw_product=None):
        if size == 1:
            self.write_reg(EAX, product & 0xFFFF, 2)
        else:
            bits = size * 8
            self.write_reg(EAX, product & ((1 << bits) - 1), size)
            self.write_reg(EDX, (product >> bits) & ((1 << bits) - 1), size)
        check = raw_product if raw_product is not None else product
        self._set_mul_flags(check, size)

    def _set_mul_flags(self, product, size):
        bits = size * 8
        low = product & ((1 << bits) - 1)
        # CF/OF clear only when the full product fits in the low half
        # (signed view for imul, unsigned view for mul).
        overflow = product != alu.signed(low, size) and product != low
        if overflow:
            self.eflags |= CF | OF
        else:
            self.eflags &= ~(CF | OF)

    def _op_div(self, instruction):
        operand = instruction.operands[0]
        size = operand.size
        divisor = self.read_operand(operand)
        if divisor == 0:
            raise DivideErrorFault(self.eip, "divide by zero")
        bits = size * 8
        if size == 1:
            dividend = self.read_reg(EAX, 2)
        else:
            dividend = (self.read_reg(EDX, size) << bits) \
                | self.read_reg(EAX, size)
        quotient = dividend // divisor
        remainder = dividend % divisor
        if quotient >= (1 << bits):
            raise DivideErrorFault(self.eip, "quotient overflow")
        if size == 1:
            self.write_reg(EAX, (remainder << 8) | quotient, 2)
        else:
            self.write_reg(EAX, quotient, size)
            self.write_reg(EDX, remainder, size)

    def _op_idiv(self, instruction):
        operand = instruction.operands[0]
        size = operand.size
        divisor = alu.signed(self.read_operand(operand), size)
        if divisor == 0:
            raise DivideErrorFault(self.eip, "divide by zero")
        bits = size * 8
        if size == 1:
            dividend = alu.signed(self.read_reg(EAX, 2), 2)
        else:
            raw = (self.read_reg(EDX, size) << bits) \
                | self.read_reg(EAX, size)
            dividend = raw - (1 << (bits * 2)) \
                if raw & (1 << (bits * 2 - 1)) else raw
        quotient = int(dividend / divisor)  # truncate toward zero
        remainder = dividend - quotient * divisor
        if not (-(1 << (bits - 1)) <= quotient < (1 << (bits - 1))):
            raise DivideErrorFault(self.eip, "quotient overflow")
        if size == 1:
            self.write_reg(EAX, ((remainder & 0xFF) << 8)
                           | (quotient & 0xFF), 2)
        else:
            self.write_reg(EAX, quotient & ((1 << bits) - 1), size)
            self.write_reg(EDX, remainder & ((1 << bits) - 1), size)

    # ------------------------------------------------------------------
    # Control transfer

    def _op_jcc(self, instruction):
        if condition_met(instruction.condition, self.eflags):
            self._next_eip = instruction.operands[0].target

    def _op_setcc(self, instruction):
        met = condition_met(instruction.condition, self.eflags)
        self.write_operand(instruction.operands[0], 1 if met else 0)

    def _op_cmovcc(self, instruction):
        src, dst = instruction.operands
        value = self.read_operand(src)  # source read unconditionally
        if condition_met(instruction.condition, self.eflags):
            self.write_reg(dst.index, value, dst.size)

    def _op_call(self, instruction):
        self.push32(self._next_eip)
        self._next_eip = instruction.operands[0].target

    def _op_call_ind(self, instruction):
        target = self.read_operand(instruction.operands[0])
        self.push32(self._next_eip)
        self._next_eip = target & 0xFFFFFFFF

    def _op_jmp(self, instruction):
        self._next_eip = instruction.operands[0].target

    def _op_jmp_ind(self, instruction):
        self._next_eip = self.read_operand(instruction.operands[0]) \
            & 0xFFFFFFFF

    def _op_ret(self, instruction):
        self._next_eip = self.pop32()
        if instruction.operands:
            self.regs[ESP] = (self.regs[ESP]
                              + instruction.operands[0].value) & 0xFFFFFFFF

    def _op_privileged_ret(self, instruction):
        # Far return pops EIP and a CS selector; corrupted code never
        # pushed a valid one, so this faults like real hardware would.
        self._next_eip = self.pop32()
        selector = self.pop32() & 0xFFFF
        if selector not in VALID_SELECTORS:
            raise GeneralProtectionFault(self.eip,
                                         "lret to selector 0x%x" % selector)

    def _op_far_transfer(self, instruction):
        pointer = instruction.operands[0]
        if pointer.selector not in VALID_SELECTORS:
            raise GeneralProtectionFault(
                self.eip, "far transfer to selector 0x%x" % pointer.selector)
        if instruction.mnemonic == "lcall":
            self.push32(self.segments[1])
            self.push32(self._next_eip)
        self._next_eip = pointer.offset

    def _op_far_transfer_ind(self, instruction):
        mem = instruction.operands[0]
        address = self.effective_address(mem)
        offset = self.memory.read32(address, self.eip)
        selector = self.memory.read16(address + 4, self.eip)
        if selector not in VALID_SELECTORS:
            raise GeneralProtectionFault(
                self.eip, "far transfer to selector 0x%x" % selector)
        if instruction.mnemonic == "lcall_ind":
            self.push32(self.segments[1])
            self.push32(self._next_eip)
        self._next_eip = offset

    def _op_loop(self, instruction):
        count = (self.regs[ECX] - 1) & 0xFFFFFFFF
        self.regs[ECX] = count
        take = count != 0
        if instruction.mnemonic == "loope":
            take = take and bool(self.eflags & ZF)
        elif instruction.mnemonic == "loopne":
            take = take and not (self.eflags & ZF)
        if take:
            self._next_eip = instruction.operands[0].target

    def _op_jecxz(self, instruction):
        if self.regs[ECX] == 0:
            self._next_eip = instruction.operands[0].target

    def _op_enter(self, instruction):
        alloc, nesting = instruction.operands
        level = nesting.value % 32
        self.push32(self.regs[EBP])
        frame = self.regs[ESP]
        if level:
            for __ in range(1, level):
                self.regs[EBP] = (self.regs[EBP] - 4) & 0xFFFFFFFF
                self.push32(self.memory.read32(self.regs[EBP], self.eip))
            self.push32(frame)
        self.regs[EBP] = frame
        self.regs[ESP] = (self.regs[ESP] - alloc.value) & 0xFFFFFFFF

    def _op_leave(self, instruction):
        self.regs[ESP] = self.regs[EBP]
        self.regs[EBP] = self.pop32()

    # ------------------------------------------------------------------
    # Interrupts and traps

    def _op_int(self, instruction):
        vector = instruction.operands[0].value
        if vector == 0x80 and self.kernel is not None:
            self.perf.syscalls += 1
            self.kernel.syscall(self)
            return
        # int n into an unprimed IDT entry -> #GP(selector) -> SIGSEGV.
        raise GeneralProtectionFault(self.eip, "int 0x%x" % vector)

    def _op_int3(self, instruction):
        raise BreakpointTrap(self.eip)

    def _op_int1(self, instruction):
        raise DebugTrap(self.eip)

    def _op_into(self, instruction):
        if self.eflags & OF:
            raise OverflowTrap(self.eip)

    def _op_privileged(self, instruction):
        raise GeneralProtectionFault(self.eip,
                                     "%s in ring 3" % instruction.mnemonic)

    # ------------------------------------------------------------------
    # Converts / flags / misc

    def _op_cwde(self, instruction):
        self.regs[EAX] = alu.signed(self.regs[EAX] & 0xFFFF, 2) & 0xFFFFFFFF

    def _op_cbw(self, instruction):
        value = alu.signed(self.regs[EAX] & 0xFF, 1)
        self.write_reg(EAX, value & 0xFFFF, 2)

    def _op_cdq(self, instruction):
        self.regs[EDX] = 0xFFFFFFFF if self.regs[EAX] & 0x80000000 else 0

    def _op_cwd(self, instruction):
        high = 0xFFFF if self.regs[EAX] & 0x8000 else 0
        self.write_reg(EDX, high, 2)

    def _op_pushf(self, instruction):
        self.push32(self.eflags)

    def _op_popf(self, instruction):
        value = self.pop32()
        self.eflags = (self.eflags & ~FLAGS_USER_MASK) \
            | (value & FLAGS_USER_MASK) | FLAGS_FIXED_ONES | IF

    def _op_sahf(self, instruction):
        ah = self.read_reg(4, 1)  # AH
        mask = CF | PF | AF | ZF | SF
        self.eflags = (self.eflags & ~mask) | (ah & mask) | FLAGS_FIXED_ONES

    def _op_lahf(self, instruction):
        mask = CF | PF | AF | ZF | SF
        self.write_reg(4, (self.eflags & mask) | 0x02, 1)

    def _op_clc(self, instruction):
        self.eflags &= ~CF

    def _op_stc(self, instruction):
        self.eflags |= CF

    def _op_cmc(self, instruction):
        self.eflags ^= CF

    def _op_cld(self, instruction):
        self.eflags &= ~DF

    def _op_std(self, instruction):
        self.eflags |= DF

    def _op_nop(self, instruction):
        pass

    def _op_fpu(self, instruction):
        # x87 data state is not modelled; memory operands are touched so
        # corrupted escapes still fault on wild addresses.
        rm = instruction.operands[2]
        if rm.kind == "mem":
            self.read_operand(rm)

    def _op_salc(self, instruction):
        self.write_reg(EAX, 0xFF if self.eflags & CF else 0x00, 1)

    def _op_xlat(self, instruction):
        address = (self.regs[EBX] + self.read_reg(EAX, 1)) & 0xFFFFFFFF
        self.write_reg(EAX, self.memory.read8(address, self.eip), 1)

    # ------------------------------------------------------------------
    # BCD adjusts (faithful per Intel SDM)

    def _op_daa(self, instruction):
        al = self.read_reg(EAX, 1)
        old_al, old_cf = al, bool(self.eflags & CF)
        carry = False
        if (al & 0x0F) > 9 or self.eflags & AF:
            al = (al + 6) & 0xFF
            carry = old_cf or (old_al + 6) > 0xFF
            self.eflags |= AF
        else:
            self.eflags &= ~AF
        if old_al > 0x99 or old_cf:
            al = (al + 0x60) & 0xFF
            carry = True
        self.write_reg(EAX, al, 1)
        self._set_bcd_flags(al, carry)

    def _op_das(self, instruction):
        al = self.read_reg(EAX, 1)
        old_al, old_cf = al, bool(self.eflags & CF)
        carry = False
        if (al & 0x0F) > 9 or self.eflags & AF:
            al = (al - 6) & 0xFF
            carry = old_cf or old_al < 6
            self.eflags |= AF
        else:
            self.eflags &= ~AF
        if old_al > 0x99 or old_cf:
            al = (al - 0x60) & 0xFF
            carry = True
        self.write_reg(EAX, al, 1)
        self._set_bcd_flags(al, carry)

    def _set_bcd_flags(self, al, carry):
        mask = CF | PF | ZF | SF
        flags = parity_flag(al)
        if al == 0:
            flags |= ZF
        if al & 0x80:
            flags |= SF
        if carry:
            flags |= CF
        self.eflags = (self.eflags & ~mask) | flags

    def _op_aaa(self, instruction):
        al = self.read_reg(EAX, 1)
        if (al & 0x0F) > 9 or self.eflags & AF:
            self.write_reg(EAX, (self.regs[EAX] + 0x106) & 0xFFFF, 2)
            self.eflags |= AF | CF
        else:
            self.eflags &= ~(AF | CF)
        self.write_reg(EAX, self.read_reg(EAX, 1) & 0x0F, 1)

    def _op_aas(self, instruction):
        al = self.read_reg(EAX, 1)
        if (al & 0x0F) > 9 or self.eflags & AF:
            self.write_reg(EAX, (self.regs[EAX] - 6) & 0xFFFF, 2)
            self.write_reg(4, (self.read_reg(4, 1) - 1) & 0xFF, 1)
            self.eflags |= AF | CF
        else:
            self.eflags &= ~(AF | CF)
        self.write_reg(EAX, self.read_reg(EAX, 1) & 0x0F, 1)

    def _op_aam(self, instruction):
        base = instruction.operands[0].value
        if base == 0:
            raise DivideErrorFault(self.eip, "aam 0")
        al = self.read_reg(EAX, 1)
        self.write_reg(4, al // base, 1)
        self.write_reg(EAX, al % base, 1)
        self._set_bcd_flags(al % base, bool(self.eflags & CF))

    def _op_aad(self, instruction):
        base = instruction.operands[0].value
        al = self.read_reg(EAX, 1)
        ah = self.read_reg(4, 1)
        result = (al + ah * base) & 0xFF
        self.write_reg(EAX, result, 1)
        self.write_reg(4, 0, 1)
        self._set_bcd_flags(result, bool(self.eflags & CF))

    # ------------------------------------------------------------------
    # Segment-load / protection oddities

    def _op_bound(self, instruction):
        reg, mem = instruction.operands
        index = alu.signed(self.read_reg(reg.index, reg.size), reg.size)
        address = self.effective_address(mem)
        lower = alu.signed(self.memory.read32(address, self.eip), 4)
        upper = alu.signed(self.memory.read32(address + 4, self.eip), 4)
        if index < lower or index > upper:
            raise BoundRangeFault(self.eip, "bound %d not in [%d, %d]"
                                  % (index, lower, upper))

    def _op_arpl(self, instruction):
        src, dst = instruction.operands
        dest_value = self.read_operand(dst)
        src_value = self.read_operand(src)
        if (dest_value & 3) < (src_value & 3):
            self.write_operand(dst, (dest_value & ~3) | (src_value & 3))
            self.eflags |= ZF
        else:
            self.eflags &= ~ZF

    def _op_lseg(self, instruction):
        mem, dst = instruction.operands
        address = self.effective_address(mem)
        offset = self.memory.read32(address, self.eip)
        selector = self.memory.read16(address + 4, self.eip)
        seg_index = 0 if instruction.mnemonic == "les" else 3
        self._load_segment(seg_index, selector)
        self.write_reg(dst.index, offset, dst.size)

    # ------------------------------------------------------------------
    # String operations

    def _string_width(self, instruction):
        return 1 if instruction.mnemonic.endswith("b") else 4

    def _string_step(self):
        return -1 if self.eflags & DF else 1

    def _rep_iterations(self, instruction):
        if instruction.rep is None:
            return None
        return self.regs[ECX]

    def _op_movs(self, instruction):
        width = self._string_width(instruction)
        delta = self._string_step() * width
        count = self._rep_iterations(instruction)
        iterations = 1 if count is None else count
        for __ in range(iterations):
            value = (self.memory.read8(self.regs[ESI], self.eip)
                     if width == 1
                     else self.memory.read32(self.regs[ESI], self.eip))
            if width == 1:
                self.memory.write8(self.regs[EDI], value, self.eip)
            else:
                self.memory.write32(self.regs[EDI], value, self.eip)
            self.regs[ESI] = (self.regs[ESI] + delta) & 0xFFFFFFFF
            self.regs[EDI] = (self.regs[EDI] + delta) & 0xFFFFFFFF
            self.instret += 1
        if count is not None:
            self.regs[ECX] = 0
            self.instret -= 1  # the final iteration is the retired insn

    def _op_stos(self, instruction):
        width = self._string_width(instruction)
        delta = self._string_step() * width
        count = self._rep_iterations(instruction)
        iterations = 1 if count is None else count
        value = self.read_reg(EAX, width)
        for __ in range(iterations):
            if width == 1:
                self.memory.write8(self.regs[EDI], value, self.eip)
            else:
                self.memory.write32(self.regs[EDI], value, self.eip)
            self.regs[EDI] = (self.regs[EDI] + delta) & 0xFFFFFFFF
            self.instret += 1
        if count is not None:
            self.regs[ECX] = 0
            self.instret -= 1

    def _op_lods(self, instruction):
        width = self._string_width(instruction)
        delta = self._string_step() * width
        count = self._rep_iterations(instruction)
        iterations = 1 if count is None else count
        for __ in range(iterations):
            value = (self.memory.read8(self.regs[ESI], self.eip)
                     if width == 1
                     else self.memory.read32(self.regs[ESI], self.eip))
            self.write_reg(EAX, value, width)
            self.regs[ESI] = (self.regs[ESI] + delta) & 0xFFFFFFFF
            self.instret += 1
        if count is not None:
            self.regs[ECX] = 0
            self.instret -= 1

    def _op_cmps(self, instruction):
        width = self._string_width(instruction)
        delta = self._string_step() * width
        repeat = instruction.rep
        count = self.regs[ECX] if repeat is not None else 1
        executed = 0
        flags = None
        while count > 0:
            a = (self.memory.read8(self.regs[ESI], self.eip) if width == 1
                 else self.memory.read32(self.regs[ESI], self.eip))
            b = (self.memory.read8(self.regs[EDI], self.eip) if width == 1
                 else self.memory.read32(self.regs[EDI], self.eip))
            __, flags = alu.sub(a, b, width)
            self.regs[ESI] = (self.regs[ESI] + delta) & 0xFFFFFFFF
            self.regs[EDI] = (self.regs[EDI] + delta) & 0xFFFFFFFF
            count -= 1
            executed += 1
            if repeat == 0xF3 and not flags & ZF:   # repe: stop on NE
                break
            if repeat == 0xF2 and flags & ZF:       # repne: stop on EQ
                break
            if repeat is None:
                break
        if flags is not None:
            self.set_status_flags(flags)
        if repeat is not None:
            self.regs[ECX] = count
            self.instret += max(0, executed - 1)

    def _op_scas(self, instruction):
        width = self._string_width(instruction)
        delta = self._string_step() * width
        repeat = instruction.rep
        count = self.regs[ECX] if repeat is not None else 1
        accumulator = self.read_reg(EAX, width)
        executed = 0
        flags = None
        while count > 0:
            value = (self.memory.read8(self.regs[EDI], self.eip)
                     if width == 1
                     else self.memory.read32(self.regs[EDI], self.eip))
            __, flags = alu.sub(accumulator, value, width)
            self.regs[EDI] = (self.regs[EDI] + delta) & 0xFFFFFFFF
            count -= 1
            executed += 1
            if repeat == 0xF3 and not flags & ZF:
                break
            if repeat == 0xF2 and flags & ZF:
                break
            if repeat is None:
                break
        if flags is not None:
            self.set_status_flags(flags)
        if repeat is not None:
            self.regs[ECX] = count
            self.instret += max(0, executed - 1)

    # ------------------------------------------------------------------
    # Bit operations

    def _op_bt(self, instruction):
        src, dst = instruction.operands
        offset = self.read_operand(src)
        bits = dst.size * 8
        if dst.kind == "mem":
            # Memory form addresses the bit string beyond the operand.
            byte_offset = alu.signed(offset, src.size
                                     if src.kind == "reg" else 4) // 8
            address = (self.effective_address(dst) + byte_offset) \
                & 0xFFFFFFFF
            bit = offset % 8
            value = self.memory.read8(address, self.eip)
            selected = (value >> bit) & 1
            new_value = value
        else:
            bit = offset % bits
            value = self.read_operand(dst)
            selected = (value >> bit) & 1
            new_value = value
            address = None
        if selected:
            self.eflags |= CF
        else:
            self.eflags &= ~CF
        mnemonic = instruction.mnemonic
        if mnemonic == "bt":
            return
        if mnemonic == "bts":
            new_value |= (1 << bit)
        elif mnemonic == "btr":
            new_value &= ~(1 << bit)
        else:  # btc
            new_value ^= (1 << bit)
        if address is not None:
            self.memory.write8(address, new_value, self.eip)
        else:
            self.write_operand(dst, new_value)

    def _op_bsf(self, instruction):
        src, dst = instruction.operands
        value = self.read_operand(src)
        if value == 0:
            self.eflags |= ZF
            return
        self.eflags &= ~ZF
        self.write_reg(dst.index, (value & -value).bit_length() - 1,
                       dst.size)

    def _op_bsr(self, instruction):
        src, dst = instruction.operands
        value = self.read_operand(src)
        if value == 0:
            self.eflags |= ZF
            return
        self.eflags &= ~ZF
        self.write_reg(dst.index, value.bit_length() - 1, dst.size)

    def _op_xadd(self, instruction):
        src, dst = instruction.operands
        a = self.read_operand(dst)
        b = self.read_operand(src)
        result, flags = alu.add(a, b, dst.size)
        self.set_status_flags(flags)
        self.write_operand(src, a)
        self.write_operand(dst, result)

    def _op_cmpxchg(self, instruction):
        src, dst = instruction.operands
        size = dst.size
        accumulator = self.read_reg(EAX, size)
        current = self.read_operand(dst)
        __, flags = alu.sub(accumulator, current, size)
        self.set_status_flags(flags)
        if accumulator == current:
            self.write_operand(dst, self.read_operand(src))
        else:
            self.write_reg(EAX, current, size)

    # ------------------------------------------------------------------
    # Processor identification

    def _op_cpuid(self, instruction):
        leaf = self.regs[EAX]
        if leaf == 0:
            self.regs[EAX] = 1
            self.regs[EBX] = 0x756E6547  # "Genu"
            self.regs[EDX] = 0x49656E69  # "ineI"
            self.regs[ECX] = 0x6C65746E  # "ntel"
        else:
            self.regs[EAX] = 0x00000673  # P-III family/model/stepping
            self.regs[EBX] = 0
            self.regs[ECX] = 0
            self.regs[EDX] = 0x0383F9FF
    def _op_rdtsc(self, instruction):
        self.regs[EAX] = self.instret & 0xFFFFFFFF
        self.regs[EDX] = (self.instret >> 32) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# Fast-path closure specialisers
#
# Each builder receives ``(cpu, instruction, address, next_eip)`` and
# returns a zero-argument closure implementing the instruction with
# its operand accessors pre-resolved, or ``None`` to fall back to the
# generic dispatch wrapper.  Two aliasing rules shape every closure:
#
# * ``cpu.regs`` is REBOUND by ``Process.reset_cpu`` and by
#   ``BreakpointSession._restore`` (``cpu.regs = list(regs)``), so a
#   closure must fetch ``cpu.regs`` at call time, never capture the
#   list itself;
# * ``cpu.memory`` is never rebound (snapshots restore region bytes in
#   place), so bound methods like ``memory.read32`` may be captured.
#
# The instruction's own address is baked in as the fault PC, which is
# correct because a prepared op only ever runs with ``eip`` equal to
# the address it was prepared at.

def _ea_closure(cpu, mem):
    """Pre-resolved effective-address calculator for a Mem operand."""
    base, index, scale, disp = mem.base, mem.index, mem.scale, mem.disp
    if index is None:
        if base is None:
            fixed = disp & _MASK32
            return lambda: fixed
        return lambda: (cpu.regs[base] + disp) & _MASK32
    if base is None:
        return lambda: (cpu.regs[index] * scale + disp) & _MASK32
    return lambda: (cpu.regs[base] + cpu.regs[index] * scale
                    + disp) & _MASK32


def _value_closure(cpu, operand, address):
    """Pre-resolved value reader for a reg4/imm/mem4 source operand,
    or ``None`` when the operand shape is not specialised."""
    if operand.kind == "reg" and operand.size == 4:
        si = operand.index
        return lambda: cpu.regs[si]
    if operand.kind == "imm":
        value = operand.value
        return lambda: value
    if operand.kind == "mem" and operand.size == 4:
        ea = _ea_closure(cpu, operand)
        read32 = cpu.memory.read32
        return lambda: read32(ea(), address)
    return None


def _spec_mov(cpu, ins, address, next_eip):
    src, dst = ins.operands
    if dst.kind == "reg" and dst.size == 4:
        di = dst.index
        if src.kind == "reg" and src.size == 4:
            si = src.index

            def fn():
                cpu.regs[di] = cpu.regs[si]
                cpu.eip = next_eip
            return fn
        if src.kind == "imm":
            value = src.value & _MASK32

            def fn():
                cpu.regs[di] = value
                cpu.eip = next_eip
            return fn
        if src.kind == "mem" and src.size == 4:
            ea = _ea_closure(cpu, src)
            read32 = cpu.memory.read32

            def fn():
                cpu.regs[di] = read32(ea(), address)
                cpu.eip = next_eip
            return fn
        return None
    if dst.kind == "mem" and dst.size == 4:
        ea = _ea_closure(cpu, dst)
        write32 = cpu.memory.write32
        if src.kind == "reg" and src.size == 4:
            si = src.index

            def fn():
                write32(ea(), cpu.regs[si], address)
                cpu.eip = next_eip
            return fn
        if src.kind == "imm":
            value = src.value & _MASK32

            def fn():
                write32(ea(), value, address)
                cpu.eip = next_eip
            return fn
    return None


def _spec_lea(cpu, ins, address, next_eip):
    src, dst = ins.operands
    if dst.size != 4 or src.kind != "mem":
        return None
    di = dst.index
    ea = _ea_closure(cpu, src)

    def fn():
        cpu.regs[di] = ea()
        cpu.eip = next_eip
    return fn


def _spec_push(cpu, ins, address, next_eip):
    if ins.operand_size == 2:
        return None
    op = ins.operands[0]
    write32 = cpu.memory.write32
    if op.kind == "reg" and op.size == 4:
        si = op.index

        def fn():
            regs = cpu.regs
            esp = (regs[ESP] - 4) & _MASK32
            write32(esp, regs[si], address)
            regs[ESP] = esp
            cpu.eip = next_eip
        return fn
    if op.kind == "imm":
        value = op.value & _MASK32

        def fn():
            regs = cpu.regs
            esp = (regs[ESP] - 4) & _MASK32
            write32(esp, value, address)
            regs[ESP] = esp
            cpu.eip = next_eip
        return fn
    return None


def _spec_pop(cpu, ins, address, next_eip):
    op = ins.operands[0]
    # pop %esp writes the popped value into the register that the
    # ESP update would then clobber; leave that rarity to the
    # reference-ordered generic handler.
    if (ins.operand_size == 2 or op.kind != "reg" or op.size != 4
            or op.index == ESP):
        return None
    di = op.index
    read32 = cpu.memory.read32

    def fn():
        regs = cpu.regs
        esp = regs[ESP]
        regs[di] = read32(esp, address)
        regs[ESP] = (esp + 4) & _MASK32
        cpu.eip = next_eip
    return fn


def _alu_specialiser(kind):
    """Builder family for the lazy-flag ALU fast paths (32-bit
    register destinations; cmp/test also take memory destinations
    since they write nothing back)."""

    def build(cpu, ins, address, next_eip, _kind=kind):
        src, dst = ins.operands
        get_b = _value_closure(cpu, src, address)
        if get_b is None:
            return None
        perf = cpu.perf
        if dst.kind == "reg" and dst.size == 4:
            di = dst.index

            def get_a():
                return cpu.regs[di]
        elif (dst.kind == "mem" and dst.size == 4
                and _kind in ("cmp", "test")):
            ea = _ea_closure(cpu, dst)
            read32 = cpu.memory.read32

            def get_a():
                return read32(ea(), address)
        else:
            return None
        if _kind == "cmp":
            def fn():
                a = get_a()
                b = get_b()
                if cpu._lazy is not None:
                    perf.flags_elided += 1
                cpu._lazy = ("sub", a, b, 4, 0)
                cpu.eip = next_eip
        elif _kind == "test":
            def fn():
                result = get_a() & get_b()
                if cpu._lazy is not None:
                    perf.flags_elided += 1
                cpu._lazy = ("logic", result, 4)
                cpu.eip = next_eip
        elif _kind == "add":
            def fn():
                regs = cpu.regs
                a = regs[di]
                b = get_b()
                regs[di] = (a + b) & _MASK32
                if cpu._lazy is not None:
                    perf.flags_elided += 1
                cpu._lazy = ("add", a, b, 4, 0)
                cpu.eip = next_eip
        elif _kind == "sub":
            def fn():
                regs = cpu.regs
                a = regs[di]
                b = get_b()
                regs[di] = (a - b) & _MASK32
                if cpu._lazy is not None:
                    perf.flags_elided += 1
                cpu._lazy = ("sub", a, b, 4, 0)
                cpu.eip = next_eip
        elif _kind == "and":
            def fn():
                regs = cpu.regs
                result = (regs[di] & get_b()) & _MASK32
                regs[di] = result
                if cpu._lazy is not None:
                    perf.flags_elided += 1
                cpu._lazy = ("logic", result, 4)
                cpu.eip = next_eip
        elif _kind == "or":
            def fn():
                regs = cpu.regs
                result = (regs[di] | get_b()) & _MASK32
                regs[di] = result
                if cpu._lazy is not None:
                    perf.flags_elided += 1
                cpu._lazy = ("logic", result, 4)
                cpu.eip = next_eip
        else:  # xor
            def fn():
                regs = cpu.regs
                result = (regs[di] ^ get_b()) & _MASK32
                regs[di] = result
                if cpu._lazy is not None:
                    perf.flags_elided += 1
                cpu._lazy = ("logic", result, 4)
                cpu.eip = next_eip
        return fn
    return build


def _inc_dec_specialiser(delta):
    def build(cpu, ins, address, next_eip, _delta=delta):
        op = ins.operands[0]
        if op.kind != "reg" or op.size != 4:
            return None
        di = op.index
        routine = alu.inc if _delta > 0 else alu.dec

        def fn():
            result, flags = routine(cpu.regs[di], 4, cpu.eflags)
            cpu.regs[di] = result
            cpu._eflags = (cpu._eflags & ~STATUS_FLAGS) | flags
            cpu.eip = next_eip
        return fn
    return build


def _spec_movzx(cpu, ins, address, next_eip):
    src, dst = ins.operands
    if dst.kind != "reg" or dst.size != 4:
        return None
    di = dst.index
    if src.kind == "mem":
        ea = _ea_closure(cpu, src)
        if src.size == 1:
            read8 = cpu.memory.read8

            def fn():
                cpu.regs[di] = read8(ea(), address)
                cpu.eip = next_eip
            return fn
        read16 = cpu.memory.read16

        def fn():
            cpu.regs[di] = read16(ea(), address)
            cpu.eip = next_eip
        return fn
    if src.kind == "reg":
        get_b = _narrow_reg_closure(cpu, src)

        def fn():
            cpu.regs[di] = get_b()
            cpu.eip = next_eip
        return fn
    return None


def _narrow_reg_closure(cpu, reg):
    """Reader for an 8/16-bit register source (zero-extended)."""
    si = reg.index
    if reg.size == 2:
        return lambda: cpu.regs[si] & 0xFFFF
    if si < 4:
        return lambda: cpu.regs[si] & 0xFF
    sj = si - 4
    return lambda: (cpu.regs[sj] >> 8) & 0xFF


def _spec_imul2(cpu, ins, address, next_eip):
    src, dst = ins.operands
    if dst.kind != "reg" or dst.size != 4:
        return None
    get_b = _value_closure(cpu, src, address)
    if get_b is None or src.kind == "imm":
        return None
    di = dst.index
    signed = alu.signed

    def fn():
        product = signed(get_b(), 4) * signed(cpu.regs[di], 4)
        cpu.regs[di] = product & _MASK32
        cpu._set_mul_flags(product, 4)
        cpu.eip = next_eip
    return fn


def _spec_jcc(cpu, ins, address, next_eip):
    target = ins.operands[0].target
    condition = ins.condition

    def fn():
        if condition_met(condition, cpu.eflags):
            cpu.eip = target
        else:
            cpu.eip = next_eip
    return fn


def _spec_jmp(cpu, ins, address, next_eip):
    target = ins.operands[0].target

    def fn():
        cpu.eip = target
    return fn


def _spec_call(cpu, ins, address, next_eip):
    target = ins.operands[0].target
    write32 = cpu.memory.write32

    def fn():
        regs = cpu.regs
        esp = (regs[ESP] - 4) & _MASK32
        write32(esp, next_eip, address)
        regs[ESP] = esp
        cpu.eip = target
    return fn


def _spec_ret(cpu, ins, address, next_eip):
    read32 = cpu.memory.read32
    extra = ins.operands[0].value if ins.operands else 0

    def fn():
        regs = cpu.regs
        esp = regs[ESP]
        cpu.eip = read32(esp, address)
        regs[ESP] = (esp + 4 + extra) & _MASK32
    return fn


def _spec_nop(cpu, ins, address, next_eip):
    def fn():
        cpu.eip = next_eip
    return fn


_SPECIALISERS = {
    "mov": _spec_mov,
    "lea": _spec_lea,
    "push": _spec_push,
    "pop": _spec_pop,
    "add": _alu_specialiser("add"),
    "sub": _alu_specialiser("sub"),
    "and": _alu_specialiser("and"),
    "or": _alu_specialiser("or"),
    "xor": _alu_specialiser("xor"),
    "cmp": _alu_specialiser("cmp"),
    "test": _alu_specialiser("test"),
    "inc": _inc_dec_specialiser(1),
    "dec": _inc_dec_specialiser(-1),
    "movzxb": _spec_movzx,
    "movzxw": _spec_movzx,
    "imul2": _spec_imul2,
    "jmp": _spec_jmp,
    "call": _spec_call,
    "ret": _spec_ret,
    "nop": _spec_nop,
}
for _suffix in _JCC_SUFFIXES:
    _SPECIALISERS["j" + _suffix] = _spec_jcc
del _suffix
