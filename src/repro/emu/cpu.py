"""IA-32 CPU execution engine.

Executes instructions decoded by :mod:`repro.x86.decoder` against a
:class:`repro.emu.memory.Memory`.  The engine favours architectural
fidelity over speed in semantics, but the hot loop is built for the
exhaustive injection campaigns (see ``DESIGN.md`` section 10).  It has
two tiers over one **decode cache** of the text segment, both running
**superblocks**: straight-line code that continues through the target
of a direct ``jmp``/``call`` and ends at any other control transfer:

* a **cold** block runs each member instruction through its
  ``_dispatch`` handler, exactly as :meth:`CPU.slow_step` does;
* on its :attr:`CPU.COMPILE_THRESHOLD`-th entry the block is
  **compiled**: one generated Python function for the whole block,
  with registers in locals, inline templates for the common forms
  (register and immediate moves, loads and stores checked against the
  stack or data region bound at compile time, stack ops with a push
  forwarded to its pop, ALU ops, ``imul``, ``idiv``, ``shl``/``shr``/
  ``sar`` by an immediate or ``%cl``, branches) and a handler call for
  everything else.  Generated code is cached per process by
  ``(block start, block bytes)``, so every CPU over one image shares
  one code object per block.

``int``, ``rdtsc`` and the string ops observe or adjust ``instret``
mid-instruction; each is a one-instruction block of its own, never
compiled, that the loop retires after its handler returns.

The compiled tier keeps **lazy EFLAGS**: its ALU, shift and ``imul``
templates record the last op's operands (an ``imul``'s CF/OF over the
record before it) instead of computing SF/ZF/PF/AF/OF/CF, and the
flags materialise only when something reads ``cpu.eflags`` (a Jcc
that does not follow its flag writer in the same block, ``pushf``, a
snapshot, a test).

There are two run loops, each taking a ``stop`` set of addresses
(a debugger breakpoint is a one-address set, plain execution the
empty set): the block loop :meth:`CPU.run`, which never names an
observer -- with the forensic ring, the sampler or the ``coverage``
trace attached it calls each block's **observed variant** instead of
the block: a closure feeding the observers around the block
(:meth:`CPU._observed_block`) until the block compiles, then the
block's code generated with the attached observers' work inline -- and
:meth:`CPU._run_reference` over :meth:`CPU.slow_step`, which keeps
the original decode-and-dispatch semantics, honours ``trace_hook``,
and is differentially tested against the block loop.
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
from .memory import PAGE_SHIFT, PAGE_SIZE, _pack_u32, _unpack_u32
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

#: mnemonics that may start a block but never join one: they read or
#: write ``instret`` mid-execution (``int 0x80`` hands the kernel a CPU
#: whose retire count must be exact, ``rdtsc`` returns it, the string
#: ops self-adjust it per iteration).  Such an instruction is a
#: one-instruction block of its own, never compiled, which the run
#: loop retires after its handler returns -- exactly as
#: :meth:`CPU.slow_step` does.  Rep-prefixed instructions are treated
#: the same way (their ``instret`` contribution is data-dependent).
_BLOCK_EXCLUDED = frozenset({
    "int", "rdtsc",
    "movsb", "movsd", "cmpsb", "cmpsd",
    "stosb", "stosd", "lodsb", "lodsd", "scasb", "scasd",
})

#: direct transfers a block continues through: the block goes on at
#: the target (after the ``call``'s push) instead of ending.
_DIRECT_TRANSFERS = frozenset({"jmp", "call"})

_MASK32 = 0xFFFFFFFF

#: the alu routine of each four-operand lazy-EFLAGS record kind
_LAZY_ROUTINES = {"add": alu.add, "sub": alu.sub,
                  "shl": alu.shl, "shr": alu.shr, "sar": alu.sar}

#: the slot of a block's observed variant (:meth:`CPU._observed_block`)
_OBSERVED = 5

#: the observer set (ring, ``coverage``, sampler) whose variants are
#: never compiled (:meth:`CPU._observed_block`)
_COVERAGE_ONLY = (False, True, False)


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
        self.decode_cache = {}    # address -> decoded instruction
        self.blocks = {}          # address -> basic block (see _block_at)
        #: eviction index: address bucket -> set of block start
        #: addresses whose byte span touches that bucket.  Lets a
        #: single-address invalidation check a handful of candidate
        #: blocks instead of scanning the whole block cache -- the
        #: invalidation runs once per experiment restore, so it is on
        #: the campaign hot path.  Entries may be stale (block already
        #: evicted or rebuilt shorter); they are dropped lazily.
        self.block_index = {}
        #: optional list of cache-insert start addresses (decodes and
        #: blocks) since last drained.  ``None`` (the default) disables
        #: logging; the snapshot injector enables it so a restore can
        #: evict exactly the entries built from modified text (see
        #: :meth:`evict_suspect_decodes`).
        self.decode_log = None
        self.cacheable = None     # (start, end) range eligible for caching
        #: optional instruction trace: every executed instruction
        #: start, in order.  The reference loop adds each one
        #: (``add``); a block's observed variant extends it by
        #: ``block[3]`` (``extend``), cut after the faulting op as the
        #: ring is, so it must be a sequence (the golden recorder's
        #: array).
        self.coverage = None
        self.trace_hook = None    # optional fn(cpu, instruction) per step
        #: optional forensic EIP ring (:mod:`repro.obs.forensics`).
        #: ``None`` keeps :meth:`run` on the plain callables (zero
        #: overhead); a ring switches it to the blocks' observed
        #: variants (:meth:`_observed_block`), which append whole
        #: ``block[3]`` tuples, and to :meth:`_observed_step`, which
        #: appends single EIPs.  The ring ends with the *faulting*
        #: instruction after a crash (it did not retire; ``instret``
        #: stays exact).
        self.forensic_ring = None
        #: optional sampling profiler (:mod:`repro.obs.sampler`), on
        #: the same terms: the observed variants count it down by
        #: whole supersteps.  Every attached observer is fed.
        self.sampler = None
        #: which of (ring, ``coverage``, sampler) the observed variants
        #: are made for, and whether some cached block has none (it
        #: was built with no observer attached): :meth:`run` remakes
        #: or adds them when it starts observed
        self._observed = ()
        self._unobserved = False
        #: optional ``fn(cpu, instruction)`` called at every ``int
        #: 0x80`` entry, before the kernel runs, with ``eip`` at the
        #: ``int`` and ``instret`` not yet counting it.  The golden
        #: run records its states through it and a campaign checks
        #: for convergence (:mod:`repro.injection.earlyexit`); an
        #: exception it raises leaves the syscall unexecuted.
        self.syscall_hook = None
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
    # Compiled blocks do not compute status flags; they stash a record
    # in ``_lazy`` and the flags are computed -- through the same
    # :mod:`repro.emu.alu` routines the eager path uses -- only when
    # ``eflags`` is read.  A record is ``(kind, a, b, 4, 0)`` for the
    # kinds of :data:`_LAZY_ROUTINES` (add/sub: the operands; shl, shr,
    # sar: the value and its nonzero masked count), ``("logic",
    # result, 4)``, or ``("mul", overflow, prev)``: an imul sets only
    # CF/OF, so its record wraps the one pending before it (``None``
    # when there was none; never another mul record).  A record
    # overwritten before any read is counted as elided.

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
        eflags = self._eflags
        mul = None
        if lazy[0] == "mul":
            mul, lazy = lazy, lazy[2]
        if lazy is not None:
            if lazy[0] == "logic":
                __, flags = alu.logic(lazy[1], lazy[2])
            else:
                __, flags = _LAZY_ROUTINES[lazy[0]](lazy[1], lazy[2],
                                                    lazy[3], lazy[4])
            eflags = (eflags & ~STATUS_FLAGS) | flags
        if mul is not None:
            eflags = (eflags | CF | OF) if mul[1] else eflags & ~(CF | OF)
        self._eflags = eflags
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
        """Drop cached decodes and basic blocks after a text-segment
        modification.

        With no *address* every cache is dropped (arbitrary bytes may
        have changed).  With an *address*, only cached entries whose
        byte range covers that address are evicted -- a single-bit
        flip then costs a handful of evictions instead of a full
        re-decode of the auth section on every experiment.  Blocks are
        range-checked against every byte range they span, so a block
        is evicted whenever any of its member instructions is.

        With a :attr:`decode_log` (a machine that restores pristine
        text before every poke) an evicted block was built from
        pristine bytes, so its generated code stays in
        :data:`_CODE_CACHE` for the next CPU state that rebuilds it;
        :meth:`evict_suspect_decodes` drops the code of blocks built
        from poked bytes.
        """
        if address is None:
            for start in list(self.blocks):
                self._evict_block(start)
            self.decode_cache.clear()
            self.block_index.clear()
            return
        cache = self.decode_cache
        for start in range(address - self.MAX_INSTRUCTION_LENGTH + 1,
                           address + 1):
            cached = cache.get(start)
            if cached is not None and start + len(cached.raw) > address:
                del cache[start]
        candidates = self.block_index.get(
            address >> self.BLOCK_BUCKET_SHIFT)
        if candidates:
            blocks = self.blocks
            drop_code = self.decode_log is None
            for start in [s for s in candidates
                          if blocks.get(s) is None
                          or _covers(blocks[s][2], address)]:
                candidates.discard(start)
                self._evict_block(start, drop_code)

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
            blocks = self.blocks
            addrs = tuple(addresses)
            for start in set(log):
                cached = cache.get(start)
                end = start if cached is None else start + len(cached.raw)
                block = blocks.get(start)
                for address in addrs:
                    if start <= address < end or (
                            block is not None
                            and _covers(block[2], address)):
                        cache.pop(start, None)
                        self._evict_block(start)
                        break
        del log[:]

    def _evict_block(self, start, drop_code=True):
        """Drop the block at *start* and, unless *drop_code* is false,
        its shared code-cache entry, so blocks compiled from corrupted
        bytes cannot accumulate."""
        block = self.blocks.pop(start, None)
        if block is not None and drop_code:
            key = _code_key(block)
            _CODE_CACHE.pop(key, None)
            _OBSERVED_CODE_CACHE.pop(key, None)

    # -- basic blocks ----------------------------------------------------

    #: basic blocks stop growing at this many instructions; bounds the
    #: cost of an eviction and of an over-long straight-line run.
    MAX_BLOCK_INSTRUCTIONS = 128

    #: a block is compiled on this entry; earlier entries interpret it.
    #: One ``compile`` costs about as much as interpreting a thousand
    #: instructions, and a block that runs only once never pays it.
    COMPILE_THRESHOLD = 2

    #: granularity of :attr:`block_index` buckets (64-byte lines: a
    #: typical block spans one or two, keeping candidate sets tiny).
    BLOCK_BUCKET_SHIFT = 6

    def _block_at(self, address):
        """Build (and cache) the block starting at *address*.

        A block is a list ``[run, inner_addresses, ranges, addresses,
        instructions, observed]``: ``run()`` executes the whole block
        -- the cold interpreter of :meth:`_cold_block` until the block
        is compiled, then the generated function that replaces it --
        leaving ``eip`` at the successor; the set of member addresses
        after the first (the ones a stop-set check must consult); the
        ``(start, end)`` byte ranges the members occupy (for
        eviction); the per-op address tuple, in execution order and
        without repeats (a faulting op raises with ``eip`` at its own
        address, so its index is the retired count); the decoded
        instructions; and the observed variant of ``run``
        (:meth:`_observed_block`), ``None`` until the block is to run
        with an observer attached.
        Returns ``None`` outside the cacheable range, or when the
        first instruction does not decode (the caller's :meth:`step`
        then raises its fault).

        A block is a superblock: it continues at the target of a
        ``jmp``/``call`` rel whose target is cacheable, and ends at any
        other control transfer, a block-terminating mnemonic (traps /
        ``loop`` family), an undecodable or unimplemented tail
        instruction, the cacheable-range boundary, or an address that
        is already a member (a loop, or a misaligned stream that falls
        back into step with the aligned one).  ``int``/``rdtsc`` and
        rep-prefixed or string ops observe or adjust ``instret``
        mid-execution: one of them is a one-instruction block of its
        own, never compiled, and ends a block it would otherwise join.
        """
        cacheable = self.cacheable
        if not cacheable or not (cacheable[0] <= address < cacheable[1]):
            return None
        low, limit = cacheable
        cache = self.decode_cache
        dispatch = self._dispatch
        instructions = []
        members = set()
        ranges = []
        first = pc = address
        while pc not in members:
            instruction = cache.get(pc)
            if instruction is None:
                try:
                    instruction = self.fetch_decode(pc)
                except CpuFault:
                    # Undecodable: end the block before it and let
                    # step() raise the fault, with eip/instret (and
                    # any observer) reflecting the instructions before.
                    break
                self.perf.prepared_misses += 1
            mnemonic = instruction.mnemonic
            if mnemonic not in dispatch:
                break
            if mnemonic in _BLOCK_EXCLUDED or instruction.rep is not None:
                if not instructions:
                    instructions.append(instruction)
                    pc += len(instruction.raw)
                break
            instructions.append(instruction)
            members.add(pc)
            pc += len(instruction.raw)
            if len(instructions) >= self.MAX_BLOCK_INSTRUCTIONS:
                break
            if mnemonic in _DIRECT_TRANSFERS:
                target = instruction.operands[0].target
                if not low <= target < limit:
                    break
                ranges.append((first, pc))
                first = pc = target
                continue
            if (instruction.kind in CONTROL_KINDS
                    or mnemonic in _BLOCK_TERMINATORS or pc >= limit):
                break
        if not instructions:
            return None
        if pc > first:
            ranges.append((first, pc))
        addrs = tuple(instruction.address for instruction in instructions)
        block = [None, frozenset(addrs[1:]), tuple(ranges), addrs,
                 tuple(instructions), None]
        lone = instructions[0]
        if lone.mnemonic in _BLOCK_EXCLUDED or lone.rep is not None:
            block[0] = self._lone_block(lone)
        else:
            block[0] = self._cold_block(block)
        if (self.forensic_ring is None and self.sampler is None
                and self.coverage is None):
            self._unobserved = True
        else:
            block[_OBSERVED] = self._observed_block(block)
        self.blocks[address] = block
        index = self.block_index
        shift = self.BLOCK_BUCKET_SHIFT
        for start, end in ranges:
            for bucket in range(start >> shift, ((end - 1) >> shift) + 1):
                index.setdefault(bucket, set()).add(address)
        if self.decode_log is not None:
            self.decode_log.append(address)
        return block

    def _lone_block(self, instruction):
        """The callable of a one-instruction block (an op that may not
        join a block): its dispatch handler, run as
        :meth:`slow_step` runs it; never compiled."""
        handler = self._dispatch[instruction.mnemonic]
        next_eip = instruction.address + len(instruction.raw)

        def run():
            self._next_eip = next_eip
            handler(instruction)
            self.eip = self._next_eip
        return run

    def _observed_block(self, block):
        """*block*'s variant for the observer set :meth:`run` found
        (:func:`_observed_factory`) until it compiles, on the
        :attr:`COMPILE_THRESHOLD`-th entry as ``block[0]`` does.  A
        one-instruction block never compiles, nor a variant that feeds
        only ``coverage``: the golden run that traces runs once per
        cell and leaves the blocks it compiles to the plain runs after
        it."""
        first = block[4][0]
        compiles = not (first.mnemonic in _BLOCK_EXCLUDED
                        or first.rep is not None
                        or self._observed == _COVERAGE_ONLY)
        return _observed_factory(self._observed)(self, block, compiles)

    def _cold_block(self, block):
        """The callable of a new *block*: interpret it through the
        dispatch handlers, and on the :attr:`COMPILE_THRESHOLD`-th
        entry replace itself with the compiled block and run that."""
        entries = 0

        def run():
            nonlocal entries
            entries += 1
            if entries >= self.COMPILE_THRESHOLD:
                block[0] = compiled = self._compile_block(block)
                return compiled()
            dispatch = self._dispatch
            for instruction in block[4]:
                eip = instruction.address
                self.eip = eip
                self._next_eip = eip + len(instruction.raw)
                dispatch[instruction.mnemonic](instruction)
            self.eip = self._next_eip
        return run

    def _compile_block(self, block, observed=()):
        """The compiled function of *block* (of its variant for the
        *observed* set), bound to this CPU; the generated code comes
        from :data:`_CODE_CACHE` (:data:`_OBSERVED_CODE_CACHE`) when
        any CPU in the process already compiled these bytes at this
        address."""
        key = _code_key(block)
        if observed:
            factories = _OBSERVED_CODE_CACHE.setdefault(key, {})
            factory = factories.get(observed)
            if factory is None:
                factory = factories[observed] = _BlockSource(
                    block[4]).factory(observed)
            return factory(self, block[4])
        self.perf.blocks_compiled += 1
        factory = _CODE_CACHE.get(key)
        if factory is None:
            factory = _CODE_CACHE[key] = _compile_factory(block[4])
        return factory(self, block[4])

    def block_size(self, address):
        """Instructions the run loop retires in one superstep at
        *address* (building the block if needed); 1 where no block
        can start."""
        block = self.blocks.get(address) or self._block_at(address)
        return len(block[3]) if block is not None else 1

    def step(self):
        """Execute one instruction; raises CpuFault on a crash."""
        if self.eip in self.decode_cache:
            self.perf.prepared_hits += 1
        else:
            self.perf.prepared_misses += 1
        self.slow_step()

    def slow_step(self):
        """Reference path: decode-and-dispatch one instruction.  Kept
        both as the executable spec the block tiers are differentially
        tested against and as the path that honours ``trace_hook``
        (it adds to ``coverage`` too, as the block loop does).
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

        The block loop; a ``trace_hook`` switches to the reference loop
        (:meth:`_run_reference`).  A whole block runs as one superstep
        only when it fits the budget and is disjoint from *stop*;
        otherwise one instruction is stepped.  The loop never touches
        an observer: with any attached it calls the blocks' observed
        variants and :meth:`_observed_step`, chosen once here, where
        the variants are made for the attached set.  The
        superstep counters are kept in locals and added to
        :attr:`perf` when the loop returns or raises.
        """
        if self.trace_hook is not None:
            return self._run_reference(max_instructions, stop)
        if (self.forensic_ring is None and self.sampler is None
                and self.coverage is None):
            slot, step = 0, self.step
        else:
            slot, step = _OBSERVED, self._observed_step
            observed = (self.forensic_ring is not None,
                        self.coverage is not None, self.sampler is not None)
            if observed != self._observed or self._unobserved:
                remake = observed != self._observed
                self._observed, self._unobserved = observed, False
                for block in self.blocks.values():
                    if remake or block[_OBSERVED] is None:
                        block[_OBSERVED] = self._observed_block(block)
        blocks = self.blocks
        entries = retired = 0
        try:
            while not self.halted:
                eip = self.eip
                if stop and eip in stop:
                    return ("stop", None)
                remaining = max_instructions - self.instret
                if remaining <= 0:
                    return ("limit", None)
                block = blocks.get(eip)
                if block is None:
                    block = self._block_at(eip)
                if (block is not None and len(block[3]) <= remaining
                        and (not stop or stop.isdisjoint(block[1]))):
                    try:
                        block[slot]()
                    except BaseException:
                        # A faulting op raises with eip at its own
                        # address; retire exactly the ones before it.
                        count = block[3].index(self.eip)
                        self.instret += count
                        entries += 1
                        retired += count
                        raise
                    count = len(block[3])
                    self.instret += count
                    entries += 1
                    retired += count
                    continue
                step()
        except CpuFault as fault:
            return ("crash", fault)
        finally:
            perf = self.perf
            perf.superstep_entries += entries
            perf.superstep_instructions += retired
            perf.prepared_hits += retired
        return ("exit", getattr(self, "exit_code", 0))

    def _observed_step(self):
        """:meth:`step` feeding the ring (before the op, so it ends
        at a faulting one) and the sampler (once the op retires);
        :meth:`slow_step` adds to ``coverage``."""
        eip = self.eip
        if self.forensic_ring is not None:
            self.forensic_ring.append(eip)
        self.step()
        if self.sampler is not None:
            self.sampler.retire((eip,), 1)

    def _run_reference(self, max_instructions, stop):
        """:meth:`run` through :meth:`slow_step` only: the loop for
        instrumentation that needs a hook between every instruction,
        and the spec the block loop is differentially tested
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
            size = dst.size
            product = alu.signed(self.read_operand(src), size) \
                * alu.signed(imm.value, size)
            self.write_reg(dst.index, product & 0xFFFFFFFF, size)
            self._set_mul_flags(product, size, signed=True)
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
        self._set_mul_flags(product, dst.size, signed=True)

    def _write_product(self, product, size, signed, raw_product=None):
        if size == 1:
            self.write_reg(EAX, product & 0xFFFF, 2)
        else:
            bits = size * 8
            self.write_reg(EAX, product & ((1 << bits) - 1), size)
            self.write_reg(EDX, (product >> bits) & ((1 << bits) - 1), size)
        check = raw_product if raw_product is not None else product
        self._set_mul_flags(check, size, signed)

    def _set_mul_flags(self, product, size, signed):
        bits = size * 8
        low = product & ((1 << bits) - 1)
        # CF/OF clear only when the full product fits in the low half:
        # its signed view for imul, its unsigned view for mul.
        overflow = product != (alu.signed(low, size) if signed else low)
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
        # truncate toward zero, exactly (a float quotient is not once
        # the dividend passes 2**53)
        quotient = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient
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
            if self.syscall_hook is not None:
                self.syscall_hook(self, instruction)
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
        if iterations:
            self.instret -= 1  # the final iteration is the retired insn
        if count is not None:
            self.regs[ECX] = 0

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
        if iterations:
            self.instret -= 1
        if count is not None:
            self.regs[ECX] = 0

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
        if iterations:
            self.instret -= 1
        if count is not None:
            self.regs[ECX] = 0

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
# Block compiler
#
# A hot block becomes the source of a factory ``make(cpu,
# instructions)`` whose inner ``block()`` runs the whole block.  The
# factory is compiled once per ``(start address, block bytes)`` and
# shared through :data:`_CODE_CACHE`; calling it binds one CPU, its
# memory, its stack and data regions and its dispatch handlers.  The
# generated body keeps these invariants:
#
# * ``regs = cpu.regs`` is fetched on every entry, because
#   ``Process.reset_cpu`` and snapshot restores REBIND ``cpu.regs``;
# * registers live in locals ``g0``..``g7``.  The ops between two
#   handler calls form a segment; on entry to a segment the registers
#   its inline ops use are loaded, and the ones they write are stored
#   back before the next handler call and at block exit.  An inline op
#   writes registers only after its last access that can raise (or,
#   like ``leave``'s ESP, where its handler also commits the write
#   before that access), so the locals equal the architectural
#   registers at every op boundary (inside a handler call the list is
#   the truth);
# * an op that can raise first stores its index in ``op``; the one
#   ``except BaseException`` sets ``cpu.eip`` to that op's address --
#   the fault PC the op's faults carry too -- so the run loop's
#   ``block[3].index(eip)`` retire count is exact.  When the raising
#   op is inline it stores back its segment's written registers; a
#   handler op synced them before the call, and whatever it wrote
#   before faulting stands, exactly as under :meth:`CPU.slow_step`;
# * a pop in the block of its push, with only pushes and pops moving
#   ESP and no other store in between, takes the pushed value from a
#   local instead of loading it: the push's store succeeded, so the
#   load could neither fault nor read anything else;
# * ``cpu.memory`` is never rebound and its regions are fixed once a
#   process is built (restores write ``Region.data`` and
#   ``Region.dirty`` in place), so ``make()`` binds the stack and data
#   regions' bounds, bytes and ``dirty.add``.  A load or store checks
#   the one region its base register implies (ESP/EBP: stack, else
#   data) and otherwise calls ``read32``/``write32``/``read8`` with the
#   op's address, so permissions, dirty pages and ``PageFault`` EIPs
#   stay Memory's whichever region was guessed;
# * an inline flag writer leaves its operands in ``fa``/``fb``/``fr``
#   and its lazy record is stored in ``cpu._lazy`` once: before a
#   handler call, before a Jcc reads ``cpu.eflags``, at block exit, and
#   on the fault path of an inline op (from ``fl``, the pending writer
#   per op), with ``flags_elided`` counted as one store per writer
#   would count it.  Two writers store at once instead: an ``imul``,
#   whose ``("mul", overflow, prev)`` record wraps the stored one, and
#   a shift by ``%cl``, which stores its record only when its masked
#   count is nonzero.  So ``eflags`` is exact at every exit and every
#   fault; a Jcc after a cmp/sub/test/and/or/xor in the same block
#   (with only flag-neutral inline ops between) decides from that op's
#   operands instead of materialising the flags;
# * any other instruction or operand shape calls its dispatch handler
#   with ``eip`` and ``_next_eip`` set as :meth:`CPU.slow_step` sets
#   them.

#: compiled block factories by ``(start address, block bytes)``, shared
#: by every CPU in the process.  The start and the concatenated member
#: bytes determine a superblock: each member's address follows from the
#: one before (fall-through, or the target of a ``jmp``/``call`` the
#: block continued through).  :meth:`CPU._evict_block` drops a block's
#: entry with the block.
_CODE_CACHE = {}

#: the factories of the observed variants, by the same keys, then by
#: the observer set (:meth:`CPU.run`)
_OBSERVED_CODE_CACHE = {}


def _bound_region(memory, name):
    """``(start, last word address, last byte address, data,
    dirty.add)`` of the writable region *name* of *memory*, or bounds
    no address satisfies when there is none or an
    :class:`~repro.emu.liveness.AccessLog` is attached: a block made
    then takes the memory methods for every load and store, so the
    log sees each one."""
    if memory.access_log is None:
        for region in memory.regions:
            if region.name == name and region.writable:
                return (region.start, region.end - 4, region.end - 1,
                        region.data, region.dirty.add)
    return 1, 0, 0, None, None


_GENERATED_GLOBALS = {"_u32": _unpack_u32, "_p32": _pack_u32,
                      "_region": _bound_region,
                      "condition_met": condition_met,
                      "DivideErrorFault": DivideErrorFault}

#: Jcc conditions decided from the operands of the block's last flag
#: writer: ``fa - fb`` for sub/cmp, the result ``fr`` for the logic ops
#: (CF = OF = 0).  ``True``/``False`` are "always"/"never"; conditions
#: absent here (overflow, parity) read the materialised flags.
_FUSED_CONDITIONS = {
    "sub": {2: "fa < fb", 3: "fa >= fb", 4: "fa == fb", 5: "fa != fb",
            6: "fa <= fb", 7: "fa > fb",
            8: "(fa - fb) & 0x80000000",
            9: "not ((fa - fb) & 0x80000000)",
            12: "(fa ^ 0x80000000) < (fb ^ 0x80000000)",
            13: "(fa ^ 0x80000000) >= (fb ^ 0x80000000)",
            14: "(fa ^ 0x80000000) <= (fb ^ 0x80000000)",
            15: "(fa ^ 0x80000000) > (fb ^ 0x80000000)"},
    "logic": {0: False, 1: True, 2: False, 3: True,
              4: "fr == 0", 5: "fr != 0", 6: "fr == 0", 7: "fr != 0",
              8: "fr & 0x80000000", 9: "not (fr & 0x80000000)",
              12: "fr & 0x80000000", 13: "not (fr & 0x80000000)",
              14: "not (0 < fr < 0x80000000)", 15: "0 < fr < 0x80000000"},
}

#: the lazy-EFLAGS record of each flag-writer kind, over the locals
#: the ALU and shift templates leave their operands and result in
_LAZY_RECORDS = {"logic": '"logic", fr, 4'}
for _name in _LAZY_ROUTINES:
    _LAZY_RECORDS[_name] = '"%s", fa, fb, 4, 0' % _name

#: a shift template's result, from the value ``fa`` and the nonzero
#: masked count ``fb``
_SHIFTED = {"shl": "(fa << fb) & 0xFFFFFFFF", "shr": "fa >> fb",
            "sar": "(((fa ^ 0x80000000) - 0x80000000) >> fb) & 0xFFFFFFFF"}

#: region prefix of the generated locals bound by ``_region``
_REGION_PREFIX = {"stack": "s", "data": "d"}


def _code_key(block):
    return block[3][0], b"".join(insn.raw for insn in block[4])


def _covers(ranges, address):
    """Whether *address* lies in one of a block's byte *ranges*."""
    for start, end in ranges:
        if start <= address < end:
            return True
    return False


def _compile_factory(instructions):
    """Generate and compile the factory for a block of *instructions*."""
    return _BlockSource(instructions).factory()


#: an observed variant's lines for each of the ring, ``coverage`` and
#: the sampler: at entry, take it and feed it the block (the ring's
#: ``append`` is a slot, cheaper loaded as an attribute than called as
#: a method); on a fault at op ``op``, cut the ring and ``coverage``
#: after it and count the retired ops down on the sampler; at exit,
#: count the block down, inline when no sample is due
_OBSERVED_LINES = (
    (("append = cpu.forensic_ring.append", "append(addrs)"),
     ("cpu.forensic_ring[-1] = addrs[:op + 1]",), ()),
    (("coverage = cpu.coverage", "coverage.extend(addrs)"),
     ("del coverage[len(coverage) - size + op + 1:]",), ()),
    (("sampler = cpu.sampler",), ("sampler.retire(addrs, op)",),
     ("if sampler.skip < size:", "    sampler.retire(addrs, size)",
      "else:", "    sampler.skip -= size")))


def _observed_lines(observed):
    """The entry, fault and exit lines of the *observed* set."""
    parts = [part for part, on in zip(_OBSERVED_LINES, observed) if on]
    return [[line for part in parts for line in part[k]] for k in range(3)]


#: the variants' factories before they compile, by observer set
_OBSERVED_FACTORIES = {}


def _observed_factory(observed):
    """The factory ``make(cpu, block, compiles)`` of the variants that
    feed the *observed* set until they compile: the set's lines
    around ``block[0]()``, looked up at call time so the
    cold-to-compiled swap and evictions carry over."""
    factory = _OBSERVED_FACTORIES.get(observed)
    if factory is None:
        entry, fault, exit_ = _observed_lines(observed)
        lines = ["def make(cpu, block, compiles):",
                 "    addrs, entries = block[3], 0",
                 "    size = len(addrs)",
                 "    def observed():",
                 "        nonlocal entries",
                 "        entries += 1",
                 "        if compiles and entries >= cpu.COMPILE_THRESHOLD:",
                 "            block[%d] = compiled = cpu._compile_block("
                 "block, %r)" % (_OBSERVED, observed),
                 "            return compiled()"]
        lines += ["        " + line for line in entry]
        lines += ["        try:", "            block[0]()",
                  "        except BaseException:",
                  "            op = addrs.index(cpu.eip)"]
        lines += ["            " + line for line in fault + ["raise"]]
        lines += ["        " + line for line in exit_]
        namespace = {}
        exec("\n".join(lines + ["    return observed\n"]), {}, namespace)
        factory = _OBSERVED_FACTORIES[observed] = namespace["make"]
    return factory


def _r32(operand):
    return operand.kind == "reg" and operand.size == 4


def _m32(operand):
    return operand.kind == "mem" and operand.size == 4


def _v32(operand):
    return operand.kind == "imm" or _r32(operand) or _m32(operand)


def _signed32(expr):
    """The signed value of the 32-bit expression *expr*."""
    return "((%s ^ 0x80000000) - 0x80000000)" % expr


class _BlockSource:
    """The generated source of one block's factory."""

    def __init__(self, instructions):
        self.instructions = instructions
        self.body = []          # lines of ``block()``, relative indent
        self.bindings = []      # handler bindings in ``make()``
        self.regions = []       # regions bound in ``make()``
        self.raising = False    # some op can raise: the body needs try
        self.marked = 0         # last op index stored in ``op``
        self.flags = None       # live fused flag writer: "sub"/"logic"
        self.pending = None     # kind of the unstored lazy record
        self.writers = 0        # flag writers since the last store
        self.fault_flags = {}   # inline op -> (pending kind, writers)
        self.handlers = []      # indices of the handler-call ops
        self.stores = []        # per segment: registers written inline
        self.segment = 0        # body index the segment's loads go to
        self.used = set()       # registers the segment's inline ops use
        self.dirty = set()      # registers they write
        self.stacked = []       # values of the pushes still on the stack

    def factory(self, observed=()):
        """The compiled factory of :meth:`source`."""
        namespace = {}
        exec(compile(self.source(observed),
                     "<block 0x%x>" % self.instructions[0].address,
                     "exec"), _GENERATED_GLOBALS, namespace)
        return namespace["make"]

    def source(self, observed=()):
        """The factory's source; with an *observed* set (one flag per
        entry of :data:`_OBSERVED_LINES`), of the variant feeding
        those observers, with ``addrs`` the block's ``block[3]``."""
        last = len(self.instructions) - 1
        for k, instruction in enumerate(self.instructions):
            self.k = k
            self.last = k == last
            self.address = instruction.address
            self.next_eip = instruction.address + len(instruction.raw)
            template = _TEMPLATES.get(instruction.mnemonic)
            if template is None or not template(self, instruction):
                self.handler(instruction)
            elif self.last and instruction.kind not in CONTROL_KINDS:
                self.emit("cpu.eip = %d" % self.next_eip)
        self.store_flags()
        self.emit(*self.write_back())
        self.close_segment()
        addrs = tuple(insn.address for insn in self.instructions)
        at = "addrs" if observed else repr(addrs)
        entry, fault, exit_ = _observed_lines(observed)
        lines = ["def make(cpu, instructions):",
                 "    memory = cpu.memory",
                 "    read8, read16 = memory.read8, memory.read16",
                 "    read32, write8 = memory.read32, memory.write8",
                 "    write32 = memory.write32",
                 "    perf = cpu.perf",
                 "    dispatch = cpu._dispatch"]
        for name in self.regions:
            p = _REGION_PREFIX[name]
            lines.append("    %sb, %s4, %s1, %sd, %sa = _region(memory, %r)"
                         % (p, p, p, p, p, name))
        lines += ["    " + line for line in self.bindings]
        if self.fault_flags:
            lines.append("    fl = %r" % (self.fault_flags,))
        if observed:
            lines += ["    addrs = %r" % (addrs,),
                      "    size = %d" % len(addrs)]
        lines.append("    def block():")
        lines += ["        " + line for line in entry]
        lines.append("        regs = cpu.regs")
        if self.raising:
            lines += ["        op = 0", "        try:"]
            lines += ["            " + line for line in self.body]
            lines += ["        except BaseException:",
                      "            cpu.eip = %s[op]" % at]
            lines += ["            " + line for line in self.fault_stores()]
            if self.fault_flags:
                lines += [
                    "            f = fl.get(op)",
                    "            if f is not None:",
                    "                perf.flags_elided += f[1] - 1 + (",
                    "                    cpu._lazy is not None)",
                    "                cpu._lazy = (('logic', fr, 4)"
                    " if f[0] == 'logic'",
                    "                             else (f[0], fa, fb, 4, 0))"]
            lines += ["            " + line for line in fault + ["raise"]]
        else:
            lines += ["        " + line for line in self.body]
        lines += ["        " + line for line in exit_]
        lines.append("    return block")
        return "\n".join(lines) + "\n"

    def emit(self, *lines):
        self.body.extend(lines)

    def may_raise(self):
        """Record the current op as the one a fault would come from,
        and the lazy record its fault path must store."""
        self.raising = True
        if self.pending is not None:
            self.fault_flags[self.k] = (self.pending, self.writers)
        if self.marked != self.k:
            self.marked = self.k
            self.emit("op = %d" % self.k)

    # -- register locals -----------------------------------------------

    def r(self, index):
        """The local holding register *index*, read by this op."""
        self.used.add(index)
        return "g%d" % index

    def w(self, index):
        """The local holding register *index*, written by this op."""
        self.used.add(index)
        self.dirty.add(index)
        if index == ESP:
            self.stacked = []
        return "g%d" % index

    def write_back(self):
        return ["regs[%d] = g%d" % (index, index)
                for index in sorted(self.dirty)]

    def close_segment(self):
        """Load the segment's registers at its start and record the
        ones it writes for the fault path."""
        self.body[self.segment:self.segment] = [
            "g%d = regs[%d]" % (index, index) for index in sorted(self.used)]
        self.stores.append(self.write_back())
        self.segment = len(self.body)
        self.used = set()
        self.dirty = set()

    def fault_stores(self):
        """The except path's write-back: the faulting op's segment's
        registers when it is inline, nothing after a handler op."""
        lines = []
        bounds = [-1] + self.handlers + [len(self.instructions)]
        for low, high, stores in zip(bounds, bounds[1:], self.stores):
            if not stores:
                continue
            test = "op"
            if low >= 0:
                test = "%d < %s" % (low, test)
            if high < len(self.instructions):
                test = "%s < %d" % (test, high)
            if test == "op":
                return stores
            lines.append("if %s:" % test)
            lines += ["    " + line for line in stores]
        return lines

    # -- operands ------------------------------------------------------

    def ea(self, mem):
        terms = []
        if mem.base is not None:
            terms.append(self.r(mem.base))
        if mem.index is not None:
            terms.append("%s * %d" % (self.r(mem.index), mem.scale))
        if not terms:
            return "%d" % (mem.disp & _MASK32)
        expr = " + ".join(terms)
        if mem.disp:
            expr += " %s %d" % ("-" if mem.disp < 0 else "+", abs(mem.disp))
        elif mem.index is None:
            return expr         # registers already hold 32-bit values
        return "(%s) & 0xFFFFFFFF" % expr

    def expr(self, operand):
        """A register or immediate operand's 32-bit value."""
        if operand.kind == "imm":
            return "%d" % (operand.value & _MASK32)
        return self.r(operand.index)

    def region(self, mem):
        """The bound-region prefix a memory operand's base implies."""
        return self.region_named("stack" if mem.base in (ESP, EBP)
                                 else "data")

    def region_named(self, name):
        if name not in self.regions:
            self.regions.append(name)
        return _REGION_PREFIX[name]

    def read(self, operand, target):
        if operand.kind == "mem":
            self.load(self.ea(operand), target, self.region(operand))
        else:
            self.emit("%s = %s" % (target, self.expr(operand)))

    def value(self, operand):
        """A register operand's local, or a memory operand loaded into
        ``t``."""
        if operand.kind == "mem":
            self.read(operand, "t")
            return "t"
        return self.r(operand.index)

    def load(self, address, target, p):
        """``target = read32(address)`` through region *p*, leaving the
        address in ``x``."""
        self.may_raise()
        self.emit("x = %s" % address,
                  "if %sb <= x <= %s4:" % (p, p),
                  "    %s = _u32(%sd, x - %sb)[0]" % (target, p, p),
                  "else:",
                  "    %s = read32(x, %d)" % (target, self.address))

    def store(self, address, value, p):
        """``write32(address, value)`` through region *p*, leaving the
        address in ``x``; a store straddling a page boundary dirties
        both pages."""
        self.may_raise()
        self.stacked = []
        self.emit("x = %s" % address,
                  "if %sb <= x <= %s4:" % (p, p),
                  "    o = x - %sb" % p,
                  "    %sa(o >> %d)" % (p, PAGE_SHIFT),
                  "    if o & %d > %d:" % (PAGE_SIZE - 1, PAGE_SIZE - 4),
                  "        %sa((o >> %d) + 1)" % (p, PAGE_SHIFT),
                  "    _p32(%sd, o, %s)" % (p, value),
                  "else:",
                  "    write32(x, %s, %d)" % (value, self.address))

    def load8(self, address, target, p):
        """``target = read8(address)`` through region *p*."""
        self.may_raise()
        self.emit("x = %s" % address,
                  "if %sb <= x <= %s1:" % (p, p),
                  "    %s = %sd[x - %sb]" % (target, p, p),
                  "else:",
                  "    %s = read8(x, %d)" % (target, self.address))

    def push(self, value):
        """Push *value*, and remember it for a pop in this block.

        Between a push and its pop, ESP moves only through pushes and
        pops and nothing else stores (either clears :attr:`stacked`),
        so the pop reads the word this push wrote: the push succeeded,
        so the read cannot fault, and the popped value is the pushed
        one, kept in a local ``p<depth>`` (a register may change)."""
        stacked = self.stacked
        if value.startswith("g"):
            name = "p%d" % len(stacked)
            self.emit("%s = %s" % (name, value))
            value = name
        self.store("(%s - 4) & 0xFFFFFFFF" % self.r(ESP), value,
                   self.region_named("stack"))
        self.emit("%s = x" % self.w(ESP))
        self.stacked = stacked + [value]

    def pop(self, target):
        """``target = pop32()``: the value of the matching push in this
        block when there is one, else a load."""
        stacked = self.stacked
        if stacked:
            self.emit("%s = %s" % (target, stacked[-1]),
                      "%s = (%s + 4) & 0xFFFFFFFF"
                      % (self.w(ESP), self.r(ESP)))
            self.stacked = stacked[:-1]
            return
        self.load(self.r(ESP), target, self.region_named("stack"))
        self.emit("%s = (x + 4) & 0xFFFFFFFF" % self.w(ESP))

    def set_lazy(self, kind, fused):
        """A flag writer of *kind* ran: its lazy record is pending in
        ``fa``/``fb``/``fr`` until :meth:`store_flags`."""
        self.pending = kind
        self.writers += 1
        self.flags = fused

    def store_flags(self):
        """Store the pending lazy record in ``cpu._lazy``, counting the
        records it and the writers before it elided, as one store per
        writer would have."""
        if self.pending is None:
            return
        if self.writers == 1:
            self.emit("if cpu._lazy is not None:",
                      "    perf.flags_elided += 1")
        else:
            self.emit("perf.flags_elided += %d + (cpu._lazy is not None)"
                      % (self.writers - 1))
        self.emit("cpu._lazy = (%s)" % _LAZY_RECORDS[self.pending])
        self.pending = None
        self.writers = 0

    # -- ops ---------------------------------------------------------
    #
    # Each ``t_*`` template inlines one mnemonic; for an operand shape
    # it does not inline it returns False before emitting anything,
    # and the op becomes a :meth:`handler` call.

    def handler(self, instruction):
        k = self.k
        self.may_raise()
        self.fault_flags.pop(k, None)
        self.store_flags()
        self.bindings += ["h%d = dispatch[instructions[%d].mnemonic]"
                          % (k, k), "i%d = instructions[%d]" % (k, k)]
        self.emit(*self.write_back())
        self.close_segment()
        self.handlers.append(k)
        self.stacked = []
        self.emit("cpu.eip = %d" % self.address,
                  "cpu._next_eip = %d" % self.next_eip,
                  "h%d(i%d)" % (k, k))
        if self.last:
            self.emit("cpu.eip = cpu._next_eip")
        self.segment = len(self.body)
        self.flags = None

    def t_mov(self, instruction):
        src, dst = instruction.operands
        if _r32(dst) and _v32(src):
            self.read(src, self.w(dst.index))
        elif _m32(dst) and (_r32(src) or src.kind == "imm"):
            self.store(self.ea(dst), self.expr(src), self.region(dst))
        else:
            return False
        return True

    def t_lea(self, instruction):
        src, dst = instruction.operands
        if dst.size != 4 or src.kind != "mem":
            return False
        address = self.ea(src)
        self.emit("%s = %s" % (self.w(dst.index), address))
        return True

    def t_push(self, instruction):
        operand = instruction.operands[0]
        if instruction.operand_size == 2 or not (
                _r32(operand) or operand.kind == "imm"):
            return False
        self.push(self.expr(operand))
        return True

    def t_pop(self, instruction):
        operand = instruction.operands[0]
        # pop %esp writes the popped value into the register the ESP
        # update would then clobber: left to the handler's ordering.
        if (instruction.operand_size == 2 or not _r32(operand)
                or operand.index == ESP):
            return False
        self.pop(self.w(operand.index))
        return True

    def t_alu(self, instruction):
        src, dst = instruction.operands
        name = instruction.mnemonic
        writes = name not in ("cmp", "test")
        if not _v32(src) or not (_r32(dst) or (_m32(dst) and not writes)):
            return False
        # The memory operand first: ``fa``/``fb`` hold the pending
        # record until the access that can raise is past.
        if src.kind == "mem":
            self.read(src, "fb")
            self.read(dst, "fa")
        else:
            self.read(dst, "fa")
            self.read(src, "fb")
        if name == "add":
            self.emit("%s = (fa + fb) & 0xFFFFFFFF" % self.w(dst.index))
            self.set_lazy("add", None)
        elif name in ("sub", "cmp"):
            if writes:
                self.emit("%s = (fa - fb) & 0xFFFFFFFF"
                          % self.w(dst.index))
            self.set_lazy("sub", "sub")
        else:
            symbol = "|" if name == "or" else "^" if name == "xor" else "&"
            self.emit("fr = fa %s fb" % symbol)
            if writes:
                self.emit("%s = fr" % self.w(dst.index))
            self.set_lazy("logic", "logic")
        return True

    def t_movzx(self, instruction):
        src, dst = instruction.operands
        if not _r32(dst):
            return False
        if src.kind == "mem" and src.size == 1:
            self.load8(self.ea(src), self.w(dst.index), self.region(src))
        elif src.kind == "mem" and src.size == 2:
            address = self.ea(src)
            self.may_raise()
            self.emit("%s = read16(%s, %d)" % (self.w(dst.index), address,
                                               self.address))
        elif src.kind == "reg" and src.size == 2:
            self.emit("%s = %s & 0xFFFF" % (self.w(dst.index),
                                            self.r(src.index)))
        elif src.kind == "reg" and src.index < 4:
            self.emit("%s = %s & 0xFF" % (self.w(dst.index),
                                          self.r(src.index)))
        elif src.kind == "reg":
            self.emit("%s = (%s >> 8) & 0xFF" % (self.w(dst.index),
                                                 self.r(src.index - 4)))
        else:
            return False
        return True

    def t_movb(self, instruction):
        src, dst = instruction.operands
        if dst.kind == "mem" and src.kind in ("reg", "imm"):
            if src.kind == "imm":
                value = "%d" % (src.value & 0xFF)
            elif src.index < 4:
                value = "%s & 0xFF" % self.r(src.index)
            else:
                value = "(%s >> 8) & 0xFF" % self.r(src.index - 4)
            address = self.ea(dst)
            p = self.region(dst)
            self.may_raise()
            self.stacked = []
            self.emit("x = %s" % address,
                      "if %sb <= x <= %s1:" % (p, p),
                      "    o = x - %sb" % p,
                      "    %sa(o >> %d)" % (p, PAGE_SHIFT),
                      "    %sd[o] = %s" % (p, value),
                      "else:",
                      "    write8(x, %s, %d)" % (value, self.address))
        elif src.kind == "mem" and dst.kind == "reg":
            self.load8(self.ea(src), "t", self.region(src))
            if dst.index < 4:
                self.emit("%s = (%s & 0xFFFFFF00) | t"
                          % (self.w(dst.index), self.r(dst.index)))
            else:
                self.emit("%s = (%s & 0xFFFF00FF) | (t << 8)"
                          % (self.w(dst.index - 4), self.r(dst.index - 4)))
        else:
            return False
        return True

    def t_leave(self, instruction):
        # ESP = EBP stands even when the pop then faults, as in the
        # handler: the fault path stores the segment's written locals.
        self.emit("%s = %s" % (self.w(ESP), self.r(EBP)))
        self.load(self.r(ESP), "t", self.region_named("stack"))
        self.emit("%s = (x + 4) & 0xFFFFFFFF" % self.w(ESP),
                  "%s = t" % self.w(EBP))
        return True

    def t_cdq(self, instruction):
        self.emit("%s = 0xFFFFFFFF if %s & 0x80000000 else 0"
                  % (self.w(EDX), self.r(EAX)))
        return True

    def t_imul2(self, instruction):
        src, dst = instruction.operands
        if not _r32(dst) or not (_r32(src) or _m32(src)):
            return False
        self.mul(src, _signed32(self.r(dst.index)), dst.index)
        return True

    def t_imul(self, instruction):
        if len(instruction.operands) != 3:
            return False
        imm, src, dst = instruction.operands
        if not _r32(dst) or not (_r32(src) or _m32(src)):
            return False
        self.mul(src, "%d" % alu.signed(imm.value, 4), dst.index)
        return True

    def mul(self, src, factor, dst):
        """``dst = src * factor``, signed, with a ``("mul", overflow,
        prev)`` record over the one pending before: the handler keeps
        SZAP from the earlier flag writer.  That record is stored
        first, before any local it lives in can be reused."""
        self.store_flags()
        self.flags = None
        self.emit("t = %s * %s" % (_signed32(self.value(src)), factor),
                  "%s = t & 0xFFFFFFFF" % self.w(dst),
                  "v = cpu._lazy",
                  "if v is not None and v[0] == 'mul':",
                  "    v = v[2]",
                  "    perf.flags_elided += 1",
                  "cpu._lazy = ('mul', not -0x80000000 <= t <= 0x7FFFFFFF,"
                  " v)")

    def t_idiv(self, instruction):
        # EDX:EAX / divisor, truncated toward zero; EFLAGS untouched.
        # EDX and EAX are written only after both raises.
        operand = instruction.operands[0]
        if not (_r32(operand) or _m32(operand)):
            return False
        divisor = self.value(operand)
        self.may_raise()
        self.emit("if not %s:" % divisor,
                  "    raise DivideErrorFault(%d, 'divide by zero')"
                  % self.address,
                  "t = %s" % _signed32(divisor),
                  "n = (%s << 32) | %s" % (_signed32(self.r(EDX)),
                                           self.r(EAX)),
                  "q = abs(n) // abs(t)",
                  "if (n < 0) != (t < 0):",
                  "    q = -q",
                  "if not -0x80000000 <= q <= 0x7FFFFFFF:",
                  "    raise DivideErrorFault(%d, 'quotient overflow')"
                  % self.address,
                  "%s = (n - q * t) & 0xFFFFFFFF" % self.w(EDX),
                  "%s = q & 0xFFFFFFFF" % self.w(EAX))
        return True

    def t_shift(self, instruction):
        count, target = instruction.operands
        if not _r32(target):
            return False
        name = instruction.mnemonic
        if count.kind == "imm":
            if not count.value & 0x1F:
                return False
            self.emit("fa = %s" % self.r(target.index),
                      "fb = %d" % (count.value & 0x1F),
                      "%s = %s" % (self.w(target.index), _SHIFTED[name]))
            self.set_lazy(name, None)
            return True
        # by %cl: a count whose low five bits are 0 changes neither the
        # value nor the flags, so the pending record is stored first
        # and the shift's own record only when it runs
        self.store_flags()
        self.flags = None
        self.emit("fb = %s & 0x1F" % self.r(ECX),
                  "if fb:",
                  "    fa = %s" % self.r(target.index),
                  "    %s = %s" % (self.w(target.index), _SHIFTED[name]),
                  "    if cpu._lazy is not None:",
                  "        perf.flags_elided += 1",
                  "    cpu._lazy = (%s)" % _LAZY_RECORDS[name])
        return True

    def t_nop(self, instruction):
        return True

    def t_jmp(self, instruction):
        if self.last:
            self.emit("cpu.eip = %d" % instruction.operands[0].target)
        return True

    def t_call(self, instruction):
        self.push("%d" % (self.next_eip & _MASK32))
        if self.last:
            self.emit("cpu.eip = %d" % instruction.operands[0].target)
        return True

    def t_ret(self, instruction):
        self.pop("t")
        if instruction.operands:
            self.emit("%s = (%s + %d) & 0xFFFFFFFF"
                      % (self.w(ESP), self.r(ESP),
                         instruction.operands[0].value))
        self.emit("cpu.eip = t")
        return True

    def t_jcc(self, instruction):
        target = instruction.operands[0].target
        fused = _FUSED_CONDITIONS.get(self.flags, {}).get(
            instruction.condition)
        if fused is True or fused is False:
            self.emit("cpu.eip = %d" % (target if fused else self.next_eip))
            return True
        if fused is None:
            self.store_flags()
            fused = "condition_met(%d, cpu.eflags)" % instruction.condition
        self.emit("cpu.eip = %d if %s else %d"
                  % (target, fused, self.next_eip))
        return True


_TEMPLATES = {
    "mov": _BlockSource.t_mov, "lea": _BlockSource.t_lea,
    "push": _BlockSource.t_push, "pop": _BlockSource.t_pop,
    "movzxb": _BlockSource.t_movzx, "movzxw": _BlockSource.t_movzx,
    "movb": _BlockSource.t_movb, "leave": _BlockSource.t_leave,
    "cdq": _BlockSource.t_cdq,
    "imul2": _BlockSource.t_imul2, "imul": _BlockSource.t_imul,
    "idiv": _BlockSource.t_idiv,
    "shl": _BlockSource.t_shift, "shr": _BlockSource.t_shift,
    "sar": _BlockSource.t_shift,
    "nop": _BlockSource.t_nop, "jmp": _BlockSource.t_jmp,
    "call": _BlockSource.t_call, "ret": _BlockSource.t_ret,
}
for _name in ("add", "sub", "and", "or", "xor", "cmp", "test"):
    _TEMPLATES[_name] = _BlockSource.t_alu
for _suffix in _JCC_SUFFIXES:
    _TEMPLATES["j" + _suffix] = _BlockSource.t_jcc
del _name, _suffix
