"""Differential testing: the block engine must be architecturally
indistinguishable from the reference interpreter.

The fast engine (cold and compiled basic blocks + lazy EFLAGS) and the
reference path (``slow_step``: decode-and-dispatch with eager flags)
are run over the same inputs and must agree on *everything* an
experiment can observe: registers, EIP, the full EFLAGS word,
``instret``, memory contents, exit/fault kind and fault detail.  Any
divergence here would silently corrupt campaign tallies, so this test
is the executable contract for the whole optimisation.

Stop sets and observers are inputs too: every subset of a forensic
ring, a sampler and a ``coverage`` trace must leave the run unchanged,
the ring and the trace must hold exactly the retired instructions
(plus the faulting one), and the sampler exactly every
``SAMPLE_PERIOD``-th retired one.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.cc import compile_program
from repro.emu import CPU, Memory, Process
from repro.emu.cpu import _BLOCK_EXCLUDED, _BlockSource
from repro.emu.liveness import AccessLog
from repro.kernel import Kernel, ScriptedClient
from repro.obs import RingBuffer, Sampler
from repro.obs.forensics import flatten_ring
from repro.x86.flags import FLAGS_USER_MASK

SAMPLE_PERIOD = 3

#: every subset of the observers the block loop feeds
OBSERVER_SETS = tuple(
    subset for size in range(4)
    for subset in combinations(("ring", "sampler", "coverage"), size))

OBSERVERS = st.sampled_from(OBSERVER_SETS)

#: stop addresses over the blob's span (most are not instruction
#: starts; the ones that are end the run early)
STOPS = st.frozensets(st.integers(0x1000, 0x1030), max_size=3)


class NullClient(ScriptedClient):
    def receive(self, data):
        pass

    def input_needed(self):
        self.close()


def _reference_loop(cpu, instruction):
    """A ``trace_hook`` that does nothing: attached, it routes
    ``CPU.run`` to the reference loop."""


def _machine(blob, data_size=4096):
    memory = Memory()
    memory.map_region("text", 0x1000, bytes(blob) + b"\xF4" * 16,
                      writable=False)
    memory.map_region("data", 0x2000, data_size)
    memory.map_region("stack", 0x8000, 4096)
    cpu = CPU(memory, Kernel.for_client(NullClient()))
    cpu.eip = 0x1000
    cpu.regs[:] = [0x2100, 0x2200, 0x2300, 0x2400,
                   0x8800, 0x8800, 0x2500, 0x2600]
    return cpu, memory


def _fingerprint(cpu, memory, outcome):
    kind, detail = outcome
    if kind == "crash":
        # identical fault class and message (includes the faulting
        # EIP / access address)
        detail = (type(detail).__name__, str(detail))
    return {
        "outcome": (kind, detail),
        "regs": tuple(cpu.regs),
        "eip": cpu.eip,
        "eflags": cpu.eflags & FLAGS_USER_MASK,
        "instret": cpu.instret,
        "halted": cpu.halted,
        "memory": tuple(bytes(region.data)
                        for region in memory.regions),
    }


class _Trace(list):
    """An instruction trace ``cpu.coverage`` takes (``add`` appends)."""

    add = list.append


def _attach(cpu, observers):
    """Attach the named observers to the fast engine."""
    if "ring" in observers:
        cpu.forensic_ring = RingBuffer()
    if "sampler" in observers:
        cpu.sampler = Sampler(SAMPLE_PERIOD)
    if "coverage" in observers:
        cpu.coverage = _Trace()


def _compiled_blocks(cpu):
    """The start addresses of the blocks whose plain callable or
    observed variant is generated code."""
    return {address for address, block in cpu.blocks.items()
            if any(run is not None
                   and run.__code__.co_filename.startswith("<block")
                   for run in (block[0], block[5]))}


def _observed(cpu, limit):
    """What the attached observers saw."""
    seen = {}
    if cpu.forensic_ring is not None:
        seen["ring"] = flatten_ring(cpu.forensic_ring, last_n=limit)
    if cpu.sampler is not None:
        seen["sampler"] = Counter(cpu.sampler.samples)
    if cpu.coverage is not None:
        seen["coverage"] = list(cpu.coverage)
    return seen


def _expected(retired, outcome, eip, observers):
    """What the observers must see, given the reference loop's retired
    EIPs: a ring and a trace end at the instruction that raised."""
    seen = {}
    raised = outcome[0] in ("crash", "raised")
    for name in ("ring", "coverage"):
        if name in observers:
            seen[name] = retired + [eip] if raised else retired
    if "sampler" in observers:
        seen["sampler"] = Counter(
            retired[SAMPLE_PERIOD - 1::SAMPLE_PERIOD])
    return seen


def _run_engine(blob, fast, budget=300, stop=frozenset(),
                observers=()):
    """Fingerprint of one run, plus the fast engine's observers or
    the reference loop's retired EIPs."""
    cpu, memory = _machine(blob)
    retired = []
    if fast:
        cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
        _attach(cpu, observers)
    else:
        # a trace hook forces the reference stepwise loop
        cpu.trace_hook = lambda cpu, instruction: retired.append(
            instruction.address)
    try:
        outcome = cpu.run(budget, stop)
    except Exception as exc:      # non-architectural escape (hangs...)
        outcome = ("raised", type(exc).__name__)
    seen = _observed(cpu, budget + 1) if fast else retired
    return _fingerprint(cpu, memory, outcome), seen


def _assert_equivalent(blob, budget=300, stop=frozenset(),
                       observers=()):
    fast, seen = _run_engine(blob, True, budget, stop, observers)
    slow, retired = _run_engine(blob, False, budget, stop)
    assert fast == slow
    assert seen == _expected(retired, slow["outcome"], slow["eip"],
                             observers)


@settings(max_examples=150, deadline=None)
@given(blob=st.binary(min_size=1, max_size=32), stop=STOPS,
       observers=OBSERVERS)
def test_random_byte_soup_equivalent(blob, stop, observers):
    """Arbitrary (mostly-faulting) byte streams retire the same state
    down both paths."""
    _assert_equivalent(blob, stop=stop, observers=observers)


#: common compiler output: movs, stack ops, ALU, branches
COMPILER_LIKE = st.lists(st.sampled_from([
    b"\x89\xd8",              # mov %ebx, %eax
    b"\xb8\x05\x00\x00\x00",  # mov $5, %eax
    b"\x50", b"\x53", b"\x58", b"\x5b",      # push/pop eax/ebx
    b"\x01\xd8",              # add %ebx, %eax
    b"\x29\xd8",              # sub %ebx, %eax
    b"\x21\xd8", b"\x31\xd8",  # and/xor
    b"\x39\xd8",              # cmp %ebx, %eax
    b"\x40", b"\x48", b"\x43",  # inc/dec eax, inc ebx
    b"\x74\x02", b"\x75\x02",  # je/jne +2
    b"\x7c\x01", b"\x7f\x01",  # jl/jg +1
    b"\xeb\x00",              # jmp +0
    b"\x8b\x03",              # mov (%ebx), %eax
    b"\x89\x03",              # mov %eax, (%ebx)  (text: faults)
    b"\x0f\xb6\xc3",          # movzx %bl, %eax
    b"\x0f\xaf\xc3",          # imul %ebx, %eax
    b"\x0f\xaf\x03",          # imul (%ebx), %eax
    b"\x6b\xc3\xf9",          # imul $-7, %ebx, %eax
    b"\x69\xc3\x00\x00\x04\x00",  # imul $0x40000, %ebx, %eax
    b"\x6b\x03\x05",          # imul $5, (%ebx), %eax
    b"\xf7\xf9", b"\xf7\x3b",  # idiv %ecx; idiv (%ebx)
    b"\xd1\xe0", b"\xd1\xe8", b"\xd1\xf8",  # shl/shr/sar $1, %eax
    b"\xc1\xe0\x1f", b"\xc1\xe8\x1f", b"\xc1\xf8\x1f",  # ... $31
    b"\xc1\xe0\x20", b"\xc1\xe8\x20", b"\xc1\xf8\x20",  # ... $32 (no-op)
    b"\xd3\xe0", b"\xd3\xe8", b"\xd3\xf8",  # ... %cl (%ecx starts 0x2300)
    b"\xb1\x05", b"\xb1\x20",  # movb $5, %cl; movb $32, %cl
    b"\x70\x01", b"\x72\x01",  # jo/jb +1
    b"\x78\x01", b"\x7a\x01",  # js/jp +1
    b"\x9c",                  # pushf
    b"\x90",                  # nop
    b"\xcd\x80",              # int 0x80
    b"\x0f\x31",              # rdtsc (reads instret)
    # direct transfers a superblock continues through
    b"\xe9\x02\x00\x00\x00",  # jmp +2 (rel32, forward)
    b"\xe9\xf0\xff\xff\xff",  # jmp -16 (rel32, backward)
    b"\xe8\x01\x00\x00\x00",  # call +1 (rel32, forward)
    b"\xe8\xf2\xff\xff\xff",  # call -14 (rel32, backward)
    b"\x88\x03", b"\x8a\x23",  # movb %al, (%ebx); movb (%ebx), %ah
    b"\xc9", b"\x99",          # leave; cdq
]), min_size=1, max_size=24)


@settings(max_examples=80, deadline=None)
@given(ops=COMPILER_LIKE, stop=STOPS, observers=OBSERVERS)
def test_compiler_like_streams_equivalent(ops, stop, observers):
    """Streams built from the mnemonics with inline templates in
    compiled blocks (and a few without) stay equivalent, including
    superblocks through ``jmp``/``call`` and ``int``/``rdtsc``, which
    observe ``instret`` and run as one-instruction blocks."""
    _assert_equivalent(b"".join(ops), stop=stop, observers=observers)


@settings(max_examples=40, deadline=None)
@given(blob=st.binary(min_size=4, max_size=16),
       flip=st.integers(0, 127), stop=STOPS, observers=OBSERVERS)
def test_flipped_streams_equivalent(blob, flip, stop, observers):
    """Single-bit corruptions of a stream (the study's fault model)
    keep both engines in lockstep."""
    corrupted = bytearray(blob)
    corrupted[(flip // 8) % len(blob)] ^= 1 << (flip % 8)
    _assert_equivalent(bytes(corrupted), stop=stop, observers=observers)


_C_PROGRAMS = [
    # tight ALU/branch loop
    r"""
    int main() {
        int i; int total;
        total = 0;
        i = 0;
        while (i < 200) {
            if (i & 1) { total = total + i; }
            else { total = total - 1; }
            i = i + 1;
        }
        return total & 0x7F;
    }
    """,
    # memory traffic and calls
    r"""
    int sum(char *s) {
        int i; int acc;
        acc = 0;
        i = 0;
        while (s[i]) { acc = acc + s[i]; i = i + 1; }
        return acc;
    }
    int main() {
        char *digest;
        digest = crypt13("differential", "dt");
        return sum(digest) & 0x7F;
    }
    """,
]


def test_compiled_programs_equivalent():
    """Full compiled programs exit with identical state down both
    engines (the benchmark's own workload shape), with every observer
    combination on the fast one.  Observed runs take the blocks the
    plain run compiles to a compiled tier, plain or observed, and
    compile no more plain blocks: a block's observed variant calls the
    block it compiled, not its first, cold callable."""
    for source in _C_PROGRAMS:
        program = compile_program(source)

        slow = Process(program.module, Kernel())
        retired = []
        # a trace hook forces the reference loop
        slow.cpu.trace_hook = lambda cpu, instruction: retired.append(
            instruction.address)
        slow_status = slow.run(2_000_000)

        for observers in OBSERVER_SETS:
            fast = Process(program.module, Kernel())
            _attach(fast.cpu, observers)
            fast_status = fast.run(2_000_000)

            assert fast_status.kind == slow_status.kind == "exit"
            assert fast_status.exit_code == slow_status.exit_code
            assert fast_status.instret == slow_status.instret
            assert fast.cpu.regs == slow.cpu.regs
            assert fast.cpu.eip == slow.cpu.eip
            assert (fast.cpu.eflags & FLAGS_USER_MASK
                    == slow.cpu.eflags & FLAGS_USER_MASK)
            for fast_region, slow_region in zip(
                    fast.cpu.memory.regions, slow.cpu.memory.regions):
                assert bytes(fast_region.data) == bytes(slow_region.data)
            assert _observed(fast.cpu, len(retired)) == _expected(
                retired, ("exit", 0), fast.cpu.eip, observers)
            compiled = fast.cpu.perf.blocks_compiled
            if not observers:
                plain_compiled = compiled
                plain_blocks = _compiled_blocks(fast.cpu)
            assert compiled <= plain_compiled > 0
            assert _compiled_blocks(fast.cpu) == plain_blocks


def test_observers_attached_mid_run():
    """Observers attached between runs see exactly what the later runs
    retire: the blocks a plain run built get observed variants, and
    the variants made for one set of observers are remade when the
    set changes."""
    program = compile_program(_C_PROGRAMS[0])
    slow = Process(program.module, Kernel())
    retired = []
    slow.cpu.trace_hook = lambda cpu, instruction: retired.append(
        instruction.address)
    slow.run(2_000_000)
    every = OBSERVER_SETS[-1]
    for observers in OBSERVER_SETS[1:]:
        fast = Process(program.module, Kernel())
        cpu = fast.cpu
        for start, end, attached in ((0, 1_000, ()),
                                     (1_000, 2_000, observers),
                                     (2_000, 3_000, ()),
                                     (3_000, 4_000, observers),
                                     (4_000, len(retired), every)):
            cpu.forensic_ring = cpu.sampler = cpu.coverage = None
            if start == 2_000:
                cpu.invalidate_cache()  # new blocks, built unobserved
            _attach(cpu, attached)
            outcome = fast.run(end if end < len(retired) else 2_000_000)
            assert cpu.instret == end
            assert _observed(cpu, end - start) == _expected(
                retired[start:end], ("limit", None), None, attached)
        assert outcome.kind == "exit"


# -- the golden recorder's variant: trace and access log ---------------


def _first_accesses(log):
    """Each byte the log saw -> whether its first access reads it:
    what the byte's live mask before the run follows from (a read
    makes it live, a write dead).  A push forwarded to its pop in a
    compiled block skips the pop's read, which comes after the push's
    write and so changes nothing here."""
    first = {}
    for address, span in zip(log.starts, log.spans):
        for byte in range(address, address + abs(span)):
            first.setdefault(byte, span > 0)
    return first


def _logged_run(cpu, memory, fast, run):
    """*run()* with the instruction trace and an access log attached,
    on the block tier or the reference loop: its outcome, the trace
    and the first access to each byte."""
    if not fast:
        cpu.trace_hook = _reference_loop
    cpu.coverage = trace = _Trace()
    log = AccessLog(memory)
    try:
        outcome = run()
    except Exception as exc:      # non-architectural escape (hangs...)
        outcome = ("raised", type(exc).__name__)
    finally:
        log.detach()
    return outcome, list(trace), _first_accesses(log)


@settings(max_examples=80, deadline=None)
@given(ops=COMPILER_LIKE)
def test_logged_traced_streams_equivalent(ops):
    """The golden recorder's configuration: the block tier extends the
    trace a block at a time (cut at a fault) and, with the access log
    attached, makes blocks that load and store through the logged
    memory methods; trace, first accesses and state match the
    reference loop, which adds and logs one instruction at a time."""
    blob = b"".join(ops)
    runs = []
    for fast in (True, False):
        cpu, memory = _machine(blob)
        if fast:
            cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
        outcome, trace, first = _logged_run(cpu, memory, fast,
                                            lambda: cpu.run(300))
        runs.append((_fingerprint(cpu, memory, outcome), trace, first))
    assert runs[0] == runs[1]


def test_logged_traced_tiers_equivalent(monkeypatch):
    """The same with every block compiled on its first entry, over the
    streams above, the push/pop forwarding cases and whole compiled
    programs."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    test_logged_traced_streams_equivalent()
    for blob in _PUSH_POP:
        runs = []
        for fast in (True, False):
            cpu, memory = _machine(blob)
            if fast:
                cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
            outcome, trace, first = _logged_run(cpu, memory, fast,
                                                lambda: cpu.run(300))
            runs.append((_fingerprint(cpu, memory, outcome), trace,
                         first))
        assert runs[0] == runs[1], blob.hex()
    for source in _C_PROGRAMS:
        module = compile_program(source).module
        runs = []
        compiled = []
        for fast in (True, False):
            process = Process(module, Kernel())
            outcome, trace, first = _logged_run(
                process.cpu, process.memory, fast,
                lambda: process.run(2_000_000))
            runs.append((outcome, process.cpu.regs, trace, first))
            compiled.append(process.cpu.perf.blocks_compiled)
        assert runs[0] == runs[1]
        assert runs[0][0].kind == "exit" and runs[0][3]
        assert compiled[0] > 0 == compiled[1]


# -- the compiled tier -------------------------------------------------


def test_compiled_tier_equivalent(monkeypatch):
    """The compiled tier on its own: with the threshold at 1 every
    block, and every observed variant but a trace-only one, compiles
    on its first entry, so every generator and program above runs
    generated code where it would otherwise interpret."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    test_random_byte_soup_equivalent()
    test_compiler_like_streams_equivalent()
    test_flipped_streams_equivalent()
    test_compiled_programs_equivalent()
    fast = Process(compile_program(_C_PROGRAMS[0]).module, Kernel())
    fast.run(2_000_000)
    # every block compiles except the one-instruction ``int 0x80``
    # blocks, which never do
    lone = [block for block in fast.cpu.blocks.values()
            if block[4][0].mnemonic in _BLOCK_EXCLUDED]
    assert lone and all(len(block[3]) == 1 for block in lone)
    assert (fast.cpu.perf.blocks_compiled
            == len(fast.cpu.blocks) - len(lone) > 0)


def _compiled_vs_reference(blob, setup=None, budget=300, data_size=4096):
    """Fingerprints (with dirty pages and the full EFLAGS word) of
    *blob* on the compiled tier and on the reference loop, plus the
    compiled run's CPU."""
    runs = []
    for fast in (True, False):
        cpu, memory = _machine(blob, data_size)
        if setup is not None:
            setup(cpu)
        if fast:
            cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
        else:
            cpu.trace_hook = _reference_loop
        memory.clear_dirty()
        outcome = cpu.run(budget)
        forced = cpu.perf.flags_forced
        fingerprint = _fingerprint(cpu, memory, outcome)
        fingerprint["dirty"] = memory.dirty_pages()
        fingerprint["eflags_word"] = cpu.eflags
        runs.append((fingerprint, cpu, forced))
    return runs


def test_page_fault_mid_compiled_block(monkeypatch):
    """A load from unmapped memory as the third op of a compiled
    block: the fault, its EIP, the two retired ops, their registers,
    the pushed word and its dirty page all match the reference."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    blob = (b"\x50"                      # push %eax
            b"\xb9\x07\x00\x00\x00"      # mov $7, %ecx
            b"\x8b\x1a"                  # mov (%edx), %ebx: unmapped
            b"\x90\xeb\xf6")             # nop; jmp back

    def setup(cpu):
        cpu.regs[2] = 0x5000

    (fast, cpu, __), (slow, ___, ____) = _compiled_vs_reference(blob, setup)
    assert fast == slow
    assert cpu.perf.blocks_compiled == 1
    kind, (fault, detail) = fast["outcome"]
    assert kind == "crash" and fault == "PageFault"
    assert fast["eip"] == 0x1006 and fast["instret"] == 2
    assert fast["dirty"] == {"stack": [0]}


def test_store_to_text_from_compiled_block(monkeypatch):
    """A store into read-only text faults at the storing op's own
    address and leaves the text and the earlier op's result as the
    reference does."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    blob = (b"\x83\xc0\x01"              # add $1, %eax
            b"\x89\x03"                  # mov %eax, (%ebx): text
            b"\xeb\xf9")                 # jmp back

    def setup(cpu):
        cpu.regs[3] = 0x1000

    (fast, cpu, __), (slow, ___, ____) = _compiled_vs_reference(blob, setup)
    assert fast == slow
    assert cpu.perf.blocks_compiled == 1
    assert fast["outcome"][0] == "crash"
    assert fast["eip"] == 0x1003 and fast["instret"] == 1
    assert fast["regs"][0] == 0x2101 and fast["dirty"] == {}


_FLAG_WRITERS = {"cmp": b"\x39\xd8", "sub": b"\x29\xd8",
                 "test": b"\x85\xd8", "and": b"\x21\xd8",
                 "or": b"\x09\xd8", "xor": b"\x31\xd8"}
_OPERAND_PAIRS = [(0, 0), (1, 2), (2, 1), (0x80000000, 1),
                  (1, 0x80000000), (0x7FFFFFFF, 0xFFFFFFFF),
                  (0xFFFFFFFF, 0xFFFFFFFF), (0x80, 0x7F)]


def test_flag_writer_jcc_fusion(monkeypatch):
    """Every Jcc right after each fusable flag writer, over operand
    pairs at the signed and unsigned edges: the branch and the EFLAGS
    word at block exit match the reference, and a fused condition
    never materialises the flags."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    for name, writer in _FLAG_WRITERS.items():
        for condition in range(16):
            # writer; j<cc> +1; nop -- taken and fall-through differ
            blob = writer + bytes((0x70 | condition, 0x01)) + b"\x90"
            for a, b in _OPERAND_PAIRS:
                def setup(cpu, a=a, b=b):
                    cpu.regs[0], cpu.regs[3] = a, b

                (fast, cpu, forced), (slow, __, ___) = \
                    _compiled_vs_reference(blob, setup, budget=2)
                assert fast == slow, (name, condition, a, b)
                assert cpu.perf.blocks_compiled == 1
                reads_flags = condition in (10, 11) or (
                    name in ("cmp", "sub") and condition in (0, 1))
                assert forced == (1 if reads_flags else 0), \
                    (name, condition)


#: (op, [(eax, ecx, edx, word at (%esi)), ...]) at the edges of the
#: imul, idiv and shift templates
_EDGE_OPS = [
    (b"\x0f\xaf\xc1",                # imul %ecx, %eax
     [(0x10000, 0x8000, 0, 0),       # 2**31: overflows signed
      (0xFFFF8000, 0x10000, 0, 0),   # -2**31: fits
      (0x7FFFFFFF, 1, 0, 0), (0x80000000, 0xFFFFFFFF, 0, 0),
      (0xFFFFFFFF, 0xFFFFFFFF, 0, 0), (0x10000, 0x10000, 0, 0)]),
    (b"\x0f\xaf\x06",                # imul (%esi), %eax
     [(0x10000, 0, 0, 0x8000), (0xFFFF8000, 0, 0, 0x10000)]),
    (b"\x69\xc1\x00\x80\x00\x00",    # imul $0x8000, %ecx, %eax
     [(0, 0x10000, 0, 0), (0, 0xFFFF0000, 0, 0), (0, 0xFFFEFFFF, 0, 0)]),
    (b"\x6b\xc1\xff",                # imul $-1, %ecx, %eax
     [(0, 0x80000000, 0, 0), (0, 0x80000001, 0, 0)]),
    (b"\x0f\xaf\xc1\x0f\xaf\xc1",    # imul %ecx, %eax; twice
     [(0x10000, 0x8000, 0, 0), (3, 0x40000000, 0, 0)]),
    (b"\xf7\xf9",                    # idiv %ecx
     [(5, 0, 0, 0),                  # divide by zero
      (0x80000000, 0xFFFFFFFF, 0xFFFFFFFF, 0),  # -2**31 / -1
      (0x80000000, 1, 0xFFFFFFFF, 0),  # -2**31 / 1: fits
      (0x7FFFFFFF, 1, 0, 0), (0x80000000, 1, 0, 0),
      (0xFFFFFFF9, 2, 0xFFFFFFFF, 0),  # -7 / 2
      # |EDX:EAX| > 2**53, where a float quotient is one off
      (0x50D9606F, 0xA6DEF2D4, 0x04DE1A6A, 0),
      (0xAF269F91, 0x59210D2C, 0xFB21E595, 0)]),
    (b"\xf7\x3e",                    # idiv (%esi)
     [(100, 0, 0, 7), (100, 0, 0, 0), (0x80000000, 0, 0xFFFFFFFF,
                                       0xFFFFFFFF)]),
]
for _op in (b"\xd3\xe0", b"\xd3\xe8", b"\xd3\xf8"):  # shl/shr/sar %cl
    _EDGE_OPS.append((_op, [(value, count, 0, 0)
                            for value in (0x80000001, 0x40000000, 1)
                            for count in (0, 32, 1, 31, 33, 0x120)]))
for _op in (b"\xd1\xe0", b"\xd1\xe8", b"\xd1\xf8",   # ... $1
            b"\xc1\xe0\x1f", b"\xc1\xe8\x1f", b"\xc1\xf8\x1f",  # ... $31
            b"\xc1\xe0\x20"):                          # ... $32
    _EDGE_OPS.append((_op, [(value, 0, 0, 0)
                            for value in (0x80000001, 0x40000000, 1)]))
del _op

#: flag readers after the op, each ending a block: a jl (in the op's
#: block, fused with the cmp before a flag-neutral op), jo, jb, js,
#: jp, then pushf
_EDGE_READERS = (b"\x7c\x01\x90\x70\x01\x90\x72\x01\x90\x78\x01\x90"
                 b"\x7a\x01\x90\x9c")


def test_mul_div_shift_edges(monkeypatch):
    """The imul, idiv and shift templates at their edges -- products
    at +-2**31, a zero divisor, -2**31 / -1, dividends past 2**53, %cl
    counts of 0 and 32 -- with and without a pending flag record before
    them (a cmp's, which a mul record must wrap and a zero-count shift
    must keep), then every flag reader: the state, the full EFLAGS
    word and the pushed flags match the reference, and none of these
    ops is a handler call but the masked ``shl $32``."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    for op, cases in _EDGE_OPS:
        handlers = ["shl"] if op == b"\xc1\xe0\x20" else []
        for prefix in (b"", b"\x39\xde"):          # cmp %ebx, %esi
            blob = prefix + op + _EDGE_READERS
            assert _handler_ops(blob) == handlers, blob.hex()
            for eax, ecx, edx, word in cases:
                def setup(cpu, eax=eax, ecx=ecx, edx=edx, word=word):
                    cpu.regs[0], cpu.regs[1], cpu.regs[2] = eax, ecx, edx
                    cpu.memory.write32(cpu.regs[6], word)

                (fast, cpu, __), (slow, ___, ____) = \
                    _compiled_vs_reference(blob, setup)
                assert fast == slow, (blob.hex(), eax, ecx, edx, word)
                assert cpu.perf.blocks_compiled >= 1


def test_reentry_after_regs_rebound(monkeypatch):
    """A snapshot restore rebinds ``cpu.regs``; a compiled block
    entered afterwards must use the new list, never the one it first
    ran with."""
    from types import SimpleNamespace

    from repro.injection.snapshot import MachineSnapshot

    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    blob = (b"\x83\xc0\x01"              # add $1, %eax
            b"\x50\x59"                  # push %eax; pop %ecx
            b"\xeb\xf9")                 # jmp back
    results = []
    for fast in (True, False):
        cpu, memory = _machine(blob)
        if fast:
            cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
        else:
            cpu.trace_hook = _reference_loop
        cpu.run(8)
        snapshot = MachineSnapshot.capture(
            SimpleNamespace(memory=memory, cpu=cpu), None)
        cpu.run(20)
        stale = cpu.regs
        snapshot.restore_cpu(cpu)
        assert cpu.regs is not stale
        left = list(stale)
        cpu.run(cpu.instret + 12)
        assert stale == left            # the dead list is never written
        results.append(_fingerprint(cpu, memory, ("limit", None)))
        if fast:
            assert cpu.perf.blocks_compiled == 1
    assert results[0] == results[1]
    assert results[0]["regs"][0] == 0x2100 + 2 + 3


# -- superblocks, register locals, bound regions, lone blocks ----------


def test_fault_in_second_range_of_superblock(monkeypatch):
    """A superblock continues through a ``jmp``; a load fault in its
    second byte range reports that op's EIP and retires exactly the
    ops before it, across the range boundary."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    blob = (b"\xb9\x07\x00\x00\x00"      # 0x1000 mov $7, %ecx
            b"\xe9\x03\x00\x00\x00"      # 0x1005 jmp 0x100d
            b"\x90\x90\x90"                # 0x100a (jumped over)
            b"\x50"                        # 0x100d push %eax
            b"\x8b\x1a"                    # 0x100e mov (%edx), %ebx
            b"\xeb\xee")                   # 0x1010 jmp 0x1000

    def setup(cpu):
        cpu.regs[2] = 0x5000                # unmapped

    (fast, cpu, __), (slow, ___, ____) = _compiled_vs_reference(blob, setup)
    assert fast == slow
    assert cpu.blocks[0x1000][2] == ((0x1000, 0x100A), (0x100D, 0x1012))
    assert cpu.perf.blocks_compiled == 1
    assert fast["outcome"][0] == "crash"
    assert fast["eip"] == 0x100E and fast["instret"] == 3
    assert fast["regs"][1] == 7 and fast["dirty"] == {"stack": [0]}


#: mov $1,%eax; jmp 0x100c; (2 bytes skipped); mov $2,%ebx; jmp 0x1000
LOOP2 = (b"\xb8\x01\x00\x00\x00"
         b"\xe9\x02\x00\x00\x00"
         b"\x90\x90"
         b"\xbb\x02\x00\x00\x00"
         b"\xe9\xea\xff\xff\xff")


def test_poke_in_later_range_evicts_superblock(monkeypatch):
    """A poke into a superblock's second range evicts the block
    through ``invalidate_cache``; with a decode log the pristine
    block's code stays cached, and ``evict_suspect_decodes`` drops
    the block (and code) built while the poked byte was in place."""
    from repro.emu import cpu as cpu_module
    monkeypatch.setattr(cpu_module, "_CODE_CACHE", {})
    for logged in (True, False):
        cpu, memory = _machine(LOOP2)
        cpu.cacheable = (0x1000, 0x1000 + len(LOOP2))
        cpu.decode_log = [] if logged else None
        cpu.run(12)
        block = cpu.blocks[0x1000]
        assert block[2] == ((0x1000, 0x100A), (0x100C, 0x1016))
        assert cpu.perf.blocks_compiled == 1 and cpu.regs[3] == 2
        clean = cpu_module._code_key(block)
        if logged:
            del cpu.decode_log[:]
        memory.poke(0x100D, 0x7F)             # mov $0x7f, %ebx
        cpu.invalidate_cache(0x100D)
        assert 0x1000 not in cpu.blocks
        assert (clean in cpu_module._CODE_CACHE) == logged
        cpu.eip = 0x1000
        cpu.run(cpu.instret + 12)
        assert cpu.regs[3] == 0x7F
        corrupted = cpu_module._code_key(cpu.blocks[0x1000])
        assert corrupted in cpu_module._CODE_CACHE
        memory.poke(0x100D, 0x02)
        cpu.evict_suspect_decodes({0x100D})
        assert 0x1000 not in cpu.blocks
        assert corrupted not in cpu_module._CODE_CACHE
        cpu.eip = 0x1000
        cpu.run(cpu.instret + 12)
        assert cpu.regs[3] == 2


def test_stop_in_later_range(monkeypatch):
    """A stop address in a superblock's second range stops the run
    there, with every observer, cold and compiled."""
    for threshold in (1, 2):
        monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", threshold)
        for observers in OBSERVER_SETS:
            for budget in (2, 12, 40):
                _assert_equivalent(LOOP2, budget=budget,
                                   stop=frozenset({0x100C}),
                                   observers=observers)
        fast, __ = _run_engine(LOOP2, True, 40, frozenset({0x100C}))
        assert fast["outcome"] == ("stop", None)
        assert fast["eip"] == 0x100C and fast["instret"] == 2


def _handler_ops(blob):
    """The mnemonics of the ops of *blob* that the compiled block at
    its start leaves to a ``h<k>(i<k>)`` handler call (the ``hlt``
    padding after the blob is one too)."""
    cpu, __ = _machine(blob)
    cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
    instructions = cpu._block_at(0x1000)[4]
    source = _BlockSource(instructions).source()
    return [instruction.mnemonic
            for k, instruction in enumerate(instructions)
            if "h%d(i%d)" % (k, k) in source
            and instruction.address < 0x1000 + len(blob)]


#: (stream, the ops in it that stay handler calls)
_HANDLER_FAULTS = [
    # bswap and neg (handler calls) between inline writes, then an
    # inline load faults
    (b"\xb8\x05\x00\x00\x00"         # mov $5, %eax
     b"\xb9\x03\x00\x00\x00"         # mov $3, %ecx
     b"\x0f\xc8"                     # bswap %eax
     b"\x83\xc1\x01"                 # add $1, %ecx
     b"\x99"                         # cdq
     b"\xf7\xd9"                     # neg %ecx
     b"\xbe\x09\x00\x00\x00"         # mov $9, %esi
     b"\x8b\x1a", ["bswap", "neg"]),  # mov (%edx), %ebx: unmapped
    # the handler itself faults after inline writes
    (b"\xbe\x09\x00\x00\x00"         # mov $9, %esi
     b"\x31\xc9"                     # xor %ecx, %ecx
     b"\xf7\xf1"                     # div %ecx: divide error
     b"\x90", ["div"]),
    # leave commits ESP = EBP before its pop faults
    (b"\xbd\x00\x50\x00\x00"         # mov $0x5000, %ebp
     b"\x83\xc0\x01"                 # add $1, %eax
     b"\xc9"                         # leave: pop from unmapped
     b"\x90", []),
    # the last flag writer's lazy record is stored on the fault path
    (b"\x29\xd8"                     # sub %ebx, %eax: CF, SF
     b"\x31\xc9"                     # xor %ecx, %ecx: ZF, PF
     b"\x8b\x1a", []),               # mov (%edx), %ebx: unmapped
    # movb stores through the bound region, then to unmapped memory
    (b"\x88\x03"                     # movb %al, (%ebx)
     b"\x88\x67\x01"                 # movb %ah, 1(%edi)
     b"\x8a\x23"                     # movb (%ebx), %ah
     b"\x88\x02"                     # movb %al, (%edx): unmapped
     b"\x90", []),
]

#: the same shapes through the imul and idiv templates
_TEMPLATE_FAULTS = [
    # imul and idiv between inline writes, then an inline load faults
    b"\xb8\x05\x00\x00\x00"          # mov $5, %eax
    b"\xb9\x03\x00\x00\x00"          # mov $3, %ecx
    b"\x0f\xaf\xc1"                  # imul %ecx, %eax
    b"\x83\xc1\x01"                  # add $1, %ecx
    b"\x99"                          # cdq
    b"\xf7\xf9"                      # idiv %ecx
    b"\xbe\x09\x00\x00\x00"          # mov $9, %esi
    b"\x8b\x1a",                     # mov (%edx), %ebx: unmapped
    # the template raises its divide error after inline writes
    b"\xbe\x09\x00\x00\x00"          # mov $9, %esi
    b"\x31\xc9"                      # xor %ecx, %ecx
    b"\xf7\xf9"                      # idiv %ecx: divide error
    b"\x90",
    # a shift's pending record is stored on the fault path
    b"\x29\xd8"                      # sub %ebx, %eax
    b"\xc1\xe0\x03"                  # shl $3, %eax
    b"\x8b\x1a",                     # mov (%edx), %ebx: unmapped
]


def test_handler_ops_between_inline_writes_then_fault(monkeypatch):
    """Register locals and the pending lazy-EFLAGS record are stored
    back around handler calls and on the fault path: after handler
    ops, and when a handler (or the ``leave`` template) faults
    part-way, registers, EFLAGS, memory and the fault match the
    reference."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)

    def setup(cpu):
        cpu.regs[2] = 0x5000                # unmapped

    for blob, handlers in _HANDLER_FAULTS:
        assert _handler_ops(blob) == handlers, blob.hex()
        (fast, cpu, __), (slow, ___, ____) = _compiled_vs_reference(
            blob, setup)
        assert fast == slow, blob.hex()
        assert fast["outcome"][0] == "crash"
        assert cpu.perf.blocks_compiled == 1
    # the movb case: %ah (0x21) stored at 0x2601, then reloaded from
    # the zero byte %al left at 0x2400
    assert fast["memory"][1][0x601] == 0x21 and fast["regs"][0] == 0


def test_templates_between_inline_writes_then_fault(monkeypatch):
    """The same through the imul, idiv and shift templates, which leave
    nothing to a handler: a later inline fault, the template's own
    divide error and a pending shift record all match the
    reference."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)

    def setup(cpu):
        cpu.regs[2] = 0x5000                # unmapped

    for blob in _TEMPLATE_FAULTS:
        assert _handler_ops(blob) == [], blob.hex()
        (fast, cpu, __), (slow, ___, ____) = _compiled_vs_reference(
            blob, setup)
        assert fast == slow, blob.hex()
        assert fast["outcome"][0] == "crash"
        assert cpu.perf.blocks_compiled == 1
    kind, (fault, detail) = _compiled_vs_reference(
        _TEMPLATE_FAULTS[1], setup)[0][0]["outcome"]
    assert fault == "DivideErrorFault" and "divide by zero" in detail


def test_page_straddling_stores_through_bound_region(monkeypatch):
    """Stores through the bound data region: a word across a page
    boundary dirties both pages, a byte at the region's last address
    stays inline, and a word across the region's end takes Memory's
    per-byte path (partial write, then the fault)."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)
    blob = (b"\xbb\xfe\x2f\x00\x00"      # mov $0x2ffe, %ebx
            b"\x89\x03"                  # mov %eax, (%ebx)
            b"\xbb\xff\x4f\x00\x00"      # mov $0x4fff, %ebx
            b"\x88\x03"                  # movb %al, (%ebx)
            b"\x0f\xb6\x0b"              # movzbl (%ebx), %ecx
            b"\xbb\xfe\x4f\x00\x00"      # mov $0x4ffe, %ebx
            b"\x89\x03")                 # mov %eax, (%ebx): 0x5000 unmapped

    def setup(cpu):
        cpu.regs[0] = 0x11223344

    (fast, cpu, __), (slow, ___, ____) = _compiled_vs_reference(
        blob, setup, data_size=3 * 4096)
    assert fast == slow
    assert cpu.perf.blocks_compiled == 1
    assert fast["dirty"] == {"data": [0, 1, 2]}
    assert fast["outcome"][0] == "crash" and fast["instret"] == 6
    assert fast["regs"][1] == 0x44
    data = fast["memory"][1]
    assert data[0xFFE:0x1002] == bytes.fromhex("44332211")
    assert data[-2:] == b"\x44\x33"           # the partial write


def test_syscall_and_rdtsc_lone_blocks(monkeypatch):
    """``int 0x80`` and ``rdtsc`` run as one-instruction blocks that
    are never compiled and never go through ``step()``: the kernel's
    ``write`` events and ``rdtsc``'s value carry the reference
    ``instret``."""
    body = (b"\xb8\x14\x00\x00\x00"      # mov $20, %eax (getpid)
            b"\xcd\x80"                  # int 0x80
            b"\x89\xc6"                  # mov %eax, %esi
            b"\x0f\x31"                  # rdtsc
            b"\x89\xc7"                  # mov %eax, %edi
            b"\xb8\x04\x00\x00\x00"      # mov $4, %eax (write)
            b"\xbb\x01\x00\x00\x00"      # mov $1, %ebx
            b"\xb9\x00\x20\x00\x00"      # mov $0x2000, %ecx
            b"\xba\x04\x00\x00\x00"      # mov $4, %edx
            b"\xcd\x80")                 # int 0x80
    blob = body + bytes((0xEB, (-(len(body) + 2)) & 0xFF))
    lone = {0x1005, 0x1009, 0x1021}
    stepped = []
    original = CPU.step

    def counting_step(self):
        stepped.append(self.eip)
        original(self)

    monkeypatch.setattr(CPU, "step", counting_step)
    for threshold in (1, 2):
        monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", threshold)
        for budget in (7, 40, 61):
            runs = []
            for fast in (True, False):
                cpu, memory = _machine(blob)
                if fast:
                    cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
                else:
                    cpu.trace_hook = _reference_loop
                outcome = cpu.run(budget)
                runs.append((_fingerprint(cpu, memory, outcome),
                             list(cpu.kernel.write_events)))
                if fast and budget > 11:
                    assert lone <= set(cpu.blocks)
                    for address in lone:
                        assert cpu.blocks[address][3] == (address,)
                    assert cpu.perf.blocks_compiled <= len(cpu.blocks) \
                        - len(lone)
            assert runs[0] == runs[1]
            assert bool(runs[0][1]) == (budget > 11)
    assert not lone & set(stepped)


_PUSH_POP = [
    # a store through another register into the pushed slot
    b"\x50\x89\xe3\x89\x0b\x5a",          # push %eax; mov %esp,%ebx;
                                          # mov %ecx,(%ebx); pop %edx
    b"\x50\x88\x0c\x24\x5a",              # push %eax; movb %cl,(%esp);
                                          # pop %edx
    # ESP moved by other ops between the push and the pop
    b"\x50\x83\xc4\x04\x83\xec\x04\x5a",  # push; add $4,%esp;
                                          # sub $4,%esp; pop %edx
    b"\x54\x58",                          # push %esp; pop %eax
    b"\x6a\x07\x50\x5b\xb8\x01\x00\x00\x00\x59",  # push $7; push %eax;
                                          # pop %ebx; mov $1,%eax; pop %ecx
    # a call and its ret in one superblock, then a ret from memory
    b"\xe8\x01\x00\x00\x00\x90\xc3",      # call 0x1006; nop; ret
    # a handler between the push and the pop
    b"\x50\x0f\xc8\x5a",                  # push; bswap %eax; pop
    # an inline imul between them (the pop is forwarded)
    b"\x50\x0f\xaf\xc1\x5a",              # push; imul %ecx,%eax; pop
    b"\x55\x89\xe5\x50\xc9\x5b",          # push %ebp; mov %esp,%ebp;
                                          # push %eax; leave; pop %ebx
]


def test_pushes_forwarded_to_pops(monkeypatch):
    """A pop in the block of its push takes the pushed value without a
    load; a store, an ESP change or a handler call in between makes it
    load again.  Registers, memory and faults match the reference."""
    monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", 1)

    def setup(cpu):
        cpu.regs[0], cpu.regs[1] = 0x11223344, 0x55667788

    for blob in _PUSH_POP:
        (fast, cpu, __), (slow, ___, ____) = _compiled_vs_reference(
            blob, setup)
        assert fast == slow, blob.hex()
        assert cpu.perf.blocks_compiled >= 1
    assert _handler_ops(_PUSH_POP[6]) == ["bswap"]
    assert _handler_ops(_PUSH_POP[7]) == []
    assert _compiled_vs_reference(_PUSH_POP[0], setup)[0][0]["regs"][2] \
        == 0x55667788


def test_misaligned_target_rejoining_the_block(monkeypatch):
    """A ``call`` into the middle of an earlier member decodes a
    misaligned stream that falls back into step with the aligned one;
    the block ends where it would repeat a member, so its addresses
    stay unique and a fault in the repeated code retires what the
    reference retires."""
    blob = (b"\x89\xd8\x0f\xb6\xc3\x89\xd8\x50\xc9\x99"
            b"\xe8\xf2\xff\xff\xff")      # ...; call 0x1001
    for threshold in (1, 2):
        monkeypatch.setattr(CPU, "COMPILE_THRESHOLD", threshold)
        _assert_equivalent(blob)
        cpu, __ = _machine(blob)
        cpu.cacheable = (0x1000, 0x1000 + len(blob) + 16)
        addrs = cpu._block_at(0x1000)[3]
        assert len(set(addrs)) == len(addrs)
        assert addrs[-2:] == (0x1001, 0x1003)
