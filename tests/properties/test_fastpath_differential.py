"""Differential testing: the prepared-op fast path must be
architecturally indistinguishable from the reference interpreter.

The fast engine (prepared ops + lazy EFLAGS + basic-block supersteps)
and the reference path (``slow_step``: decode-and-dispatch with eager
flags) are run over the same inputs and must agree on *everything* an
experiment can observe: registers, EIP, the full EFLAGS word,
``instret``, memory contents, exit/fault kind and fault detail.  Any
divergence here would silently corrupt campaign tallies, so this test
is the executable contract for the whole optimisation.

Stop sets and observers are inputs too: every combination of a
forensic ring and a sampler must leave the run unchanged, the ring
must hold exactly the retired instructions (plus the faulting one),
and the sampler exactly every ``SAMPLE_PERIOD``-th retired one.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.cc import compile_program
from repro.emu import CPU, Memory, Process
from repro.kernel import Kernel, ScriptedClient
from repro.obs import RingBuffer, Sampler
from repro.obs.forensics import flatten_ring
from repro.x86.flags import FLAGS_USER_MASK

SAMPLE_PERIOD = 3

OBSERVERS = st.sampled_from([(), ("ring",), ("sampler",),
                             ("ring", "sampler")])

#: stop addresses over the blob's span (most are not instruction
#: starts; the ones that are end the run early)
STOPS = st.frozensets(st.integers(0x1000, 0x1030), max_size=3)


class NullClient(ScriptedClient):
    def receive(self, data):
        pass

    def input_needed(self):
        self.close()


def _machine(blob):
    memory = Memory()
    memory.map_region("text", 0x1000, bytes(blob) + b"\xF4" * 16,
                      writable=False)
    memory.map_region("data", 0x2000, 4096)
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


def _attach(cpu, observers):
    """Attach the named observers to the fast engine."""
    if "ring" in observers:
        cpu.forensic_ring = RingBuffer()
    if "sampler" in observers:
        cpu.sampler = Sampler(SAMPLE_PERIOD)


def _observed(cpu, limit):
    """What the attached observers saw."""
    seen = {}
    if cpu.forensic_ring is not None:
        seen["ring"] = flatten_ring(cpu.forensic_ring, last_n=limit)
    if cpu.sampler is not None:
        seen["sampler"] = Counter(cpu.sampler.samples)
    return seen


def _expected(retired, outcome, eip, observers):
    """What the observers must see, given the reference loop's retired
    EIPs: a ring ends at the instruction that raised."""
    seen = {}
    if "ring" in observers:
        raised = outcome[0] in ("crash", "raised")
        seen["ring"] = retired + [eip] if raised else retired
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
        # any instrumentation forces the reference stepwise loop
        cpu.coverage = set()
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


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(st.sampled_from([
    # common compiler output: movs, stack ops, ALU, branches
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
    b"\x90",                  # nop
    b"\xcd\x80",              # int 0x80
    b"\x0f\x31",              # rdtsc (reads instret)
]), min_size=1, max_size=24), stop=STOPS, observers=OBSERVERS)
def test_compiler_like_streams_equivalent(ops, stop, observers):
    """Streams built from the specialised mnemonics (the ones with
    hand-written fast-path closures) stay equivalent, including
    ``int``/``rdtsc`` which observe ``instret`` mid-block."""
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
    combination on the fast one."""
    for source in _C_PROGRAMS:
        program = compile_program(source)

        slow = Process(program.module, Kernel())
        retired = []
        slow.cpu.coverage = set()      # force the reference loop
        slow.cpu.trace_hook = lambda cpu, instruction: retired.append(
            instruction.address)
        slow_status = slow.run(2_000_000)

        for observers in ((), ("ring",), ("sampler",),
                          ("ring", "sampler")):
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
