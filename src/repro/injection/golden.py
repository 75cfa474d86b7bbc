"""Golden (error-free) run recording.

Outcome classification is differential: every injected run is compared
against the golden run of the same (daemon, client) pair.  The golden
run also records instruction-level coverage, which gives an exact NA
(not-activated) oracle: execution before the first arrival at the
breakpoint address is byte-for-byte identical to the golden run, so an
address absent from golden coverage is provably never reached.

It also records the machine at every syscall entry
(:class:`GoldenState`, one per syscall index), for every text byte
fetched or read, the last syscall index at which that happens, and
what the golden tail from each syscall index overwrites before it
reads it (:attr:`GoldenRun.dead_regs`, :class:`ByteLiveness`): what
:mod:`repro.injection.earlyexit` needs to recognise a corrupted run
that has rejoined the golden run.
"""

from __future__ import annotations

import zlib
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from ..emu.liveness import ALL_REGISTERS, AccessLog, register_effects
from ..emu.memory import PAGE_SHIFT, PAGE_SIZE
from ..kernel.syscalls import syscall_reads
from ..x86 import decode
from ..x86.registers import EAX

try:
    # CPython's own BLAKE2: ``hashlib`` would also load OpenSSL, about
    # 3.5 MB of resident memory in every campaign process.
    from _blake2 import blake2b
except ImportError:                   # another implementation
    from hashlib import blake2b


@dataclass
class GoldenRun:
    """Reference behaviour of one (daemon, client factory) pair."""

    transcript: tuple
    exit_kind: str
    exit_code: int
    broke_in: bool
    granted: bool
    coverage: frozenset
    instret: int
    client_state: dict = field(default_factory=dict)
    #: execution-engine counters of the golden run (the golden run
    #: records coverage, so it exercises the reference stepwise path).
    perf: dict = field(default_factory=dict)
    #: the machine at each syscall entry, indexed by the kernel's
    #: ``syscall_count`` there (:class:`GoldenState`).
    states: tuple = ()
    #: text byte -> the last syscall index at which the golden run
    #: fetches it or reads it as data (the index counts the syscalls
    #: made before the access).
    last_fetch: dict = field(default_factory=dict)
    #: the last syscall index at which the golden run executes an
    #: instruction that reads ``instret`` (``rdtsc``), or -1.
    last_instret_read: int = -1
    #: per syscall index, the registers (bit *i*: register *i*) the
    #: golden tail from that syscall's entry overwrites before reading
    #: them, or never reads again.
    dead_regs: tuple = ()
    #: the same for the bytes of the writable pages
    #: (:class:`ByteLiveness`).
    live_bytes: object = None

    @property
    def coverage_bytes(self):
        """Individual text bytes fetched as part of any executed
        instruction; a flip outside this set is provably NA."""
        return self.last_fetch.keys()


@dataclass(frozen=True)
class GoldenState:
    """The golden machine at the entry of one ``int 0x80``, before the
    kernel runs: what a corrupted run must equal, field for field, to
    behave like the golden run from there on.

    ``pages`` holds a 128-bit digest per page of each writable region
    (never page copies, so a cell's states stay small); the kernel
    fields are those ``Kernel.clone()`` copies, minus
    ``write_events`` (propagation analysis only), and ``client`` is
    the scripted client's flat state without its channel.
    """

    eip: int
    raw: bytes                  # the ``int 0x80`` instruction's bytes
    regs: list
    eflags: int
    segments: list
    instret: int
    pages: tuple                # per writable region, per page digest
    to_server: bytes
    transcript: list
    open_files: dict            # fd -> (path, position)
    next_fd: int
    stderr_log: bytes
    client: dict

    def kernel_matches(self, kernel):
        """Does *kernel* (and its channel and client) hold this
        state's kernel fields?  The client is compared directly: two
        runs with one transcript can still differ in it (what
        ``input_needed`` has queued, for one).  The scalar fields go
        first: they cost a comparison each, and the open-file and
        client dicts are built only when they agree."""
        channel = kernel.channel
        return (kernel.next_fd == self.next_fd
                and len(channel.transcript) == len(self.transcript)
                and channel.to_server == self.to_server
                and kernel.stderr_log == self.stderr_log
                and channel.transcript == self.transcript
                and _open_files(kernel) == self.open_files
                and _client_state(channel.client) == self.client)


class ByteLiveness:
    """Which bytes of each writable page the golden tail from a
    syscall index reads before it overwrites them.

    It keeps the golden run's :class:`~repro.emu.liveness.AccessLog`,
    the log position at each syscall entry, and the bytes of every
    page the recorder re-hashed at a syscall, compressed, by digest.
    A page's live-byte masks, one per syscall index, are made on the
    first question about the page, in one backward sweep over its
    accesses; each distinct mask is compressed once and shared.
    """

    def __init__(self, log, marks, regions, pages):
        self.starts = log.starts
        self.spans = log.spans
        #: log position at each syscall entry.
        self.marks = marks
        #: ``(start, size)`` of each writable region.
        self.regions = [(region.start, len(region.data))
                        for region in regions]
        self._pages = pages         # digest -> compressed page bytes
        self._masks = {}            # (region, page) -> mask per index

    def page(self, digest):
        """The bytes of the golden page with *digest*, for a page the
        recorder re-hashed at a syscall."""
        return zlib.decompress(self._pages[digest])

    def packed(self, index, region, page):
        """The live bytes of page *page* of writable region *region*
        at the entry of syscall *index*, compressed, ``0xFF`` per live
        byte: one object for all the indices with the same mask."""
        masks = self._masks.get((region, page))
        if masks is None:
            masks = self._masks[region, page] = self._sweep(region, page)
        return masks[index]

    def live(self, index, region, page):
        """The same mask as an integer (little-endian, like
        ``int.from_bytes``)."""
        return int.from_bytes(zlib.decompress(
            self.packed(index, region, page)), "little")

    def _sweep(self, region, page):
        """The page's compressed masks at every syscall index (``0xFF``
        per live byte): walk its accesses from the end back to the
        first syscall; a read makes its bytes live, a write dead."""
        start, size = self.regions[region]
        low = start + (page << PAGE_SHIFT)
        width = min(PAGE_SIZE, size - (page << PAGE_SHIFT))
        high = low + width
        starts, spans = self.starts, self.spans
        live, dead = b"\xff" * width, bytes(width)
        mask = bytearray(width)
        kept = zlib.compress(mask, 1)
        distinct = {bytes(mask): kept}
        masks = []
        position = len(starts)
        for mark in reversed(self.marks):
            changed = False
            for address, span in zip(reversed(starts[mark:position]),
                                     reversed(spans[mark:position])):
                if address < high:
                    end = address + (span if span > 0 else -span)
                    if end > low:
                        first = address - low if address > low else 0
                        last = end - low if end < high else width
                        mask[first:last] = (live if span > 0
                                            else dead)[first:last]
                        changed = True
            position = mark
            if changed:
                raw = bytes(mask)
                kept = distinct.get(raw)
                if kept is None:
                    kept = distinct[raw] = zlib.compress(raw, 1)
            masks.append(kept)
        masks.reverse()
        return masks


def page_digest(data, page):
    """128-bit digest of page *page* of a region's *data*."""
    low = page << PAGE_SHIFT
    with memoryview(data) as view:
        return blake2b(view[low:low + PAGE_SIZE],
                       digest_size=16).digest()


def writable_regions(memory):
    return [region for region in memory.regions if region.writable]


def _open_files(kernel):
    return {fd: (handle.path, handle.position)
            for fd, handle in kernel.open_files.items()}


def _client_state(client):
    return {name: value for name, value in client.__dict__.items()
            if name != "channel"}


class _Trace(array):
    """The golden run's ``cpu.coverage``: every executed instruction
    start, in order (``add`` appends)."""

    add = array.append


class _StateRecorder:
    """The golden run's syscall hook: one :class:`GoldenState` per
    syscall, the position of the instruction trace and of the access
    log at each, and the bytes of every page it re-hashes."""

    def __init__(self, cpu):
        self.states = []
        self.trace = cpu.coverage = _Trace("I")
        self.log = AccessLog(cpu.memory)
        self.trace_marks = []
        self.log_marks = []
        self.regions = writable_regions(cpu.memory)
        self.digests = []
        self.pages = {}             # digest -> compressed page bytes
        for region in self.regions:
            self.digests.append([page_digest(region.data, page)
                                 for page in range(region.page_count())])
            region.dirty.clear()

    def __call__(self, cpu, instruction):
        kernel = cpu.kernel
        assert kernel.syscall_count == len(self.states)
        self.trace_marks.append(len(self.trace))
        self.log_marks.append(len(self.log))
        pages = self.pages
        for region, digests in zip(self.regions, self.digests):
            data = region.data
            for page in region.dirty:
                digest = digests[page] = page_digest(data, page)
                if digest not in pages:
                    low = page << PAGE_SHIFT
                    pages[digest] = zlib.compress(
                        data[low:low + PAGE_SIZE], 1)
            region.dirty.clear()
        channel = kernel.channel
        client = _client_state(channel.client)
        for name, value in client.items():
            if isinstance(value, (list, set, dict, bytearray)):
                client[name] = type(value)(value)
        self.states.append(GoldenState(
            eip=cpu.eip, raw=instruction.raw, regs=list(cpu.regs),
            eflags=cpu.eflags, segments=list(cpu.segments),
            instret=cpu.instret,
            pages=tuple(tuple(digests) for digests in self.digests),
            to_server=bytes(channel.to_server),
            transcript=list(channel.transcript),
            open_files=_open_files(kernel), next_fd=kernel.next_fd,
            stderr_log=bytes(kernel.stderr_log), client=client))

    def fetch_indices(self):
        """Instruction start -> the last syscall index it is fetched
        at (fetches after the exit syscall, if any, get its index)."""
        trace = self.trace
        bounds = [0] + self.trace_marks + [len(trace)]
        last = {}
        for index in range(len(bounds) - 1):
            last.update(dict.fromkeys(trace[bounds[index]:bounds[index + 1]],
                                      min(index, len(self.states))))
        return last

    def dead_registers(self, effects):
        """Per syscall index, the registers the golden tail from that
        syscall's entry overwrites before reading them: one backward
        pass over the trace, with each ``int 0x80`` reading what its
        syscall number uses."""
        trace = self.trace
        dead = []
        live = 0
        end = len(trace)
        for index in range(len(self.states) - 1, -1, -1):
            at = self.trace_marks[index] - 1        # this syscall's int
            for eip in reversed(trace[at + 1:end]):
                reads, kills = effects[eip]
                live = live & ~kills | reads
            live |= syscall_reads(self.states[index].regs[EAX])
            dead.append(~live & ALL_REGISTERS)
            end = at
        dead.reverse()
        return tuple(dead)

    def text_reads(self, text_start, text_end):
        """Text byte -> the last syscall index at which the golden run
        reads it as data."""
        last = {}
        log = self.log
        if not log.starts or min(log.starts) >= text_end:
            return last             # nothing at or below the text's end
        for position, (address, span) in enumerate(zip(log.starts,
                                                       log.spans)):
            if span > 0 and address < text_end \
                    and address + span > text_start:
                index = bisect_right(self.log_marks, position)
                for byte in range(max(address, text_start),
                                  min(address + span, text_end)):
                    last[byte] = index
        return last


def record_golden(daemon, client_factory,
                  budget=CONNECTION_INSTRUCTION_BUDGET):
    """Run one clean connection and capture the reference behaviour."""
    client = client_factory()
    kernel = daemon.make_kernel(client)
    process = Process(daemon.module, kernel)
    cpu = process.cpu
    recorder = cpu.syscall_hook = _StateRecorder(cpu)
    try:
        status = process.run(budget)
    finally:
        recorder.log.detach()
    cpu.syscall_hook = cpu.coverage = None
    if status.kind != "exit":
        raise RuntimeError("golden run did not exit cleanly: %s" % status)
    starts = recorder.fetch_indices()
    last_fetch, last_instret_read, effects = _byte_fetches(
        daemon.module, starts, cpu.decode_cache)
    text = process.memory.region_named("text")
    for byte, index in recorder.text_reads(text.start, text.end).items():
        if last_fetch.get(byte, -1) < index:
            last_fetch[byte] = index
    return GoldenRun(
        transcript=kernel.channel.normalized_transcript(),
        exit_kind=status.kind,
        exit_code=status.exit_code,
        broke_in=client.broke_in(),
        granted=getattr(client, "granted",
                        getattr(client, "auth_success", False)),
        coverage=frozenset(starts),
        instret=status.instret,
        client_state=_milestones(client),
        perf=cpu.perf.as_dict(),
        states=tuple(recorder.states),
        last_fetch=last_fetch,
        last_instret_read=last_instret_read,
        dead_regs=recorder.dead_registers(effects),
        live_bytes=ByteLiveness(recorder.log, recorder.log_marks,
                                recorder.regions, recorder.pages),
    )


def _byte_fetches(module, starts, decoded):
    """Expand executed instruction starts (-> last syscall index) to
    the full byte ranges their fetches consumed, each byte with the
    latest index of any instruction covering it; the last index at
    which an ``rdtsc`` runs (-1 when none does); and each start's
    ``(reads, kills)`` register masks (:func:`register_effects`; an
    instruction without a table entry reads every register).  Every
    start must lie in the text: the access log does not see fetches,
    so byte liveness holds only for a run that executes no data.
    *decoded* is the golden CPU's decode cache."""
    fetched = {}
    instret_read = -1
    effects = {}
    text_start = module.text_base
    text_end = module.text_base + len(module.text)
    for address, index in starts.items():
        if not text_start <= address < text_end:
            raise RuntimeError("golden run executed 0x%x, outside the "
                               "text" % address)
        instruction = decoded.get(address)
        if instruction is None:
            offset = address - text_start
            instruction = decode(module.text[offset:offset + 15], address)
        if instruction.mnemonic == "rdtsc":
            instret_read = max(instret_read, index)
        effects[address] = (register_effects(instruction)
                            or (ALL_REGISTERS, 0))
        for byte in range(address, address + instruction.length):
            if fetched.get(byte, -1) < index:
                fetched[byte] = index
    return fetched, instret_read, effects


def _milestones(client):
    """Snapshot the milestone attributes a client exposes."""
    names = ("granted", "denied", "retrieved_files", "auth_success",
             "got_shell", "failures", "confusion")
    return {name: getattr(client, name) for name in names
            if hasattr(client, name)}
