"""Golden (error-free) run recording.

Outcome classification is differential: every injected run is compared
against the golden run of the same (daemon, client) pair.  The golden
run also records instruction-level coverage, which gives an exact NA
(not-activated) oracle: execution before the first arrival at the
breakpoint address is byte-for-byte identical to the golden run, so an
address absent from golden coverage is provably never reached.

It also records the machine at every syscall entry
(:class:`GoldenState`, one per syscall index) and, for every fetched
text byte, the last syscall index at which it is fetched: what
:mod:`repro.injection.earlyexit` needs to recognise a corrupted run
that has rejoined the golden run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from ..emu.memory import PAGE_SHIFT, PAGE_SIZE
from ..x86 import decode

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
    #: fetches it (the index counts the syscalls made before the
    #: fetch).
    last_fetch: dict = field(default_factory=dict)
    #: the last syscall index at which the golden run executes an
    #: instruction that reads ``instret`` (``rdtsc``), or -1.
    last_instret_read: int = -1

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
        ``input_needed`` has queued, for one)."""
        channel = kernel.channel
        return (channel.to_server == self.to_server
                and channel.transcript == self.transcript
                and kernel.next_fd == self.next_fd
                and kernel.stderr_log == self.stderr_log
                and _open_files(kernel) == self.open_files
                and _client_state(channel.client) == self.client)


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


class _StateRecorder:
    """The golden run's syscall hook: one :class:`GoldenState` per
    syscall, and the coverage set cut at each syscall so every fetch
    gets its syscall index."""

    def __init__(self, cpu):
        self.states = []
        self.intervals = []
        self.regions = writable_regions(cpu.memory)
        self.digests = []
        for region in self.regions:
            self.digests.append([page_digest(region.data, page)
                                 for page in range(region.page_count())])
            region.dirty.clear()

    def __call__(self, cpu, instruction):
        kernel = cpu.kernel
        assert kernel.syscall_count == len(self.states)
        self.intervals.append(cpu.coverage)
        cpu.coverage = set()
        for region, digests in zip(self.regions, self.digests):
            for page in region.dirty:
                digests[page] = page_digest(region.data, page)
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

    def fetch_indices(self, cpu):
        """Instruction start -> the last syscall index it is fetched
        at (fetches after the exit syscall, if any, get its index)."""
        intervals = self.intervals + [cpu.coverage]
        last = {}
        for index, starts in enumerate(intervals):
            last.update(dict.fromkeys(starts, min(index,
                                                  len(self.states))))
        return last


def record_golden(daemon, client_factory,
                  budget=CONNECTION_INSTRUCTION_BUDGET):
    """Run one clean connection and capture the reference behaviour."""
    client = client_factory()
    kernel = daemon.make_kernel(client)
    process = Process(daemon.module, kernel)
    cpu = process.cpu
    cpu.coverage = set()
    recorder = cpu.syscall_hook = _StateRecorder(cpu)
    status = process.run(budget)
    cpu.syscall_hook = None
    if status.kind != "exit":
        raise RuntimeError("golden run did not exit cleanly: %s" % status)
    starts = recorder.fetch_indices(cpu)
    last_fetch, last_instret_read = _byte_fetches(daemon.module, starts)
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
    )


def _byte_fetches(module, starts):
    """Expand executed instruction starts (-> last syscall index) to
    the full byte ranges their fetches consumed, each byte with the
    latest index of any instruction covering it; and the last index
    at which an ``rdtsc`` runs (-1 when none does)."""
    fetched = {}
    instret_read = -1
    text_start = module.text_base
    text_end = module.text_base + len(module.text)
    for address, index in starts.items():
        if not text_start <= address < text_end:
            continue
        offset = address - text_start
        instruction = decode(module.text[offset:offset + 15], address)
        if instruction.mnemonic == "rdtsc":
            instret_read = max(instret_read, index)
        for byte in range(address, address + instruction.length):
            if fetched.get(byte, -1) < index:
                fetched[byte] = index
    return fetched, instret_read


def _milestones(client):
    """Snapshot the milestone attributes a client exposes."""
    names = ("granted", "denied", "retrieved_files", "auth_success",
             "got_shell", "failures", "confusion")
    return {name: getattr(client, name) for name in names
            if hasattr(client, name)}
