"""Process images: loading an assembled module into memory and running
it to completion, crash, or instruction-budget exhaustion.

A :class:`Process` is the unit the fault injector works on.  Its layout
matches a statically linked 2001 Linux i386 binary:

* text at the module's text base (read-only + executable),
* data + bss immediately after the module's data,
* a stack just under 0xC0000000 (writable *and* executable -- IA-32
  had no NX bit in 2001, and wild jumps into the stack are one of the
  crash modes the study observes).

The paper's *permanent vulnerability window* arises because a fault in
a text page persists for every subsequent ``fork()``ed connection
handler until the page is reloaded.  That is modelled by keeping one
:class:`Memory` per server lifetime and spawning a fresh
:class:`Process` view per connection that shares the text region (see
:meth:`Process.clone_for_connection`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cpu import CPU
from .memory import Memory

STACK_TOP = 0xBFFFF000
STACK_SIZE = 0x20000
DEFAULT_BSS_SIZE = 0x8000
DEFAULT_MAX_INSTRUCTIONS = 2_000_000


@dataclass
class ExitStatus:
    """How a run ended.

    ``kind`` is ``"exit"`` (voluntary), ``"crash"`` (fault/signal) or
    ``"limit"`` (instruction budget exhausted -- the emulator's stand-in
    for a hung process that a client-side timeout would eventually
    notice); :meth:`Process.run_until` and :meth:`Process.run_watched`
    also stop on ``"breakpoint"`` and ``"watched"``.
    """

    kind: str
    exit_code: int = 0
    signal: str = ""
    vector: str = ""
    fault_eip: int = 0
    fault_detail: str = ""
    instret: int = 0

    @property
    def crashed(self):
        return self.kind == "crash"

    def __str__(self):
        if self.kind == "exit":
            return "exit(%d) after %d instructions" % (self.exit_code,
                                                       self.instret)
        if self.kind == "crash":
            return "%s (%s) at eip=0x%x after %d instructions" \
                % (self.signal, self.vector, self.fault_eip, self.instret)
        return "instruction limit reached (%d)" % self.instret


class Process:
    """A loaded program plus the CPU that executes it."""

    def __init__(self, module, kernel=None, bss_size=DEFAULT_BSS_SIZE,
                 entry_symbol="_start", memory=None):
        self.module = module
        self.kernel = kernel
        if memory is None:
            memory = Memory()
            memory.map_region("text", module.text_base, module.text,
                              writable=False)
            data_blob = bytearray(module.data) + bytearray(bss_size)
            memory.map_region("data", module.data_base, data_blob)
            memory.map_region("stack", STACK_TOP - STACK_SIZE, STACK_SIZE)
        self.memory = memory
        self.cpu = CPU(memory, kernel)
        text = memory.region_named("text")
        self.cpu.cacheable = (text.start, text.end)
        self.entry = module.symbols[entry_symbol].address
        self.reset_cpu()

    def reset_cpu(self):
        """Point the CPU at the entry with a fresh stack (used when one
        server image handles several sequential connections)."""
        self.cpu.regs = [0] * 8
        self.cpu.regs[4] = STACK_TOP - 16  # ESP
        self.cpu.eip = self.entry
        self.cpu.halted = False
        self.cpu.instret = 0
        if hasattr(self.cpu, "exit_code"):
            del self.cpu.exit_code

    def clone_for_connection(self, kernel=None):
        """Fork-like: new process state sharing this image's *text*
        (including any injected fault) but with fresh data and stack.

        Real wu-ftpd/sshd fork a child per connection; the child shares
        the parent's corrupted text page.  Data pages are copy-on-write
        and effectively fresh for the authentication path.
        """
        memory = Memory()
        text = self.memory.region_named("text")
        memory.map_region("text", text.start, bytes(text.data),
                          writable=False)
        data_blob = (bytearray(self.module.data)
                     + bytearray(DEFAULT_BSS_SIZE))
        memory.map_region("data", self.module.data_base, data_blob)
        memory.map_region("stack", STACK_TOP - STACK_SIZE, STACK_SIZE)
        clone = Process.__new__(Process)
        clone.module = self.module
        clone.kernel = kernel if kernel is not None else self.kernel
        clone.memory = memory
        clone.cpu = CPU(memory, clone.kernel)
        clone.cpu.cacheable = (text.start, text.end)
        clone.entry = self.entry
        clone.reset_cpu()
        return clone

    # ------------------------------------------------------------------
    # Fault injection hooks (the debugger-style interface NFTAPE used)

    def flip_bit(self, address, bit):
        """Flip one bit of one byte, permissions ignored (POKETEXT)."""
        original = self.memory.peek(address)
        self.memory.poke(address, original ^ (1 << bit))
        self.cpu.invalidate_cache(address)
        return original

    def restore_byte(self, address, value):
        self.memory.poke(address, value)
        self.cpu.invalidate_cache(address)

    # ------------------------------------------------------------------

    def run(self, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
        return self._status(*self.cpu.run(max_instructions))

    def run_until(self, address, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
        """Run until EIP reaches *address*, before executing it (a
        debugger breakpoint): a ``breakpoint`` status."""
        return self._status(*self.cpu.run(max_instructions,
                                          frozenset((address,))),
                            stop_kind="breakpoint")

    def run_watched(self, watch, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
        """Run until EIP lands on any address of the *watch* set,
        before executing it: a ``watched`` status."""
        return self._status(*self.cpu.run(max_instructions, watch),
                            stop_kind="watched")

    def _status(self, outcome, payload, stop_kind="stop"):
        if outcome == "stop":
            return ExitStatus(kind=stop_kind, instret=self.cpu.instret)
        if outcome == "exit":
            return ExitStatus(kind="exit", exit_code=payload,
                              instret=self.cpu.instret)
        if outcome == "crash":
            return ExitStatus(kind="crash", signal=payload.signal,
                              vector=payload.vector,
                              fault_eip=payload.address,
                              fault_detail=payload.detail,
                              instret=self.cpu.instret)
        return ExitStatus(kind="limit", instret=self.cpu.instret)
