"""Linux i386 syscall layer (int 0x80).

Implements the handful of calls the daemons use -- exit, read, write,
open, close, time, getpid -- with Linux's *error semantics*, which
matter for fault fidelity: a corrupted pointer handed to read() yields
``-EFAULT``, not a crash; a corrupted syscall number yields
``-ENOSYS``.  Both keep the process alive and wandering, which is how
long transient vulnerability windows (Figure 4's tail) come about.
"""

from __future__ import annotations

import posixpath

from ..emu.machine_exceptions import PageFault
from ..x86.registers import EAX, EBX, ECX, EDX
from .channels import Channel
from .errors import KernelError
from .filesystem import FileSystem, OpenFile

ENOENT = 2
EBADF = 9
EFAULT = 14
EINVAL = 22
ENOSYS = 38

SYS_EXIT = 1
SYS_READ = 3
SYS_WRITE = 4
SYS_OPEN = 5
SYS_CLOSE = 6
SYS_TIME = 13
SYS_GETPID = 20

#: the registers each syscall reads besides EAX (its number), exactly
#: as :meth:`Kernel.syscall` passes them; any other number reads only
#: EAX.
SYSCALL_ARGUMENTS = {
    SYS_EXIT: (EBX,),
    SYS_READ: (EBX, ECX, EDX),
    SYS_WRITE: (EBX, ECX, EDX),
    SYS_OPEN: (EBX,),
    SYS_CLOSE: (EBX,),
}


def syscall_reads(number):
    """Bitmask (bit *i*: register *i*) of the registers ``int 0x80``
    reads when EAX holds *number*."""
    mask = 1 << EAX
    for register in SYSCALL_ARGUMENTS.get(number, ()):
        mask |= 1 << register
    return mask


# Bounds a corrupted length register so one bad write() cannot stall
# the campaign; Linux would cap at the VMA boundary similarly.
MAX_IO_CHUNK = 1 << 16

_FIXED_TIME = 0x3B9ACA00  # 2001-09-09, deterministic
_FIXED_PID = 1207


class Kernel:
    """Per-connection kernel state: one socket channel + fd table."""

    def __init__(self, channel=None, filesystem=None):
        self.channel = channel
        self.filesystem = filesystem or FileSystem()
        self.stderr_log = bytearray()
        self.open_files = {}
        self.next_fd = 3
        self.syscall_count = 0
        #: (instret, byte_count) per successful socket write; lets the
        #: propagation analysis tell which messages left the server
        #: after the execution diverged from the golden run.
        self.write_events = []

    @classmethod
    def for_client(cls, client, filesystem=None):
        return cls(Channel(client), filesystem)

    def clone(self):
        """Independent copy of all per-connection state.

        Replaces ``copy.deepcopy`` on the snapshot-restore path: every
        mutable field is copied explicitly (channel and open-file
        cursors through their own ``clone()``), immutable payloads
        (file bytes, write-event tuples) stay shared.
        """
        twin = Kernel.__new__(Kernel)
        twin.channel = (self.channel.clone()
                        if self.channel is not None else None)
        twin.filesystem = self.filesystem.clone()
        twin.stderr_log = bytearray(self.stderr_log)
        twin.open_files = {fd: handle.clone()
                           for fd, handle in self.open_files.items()}
        twin.next_fd = self.next_fd
        twin.syscall_count = self.syscall_count
        twin.write_events = list(self.write_events)
        return twin

    def rewind_to(self, pristine):
        """Reset this kernel (a since-run ``clone()`` of *pristine*)
        back to *pristine*'s state in place, and return it.

        The restore hot path prefers this over a fresh ``clone()``:
        rewinding mutates the object graph the last experiment already
        touched instead of allocating a new one, so it costs a few
        container copies instead of ~ten allocations into cold memory.
        Callers own the aliasing consequence -- the kernel a
        ``run_with_*`` call returned is rewound, not replaced, by the
        next one.  The filesystem is left alone: no syscall mutates it
        (files are added only at daemon setup; open-file cursors live
        in ``open_files``).
        """
        if self.channel is not None:
            self.channel.rewind_to(pristine.channel)
        self.stderr_log[:] = pristine.stderr_log
        if self.open_files:
            self.open_files.clear()
        for fd, handle in pristine.open_files.items():
            self.open_files[fd] = handle.clone()
        self.next_fd = pristine.next_fd
        self.syscall_count = pristine.syscall_count
        self.write_events[:] = pristine.write_events
        return self

    # ------------------------------------------------------------------

    def syscall(self, cpu):
        self.syscall_count += 1
        number = cpu.regs[EAX]
        if number == SYS_EXIT:
            cpu.halted = True
            cpu.exit_code = cpu.regs[EBX] & 0xFF
            return
        if number == SYS_READ:
            result = self._read(cpu, cpu.regs[EBX], cpu.regs[ECX],
                                cpu.regs[EDX])
        elif number == SYS_WRITE:
            result = self._write(cpu, cpu.regs[EBX], cpu.regs[ECX],
                                 cpu.regs[EDX])
        elif number == SYS_OPEN:
            result = self._open(cpu, cpu.regs[EBX])
        elif number == SYS_CLOSE:
            result = self._close(cpu.regs[EBX])
        elif number == SYS_TIME:
            result = _FIXED_TIME
        elif number == SYS_GETPID:
            result = _FIXED_PID
        else:
            result = -ENOSYS
        cpu.regs[EAX] = result & 0xFFFFFFFF

    # ------------------------------------------------------------------

    def _read(self, cpu, fd, buffer, count):
        count = min(count, MAX_IO_CHUNK)
        if fd == 0:
            if self.channel is None:
                raise KernelError("no channel attached")
            data = self.channel.server_read(count)
        elif fd in self.open_files:
            data = self.open_files[fd].read(count)
        else:
            return -EBADF
        try:
            cpu.memory.write_bytes(buffer, data, cpu.eip)
        except PageFault:
            return -EFAULT
        return len(data)

    def _write(self, cpu, fd, buffer, count):
        count = min(count, MAX_IO_CHUNK)
        try:
            data = cpu.memory.read_bytes(buffer, count, cpu.eip)
        except PageFault:
            return -EFAULT
        if fd == 1:
            if self.channel is None:
                raise KernelError("no channel attached")
            written = self.channel.server_write(data)
            self.write_events.append((cpu.instret, written))
            return written
        if fd == 2:
            self.stderr_log += data
            return len(data)
        return -EBADF

    def _open(self, cpu, path_pointer):
        try:
            raw = cpu.memory.read_cstring(path_pointer, 512, cpu.eip)
        except PageFault:
            return -EFAULT
        # The kernel resolves ".." components like a real VFS would --
        # which is exactly why the *daemon* must validate file names
        # (the traversal-attack extension exercises that check).
        path = posixpath.normpath(raw.decode("latin-1", "replace"))
        if not self.filesystem.exists(path):
            return -ENOENT
        fd = self.next_fd
        self.next_fd += 1
        self.open_files[fd] = OpenFile(path, self.filesystem.read(path))
        return fd

    def _close(self, fd):
        if fd in self.open_files:
            del self.open_files[fd]
            return 0
        if fd in (0, 1, 2):
            return 0
        return -EBADF
