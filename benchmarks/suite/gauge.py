"""Host-speed gauge: how fast the machine ran while a pass was timed.

The benchmark was sized on a shared two-core VM whose host slows it by
up to 1.9x, in bursts of seconds to minutes, so raw pass times spread
by 11-39% from run to run whatever the run length.  While a workload
runs, the gauge interrupts it every ``INTERVAL`` seconds of wall clock
(``SIGALRM``) and times one run of a fixed calibration kernel that
lives here, never in the program.  A window's slowdown factor is the
mean sample time in the window over the kernel's time on the reference
host (:data:`REFERENCE_SAMPLE`), and at least 1.  The end-to-end times are the pass's own
work, gauge time taken out, divided by that factor: seconds at
reference host speed.

The kernel is a small fetch-decode-execute loop -- a decoded-
instruction dict, a register dict and byte-array pages, 64 KiB in all
-- because a loop shaped like the emulator slows like it: alongside
ftpd campaigns over half an hour in which raw times ranged over 1.6x,
its factor tracked them with a slope of 0.9-1.0, where a plain integer
loop or a kernel with a large working set ranged from 0.5 to 1.6.  It
stays small so that it adds nothing measurable to ``peak_rss_mb``.

Every sample is appended, as a fixed-size record, to one file that
the benchmark process and every process forked from it share with
``O_APPEND``, so the fleet's workers sample themselves and the parent
reads all of it back.  Interval timers do not survive ``fork``; an
at-fork hook re-arms them in the child.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
import time

#: seconds of wall clock between two samples of one process.
INTERVAL = 0.025
#: seconds of a pass normalised with one slowdown factor (about 20
#: samples a process).
WINDOW = 0.5
#: (start, seconds, pid)
RECORD = struct.Struct("<ddi")

_PAGES = [bytearray(4096) for __ in range(32)]
_REGISTERS = ("eax", "ebx", "ecx", "edx")
#: address -> (operation, destination, source, memory address)
_DECODED = {pc: (pc & 3, _REGISTERS[pc & 3], _REGISTERS[(pc >> 2) & 3],
                 (pc * 2654435761) & 0x1ffff)
            for pc in range(2048)}


def kernel(steps=2000):
    """The calibration kernel: *steps* instructions of a toy machine.
    Frozen: any change to it changes what every recorded time means."""
    pages, decoded = _PAGES, _DECODED
    regs = dict.fromkeys(_REGISTERS, 1)
    pc, x = 0, 7
    for __ in range(steps):
        op, a, b, address = decoded[pc]
        if op == 0:
            regs[a] = (regs[a] + regs[b]) & 0xffffffff
        elif op == 1:
            x = (x * 1103515245 + 12345) & 0xffffffff
            regs[a] = pages[(x >> 12) & 31][x & 4095]
        elif op == 2:
            pages[address >> 12][address & 4095] = regs[b] & 0xff
        else:
            regs[a] ^= regs[b]
        pc = (pc * 1103515245 + 12345) & 2047
    return regs["eax"]


#: mean seconds of one sample, interleaved with a campaign, on the
#: reference host: the VM the benchmark was sized on, in a quiet period.
REFERENCE_SAMPLE = 0.00080

#: the running gauge of this process (inherited by forked children):
#: the alarm handler and the at-fork hook are per process, so is this.
_active = None


def _arm():
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def _on_alarm(signum, frame):
    gauge = _active
    if gauge is not None:
        gauge.sample()


def _after_fork_in_child():
    if _active is not None and _active.children:
        _arm()


os.register_at_fork(after_in_child=_after_fork_in_child)


class Gauge:
    """Samples the host's speed into *path* while started.

    ``here`` samples this process; ``children`` samples every process
    forked from it while the gauge runs (the fleet's workers).
    ``on_sample(seconds)``, when set, is told of each sample taken in
    this process, so a layer clock can leave gauge time out.
    """

    def __init__(self, path, here=True, children=False):
        self.path = str(path)
        self.here = here
        self.children = children
        self.on_sample = None
        self._fd = None

    def start(self):
        global _active
        self._fd = os.open(self.path,
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        # left installed after stop(): a late alarm then finds no gauge
        signal.signal(signal.SIGALRM, _on_alarm)
        _active = self
        if self.here:
            _arm()

    def stop(self):
        global _active
        if self.here:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _active = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def sample(self):
        start = time.perf_counter()
        kernel()
        seconds = time.perf_counter() - start
        os.write(self._fd, RECORD.pack(start, seconds, os.getpid()))
        if self.on_sample is not None:
            self.on_sample(seconds)

    def samples(self):
        """Every sample so far, from every process: ``(start, seconds,
        pid)`` tuples in start order."""
        with open(self.path, "rb") as stream:
            data = stream.read()
        usable = len(data) - len(data) % RECORD.size
        return sorted(RECORD.iter_unpack(data[:usable]))


def slowdown(samples, start, end):
    """Samples that started in ``[start, end)``: ``(seconds, factor)``.

    *seconds* maps each pid to the time its samples took; *factor* is
    how many times slower than :data:`REFERENCE_SAMPLE` they ran on
    average (``None`` when there is none)."""
    seconds = {}
    times = []
    for begun, took, pid in samples:
        if start <= begun < end:
            seconds[pid] = seconds.get(pid, 0.0) + took
            times.append(took)
    if not times:
        return seconds, None
    return seconds, statistics.fmean(times) / REFERENCE_SAMPLE


def at_reference(samples, start, end, lanes):
    """``(work, reference, gauge_cpu)`` for the window ``[start, end)``.

    *work* is its wall clock less the delay the gauge added: all of
    this process's samples, and other processes' spread over the
    *lanes* that worked at once.  *reference* is that work at
    reference host speed, summed over ``WINDOW``-second slices each
    divided by its own slowdown factor: the host's speed changes
    within a pass, and dividing by one mean factor would undercount
    the time spent fast.  A factor below 1 counts as 1: when the host
    runs faster than reference, the kernel speeds up more than the
    workloads do.  *gauge_cpu* is every sample's time."""
    __, overall = slowdown(samples, start, end)
    work = reference = gauge_cpu = 0.0
    edge = start
    while edge < end:
        stop = min(edge + WINDOW, end)
        seconds, factor = slowdown(samples, edge, stop)
        here = seconds.pop(os.getpid(), 0.0)
        elsewhere = sum(seconds.values())
        slice_work = stop - edge - here - elsewhere / lanes
        work += slice_work
        reference += slice_work / max(factor or overall or 1.0, 1.0)
        gauge_cpu += here + elsewhere
        edge = stop
    return work, reference, gauge_cpu
