"""Flat 32-bit paged memory with region permissions.

The address-space layout mirrors a 2001-era Linux i386 process: text at
0x08048000, data/bss above it, stack below 0xC0000000.  There is no NX
bit (IA-32 gained one only in 2004), so *any* mapped page is
executable -- a wild jump into the stack or data executes whatever
bytes are there until something faults, which is exactly the crash
behaviour the paper's SD category captures.

Writes to the text region fault (#PF) as they would through a
copy-on-write read-only mapping; the fault injector bypasses the
permission check via :meth:`Memory.poke`, playing the role of
ptrace(POKETEXT).
"""

from __future__ import annotations

import struct

from .machine_exceptions import PageFault

# Pre-bound Struct methods: the emulator calls these on every 16/32-bit
# memory access, and a bound Struct method skips the per-call format
# parse of the module-level struct functions.
_unpack_u16 = struct.Struct("<H").unpack_from
_unpack_u32 = struct.Struct("<I").unpack_from
_pack_u16 = struct.Struct("<H").pack_into
_pack_u32 = struct.Struct("<I").pack_into

#: Fixed page granularity for dirty tracking.  4 KiB matches the i386
#: hardware page size the emulated processes believe they run on, and
#: keeps the restore unit large enough that the per-store bookkeeping
#: (one set.add) stays cheap relative to the work it saves.
PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT


class Region:
    """A contiguous mapped range of the address space.

    ``end`` is precomputed: regions never resize after mapping
    (snapshot restores replace ``data`` contents in place), and the
    bound is checked on every memory access in the emulator hot loop.

    ``dirty`` holds region-relative page indices touched by any store
    (including permission-bypassing :meth:`Memory.poke`) since the last
    :meth:`Memory.clear_dirty`.  Snapshot restore writes back only
    these pages instead of the whole region.
    """

    __slots__ = ("name", "start", "data", "writable", "end", "dirty")

    def __init__(self, name, start, size_or_data, writable=True):
        self.name = name
        self.start = start
        # bytearray() accepts both an int (zero-filled size) and a
        # buffer (copied contents), so one construction covers both.
        self.data = bytearray(size_or_data)
        self.writable = writable
        self.end = start + len(self.data)
        self.dirty = set()

    def contains(self, address):
        return self.start <= address < self.end

    def page_count(self):
        return (len(self.data) + PAGE_SIZE - 1) >> PAGE_SHIFT


class Memory:
    """Sparse region-based memory map."""

    #: the :class:`~repro.emu.liveness.AccessLog` attached to this
    #: memory, if any; blocks made meanwhile never bypass its methods.
    access_log = None

    def __init__(self):
        self.regions = []
        self._last = None  # most-recently-hit region (locality cache)

    def map_region(self, name, start, size_or_data, writable=True):
        region = Region(name, start, size_or_data, writable)
        for existing in self.regions:
            if region.start < existing.end and existing.start < region.end:
                raise ValueError("region %s overlaps %s"
                                 % (name, existing.name))
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.start)
        self._last = region
        return region

    def region_named(self, name):
        for region in self.regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def _find(self, address):
        last = self._last
        if last is not None and last.start <= address < last.end:
            return last
        for region in self.regions:
            if region.start <= address < region.end:
                self._last = region
                return region
        return None

    # -- reads ---------------------------------------------------------
    #
    # The locality cache check is inlined into each accessor: the
    # emulator's hot loop issues one of these per memory operand, and a
    # ``_find`` call on every access is measurable.  On a miss (or a
    # region-boundary straddle) they fall back to the general path.

    def read8(self, address, eip=0):
        address &= 0xFFFFFFFF
        region = self._last
        if region is None or not (region.start <= address < region.end):
            region = self._find(address)
            if region is None:
                raise PageFault(eip, "read", address)
        return region.data[address - region.start]

    def read16(self, address, eip=0):
        address &= 0xFFFFFFFF
        region = self._last
        if (region is None or address < region.start
                or address + 2 > region.end):
            region = self._find(address)
            if region is None or address + 2 > region.end:
                return self._slow_read(address, 2, eip)
        return _unpack_u16(region.data, address - region.start)[0]

    def read32(self, address, eip=0):
        address &= 0xFFFFFFFF
        region = self._last
        if (region is None or address < region.start
                or address + 4 > region.end):
            region = self._find(address)
            if region is None or address + 4 > region.end:
                return self._slow_read(address, 4, eip)
        return _unpack_u32(region.data, address - region.start)[0]

    def _slow_read(self, address, width, eip):
        value = 0
        for i in range(width):
            value |= self.read8(address + i, eip) << (8 * i)
        return value

    # The kernel's copy-in and copy-out helpers take one slice when
    # the range lies inside one region (a writable one, for writes);
    # a range that straddles regions or touches unmapped or read-only
    # memory goes byte by byte, so the fault address, the fault EIP
    # and any partial write are those of the per-byte accesses.

    def _span(self, address, count, write=False):
        """``(region, offset)`` when ``[address, address + count)``
        lies inside one region (writable, with *write*), else None."""
        address &= 0xFFFFFFFF
        region = self._find(address)
        if (region is None or address + count > region.end
                or (write and not region.writable)):
            return None
        return region, address - region.start

    def read_bytes(self, address, count, eip=0):
        if count <= 0:
            return b""
        span = self._span(address, count)
        if span is not None:
            region, offset = span
            return bytes(region.data[offset:offset + count])
        out = bytearray()
        for i in range(count):
            out.append(self.read8(address + i, eip))
        return bytes(out)

    def read_cstring(self, address, limit=4096, eip=0):
        """Read a NUL-terminated string (kernel copy_from_user style)."""
        if limit > 0:
            region = self._find(address & 0xFFFFFFFF)
            if region is not None:
                data = region.data
                offset = (address & 0xFFFFFFFF) - region.start
                end = min(len(data), offset + limit)
                nul = data.find(0, offset, end)
                if nul >= 0:
                    return bytes(data[offset:nul])
                if end == offset + limit:
                    return bytes(data[offset:end])
        out = bytearray()
        for i in range(limit):
            byte = self.read8(address + i, eip)
            if byte == 0:
                break
            out.append(byte)
        return bytes(out)

    # -- writes --------------------------------------------------------

    def write8(self, address, value, eip=0):
        address &= 0xFFFFFFFF
        region = self._last
        if region is None or not (region.start <= address < region.end):
            region = self._find(address)
            if region is None:
                raise PageFault(eip, "write", address)
        if not region.writable:
            raise PageFault(eip, "write", address)
        offset = address - region.start
        region.dirty.add(offset >> PAGE_SHIFT)
        region.data[offset] = value & 0xFF

    def write16(self, address, value, eip=0):
        address &= 0xFFFFFFFF
        region = self._last
        if (region is None or address < region.start
                or address + 2 > region.end or not region.writable):
            region = self._find(address)
            if (region is None or not region.writable
                    or address + 2 > region.end):
                self._slow_write(address, value, 2, eip)
                return
        offset = address - region.start
        page = offset >> PAGE_SHIFT
        region.dirty.add(page)
        if (offset + 1) >> PAGE_SHIFT != page:
            region.dirty.add(page + 1)
        _pack_u16(region.data, offset, value & 0xFFFF)

    def write32(self, address, value, eip=0):
        address &= 0xFFFFFFFF
        region = self._last
        if (region is None or address < region.start
                or address + 4 > region.end or not region.writable):
            region = self._find(address)
            if (region is None or not region.writable
                    or address + 4 > region.end):
                self._slow_write(address, value, 4, eip)
                return
        offset = address - region.start
        page = offset >> PAGE_SHIFT
        region.dirty.add(page)
        if (offset + 3) >> PAGE_SHIFT != page:
            region.dirty.add(page + 1)
        _pack_u32(region.data, offset, value & 0xFFFFFFFF)

    def _slow_write(self, address, value, width, eip):
        for i in range(width):
            self.write8(address + i, (value >> (8 * i)) & 0xFF, eip)

    def write_bytes(self, address, blob, eip=0):
        count = len(blob)
        span = self._span(address, count, write=True) if count else None
        if span is not None:
            region, offset = span
            region.data[offset:offset + count] = blob
            region.dirty.update(range(offset >> PAGE_SHIFT,
                                      ((offset + count - 1) >> PAGE_SHIFT)
                                      + 1))
            return
        for i, byte in enumerate(blob):
            self.write8(address + i, byte, eip)

    # -- special -------------------------------------------------------

    def poke(self, address, value):
        """Write one byte ignoring permissions (ptrace POKETEXT)."""
        region = self._find(address & 0xFFFFFFFF)
        if region is None:
            raise PageFault(0, "poke", address)
        offset = (address & 0xFFFFFFFF) - region.start
        region.dirty.add(offset >> PAGE_SHIFT)
        region.data[offset] = value & 0xFF

    # -- dirty-page tracking -------------------------------------------

    def dirty_pages(self):
        """Map of region name -> sorted region-relative dirty pages."""
        return {region.name: sorted(region.dirty)
                for region in self.regions if region.dirty}

    def clear_dirty(self):
        for region in self.regions:
            region.dirty.clear()

    def peek(self, address):
        """Read one byte ignoring permissions (ptrace PEEKTEXT)."""
        region = self._find(address & 0xFFFFFFFF)
        if region is None:
            raise PageFault(0, "peek", address)
        return region.data[(address & 0xFFFFFFFF) - region.start]

    def fetch_window(self, address, count=15):
        """Return up to *count* bytes for instruction fetch.

        Raises :class:`PageFault` (an instruction-fetch fault) when the
        first byte is unmapped; a window truncated by a region boundary
        is returned short and the decoder faults if the instruction
        needs the missing bytes.
        """
        address &= 0xFFFFFFFF
        region = self._find(address)
        if region is None:
            raise PageFault(address, "exec", address)
        offset = address - region.start
        return bytes(region.data[offset:offset + count])
