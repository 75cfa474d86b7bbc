"""Memory map semantics: regions, permissions, faults, poke/peek,
dirty-page tracking."""

from __future__ import annotations

import pytest

from repro.emu import Memory, PAGE_SIZE, PageFault


@pytest.fixture
def memory():
    m = Memory()
    m.map_region("text", 0x1000, b"\x90" * 256, writable=False)
    m.map_region("data", 0x2000, 256)
    return m


class TestReadWrite:
    def test_read8(self, memory):
        assert memory.read8(0x1000) == 0x90

    def test_write_read_32(self, memory):
        memory.write32(0x2000, 0x11223344)
        assert memory.read32(0x2000) == 0x11223344
        assert memory.read8(0x2000) == 0x44   # little endian

    def test_write_read_16(self, memory):
        memory.write16(0x2010, 0xBEEF)
        assert memory.read16(0x2010) == 0xBEEF

    def test_read_bytes(self, memory):
        memory.write_bytes(0x2020, b"hello")
        assert memory.read_bytes(0x2020, 5) == b"hello"

    def test_read_cstring(self, memory):
        memory.write_bytes(0x2030, b"abc\x00def")
        assert memory.read_cstring(0x2030) == b"abc"

    def test_cstring_limit(self, memory):
        memory.write_bytes(0x2040, b"x" * 32)
        assert len(memory.read_cstring(0x2040, limit=8)) == 8

    def test_cross_region_boundary_read_faults(self, memory):
        with pytest.raises(PageFault):
            memory.read32(0x10FE)   # last 2 bytes of text + unmapped


class TestFaults:
    def test_unmapped_read(self, memory):
        with pytest.raises(PageFault):
            memory.read8(0x5000)

    def test_unmapped_write(self, memory):
        with pytest.raises(PageFault):
            memory.write8(0x5000, 1)

    def test_text_write_faults(self, memory):
        with pytest.raises(PageFault):
            memory.write8(0x1000, 0xCC)

    def test_fault_reports_access_and_target(self, memory):
        with pytest.raises(PageFault) as info:
            memory.write8(0x1000, 0xCC, eip=0x1234)
        assert info.value.access == "write"
        assert info.value.target == 0x1000
        assert info.value.address == 0x1234

    def test_fetch_unmapped_faults(self, memory):
        with pytest.raises(PageFault):
            memory.fetch_window(0x9000)


class TestPokePeek:
    def test_poke_bypasses_write_protection(self, memory):
        memory.poke(0x1000, 0xCC)
        assert memory.peek(0x1000) == 0xCC
        assert memory.read8(0x1000) == 0xCC

    def test_poke_unmapped_faults(self, memory):
        with pytest.raises(PageFault):
            memory.poke(0x8000, 0)


class TestRegions:
    def test_overlap_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.map_region("bad", 0x1080, 16)

    def test_region_named(self, memory):
        assert memory.region_named("text").start == 0x1000
        with pytest.raises(KeyError):
            memory.region_named("nope")

    def test_fetch_window_truncates_at_boundary(self, memory):
        window = memory.fetch_window(0x10F8, 15)
        assert len(window) == 8

    def test_address_wraparound_masked(self, memory):
        # addresses are masked to 32 bits
        memory.write8(0x2000 + 0x100000000, 7)
        assert memory.read8(0x2000) == 7


class TestWritableEnforcement:
    """Every store path must honour ``Region.writable`` -- including
    the inlined 16/32-bit fast paths and the locality-cache hit case
    (the cache may point at the read-only region)."""

    @pytest.mark.parametrize("width", [8, 16, 32])
    def test_all_store_widths_fault_on_text(self, memory, width):
        # Prime the locality cache onto the read-only region first, so
        # the fast path (not just _find) sees the permission bit.
        assert memory.read8(0x1010) == 0x90
        write = getattr(memory, "write%d" % width)
        with pytest.raises(PageFault):
            write(0x1010, 0x5A)
        assert memory.read8(0x1010) == 0x90

    def test_failed_store_marks_nothing_dirty(self, memory):
        for width in (8, 16, 32):
            with pytest.raises(PageFault):
                getattr(memory, "write%d" % width)(0x1010, 0x5A)
        assert memory.region_named("text").dirty == set()

    def test_store_to_text_crashes_with_sigsegv(self):
        """End to end: an emulated store to the text segment must kill
        the process with a SIGSEGV crash status (the paper's SD
        category), not silently patch the code."""
        from repro.emu import Process
        from repro.kernel import Kernel
        from repro.x86 import assemble
        module = assemble("""
.text
.global _start
_start:
    movl $_start, %ecx
    movl %eax, (%ecx)
""")
        status = Process(module, Kernel()).run()
        assert status.kind == "crash"
        assert status.signal == "SIGSEGV"
        assert status.vector == "#PF"


class TestDirtyTracking:
    @pytest.fixture
    def big(self):
        m = Memory()
        m.map_region("data", 0x10000, PAGE_SIZE * 4)
        return m

    def test_clean_after_mapping(self, memory):
        assert memory.dirty_pages() == {}

    def test_write8_marks_page(self, big):
        big.write8(0x10000 + PAGE_SIZE + 5, 1)
        assert big.dirty_pages() == {"data": [1]}

    def test_write16_write32_mark_page(self, big):
        big.write16(0x10000, 0xBEEF)
        big.write32(0x10000 + 2 * PAGE_SIZE, 0xDEADBEEF)
        assert big.dirty_pages() == {"data": [0, 2]}

    def test_straddling_store_marks_both_pages(self, big):
        big.write32(0x10000 + PAGE_SIZE - 2, 0x11223344)
        big.write16(0x10000 + 3 * PAGE_SIZE - 1, 0x5566)
        assert big.dirty_pages() == {"data": [0, 1, 2, 3]}

    def test_poke_marks_page(self, memory):
        memory.poke(0x1004, 0xCC)   # read-only text: poke bypasses
        assert memory.dirty_pages() == {"text": [0]}

    def test_reads_do_not_mark(self, big):
        big.read8(0x10000)
        big.read16(0x10004)
        big.read32(0x10008)
        big.peek(0x10000)
        big.fetch_window(0x10000)
        assert big.dirty_pages() == {}

    def test_clear_dirty(self, big):
        big.write8(0x10000, 1)
        big.clear_dirty()
        assert big.dirty_pages() == {}

    def test_write_bytes_spanning_pages(self, big):
        big.write_bytes(0x10000 + PAGE_SIZE - 2, b"abcd")
        assert big.dirty_pages() == {"data": [0, 1]}

    def test_page_count(self, memory, big):
        assert memory.region_named("data").page_count() == 1
        assert big.region_named("data").page_count() == 4


class TestCopyPaths:
    """The kernel's copy helpers take one slice inside a region; they
    must agree with plain per-byte ``read8``/``write8`` loops on every
    result, fault (kind, address, EIP) and dirty page, including
    ranges that straddle regions or touch unmapped or read-only
    memory (where a write is partial)."""

    @staticmethod
    def layout():
        m = Memory()
        m.map_region("text", 0x1000, bytes(range(256)) * 16,
                     writable=False)
        m.map_region("data", 0x2000, PAGE_SIZE * 2)     # adjacent
        m.map_region("stack", 0x5000, PAGE_SIZE)
        m.write_bytes(0x2000 + PAGE_SIZE * 2 - 3, b"ab\0")
        m.write_bytes(0x2FFE, b"xy")                    # no NUL
        m.clear_dirty()
        return m

    #: starts near every boundary: region ends, page edges, gaps
    STARTS = [0x0FFE, 0x1000, 0x1FF0, 0x1FFE, 0x2000, 0x2FFC, 0x2FFE,
              0x3FFA, 0x3FFE, 0x4FFE, 0x5000, 0x5FFC, 0x5FFF,
              0x100002000]
    COUNTS = [0, 1, 2, 4, 9, 40]

    @staticmethod
    def outcome(call):
        try:
            return ("ok", call())
        except PageFault as fault:
            return ("fault", fault.access, fault.target, fault.address)

    @staticmethod
    def state(m):
        return ([bytes(region.data) for region in m.regions],
                m.dirty_pages())

    def test_read_bytes_matches_per_byte(self):
        m = self.layout()
        for start in self.STARTS:
            for count in self.COUNTS:
                fast = self.outcome(lambda: m.read_bytes(start, count, 7))
                slow = self.outcome(lambda: bytes(
                    m.read8(start + i, 7) for i in range(count)))
                assert fast == slow, (hex(start), count)

    def test_read_cstring_matches_per_byte(self):
        def per_byte(m, address, limit):
            out = bytearray()
            for i in range(limit):
                byte = m.read8(address + i, 7)
                if byte == 0:
                    break
                out.append(byte)
            return bytes(out)

        m = self.layout()
        for start in self.STARTS + [0x3FFD, 0x1001]:
            for limit in self.COUNTS + [4096]:
                fast = self.outcome(lambda: m.read_cstring(start, limit, 7))
                slow = self.outcome(lambda: per_byte(m, start, limit))
                assert fast == slow, (hex(start), limit)

    def test_write_bytes_matches_per_byte(self):
        for start in self.STARTS:
            for count in self.COUNTS:
                blob = bytes((0x41 + i) & 0xFF for i in range(count))
                fast, slow = self.layout(), self.layout()
                got = self.outcome(lambda: fast.write_bytes(start, blob, 7))

                def per_byte():
                    for i, byte in enumerate(blob):
                        slow.write8(start + i, byte, 7)

                want = self.outcome(per_byte)
                assert got == want, (hex(start), count)
                assert self.state(fast) == self.state(slow), \
                    (hex(start), count)
