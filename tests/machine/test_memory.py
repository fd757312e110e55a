import pytest

from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand
from repro.machine.cpu import CPU
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_write
from repro.machine.memory import WATCH_SHIFT, Memory

from tests.machine.bodies import compile_run


class TestAccess:
    def test_u8_roundtrip(self):
        m = Memory(size=0x1000)
        m.write_u8(0x10, 0xAB)
        assert m.read_u8(0x10) == 0xAB

    def test_u32_little_endian(self):
        m = Memory(size=0x1000)
        m.write_u32(0x20, 0x12345678)
        assert m.read_u8(0x20) == 0x78
        assert m.read_u8(0x23) == 0x12
        assert m.read_u32(0x20) == 0x12345678

    def test_u16(self):
        m = Memory(size=0x1000)
        m.write_bytes(0x30, b"\xcd\xab")
        assert m.read_u16(0x30) == 0xABCD

    def test_bytes_roundtrip(self):
        m = Memory(size=0x1000)
        m.write_bytes(0x40, b"hello")
        assert m.read_bytes(0x40, 5) == b"hello"

    def test_wraps_value_to_32_bits(self):
        m = Memory(size=0x1000)
        m.write_u32(0, 0x1_2345_6789)
        assert m.read_u32(0) == 0x23456789

    def test_out_of_range_faults(self):
        m = Memory(size=0x100)
        with pytest.raises(MachineFault):
            m.read_u32(0x100)
        with pytest.raises(MachineFault):
            m.write_u8(0x4000, 1)

    def test_accessors_wrap_their_own_address(self):
        """Generated code hands an address that fails its in-range test
        to the accessor unwrapped: a negative sum, or one past 2**32
        (an index may wrap it several times).  Each accessor wraps it to
        32 bits first, so it faults at, or reaches, the wrapped
        address."""
        m = Memory(size=0x100)
        for n, read, write in (
            (1, m.read_u8, m.write_u8), (2, m.read_u16, None),
            (4, m.read_u32, m.write_u32),
        ):
            wrapped = "0x%x" % ((1 << 32) - n)
            with pytest.raises(MachineFault) as fault:
                read(-n)
            assert str(fault.value) == "read past memory at " + wrapped
            if write is not None:
                with pytest.raises(MachineFault) as fault:
                    write(-n, 1)
                assert str(fault.value) == "write past memory at " + wrapped
        m.write_bytes(8, bytes(range(1, 9)))
        for past in (1 << 32, 8 << 32):
            assert m.read_u8(past + 8) == 1
            assert m.read_u16(past + 8) == 0x0201
            assert m.read_u32(past + 8) == 0x04030201
        m.write_u32((1 << 32) + 8, 0xDEADBEEF)
        m.write_u8((8 << 32) + 12, 0xAB)
        assert m.read_bytes(8, 5) == bytes((0xEF, 0xBE, 0xAD, 0xDE, 0xAB))


class TestRegions:
    def test_overlap_rejected(self):
        m = Memory(size=0x10000)
        m.add_region("a", 0x0, 0x100)
        with pytest.raises(MachineFault):
            m.add_region("b", 0x80, 0x100)

    def test_region_containing(self):
        m = Memory(size=0x10000)
        r = m.add_region("code", 0x1000, 0x100)
        assert m.region_containing(0x1050) is r
        assert m.region_containing(0x2000) is None

    def test_write_protection(self):
        m = Memory(size=0x10000)
        m.add_region("code", 0x1000, 0x100, writable=False)
        m.write_u32(0x1000, 1)  # protection off by default
        m.set_protection(True)
        with pytest.raises(MachineFault):
            m.write_u32(0x1000, 2)
        m.write_u32(0x5000, 3)  # outside any region: allowed

    def test_region_past_memory_rejected(self):
        m = Memory(size=0x100)
        with pytest.raises(MachineFault):
            m.add_region("big", 0x80, 0x100)


class TestWriteWatch:
    """The line table: one byte per 64-byte line, made at the first
    ``watch_range``; every store path tests the lines it touches."""

    @staticmethod
    def _watched(size, start, end):
        m = Memory(size=size)
        calls = []
        m.add_write_watcher(lambda addr, n: calls.append((addr, n)))
        m.watch_range(start, end)
        return m, calls

    def test_no_table_until_a_range_is_watched(self):
        m = Memory(size=0x1000)
        m.add_write_watcher(lambda addr, n: None)
        assert m._watch_lines is None
        m.watch_range(0x100, 0x104)
        assert len(m._watch_lines) == 0x1000 >> WATCH_SHIFT
        assert m._watch_lines[0x100 >> WATCH_SHIFT] == 1
        assert m._watch_lines[0] == 0

    def test_store_to_partial_last_line_fires(self):
        size = 0x1000 + 10  # the last line holds 10 bytes
        last = size - 1
        m, calls = self._watched(size, last, last + 1)
        assert len(m._watch_lines) == (0x1000 >> WATCH_SHIFT) + 1
        dst = MemOperand(disp=last, size=1)
        # The method, the native store closure and generated code.
        m.write_u8(last, 0xAB)
        compile_write(dst, m)(CPU(), 0xCD)
        fn, ex = compile_run(
            [(Opcode.MOVB_STORE, (dst, ImmOperand(0xEF)), 1)], m,
        )
        fn(ex, CPU())
        assert calls == [(last, 1)] * 3
        assert m.read_u8(last) == 0xEF
        m.write_u8(last - 10, 1)  # the line before is not watched
        assert len(calls) == 3

    def test_watch_past_the_end_clamps(self):
        m, calls = self._watched(0x1000, 0xFC0, 0x3000)
        m.watch_range(0x5000, 0x6000)  # wholly past the end: nothing to mark
        assert len(m._watch_lines) == 0x1000 >> WATCH_SHIFT
        m.write_u32(0xFFC, 7)
        assert calls == [(0xFFC, 4)]

    def test_write_bytes_across_lines_fires_once(self):
        m, calls = self._watched(0x1000, 0x140, 0x180)
        m.write_bytes(0x100, bytes(0x50))  # lines 4 (unwatched) and 5
        assert calls == [(0x100, 0x50)]
        m.write_bytes(0x100, bytes(0x40))  # line 4 only
        m.write_u32(0x13C, 1)  # straddles into nothing watched
        assert calls == [(0x100, 0x50)]
        m.write_u32(0x13E, 1)  # straddles into line 5
        assert calls == [(0x100, 0x50), (0x13E, 4)]

    def test_watcher_without_watched_lines_never_fires(self):
        m = Memory(size=0x1000)
        calls = []
        m.add_write_watcher(lambda addr, n: calls.append((addr, n)))
        m.write_u8(0, 1)
        m.write_u32(0x40, 2)
        m.write_bytes(0x80, b"abc")
        compile_write(MemOperand(disp=0xC0), m)(CPU(), 3)
        assert calls == []
        assert m._watch_lines is None
