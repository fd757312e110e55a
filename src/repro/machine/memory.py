"""Flat byte-addressable memory for the RIO-32 machine.

A single contiguous anonymous ``mmap`` models the low portion of a
32-bit address space; its pages are zero-filled by the OS on first
touch, so an address space the program never touches costs neither
set-up time nor resident memory.  Named *regions* give the loader and
the runtime distinct, non-overlapping address ranges (application code,
application heap, stack, and — crucially for the paper's transparency
requirements — a separate runtime heap and code cache that never alias
application memory).  Optional write protection catches a client or
runtime bug that scribbles over application code.

Write watches (:meth:`Memory.watch_range`, armed by cache consistency,
the shield and the native interpreter's decode cache) mark 64-byte
lines in a second anonymous ``mmap``, one byte per line (512 KiB of
address space for 32 MiB of memory), made at the first watch and, like
the backing store, resident only where touched: the shield's 132,096
watched lines (the 8 MiB code cache and its 64 KiB reserve) make
129 KiB of it resident.

The accessor methods are the exact, checked path.  Compiled code may
inline an access instead (``repro.machine.exec_ops`` accessor closures,
``repro.core.closures`` generated fragment code), under one contract:

* a load of ``n`` bytes at an effective address ``addr`` unpacks
  :meth:`Memory.view` directly when ``0 <= addr <= size - n``.  ``addr``
  is either wrapped to 32 bits or the unwrapped sum ``disp + base +
  index * scale`` (generated fragment code): a sum that would wrap lies
  outside that range, and every accessor wraps its own address.  The
  lower bound is needed only for a sum with a negative displacement,
  and there it is needed: an ``mmap`` index or ``struct`` offset below
  0 counts from the end, so a negative address that passed would read
  or write the last bytes of memory where the method faults;
* a store does the same only when, tested at store time, ``_protect``
  is off and ``_watch_lines`` is ``None`` or holds zero for each watch
  line it touches (cache consistency, the shield and the interpreter's
  decode cache arm watches mid-run);
* every other access calls the method with the address as it is, which
  raises the exact :class:`MachineFault` or runs the protection check
  and watchers;
* a generated run may reuse a 4-byte value it already holds — one it
  loaded or stored through the same address form earlier in the run,
  with no possibly overlapping store, address-register write or call
  out of the run since — instead of loading it again (such a load
  cannot fault, and reads have no side effects).
"""

import mmap
import struct

from repro.machine.errors import MachineFault

_MASK32 = 0xFFFFFFFF

# Little-endian codecs shared by the accessors and the inline paths.
U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")

# Write-watch granularity: watched address ranges are rounded out to
# 64-byte lines, and ``Memory._watch_lines`` holds one byte per line
# (1 = watched), so a store's watch test reads the byte of each line it
# touches: ``_watch_lines[addr >> WATCH_SHIFT]``.
WATCH_SHIFT = 6


class Region:
    """A named address range ``[start, start+size)``."""

    __slots__ = ("name", "start", "size", "writable")

    def __init__(self, name, start, size, writable=True):
        self.name = name
        self.start = start
        self.size = size
        self.writable = writable

    @property
    def end(self):
        return self.start + self.size

    def contains(self, addr):
        return self.start <= addr < self.end

    def overlaps(self, other):
        return self.start < other.end and other.start < self.end

    def __repr__(self):
        return "<Region %s [0x%x, 0x%x)%s>" % (
            self.name,
            self.start,
            self.end,
            "" if self.writable else " ro",
        )


class Memory:
    """Simulated physical memory with region bookkeeping."""

    def __init__(self, size=1 << 24):
        self.size = size
        self._bytes = mmap.mmap(-1, size)
        self._regions = {}
        self._protect = False
        # Write monitoring (cache consistency / SMC detection, the
        # shield): ``None`` until the first :meth:`watch_range`, so every
        # write path pays a single attribute test, mirroring
        # ``_protect``; then the line table (see ``WATCH_SHIFT``).
        self._watch_lines = None
        self._watchers = ()
        # Optional fault-context provider (``fn() -> app PC or None``),
        # consulted on error paths only: raised faults then blame the
        # application instruction that performed the access.
        self._fault_pc = None

    # -------------------------------------------------------------- regions

    def add_region(self, name, start, size, writable=True):
        region = Region(name, start, size, writable=writable)
        if region.end > self.size:
            raise MachineFault(
                "region %s extends past memory (0x%x > 0x%x)"
                % (name, region.end, self.size)
            )
        for other in self._regions.values():
            if region.overlaps(other):
                raise MachineFault(
                    "region %s overlaps %s" % (region, other)
                )
        self._regions[name] = region
        return region

    def region(self, name):
        return self._regions[name]

    def regions(self):
        return list(self._regions.values())

    def region_containing(self, addr):
        for region in self._regions.values():
            if region.contains(addr):
                return region
        return None

    def set_protection(self, enabled):
        """Enable/disable write-protection checks (off = fast path)."""
        self._protect = bool(enabled)

    def set_fault_context(self, fn):
        """Register a fault-context provider: ``fn()`` returns the
        current application PC (or ``None``).  Consulted only when a
        fault is raised — never on the access fast path — so faults can
        name the application instruction responsible."""
        self._fault_pc = fn

    def _fault_detail(self, addr, with_region=True):
        """Diagnostic suffix for fault messages: the region containing
        ``addr`` (when known and wanted) and the attributed app PC."""
        parts = []
        if with_region:
            region = self.region_containing(addr)
            if region is not None:
                parts.append("region %s" % region.name)
        fn = self._fault_pc
        if fn is not None:
            pc = fn()
            if pc is not None:
                parts.append("app pc 0x%x" % pc)
        return " (%s)" % ", ".join(parts) if parts else ""

    def _check_write(self, addr, size):
        region = self.region_containing(addr)
        if region is not None and not region.writable:
            raise MachineFault(
                "write of %d bytes to read-only region %s at 0x%x%s"
                % (
                    size,
                    region.name,
                    addr,
                    self._fault_detail(addr, with_region=False),
                )
            )

    # --------------------------------------------------------- write watching

    def add_write_watcher(self, fn):
        """Register ``fn(addr, size)`` to run on writes into watched ranges.

        Watchers only fire for addresses covered by :meth:`watch_range`;
        they must not write to memory themselves.
        """
        self._watchers = self._watchers + (fn,)

    def watch_range(self, start, end):
        """Watch writes touching ``[start, end)`` (rounded out to lines,
        clamped to the memory size).  A line once watched stays so."""
        lines = self._watch_lines
        if lines is None:
            lines = self._watch_lines = mmap.mmap(
                -1, ((self.size - 1) >> WATCH_SHIFT) + 1
            )
        first = start >> WATCH_SHIFT
        stop = min(((end - 1) >> WATCH_SHIFT) + 1, len(lines))
        if first < stop:
            lines[first:stop] = b"\x01" * (stop - first)

    def _notify_write(self, addr, size):
        for fn in self._watchers:
            fn(addr, size)

    # ------------------------------------------------------------- accessors

    def read_u8(self, addr):
        addr &= _MASK32
        if addr >= self.size:
            raise MachineFault(
                "read past memory at 0x%x%s"
                % (addr, self._fault_detail(addr))
            )
        return self._bytes[addr]

    def read_u16(self, addr):
        addr &= _MASK32
        if addr + 2 > self.size:
            raise MachineFault(
                "read past memory at 0x%x%s"
                % (addr, self._fault_detail(addr))
            )
        return U16.unpack_from(self._bytes, addr)[0]

    def read_u32(self, addr):
        addr &= _MASK32
        if addr + 4 > self.size:
            raise MachineFault(
                "read past memory at 0x%x%s"
                % (addr, self._fault_detail(addr))
            )
        return U32.unpack_from(self._bytes, addr)[0]

    def write_u8(self, addr, value):
        addr &= _MASK32
        if addr >= self.size:
            raise MachineFault(
                "write past memory at 0x%x%s"
                % (addr, self._fault_detail(addr))
            )
        if self._protect:
            self._check_write(addr, 1)
        self._bytes[addr] = value & 0xFF
        lines = self._watch_lines
        if lines is not None and lines[addr >> WATCH_SHIFT]:
            self._notify_write(addr, 1)

    def write_u32(self, addr, value):
        addr &= _MASK32
        if addr + 4 > self.size:
            raise MachineFault(
                "write past memory at 0x%x%s"
                % (addr, self._fault_detail(addr))
            )
        if self._protect:
            self._check_write(addr, 4)
        U32.pack_into(self._bytes, addr, value & _MASK32)
        lines = self._watch_lines
        if lines is not None and (
            lines[addr >> WATCH_SHIFT] or lines[(addr + 3) >> WATCH_SHIFT]
        ):
            self._notify_write(addr, 4)

    def read_bytes(self, addr, n):
        addr &= _MASK32
        if addr + n > self.size:
            raise MachineFault(
                "read past memory at 0x%x%s"
                % (addr, self._fault_detail(addr))
            )
        return bytes(self._bytes[addr : addr + n])

    def write_bytes(self, addr, data):
        addr &= _MASK32
        if addr + len(data) > self.size:
            raise MachineFault(
                "write past memory at 0x%x%s"
                % (addr, self._fault_detail(addr))
            )
        if self._protect:
            self._check_write(addr, len(data))
        self._bytes[addr : addr + len(data)] = data
        lines = self._watch_lines
        if lines is not None and len(data):
            last = (addr + len(data) - 1) >> WATCH_SHIFT
            if lines.find(b"\x01", addr >> WATCH_SHIFT, last + 1) >= 0:
                self._notify_write(addr, len(data))

    def view(self):
        """The raw backing store, an ``mmap`` the size of memory: the
        decoder's and the inline accessors' fast paths index, slice and
        ``struct``-unpack it directly.  It is never replaced, so a bound
        reference stays current."""
        return self._bytes
