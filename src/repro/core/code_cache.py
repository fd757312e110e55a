"""Code cache address allocation and capacity management.

Fragments live in the simulated code-cache region of the address space
(disjoint from all application regions — part of transparency).  A
thread's cache is split into a basic-block cache and a trace cache,
mirroring Section 2.

Capacity management (paper Section 6) is per-unit and policy-driven:

* ``policy="flush"`` — allocation is a plain bump allocator; when the
  configured limit is reached the whole unit is flushed (the
  coarse-grained strategy the paper describes for DELI, and
  DynamoRIO's own fallback).  This is the default and reproduces the
  pre-adaptive behavior bit for bit.
* ``policy="fifo"`` — DynamoRIO's own scheme: single-fragment FIFO
  eviction with empty-slot reuse.  Freed ranges go on a free list
  (first-fit allocation, adjacent holes coalesced, the bump frontier
  retracted when the trailing hole reaches it); under pressure the
  runtime evicts resident fragments one at a time in allocation order
  (the eviction pointer) until the incoming fragment fits.

Either policy may be combined with *adaptive sizing*
(``adaptive=True``): the unit starts small and monitors the
regenerated-vs-replaced ratio — of the fragments evicted in the
current resize epoch, how many were rebuilt — and when the ratio
exceeds ``REGEN_THRESHOLD`` at an epoch boundary the unit grows by
``GROW_FACTOR``, sizing itself to the application's working set
instead of thrashing (Section 6.1).

An *empty* cache always accepts any fragment regardless of the limit:
a single fragment larger than the whole unit must still be placeable
once eviction has made room, as the sole resident.

:class:`CodeRegionMap` is the cache-consistency side table (paper
Section 6.2): it maps application-code byte ranges back to the
fragments translated from them, so a store into translated code can
invalidate exactly the stale fragments (including traces that stitched
the written block).
"""

from collections import deque

from repro.machine.memory import WATCH_SHIFT

# Evictions per adaptive resize epoch: at every RESIZE_EPOCH-th
# eviction the unit compares its regenerated/evicted ratio against
# REGEN_THRESHOLD and, when churn is higher, grows its limit by
# GROW_FACTOR.  Small enough that an undersized unit reacts within a
# few pressure events, large enough that one unlucky eviction cannot
# trigger growth.
RESIZE_EPOCH = 16
REGEN_THRESHOLD = 0.5
GROW_FACTOR = 2.0

# Unit size an adaptive cache starts from when no explicit
# code_cache_limit is configured ("start small, let the working set
# pull the size up").
ADAPTIVE_INITIAL_LIMIT = 2048


class CacheFullError(Exception):
    """Internal signal: allocation exceeded the configured limit."""


class CacheUnit:
    """One cache unit (bb or trace) with free-list allocation.

    ``policy`` only labels which pressure strategy the *runtime*
    applies to this unit (the eviction loop lives at the delete
    chokepoint in ``core/runtime.py``); the unit itself just accounts
    for space.  Under ``"flush"`` nothing is ever individually freed
    before the whole-unit flush, so the free list stays empty and the
    allocator degenerates to the original bump allocator.
    """

    def __init__(self, name, base, limit=None, policy="flush",
                 adaptive=False):
        self.name = name
        self.base = base
        self.limit = limit
        self.policy = policy
        self.cursor = base
        self.fragments = {}  # tag -> Fragment
        # Free-list allocator state: holes sorted by address, with the
        # running total kept alongside so occupancy stays O(1).
        self._holes = []  # list of [addr, size], address-sorted
        self.free_bytes = 0
        # Allocation order (the FIFO eviction pointer walks it).  May
        # contain stale entries (removed/replaced fragments); they are
        # skipped lazily when the pointer advances.
        self._order = deque()
        # Adaptive sizing state.
        self.adaptive = adaptive
        self.initial_limit = limit
        self.evictions = 0  # fragments evicted (any policy), total
        self.regenerated = 0  # evicted tags seen again by allocate()
        self.resizes = 0
        self._epoch_evictions = 0
        self._epoch_regenerated = 0
        self._evicted_tags = set()

    # ------------------------------------------------------------ accounting

    def used(self):
        """Live bytes: the bump span minus the holes inside it."""
        return (self.cursor - self.base) - self.free_bytes

    def span(self):
        """High-water bytes: everything below the bump frontier."""
        return self.cursor - self.base

    def was_evicted(self, tag):
        """Whether ``tag`` was evicted and has not been rebuilt since
        (feeds the regenerated-vs-replaced churn ratio and the
        ``fragment_emit`` event's ``regen`` flag)."""
        return tag in self._evicted_tags

    def fragmentation(self):
        """Free-list shape: (free bytes, hole count, largest hole)."""
        largest = max((h[1] for h in self._holes), default=0)
        return self.free_bytes, len(self._holes), largest

    def occupancy(self):
        """Observability snapshot: bytes used, limit, resident count,
        fragmentation and churn (surfaced by the drtrace report and
        the cache_eviction / cache_evict / cache_resize events)."""
        free_bytes, holes, largest = self.fragmentation()
        return {
            "unit": self.name,
            "used": self.used(),
            "limit": self.limit,
            "fragments": len(self.fragments),
            "policy": self.policy,
            "free_bytes": free_bytes,
            "holes": holes,
            "largest_hole": largest,
            "evictions": self.evictions,
            "regenerated": self.regenerated,
            "resizes": self.resizes,
        }

    # ------------------------------------------------------------ allocation

    def can_fit(self, size):
        """Whether ``allocate`` would succeed for a ``size``-byte
        fragment without any eviction."""
        if not self.fragments:
            return True
        if any(hole[1] >= size for hole in self._holes):
            return True
        return self.limit is None or self.span() + size <= self.limit

    def allocate(self, fragment):
        size = fragment.size
        if self.policy == "flush":
            # The original bump allocator, bit for bit: an empty cache
            # always accepts (at the current cursor), space freed by
            # remove() is deliberately leaked until the next flush.
            if (
                self.limit is not None
                and self.used() + size > self.limit
                and self.fragments
            ):
                raise CacheFullError(self.name)
            addr = self.cursor
            self.cursor += size
        elif not self.fragments:
            # An empty cache always accepts (a single fragment larger
            # than the configured limit must still be placeable after
            # eviction has drained the unit — it becomes the sole
            # resident).  Reset the allocator so the unit is compact.
            self._holes = []
            self.free_bytes = 0
            self._order.clear()
            self.cursor = self.base
            addr = self.base
            self.cursor += size
        else:
            old = self.fragments.get(fragment.tag)
            if old is not None and old.cache_addr is not None:
                # Same-tag re-emission (e.g. a trace rebuilt for a head
                # whose recording was squashed): the old fragment stops
                # being a resident, so its slot becomes a hole.  Its
                # stale _order entry is skipped lazily.
                self._free_range(old.cache_addr, old.size)
            addr = self._take_hole(size)
            if addr is None:
                if self.limit is not None and self.span() + size > self.limit:
                    raise CacheFullError(self.name)
                addr = self.cursor
                self.cursor += size
        fragment.cache_addr = addr
        self.fragments[fragment.tag] = fragment
        self._order.append(fragment)
        if fragment.tag in self._evicted_tags:
            # A previously evicted block came back: retranslation
            # churn, the signal the adaptive heuristic watches.
            self._evicted_tags.discard(fragment.tag)
            self.regenerated += 1
            self._epoch_regenerated += 1
        return addr

    def _take_hole(self, size):
        """First-fit: claim the front of the first hole that fits."""
        holes = self._holes
        for i, hole in enumerate(holes):
            if hole[1] >= size:
                addr = hole[0]
                if hole[1] == size:
                    del holes[i]
                else:
                    hole[0] += size
                    hole[1] -= size
                self.free_bytes -= size
                return addr
        return None

    def _free_range(self, addr, size):
        """Return ``[addr, addr+size)`` to the free list, coalescing
        with adjacent holes and retracting the bump frontier when the
        trailing hole reaches it."""
        if size <= 0:
            return
        holes = self._holes
        lo = 0
        hi = len(holes)
        while lo < hi:  # insertion point by address
            mid = (lo + hi) // 2
            if holes[mid][0] < addr:
                lo = mid + 1
            else:
                hi = mid
        holes.insert(lo, [addr, size])
        self.free_bytes += size
        # Coalesce with the successor, then the predecessor.
        if lo + 1 < len(holes) and holes[lo][0] + holes[lo][1] == holes[lo + 1][0]:
            holes[lo][1] += holes[lo + 1][1]
            del holes[lo + 1]
        if lo > 0 and holes[lo - 1][0] + holes[lo - 1][1] == holes[lo][0]:
            holes[lo - 1][1] += holes[lo][1]
            del holes[lo]
        # Retract the frontier over a trailing hole: those bytes go
        # back to bump allocation (keeps span() an honest high-water
        # mark and the limit check from double-counting freed space).
        if holes and holes[-1][0] + holes[-1][1] == self.cursor:
            self.cursor = holes[-1][0]
            self.free_bytes -= holes[-1][1]
            del holes[-1]

    # --------------------------------------------------------------- queries

    def lookup(self, tag):
        return self.fragments.get(tag)

    def remove(self, fragment):
        existing = self.fragments.get(fragment.tag)
        if existing is fragment:
            del self.fragments[fragment.tag]
            if self.policy == "flush":
                # Pre-fifo behavior: the slot is leaked (reclaimed only
                # by the next whole-unit flush).
                pass
            elif not self.fragments:
                # Cheap full defragmentation: an empty unit is compact.
                self._holes = []
                self.free_bytes = 0
                self._order.clear()
                self.cursor = self.base
            elif fragment.cache_addr is not None:
                self._free_range(fragment.cache_addr, fragment.size)
            # _order entry is dropped lazily by next_eviction().

    # -------------------------------------------------------------- eviction

    def next_eviction(self):
        """The FIFO eviction pointer: the oldest resident fragment, or
        ``None`` when the unit is empty.  Stale order entries (removed,
        replaced, or already deleted fragments) are discarded on the
        way."""
        order = self._order
        fragments = self.fragments
        while order:
            fragment = order[0]
            if fragment.deleted or fragments.get(fragment.tag) is not fragment:
                order.popleft()
                continue
            return fragment
        return None

    def record_eviction(self, fragment):
        """Account one capacity eviction (single-fragment or as part
        of a whole-unit flush) for the adaptive churn ratio."""
        self.evictions += 1
        self._epoch_evictions += 1
        self._evicted_tags.add(fragment.tag)

    def check_resize(self):
        """Adaptive sizing: at a resize-epoch boundary, grow the unit
        when the regenerated/evicted ratio says the working set does
        not fit.  Returns ``(old_limit, new_limit)`` when the unit
        grew, else ``None``."""
        if not self.adaptive or self.limit is None:
            return None
        if self._epoch_evictions < RESIZE_EPOCH:
            return None
        ratio = self._epoch_regenerated / self._epoch_evictions
        self._epoch_evictions = 0
        self._epoch_regenerated = 0
        if ratio <= REGEN_THRESHOLD:
            return None
        old = self.limit
        self.limit = max(old + 1, int(old * GROW_FACTOR))
        self.resizes += 1
        return old, self.limit

    def flush(self):
        """Drop everything; returns the fragments that were resident."""
        dropped = list(self.fragments.values())
        self.fragments.clear()
        self._holes = []
        self.free_bytes = 0
        self._order.clear()
        self.cursor = self.base
        return dropped

    def __len__(self):
        return len(self.fragments)


class CodeRegionMap:
    """Application-code range -> translated fragments (cache consistency).

    Line-indexed (same granularity as the memory write watch): each
    registered fragment appears in the bucket of every line its source
    spans touch.  ``overlapping`` filters the bucket hits down to exact
    byte-range overlaps, so a store next to — but not into — translated
    code invalidates nothing.

    Entries carry the owning thread because caches are (by default)
    thread-private: the same application block may be translated once
    per thread, and an SMC store must invalidate every copy.
    """

    def __init__(self):
        self._by_page = {}  # line -> list of entries
        self._entries = {}  # id(fragment) -> (fragment, spans, thread)

    def __len__(self):
        return len(self._entries)

    def register(self, fragment, spans, thread, memory):
        """Track ``fragment`` as translated from ``spans`` and arm the
        memory write watch over those ranges."""
        spans = tuple(
            (int(start), int(end)) for start, end in spans if end > start
        )
        if not spans:
            return
        key = id(fragment)
        if key in self._entries:
            self.unregister(fragment)
        entry = (fragment, spans, thread)
        self._entries[key] = entry
        by_page = self._by_page
        for start, end in spans:
            memory.watch_range(start, end)
            for page in range(start >> WATCH_SHIFT, ((end - 1) >> WATCH_SHIFT) + 1):
                by_page.setdefault(page, []).append(entry)

    def unregister(self, fragment):
        entry = self._entries.pop(id(fragment), None)
        if entry is None:
            return
        by_page = self._by_page
        for start, end in entry[1]:
            for page in range(start >> WATCH_SHIFT, ((end - 1) >> WATCH_SHIFT) + 1):
                bucket = by_page.get(page)
                if bucket is None:
                    continue
                bucket[:] = [e for e in bucket if e is not entry]
                if not bucket:
                    del by_page[page]

    def overlapping(self, addr, size):
        """Entries whose source spans intersect ``[addr, addr+size)``,
        as ``(fragment, thread)`` pairs in registration order."""
        end = addr + size
        hits = []
        seen = set()
        for page in range(addr >> WATCH_SHIFT, ((end - 1) >> WATCH_SHIFT) + 1):
            for entry in self._by_page.get(page, ()):
                key = id(entry[0])
                if key in seen:
                    continue
                if any(s < end and addr < e for s, e in entry[1]):
                    seen.add(key)
                    hits.append((entry[0], entry[2]))
        return hits
