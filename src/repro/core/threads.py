"""Per-thread runtime context: thread-private code caches.

The paper found that very little code is shared between threads in
practice, so DynamoRIO duplicates fragments per thread rather than
synchronizing a shared cache (Section 2).  Each :class:`ThreadContext`
owns a bb cache, a trace cache, an IBL table, trace-head counters, and
the thread's CPU state; the shared-cache mode exists for the ablation
experiment.
"""

from repro.core.code_cache import ADAPTIVE_INITIAL_LIMIT, CacheUnit
from repro.core.ibl import IndirectBranchTable
from repro.machine.cpu import CPU


class ThreadContext:
    """Everything the runtime keeps per application thread."""

    _next_id = 0

    def __init__(self, runtime, cache_base, cache_limit=None, cpu=None,
                 share_from=None):
        self.runtime = runtime
        self.id = ThreadContext._next_id
        ThreadContext._next_id += 1
        self.cpu = cpu if cpu is not None else CPU()
        if share_from is not None:
            # Shared-cache mode (the ablation): all threads use one
            # bb/trace cache and one IBL table, paying a synchronization
            # cost on every build instead of duplicating fragments.
            self.bb_cache = share_from.bb_cache
            self.trace_cache = share_from.trace_cache
            self.ibl = share_from.ibl
        else:
            policy = runtime.options.cache_evict_policy
            half = None if cache_limit is None else cache_limit // 2
            if policy == "adaptive":
                # Adaptive with no explicit limit: start small and let
                # the resize heuristic grow toward the working set.
                if half is None:
                    half = ADAPTIVE_INITIAL_LIMIT
                # Limits grow at runtime, so give the trace unit a
                # fixed offset inside this thread's cache stripe
                # instead of stacking it right above the bb unit.
                # (cache_addr is symbolic bookkeeping, never
                # dereferenced — this only keeps dumps readable.)
                trace_base = cache_base + 0x80000
            else:
                trace_base = cache_base + (half or 0x200000)
            self.bb_cache = CacheUnit("bb", cache_base, half, policy)
            self.trace_cache = CacheUnit("trace", trace_base, half, policy)
            self.ibl = IndirectBranchTable()
        # Client state (paper Section 3.2: "a generic thread-local
        # storage field for use by clients").
        self.client_field = None
        # Register spill slots (paper Section 3.2).
        self.spill_slots = [0] * 4
        # Trace building state.
        self.trace_in_progress = None
        # Scheduler state.
        self.resume_tag = None
        self.prev_stub = None
        self.exited = False

    def lookup_fragment(self, tag):
        """Trace cache first (traces shadow bbs for the same tag)."""
        fragment = self.trace_cache.lookup(tag)
        if fragment is not None:
            return fragment
        return self.bb_cache.lookup(tag)
