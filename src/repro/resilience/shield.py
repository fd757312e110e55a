"""Runtime self-protection and the failsafe escalation ladder ("drshield").

Deployed descendants of DynamoRIO survive two classes of trouble the
base infrastructure does not: *errant application stores* into the
runtime's own data structures (code cache, exit stubs, IBL tables),
and *internal faults* in the runtime's own translate/emit/link/cache
paths.  Behind ``options.shield`` this module supplies both defenses:

:class:`Shield` — self-protection and forward progress.

* Arms ``Memory.watch_range`` over every runtime-owned range: the
  whole code-cache region (fragment bodies and exit stubs live there)
  plus the shield reserve at the top of the runtime heap, which holds
  the per-thread IBL tables' symbolic ranges and the runtime scratch
  area.  ``dr_global_alloc`` storage (the bottom of the runtime heap)
  is deliberately *not* watched: it is client-owned by design and
  legitimate instrumentation stores flow there.
* An application store into a watched range is recorded and delivered
  at the next application-consistent point (a mid-fragment poll under
  ``options.precise_interrupts``, the next fragment boundary
  otherwise) — the same unwind discipline as drdetach, so the
  attributed PC comes from the fragments' translation tables.  A
  legitimate SMC store into *application* code never reaches here: it
  keeps flowing through the cache-consistency watcher.
* Recovery is surgical: the clobbered cache unit (and only it) is
  invalidated through the delete chokepoint; a clobbered IBL table is
  rebuilt from the live caches.  The store itself always lands first
  (native store semantics), so application-visible behavior stays
  byte-identical to native.
* The forward-progress watchdog counts re-translations of the same tag
  without an intervening execution; past ``WATCHDOG_LIMIT`` it
  trips — first a cache flush, then a full detach to native.

:class:`RuntimeGuard` — internal fault containment.

Wraps the runtime's chokepoints (bb build, emit, link, unlink,
eviction, trace promotion).  An unexpected exception becomes a
recorded ``shield_fault`` and a rung on the recovery ladder: retry the
translation → discard the fragment/recording → flush the thread's
caches → disable the optional subsystem that faulted (traces, fifo
eviction, direct linking) with a ``subsystem_disabled``
event → full ``Runtime.detach()`` to native after ``FAULT_LIMIT``
faults.  Every seeded internal fault therefore ends in a correct
native-fidelity run, never a traceback.

When ``options.shield`` is off the runtime's ``shield``/``rguard``
attributes are ``None`` and every new check is a single pointer test;
simulated cycles, stats, and events are bit-identical to pre-shield
behavior.
"""

from repro.core.emit import STUB_SIZE
from repro.observe.events import (
    EV_SHIELD_FAULT,
    EV_SUBSYSTEM_DISABLED,
    EV_WATCHDOG_TRIP,
)

# Top slice of the runtime heap reserved for shield-protected runtime
# data: scratch in the lower half, per-thread symbolic IBL ranges in
# the upper half.  dr_global_alloc bumps from the bottom of the heap
# and never reaches the reserve in practice.
SHIELD_RESERVE = 0x10000
# Symbolic address span assigned to one thread's IBL table.
IBL_RANGE_SIZE = 0x800

# Chokepoints the containment ladder covers (the fault-injection sites).
RUNTIME_SITES = ("bb_build", "emit", "link", "unlink", "evict", "trace")

# Internal faults tolerated before the ladder's last rung (a full
# detach to native).
FAULT_LIMIT = 5

# Re-translations of one tag without an intervening execution before
# the forward-progress watchdog trips (the first trip flushes the
# thread's caches, the second detaches).
WATCHDOG_LIMIT = 8

# site -> (fault count at which the subsystem is disabled, subsystem).
# Sites without an entry have no optional subsystem to turn off; they
# escalate through the global fault limit only.
_DISABLE_RULES = {
    "link": (2, "direct_linking"),
    "evict": (2, "fifo_eviction"),
    "trace": (3, "traces"),
}


class InjectedRuntimeFault(Exception):
    """A deliberately planted runtime-internal fault (test harness).

    Carries ``site`` so the guard attributes the fault to the
    chokepoint the plan targeted even when it surfaces through an
    enclosing wrapper (an ``emit`` fault unwinds through the bb-build
    or trace ladder).
    """

    def __init__(self, message, site):
        super().__init__(message)
        self.site = site


class Shield:
    """Self-protection state for one runtime (``options.shield``)."""

    def __init__(self, runtime):
        self.runtime = runtime
        memory = runtime.memory
        heap = memory.region("runtime_heap")
        cache = memory.region("code_cache")
        self.reserve_base = heap.end - SHIELD_RESERVE
        self.ibl_base = self.reserve_base + SHIELD_RESERVE // 2
        self.reserve_end = heap.end
        memory.watch_range(cache.start, cache.end)
        memory.watch_range(self.reserve_base, self.reserve_end)
        memory.add_write_watcher(self._on_write)
        # Errant-write records awaiting delivery at the next
        # application-consistent point.
        self.pending = []
        self.errant_faults = 0
        # Forward-progress watchdog: tag -> builds since it executed.
        self._builds_since_progress = {}
        self.trips = 0

    # --------------------------------------------------------------- layout

    def ibl_range(self, thread_index):
        """The symbolic address range of one thread's IBL table."""
        start = self.ibl_base + thread_index * IBL_RANGE_SIZE
        return start, start + IBL_RANGE_SIZE

    def scratch_range(self):
        """The runtime scratch slice of the shield reserve."""
        return self.reserve_base, self.ibl_base

    # ------------------------------------------------------------- watching

    def _on_write(self, addr, size):
        """Memory write watcher: classify a store into a watched line.

        SMC into application code is not ours — the cache-consistency
        watcher owns it.  A store into runtime-owned memory is recorded
        (attribution happens now, while the clobbered structures still
        exist) and delivered by ``deliver`` once execution unwinds at
        an application-consistent point.
        """
        runtime = self.runtime
        region = runtime.memory.region_containing(addr)
        if region is None or region.name not in ("code_cache", "runtime_heap"):
            return
        if region.name == "runtime_heap" and addr < self.reserve_base:
            # dr_global_alloc storage: client-owned, legitimate.
            return
        owner, unit, unit_thread = self._attribute(addr)
        self.pending.append(
            {
                "addr": addr,
                "size": size,
                "region": region.name,
                "owner": owner,
                "unit": unit,
                "unit_thread": unit_thread,
                "thread": runtime.current_thread,
            }
        )
        runtime._shield_pending = True
        # Reuse the scheduler's unwind path (same as detach): execution
        # breaks at the next fragment boundary or poll.
        runtime._need_reschedule = True

    def _attribute(self, addr):
        """Which runtime structure ``addr`` falls in.

        Returns ``(owner, unit, thread)``: owner is one of
        ``fragment``/``stub``/``unit``/``cache``/``ibl``/``scratch``;
        unit is the clobbered :class:`CacheUnit` (when any) and thread
        the context owning it.
        """
        runtime = self.runtime
        if self.reserve_base <= addr < self.reserve_end:
            if addr >= self.ibl_base:
                index = (addr - self.ibl_base) // IBL_RANGE_SIZE
                threads = runtime.threads
                thread = threads[index] if index < len(threads) else None
                return "ibl", None, thread
            return "scratch", None, None
        seen = set()
        for thread in runtime.threads:
            for unit in (thread.bb_cache, thread.trace_cache):
                if id(unit) in seen:
                    continue
                seen.add(id(unit))
                if not (unit.base <= addr < unit.cursor):
                    continue
                for fragment in unit.fragments.values():
                    base = fragment.cache_addr
                    if base is None or not (base <= addr < base + fragment.size):
                        continue
                    stubs = STUB_SIZE * len(fragment.exits)
                    owner = (
                        "stub"
                        if stubs and addr >= base + fragment.size - stubs
                        else "fragment"
                    )
                    return owner, unit, thread
                return "unit", unit, thread
        return "cache", None, None

    # ------------------------------------------------------------- delivery

    def deliver(self):
        """Handle pending errant writes at a consistent point.

        Called from the run loop once execution has unwound (the
        same place a pending detach is honored).  Emits one
        ``shield_fault`` per recorded store — with the faulting
        application PC read off the writing thread's translated resume
        tag — and recovers by invalidating only the clobbered unit
        (or rebuilding the clobbered IBL table).
        """
        runtime = self.runtime
        runtime._shield_pending = False
        pending, self.pending = self.pending, []
        rguard = runtime.rguard
        for rec in pending:
            self.errant_faults += 1
            runtime.stats.shield_faults += 1
            pc = rec["thread"].resume_tag
            if runtime.observer is not None:
                unit = rec["unit"]
                runtime.observer.emit(
                    EV_SHIELD_FAULT,
                    pc,
                    kind="errant_write",
                    region=rec["region"],
                    addr=rec["addr"],
                    size=rec["size"],
                    owner=rec["owner"],
                    unit=unit.name if unit is not None else None,
                    pc=pc,
                )
            # Recovery runs with injection suppressed: the delete
            # chokepoint is itself a fault-injection site.
            if rguard is not None:
                rguard.recovering = True
            try:
                self._recover(rec)
            finally:
                if rguard is not None:
                    rguard.recovering = False
        runtime._squash_stale_recordings()

    def _recover(self, rec):
        runtime = self.runtime
        owner = rec["owner"]
        if owner in ("fragment", "stub", "unit"):
            # The store clobbered (a fragment, a stub, or free space
            # inside) one cache unit: invalidate that unit only.
            runtime._flush_cache(rec["unit"], thread=rec["unit_thread"])
        elif owner == "ibl":
            thread = rec["unit_thread"]
            if thread is not None:
                self._rebuild_ibl(thread)
        # "scratch" and "cache" (unallocated cache space): nothing
        # structural to invalidate; the event is the whole response.

    def _rebuild_ibl(self, thread):
        """Reconstruct a clobbered IBL table from the live caches,
        preserving the trace-heads-stay-out invariant (bb entries
        first so a shadowing trace overwrites its head's tag)."""
        thread.ibl.clear()
        for unit in (thread.bb_cache, thread.trace_cache):
            for fragment in unit.fragments.values():
                if fragment.deleted:
                    continue
                if fragment.is_trace_head and not fragment.is_trace:
                    continue
                thread.ibl.insert(fragment)

    # ------------------------------------------------------------- watchdog

    def note_build(self, tag):
        """Count one (re-)translation of ``tag``; trip the watchdog
        when the same tag keeps rebuilding without executing.

        Returns ``None`` (keep going), ``"flushed"`` (first trip:
        caches dropped, counters reset), or ``"detach"`` (second trip:
        the caller must escalate to a full detach).
        """
        counts = self._builds_since_progress
        count = counts.get(tag, 0) + 1
        counts[tag] = count
        if count <= WATCHDOG_LIMIT:
            return None
        runtime = self.runtime
        self.trips += 1
        runtime.stats.watchdog_trips += 1
        if runtime.observer is not None:
            runtime.observer.emit(
                EV_WATCHDOG_TRIP, tag, builds=count, trip=self.trips
            )
        counts.clear()
        if self.trips >= 2:
            return "detach"
        rguard = runtime.rguard
        if rguard is not None:
            rguard.recovering = True
        try:
            thread = runtime.current_thread
            runtime._flush_cache(thread.bb_cache, thread=thread)
            runtime._flush_cache(thread.trace_cache, thread=thread)
            runtime._squash_stale_recordings()
        finally:
            if rguard is not None:
                rguard.recovering = False
        return "flushed"

    def note_progress(self, tag):
        """``tag`` executed: forward progress, reset its build count."""
        self._builds_since_progress.pop(tag, None)


class RuntimeGuard:
    """Internal-fault containment ladder for one runtime."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.faults = 0
        self.site_faults = {}
        self.fault_log = []  # dicts: site, tag, error, message
        self.disabled = set()
        # Deterministic fault injection (tests/chaos): a RuntimeFaultPlan
        # targeting one chokepoint, or None for production behavior.
        self.plan = None
        self.injected = 0
        self._site_calls = {}
        self._build_index = 0
        # True while a recovery operation (flush, scrub, shield
        # delivery) runs: injection is suppressed and chokepoint
        # wrappers stand down so recovery cannot recurse into the
        # ladder.
        self.recovering = False
        # True while the dispatcher-owned build paths run: emit-site
        # injection only fires there, never under client API calls
        # (dr_replace_fragment) whose faults belong to the client guard.
        self.in_chokepoint = False
        self._detach_requested = False

    # ------------------------------------------------------------ injection

    def check(self, site, tag=None):
        """Fault-injection hook at a chokepoint entry: raises the
        planned :class:`InjectedRuntimeFault` on scheduled invocations;
        free when no plan targets this site."""
        plan = self.plan
        if plan is None or self.recovering:
            return
        if plan.site != site:
            return
        calls = self._site_calls.get(site, 0) + 1
        self._site_calls[site] = calls
        if plan.fires(calls):
            self.injected += 1
            raise InjectedRuntimeFault(
                "planted %s fault #%d" % (site, calls), site
            )

    def post_build(self, fragment):
        """Runtime-targeted injections that are not exceptions: errant
        stores into runtime-owned memory and translate/flush livelock.
        Returns ``"rebuild"`` when the livelock plan deleted the fresh
        fragment (the guarded build loops), else ``None``."""
        plan = self.plan
        if plan is None or self.recovering:
            return None
        kind = plan.kind
        if kind not in ("errant_write", "livelock"):
            return None
        self._build_index += 1
        if not plan.fires(self._build_index):
            return None
        self.injected += 1
        runtime = self.runtime
        if kind == "errant_write":
            self._errant_store(fragment)
            return None
        # Livelock: the freshly built fragment dies before it can run,
        # so the dispatcher rebuilds the same tag forever — exactly the
        # loop the watchdog exists to break.
        self.recovering = True
        try:
            runtime._delete_fragment(
                fragment, thread=runtime.current_thread
            )
        finally:
            self.recovering = False
        return "rebuild"

    def _errant_store(self, fragment):
        """Plant one application-grade store into runtime-owned memory
        (rotating over fragment body, stub bytes, the IBL range, and
        scratch) — through the real memory write path, so the shield's
        watcher, not the injector, detects and attributes it."""
        runtime = self.runtime
        shield = runtime.shield
        choice = self.plan.victim_rng.randrange(4)
        thread = runtime.current_thread
        base = fragment.cache_addr
        if base is None and choice in (0, 1):
            choice = 3
        if choice == 0:
            victim = base
        elif choice == 1:
            victim = base + max(fragment.size - 4, 0)
        elif choice == 2:
            index = runtime.threads.index(thread)
            victim = shield.ibl_range(index)[0] + 8
        else:
            victim = shield.scratch_range()[0] + 16
        runtime.memory.write_u32(victim, 0xDEADBEEF)

    # ---------------------------------------------------------------- faults

    def record_fault(self, site, tag, exc):
        """Attribute one internal fault and climb the ladder: emit the
        ``shield_fault`` event, disable the faulting optional subsystem
        at its per-site threshold, and request a full detach once the
        global ``FAULT_LIMIT`` is reached."""
        site = getattr(exc, "site", site)
        self.faults += 1
        count = self.site_faults.get(site, 0) + 1
        self.site_faults[site] = count
        runtime = self.runtime
        runtime.stats.shield_faults += 1
        self.fault_log.append(
            {
                "site": site,
                "tag": tag,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
        if runtime.observer is not None:
            runtime.observer.emit(
                EV_SHIELD_FAULT,
                tag,
                kind="internal",
                site=site,
                error=type(exc).__name__,
            )
        rule = _DISABLE_RULES.get(site)
        if rule is not None and count >= rule[0]:
            self.disable(rule[1], site)
        if self.faults >= FAULT_LIMIT:
            self.request_detach()

    def disable(self, subsystem, site):
        """Turn off the optional subsystem that keeps faulting; the run
        continues at native fidelity without it."""
        if subsystem in self.disabled:
            return
        self.disabled.add(subsystem)
        runtime = self.runtime
        runtime.stats.subsystems_disabled += 1
        if runtime.observer is not None:
            runtime.observer.emit(
                EV_SUBSYSTEM_DISABLED,
                None,
                subsystem=subsystem,
                site=site,
                faults=self.site_faults.get(site, 0),
            )
        options = runtime.options
        if subsystem == "traces":
            options.traces = False
            for thread in runtime.threads:
                thread.trace_in_progress = None
        elif subsystem == "fifo_eviction":
            options.cache_evict_policy = "flush"
            seen = set()
            for thread in runtime.threads:
                for unit in (thread.bb_cache, thread.trace_cache):
                    if id(unit) in seen:
                        continue
                    seen.add(id(unit))
                    unit.policy = "flush"
        elif subsystem == "direct_linking":
            options.link_direct = False

    def request_detach(self):
        """The ladder's last rung: bail to native, once."""
        if self._detach_requested:
            return
        self._detach_requested = True
        runtime = self.runtime
        if not runtime._detached:
            runtime.detach()

    @property
    def detach_requested(self):
        return self._detach_requested
