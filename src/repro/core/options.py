"""Runtime configuration.

The four presets reproduce the rows of the paper's Table 1 that run
under the code cache, each adding one mechanism to the previous
configuration.  The table's first row, pure emulation, has no code
cache and no runtime: it is the interpreter's
(``Interpreter(mode="emulation")``, :mod:`repro.machine.interp`).
"""


class RuntimeOptions:
    """All runtime knobs; instances are plain mutable objects."""

    def __init__(
        self,
        link_direct=True,
        link_indirect=True,
        traces=True,
        trace_threshold=20,
        thread_private=True,
        code_cache_limit=None,
        sideline_optimization=False,
        verify_fragments=False,
        trace_events=False,
        trace_buffer=65536,
        guard_clients=False,
        client_hook_budget=None,
        cache_consistency=False,
        cache_evict_policy="flush",
        precise_interrupts=False,
        shield=False,
        chain_engine=None,
    ):
        # ``chain_engine`` is accepted and discarded: there is one
        # execution tier, but bench/workloads.py:88 still passes it.
        # Table 1 mechanisms, cumulative over the bb cache.
        self.link_direct = link_direct
        self.link_indirect = link_indirect
        self.traces = traces
        # Trace construction parameter (the block limits are
        # bb_builder.MAX_BB_INSTRS and trace_builder.MAX_TRACE_BBS).
        self.trace_threshold = trace_threshold
        # Cache organization.
        self.thread_private = thread_private
        self.code_cache_limit = code_cache_limit  # bytes, None = unlimited
        # Capacity policy (paper Section 6), one of code_cache's three.
        # "flush" drops the whole unit when it fills (DELI's fallback;
        # the historical default).  "fifo" evicts single fragments in
        # allocation order with empty-slot reuse — DynamoRIO's own
        # scheme; strictly fewer retranslations under pressure,
        # simulated results otherwise unchanged for runs that never hit
        # the limit.  "adaptive" is fifo plus working-set sizing
        # (Section 6.1): code_cache_limit is the *initial* size, and a
        # pressured unit grows by code_cache.GROW_FACTOR whenever the
        # regenerated-vs-replaced ratio over a resize epoch
        # (code_cache.RESIZE_EPOCH evictions) exceeds
        # code_cache.REGEN_THRESHOLD — the cache sizes itself to the
        # application's working set instead of thrashing.
        self.cache_evict_policy = cache_evict_policy
        # Sideline optimization (the paper's Section 3.4 future work):
        # trace construction and client trace processing run on an idle
        # processor, so their cycles leave the application's critical
        # path (tracked separately as the "sideline_cycles" event).
        self.sideline_optimization = sideline_optimization
        # Debug mode: full verification at every runtime emit, after
        # client hooks, raising on errors.  Every rule of the fragment
        # verifier (repro.analysis.verifier) runs: the structural rules
        # and symbolic translation validation ("drequiv", the
        # equivalence rule) — the fragment computes the same registers,
        # flags, and store sequence as the application blocks it was
        # built from (modulo sanctioned differences; see
        # repro.analysis.equiv).  The two halves form one proof:
        # equivalence erases meta instructions and relies on the
        # structural rules to show the erasure is safe.  Costs zero
        # simulated cycles; off by default so the emit path stays a
        # single attribute check and the retranslation memo serves
        # rebuilds.
        self.verify_fragments = verify_fragments
        # Observability (repro.observe): record typed runtime events
        # and per-fragment cycle attribution.  Off by default — the
        # runtime's observer is None and every emit site is a single
        # pointer check; simulated cycles are identical either way.
        self.trace_events = trace_events
        # Ring-buffer capacity for recorded event detail (aggregate
        # per-kind counts are always exact); None = unbounded.
        self.trace_buffer = trace_buffer
        # Resilience (repro.resilience, "drguard").  guard_clients wraps
        # every client hook site in a fault guard: an exception (other
        # than a deliberate ClientHalt) discards the client's transform,
        # re-emits the fragment verbatim, and after guard.FAULT_LIMIT
        # faults quarantines the client entirely (hooks disabled, run
        # continues at native fidelity).  Off by default: runtime.guard
        # is None, execution hooks are compiled bare and every build-hook
        # site pays one pointer check; the guard itself charges no
        # simulated cycles, so results are identical with guarding on or
        # off for a well-behaved client.
        self.guard_clients = guard_clients
        # Optional deterministic hook budget: maximum number of Python
        # trace events (lines executed, calls, returns) a single client
        # hook may consume before it is treated as faulting.  None (the
        # default) disables budget enforcement; the chaos harness sets
        # it to contain runaway hooks.  Deterministic because hooks run
        # at fragment-build time, not per-instruction.
        self.client_hook_budget = client_hook_budget
        # Cache consistency: monitor stores into already-translated
        # application code (self-modifying code), invalidate and unlink
        # the stale fragments — including traces that stitched them —
        # and rebuild on next dispatch.  Off by default (zero cost).
        self.cache_consistency = cache_consistency
        # Precise interrupts ("drdetach", repro.core.translate): compile
        # an interrupt poll before every application-consistent op inside
        # fragments, so due alarms and pending detach requests are
        # honored *mid-fragment* with a latency bounded by the longest
        # run (<= bb_builder.MAX_BB_INSTRS instructions) instead
        # of waiting for the next dispatcher boundary.  Off by default:
        # the generated code carries no polls and every simulated result is
        # bit-identical to the pre-translation runtime.  Detach itself
        # works either way — boundary granularity without polls,
        # mid-fragment with them.
        self.precise_interrupts = precise_interrupts
        # Self-protection and failsafe ("drshield", repro.resilience
        # .shield): watch runtime-owned memory (code cache, exit stubs,
        # IBL tables, runtime scratch) for errant application stores and
        # recover by invalidating only the clobbered unit; run the
        # runtime's own chokepoints (build, emit, link, unlink, evict,
        # trace) through a RuntimeGuard whose escalation ladder runs
        # retry -> discard -> flush -> disable-subsystem -> detach to
        # native.  Off by default: runtime.shield/rguard are None, every
        # chokepoint is a single pointer test, and results are
        # bit-identical to pre-shield behavior.
        self.shield = shield

    # ------------------------------------------------------ Table 1 presets

    @classmethod
    def bb_cache_only(cls):
        """Row 2: basic block cache, every exit context-switches."""
        return cls(link_direct=False, link_indirect=False, traces=False)

    @classmethod
    def with_direct_links(cls):
        """Row 3: + direct branch linking."""
        return cls(link_indirect=False, traces=False)

    @classmethod
    def with_indirect_links(cls):
        """Row 4: + in-cache indirect branch lookup."""
        return cls(traces=False)

    @classmethod
    def with_traces(cls):
        """Row 5: + traces (the full default configuration)."""
        return cls()

    def __repr__(self):
        flags = ["bb_cache"] + [
            name for name in ("link_direct", "link_indirect", "traces")
            if getattr(self, name)
        ]
        return "<RuntimeOptions %s>" % "+".join(flags)
