"""The DynamoRIO runtime: dispatch loop, building, linking, traces.

``DynamoRIO(process, options, client).run()`` executes an unmodified
application image under the code cache, producing the same observable
behavior as native execution (output bytes + exit code) while charging
the runtime's overhead events to the cycle counter.

The flow mirrors the paper's Figure 1: dispatch looks up the next tag;
misses build a basic block (calling the client's basic-block hook);
direct exits are linked; trace heads are counted and hot heads trigger
trace generation mode, whose blocks are stitched into a trace (calling
the client's trace hook) that shadows its head.
"""


from repro.core.bb_builder import (
    block_instr_count,
    block_source_span,
    build_basic_block,
)
from repro.core import trace_builder
from repro.core.closures import fault_pc
from repro.core.code_cache import CacheFullError, CodeRegionMap
from repro.core.emit import emit_body, emit_fragment
from repro.core.execute import EXIT_INTERRUPT, Executor
from repro.core.fragments import Fragment, LinkStub
from repro.core.options import RuntimeOptions
from repro.core.stats import RuntimeStats
from repro.core.threads import ThreadContext
from repro.core.trace_builder import (
    CONTINUE_TRACE,
    DEFAULT_TRACE_END,
    END_TRACE,
    TraceRecording,
    default_end_of_trace,
    report_stitch,
    stitch_trace,
)
from repro.machine.cost import CostModel, CycleCounter
from repro.machine.errors import ProgramExit
from repro.machine.interp import DEFAULT_MAX_INSTRUCTIONS, Interpreter, RunResult
from repro.machine.system import System, ThreadExit
from repro.observe.events import (
    EV_CACHE_EVICT,
    EV_CACHE_EVICTION,
    EV_CACHE_RESIZE,
    EV_CLIENT_HOOK,
    EV_DETACH,
    EV_FRAGMENT_DELETE,
    EV_FRAGMENT_LINK,
    EV_FRAGMENT_REPLACE,
    EV_FRAGMENT_UNLINK,
    EV_REATTACH,
    EV_SIGNAL_DELIVERED,
    EV_SMC_INVALIDATE,
    EV_THREAD_SPAWN,
    EV_TRACE_HEAD_COUNT,
    EV_TRACE_HEAD_PROMOTED,
    Observer,
)
from repro.resilience.guard import ClientGuard
from repro.resilience.shield import RuntimeGuard, Shield


class MemoEntry:
    """A retranslation-memo entry for one uninstrumented block or
    trace: its application instruction count, ``detail`` (a block's
    source bytes, which a hit needs unchanged and which give its span;
    a trace's stitch summary, which a hit reports) and the lowered body
    its fragments share (``None`` until the miss that made the entry
    has emitted)."""

    __slots__ = ("count", "detail", "body")

    def __init__(self, count, detail, body=None):
        self.count = count
        self.detail = detail
        self.body = body


def _move_incoming(fragment, to=None):
    """Re-point the links into ``fragment`` at ``to`` (``None``
    unlinks them); returns how many moved."""
    moved = 0
    for stub in fragment.incoming:
        if stub.linked_to is fragment:
            stub.linked_to = to
            if to is not None:
                to.incoming.append(stub)
            moved += 1
    fragment.incoming = []
    return moved


def _unlink_outgoing(fragment):
    """Unlink every exit of ``fragment``; returns how many were linked."""
    unlinked = 0
    for stub in fragment.exits:
        if stub.linked_to is not None:
            try:
                stub.linked_to.incoming.remove(stub)
            except ValueError:
                pass
            stub.linked_to = None
            unlinked += 1
    return unlinked


class DynamoRIO:
    """The runtime system coupling a process, options, and a client."""

    def __init__(self, process, options=None, client=None, cost_model=None):
        self.process = process
        self.memory = process.memory
        self.options = options if options is not None else RuntimeOptions()
        self.client = client
        self.cost = cost_model if cost_model is not None else CostModel()
        self.system = System()
        self.counter = CycleCounter()
        self.stats = RuntimeStats()
        # drtrace: None when disabled — every emit site guards on it,
        # so tracing-off runs never construct an Event.
        self.observer = (
            Observer(self.options.trace_buffer)
            if self.options.trace_events
            else None
        )
        self._register_runtime_regions()
        # Warnings (and, pre-raise, errors) from the fragment verifier
        # when options.verify_fragments is enabled.
        self.verifier_diagnostics = []
        lay = process.layout
        self.threads = []
        self.current_thread = self._new_thread(lay)
        self.executor = Executor(self)
        # Always None: there is one execution tier, but
        # bench/layers.py:235 still reads this attribute.
        self.chains = None
        # drguard: None unless guarding is enabled.  Fixed here, so
        # compiled code binds its execution hooks once (client_hook) and
        # every build-hook site checks the pointer once.
        self.guard = (
            ClientGuard(self)
            if (self.options.guard_clients and client is not None)
            else None
        )
        # Cache consistency: app-code range -> fragment side table plus
        # a memory write watch; stores into translated code invalidate
        # the stale fragments (Section 6.2).  None when disabled.
        self.region_map = None
        if self.options.cache_consistency:
            self.region_map = CodeRegionMap()
            self.memory.add_write_watcher(self._on_app_code_write)
        # drshield (repro.resilience.shield): runtime self-protection
        # (errant application stores into runtime-owned memory) and the
        # internal-fault escalation ladder, met through rguard.attempt,
        # rguard.build and rguard.check("emit").  Both None when
        # options.shield is off — every chokepoint pays one pointer
        # check and all simulated results are bit-identical to
        # pre-shield behavior.
        self._shield_pending = False
        self.shield = Shield(self) if self.options.shield else None
        self.rguard = RuntimeGuard(self) if self.options.shield else None
        # Fault diagnostics: memory errors name the faulting instruction
        # of the fragment whose pass raised (consulted on error paths
        # only).
        self.memory.set_fault_context(self._fault_context)
        # Retranslation memo -> MemoEntry, keyed by a block's tag or by
        # a trace's (head tag, recorded block bodies...): a block rebuilt
        # after a flush or eviction whose bytes are unchanged, or a
        # trace rebuilt over the same block bodies, is re-emitted over
        # its lowered body instead of being decoded (or stitched) and
        # lowered again.  Host time only — a hit charges and reports
        # exactly what a rebuild does.  Lives and dies with this runtime.
        self.memo = {}
        # Tags the client marked as trace heads before fragments exist.
        self.pending_trace_heads = set()
        self._client_initialized = False
        self._need_reschedule = False
        # drdetach (repro.core.translate): a pending detach unwinds the
        # engines at the next application-consistent point (mid-fragment
        # polls under options.precise_interrupts, fragment boundaries
        # otherwise), translates every thread to application state, and
        # continues natively; ``_reattach_after`` (instructions, or
        # None = run to exit) schedules the resumption.
        self._detach_pending = False
        self._reattach_after = None
        self._detached = False
        # Event tracers registered by the client (dr_register_event_
        # tracer): removed from the observer on detach/quarantine,
        # restored on reattach.
        self._client_tracers = []
        # The native interpreter for detached phases, created once and
        # reused so repeated detach/reattach cycles share one decode
        # cache and register a single SMC write watcher.
        self._native_interp = None
        # ThreadContexts created while detached: the client meets them
        # (thread_init) at reattach time.
        self._threads_since_detach = []

    def _fault_context(self):
        """The application PC a memory fault names: the faulting
        instruction's in the fragment whose pass is in flight (its tag
        where the faulting line has no application PC), else the
        current thread's resume tag."""
        fragment = self.executor.fragment
        if fragment is not None:
            pc = fault_pc(fragment.body)
            return fragment.tag if pc is None else pc
        return self.current_thread.resume_tag

    def _register_runtime_regions(self):
        lay = self.process.layout
        names = {r.name for r in self.memory.regions()}
        if "runtime_heap" not in names:
            self.memory.add_region(
                "runtime_heap", lay.RUNTIME_HEAP_BASE, lay.RUNTIME_HEAP_SIZE
            )
        if "code_cache" not in names:
            self.memory.add_region(
                "code_cache", lay.CODE_CACHE_BASE, lay.CODE_CACHE_SIZE
            )

    def is_runtime_address(self, addr):
        """Whether ``addr`` lies in runtime-private memory.

        The fragment verifier's transparency rule uses this to allow
        client writes into the runtime heap (``dr_global_alloc``
        storage) and the code cache while rejecting writes into
        application memory.
        """
        region = self.memory.region_containing(addr)
        return region is not None and region.name in ("runtime_heap", "code_cache")

    def _new_thread(self, lay):
        base = lay.CODE_CACHE_BASE + len(self.threads) * 0x100000
        thread = ThreadContext(
            self, base, cache_limit=self.options.code_cache_limit
        )
        self.threads.append(thread)
        return thread

    # ------------------------------------------------------------ client glue

    def _client_init(self):
        if self.client is not None and not self._client_initialized:
            self._client_initialized = True
            self.client.attach(self)
            self.client.init()
            self.client.thread_init(self.current_thread)

    def _client_exit(self):
        if self.client is not None and self._client_initialized:
            self.client.thread_exit(self.current_thread)
            self.client.exit()

    def client_hook(self, fn, tag, role):
        """The execution hook ``fn`` (clean call, checker, profiler,
        stub call) as compiled code calls it: bound through the client
        guard, or ``fn`` itself when there is none."""
        guard = self.guard
        return fn if guard is None else guard.bind(fn, tag, role)

    # -------------------------------------------------------------- building

    def _memo_gate(self):
        """Whether the client's build hooks see the next build, and the
        memo serving it: ``None`` when a client hook or the verifier
        must see every build."""
        guard = self.guard
        hooks_on = self.client is not None and (
            guard is None or not guard.quarantined
        )
        if hooks_on or self.options.verify_fragments:
            return hooks_on, None
        return hooks_on, self.memo

    def _build_bb(self, tag):
        thread = self.current_thread
        observer = self.observer
        hooks_on, memo = self._memo_gate()
        entry = memo.get(tag) if memo is not None else None
        if entry is not None:
            source = entry.detail
            if self.memory.view()[tag:tag + len(source)] != source:
                # The code was written since: decode it afresh, and
                # forget the traces stitched over its old body.
                old = entry.body
                for key in [k for k in memo if type(k) is tuple and old in k]:
                    del memo[key]
                entry = None
        ilist = None
        if entry is None:
            ilist = build_basic_block(self.memory, tag)
            source = None
            if memo is not None or self.region_map is not None:
                end = block_source_span(ilist, tag)[1]
                source = bytes(self.memory.view()[tag:end])
            entry = MemoEntry(block_instr_count(ilist), source)
        count = entry.count
        self.counter.cycles += (
            self.cost.bb_build_base + self.cost.bb_build_per_instr * count
        )
        if hooks_on:
            self.stats.client_bb_hooks += 1
            if observer is not None:
                observer.emit(EV_CLIENT_HOOK, tag, phase="bb", instrs=count)
            self.counter.cycles += self.cost.client_bb_hook_per_instr * count

        fragment = self._hook_then_emit(
            Fragment.KIND_BB, tag, entry, ilist,
            self.client.basic_block if hooks_on else None,
            None if memo is None else tag,
        )
        if tag in self.pending_trace_heads:
            fragment.is_trace_head = True
            if observer is not None:
                observer.emit(EV_TRACE_HEAD_PROMOTED, tag, reason="client")
        spans = ()
        if self.region_map is not None:
            spans = ((tag, tag + len(entry.detail)),)
        self._install(thread, thread.bb_cache, fragment, spans)
        self.stats.bbs_built += 1
        return fragment

    def _hook_then_emit(self, kind, tag, entry, ilist, hook, key,
                        source_tags=None):
        """The emit step of a runtime build: a memo hit (``entry.body``
        set) re-emits its body; a miss runs the client's build ``hook``
        (``basic_block`` or ``trace``; ``None``: no hook) over
        ``ilist`` for the current thread — through the client guard
        when there is one, which falls back to the pristine list on a
        fault — lowers the list into a ``kind`` fragment and, unless
        ``key`` is ``None``, memoizes its body as ``entry``.

        drshield: every build's emit is an injection site, checked
        after the hook and before verification.
        """
        rguard = self.rguard
        if entry.body is not None:
            if rguard is not None:
                rguard.check("emit", tag)
            return emit_body(tag, kind, entry.body, self)

        def emit(il):
            if rguard is not None:
                rguard.check("emit", tag)
            return emit_fragment(
                tag, kind, il, self.cost, self.options, runtime=self,
                source_tags=source_tags,
            )

        thread = self.current_thread
        if hook is None:
            fragment = emit(ilist)
        elif self.guard is None:
            hook(thread, tag, ilist)
            fragment = emit(ilist)
        else:
            fragment = self.guard.build_hook(
                kind, tag, ilist, hook=lambda il: hook(thread, tag, il),
                emit=emit,
            )
        if key is not None:
            entry.body = fragment.body
            self.memo[key] = entry
        return fragment

    def _install(self, thread, cache, fragment, spans):
        """Place ``fragment`` in ``thread``'s ``cache``, register the
        application ``spans`` it translates with the region map, and
        enter it in the IBL — unless it is a trace head not yet shadowed
        by its trace, kept out so every entry is counted."""
        self._place(cache, fragment, thread=thread)
        if self.region_map is not None:
            fragment.source_spans = spans
            self.region_map.register(fragment, spans, thread, self.memory)
        if not fragment.is_trace_head or fragment.is_trace:
            thread.ibl.insert(fragment)

    def _retire(self, fragment, thread, successor=None):
        """Take ``fragment`` out of the region map, ``thread``'s IBL and
        the link graph: links into it move to ``successor`` (``None``
        undoes them), and its own exits are unlinked.  Returns the
        number of links moved and the number of exits unlinked."""
        fragment.deleted = True
        if self.region_map is not None:
            self.region_map.unregister(fragment)
        thread.ibl.remove(fragment)
        return _move_incoming(fragment, successor), _unlink_outgoing(fragment)

    def _place(self, cache, fragment, thread=None):
        try:
            cache.allocate(fragment)
        except CacheFullError:
            if cache.policy != "flush":
                rguard = self.rguard
                if rguard is None:
                    self._evict_fifo(cache, fragment, thread)
                else:
                    # drshield: a fault mid-evict falls back to the
                    # always-safe whole-unit flush; repeated evict
                    # faults disable fifo eviction outright.
                    rguard.attempt(
                        "evict", fragment.tag,
                        lambda: self._evict_fifo(cache, fragment, thread),
                        lambda: self._pressure_flush(cache, fragment, thread),
                    )
            else:
                self._pressure_flush(cache, fragment, thread)
            # Evictions may have deleted blocks referenced by an
            # in-progress trace recording; finalizing such a recording
            # would stitch deleted fragments — and, once unregistered
            # from the region map, a later store into their source
            # ranges could no longer squash the recording, so the trace
            # would stitch stale code.  Abandon it (the head re-counts
            # and the trace rebuilds from live blocks).
            self._squash_stale_recordings()
            cache.allocate(fragment)
            self._check_cache_resize(cache)

    def _pressure_flush(self, cache, fragment, thread=None):
        """Capacity pressure under ``cache_evict_policy="flush"`` (and
        the shield's fallback when fifo eviction faults): drop the whole
        unit through the delete chokepoint."""
        observer = self.observer
        if observer is not None:
            occ = cache.occupancy()
            observer.emit(
                EV_CACHE_EVICTION,
                fragment.tag,
                unit=occ["unit"],
                used=occ["used"],
                limit=occ["limit"],
                dropped=occ["fragments"],
                incoming_size=fragment.size,
            )
        for victim in cache.flush():
            # Capacity churn accounting (feeds adaptive sizing;
            # the quarantine flush deliberately does not count).
            cache.record_eviction(victim)
            self._delete_fragment(victim, from_cache=False, thread=thread)
        self.stats.cache_evictions += 1

    def _evict_fifo(self, cache, fragment, thread=None):
        """Capacity pressure under ``cache_evict_policy="fifo"`` or
        ``"adaptive"``: evict resident fragments one at a time in
        allocation order — through the full delete chokepoint (unlink,
        region-map deregistration, IBL removal, ``fragment_deleted``
        hook) — until the incoming fragment fits.  If nothing can make
        it fit (fragment larger than the unit) the cache drains to empty
        and the empty-cache rule accepts it as the sole resident."""
        observer = self.observer
        if observer is not None:
            occ = cache.occupancy()
            observer.emit(
                EV_CACHE_EVICTION,
                fragment.tag,
                unit=occ["unit"],
                used=occ["used"],
                limit=occ["limit"],
                policy=occ["policy"],
                incoming_size=fragment.size,
            )
        self.stats.cache_evictions += 1
        size = fragment.size
        while not cache.can_fit(size):
            victim = cache.next_eviction()
            if victim is None:
                break
            if observer is not None:
                observer.emit(
                    EV_CACHE_EVICT,
                    victim.tag,
                    unit=cache.name,
                    kind=victim.kind,
                    size=victim.size,
                    incoming=fragment.tag,
                )
            cache.record_eviction(victim)
            self.stats.cache_fragment_evictions += 1
            self._delete_fragment(victim, thread=thread)

    def _squash_stale_recordings(self):
        """Abandon any in-progress trace recording that references a
        deleted fragment (stitching it would bake stale code)."""
        for thread in self.threads:
            recording = thread.trace_in_progress
            if recording is not None and any(
                entry.deleted for entry in recording.entries
            ):
                thread.trace_in_progress = None

    def _check_cache_resize(self, cache):
        """Adaptive sizing tick after capacity pressure: grow the unit
        when this resize epoch's regenerated-vs-replaced ratio exceeds
        ``code_cache.REGEN_THRESHOLD`` (Section 6.1)."""
        grew = cache.check_resize()
        if grew is None:
            return
        self.stats.cache_resizes += 1
        if self.observer is not None:
            self.observer.emit(
                EV_CACHE_RESIZE,
                None,
                unit=cache.name,
                old_limit=grew[0],
                new_limit=grew[1],
                fragments=len(cache.fragments),
            )

    def _flush_cache(self, cache, thread=None):
        for fragment in cache.flush():
            self._delete_fragment(fragment, from_cache=False, thread=thread)

    def _flush_thread(self, thread):
        """drshield's flush (the ladder's second rung, the watchdog's
        first trip): drop ``thread``'s caches with injection suppressed
        and abandon recordings that referenced them."""
        with self.rguard.recovery():
            self._flush_cache(thread.bb_cache, thread=thread)
            self._flush_cache(thread.trace_cache, thread=thread)
            self._squash_stale_recordings()

    def _delete_fragment(self, fragment, from_cache=True, thread=None):
        rguard = self.rguard
        if rguard is None:
            self._delete_fragment_impl(fragment, from_cache, thread)
            return
        # drshield: the teardown is *required* for correctness (SMC
        # invalidation, eviction), so a fault here is recorded and the
        # teardown re-run under recovery.
        def teardown():
            self._delete_fragment_impl(fragment, from_cache, thread)

        rguard.attempt("unlink", fragment.tag, teardown, teardown)

    def _delete_fragment_impl(self, fragment, from_cache=True, thread=None):
        if thread is None:
            thread = self.current_thread
        unlinked = sum(self._retire(fragment, thread))
        if from_cache:
            cache = thread.trace_cache if fragment.is_trace else thread.bb_cache
            cache.remove(fragment)
        self.stats.fragments_deleted += 1
        observer = self.observer
        if observer is not None:
            if unlinked:
                observer.emit(
                    EV_FRAGMENT_UNLINK,
                    fragment.tag,
                    reason="delete",
                    links=unlinked,
                )
            observer.emit(
                EV_FRAGMENT_DELETE,
                fragment.tag,
                kind=fragment.kind,
                size=fragment.size,
            )
        if self.client is not None:
            self.client_hook(
                self.client.fragment_deleted, fragment.tag, "fragment_deleted"
            )(thread, fragment.tag)

    # ------------------------------------------------------ cache consistency

    def _on_app_code_write(self, addr, size):
        """Memory write watcher: a store hit a watched app-code line.

        Exact overlap with translated code invalidates the stale
        fragments — bbs and any traces that stitched them — and
        abandons recordings that reference them; the blocks rebuild
        from the new bytes on next dispatch (Section 6.2).
        """
        hits = self.region_map.overlapping(addr, size)
        if not hits:
            return
        self.counter.cycles += self.cost.smc_invalidate
        self.stats.smc_invalidations += 1
        if self.observer is not None:
            self.observer.emit(
                EV_SMC_INVALIDATE, addr, size=size, fragments=len(hits)
            )
        for fragment, thread in hits:
            if not fragment.deleted:
                self._delete_fragment(fragment, thread=thread)
        self._squash_stale_recordings()

    # ------------------------------------------------------------- quarantine

    def _teardown_caches(self):
        """Shared detach/quarantine teardown: drop all in-progress
        client-visible state and flush every fragment through the
        ``_delete_fragment`` chokepoint (region-map deregistration, IBL
        removal, unlink, ``fragment_deleted``)."""
        self.pending_trace_heads.clear()
        for thread in self.threads:
            thread.trace_in_progress = None
        for thread, cache in self.cache_units():
            self._flush_cache(cache, thread=thread)

    def _detach_tracers(self):
        """Unregister the client's event tracers from the observer.
        Detach restores them at reattach; quarantine never does — a
        quarantined client must have no surviving emit sites."""
        observer = self.observer
        if observer is None:
            return
        for fn in self._client_tracers:
            try:
                observer.tracers.remove(fn)
            except ValueError:
                pass

    def _reattach_tracers(self):
        observer = self.observer
        if observer is None:
            return
        for fn in self._client_tracers:
            if fn not in observer.tracers:
                observer.tracers.append(fn)

    def _bailout_client(self):
        """OSR-style bailout when the guard quarantines the client:
        the detach teardown (drop every fragment — all carry client
        instrumentation — plus all client-visible in-progress state and
        the client's observer tracers); blocks rebuild uninstrumented
        on next dispatch and the run continues at native fidelity."""
        self._teardown_caches()
        self._detach_tracers()
        self._client_tracers = []

    # --------------------------------------------------------------- linking

    def _maybe_link(self, stub, target_fragment):
        """Link the previous exit ``stub`` to ``target_fragment`` when it
        is a direct exit still unlinked.  The dispatcher calls this only
        with a previous stub and ``options.link_direct`` on."""
        if stub.kind != LinkStub.KIND_DIRECT:
            return
        if stub.fragment.deleted or stub.linked_to is not None:
            return
        # Trace heads stay unlinked so their counters keep advancing.
        if target_fragment.is_trace_head and not target_fragment.is_trace:
            return
        rguard = self.rguard
        if rguard is not None and not rguard.attempt(
            "link", stub.fragment.tag, lambda: True, lambda: False
        ):
            # drshield: a link fault skips the link (the exit keeps
            # context-switching through dispatch, which is always
            # correct); repeated link faults disable direct linking.
            return
        stub.linked_to = target_fragment
        target_fragment.incoming.append(stub)
        self.counter.cycles += self.cost.link_cost
        self.stats.direct_links += 1
        observer = self.observer
        if observer is not None:
            observer.emit(
                EV_FRAGMENT_LINK,
                stub.fragment.tag,
                target=target_fragment.tag,
                exit_index=stub.index,
                target_kind=target_fragment.kind,
            )

    # ----------------------------------------------------------- trace heads

    def mark_trace_head(self, tag):
        """Client API: dr_mark_trace_head."""
        self.pending_trace_heads.add(tag)
        fragment = self.current_thread.bb_cache.lookup(tag)
        if fragment is not None:
            self._make_trace_head(fragment, "client")

    def _note_branch_origin(self, stub, target_fragment):
        """Default trace-head detection: targets of backward branches
        and exits of existing traces (Section 3.5).  The dispatcher
        calls this only with a previous stub and ``options.traces``
        on."""
        if target_fragment.is_trace or target_fragment.is_trace_head:
            return
        src = stub.fragment
        if src.is_trace:
            self._make_trace_head(target_fragment, "backward_branch")
            return
        # Backward-branch heuristic: direct non-call branches only.
        if (
            stub.kind == LinkStub.KIND_DIRECT
            and not stub.is_call_exit
            and target_fragment.tag <= src.tag
        ):
            self._make_trace_head(target_fragment, "backward_branch")

    def _make_trace_head(self, fragment, reason):
        """Promote ``fragment`` to a trace head: out of the IBL, its
        incoming links undone, so entries flow through dispatch and its
        counter advances."""
        if fragment.is_trace_head:
            return
        fragment.is_trace_head = True
        self.current_thread.ibl.remove(fragment)
        unlinked = _move_incoming(fragment)
        observer = self.observer
        if observer is not None:
            if unlinked:
                observer.emit(
                    EV_FRAGMENT_UNLINK, fragment.tag, reason="trace_head",
                    links=unlinked,
                )
            observer.emit(EV_TRACE_HEAD_PROMOTED, fragment.tag, reason=reason)

    # ---------------------------------------------------------------- traces

    def _finalize_trace(self, recording):
        thread = self.current_thread
        head = recording.head_tag
        observer = self.observer
        hooks_on, memo = self._memo_gate()
        # A trace's key holds the recorded blocks' bodies, compared by
        # identity: the memo reuses a block's body only while its bytes
        # are unchanged, so an equal key means identical stitch inputs.
        key = entry = ilist = None
        if memo is not None:
            key = (head,) + tuple(block.body for block in recording.entries)
            entry = memo.get(key)
        if entry is None:
            ilist = stitch_trace(recording, observer)
            ilist.decode_all()
            entry = MemoEntry(ilist.instr_count(), recording.stitched)
        else:
            report_stitch(observer, head, entry.detail)
        count = entry.count
        self.counter.cycles += (
            self.cost.trace_build_base + self.cost.trace_build_per_instr * count
        )
        if hooks_on:
            self.stats.client_trace_hooks += 1
            if observer is not None:
                observer.emit(
                    EV_CLIENT_HOOK, head, phase="trace",
                    instrs=count, blocks=len(recording),
                )
            self.counter.cycles += self.cost.client_trace_hook_per_instr * count

        fragment = self._hook_then_emit(
            Fragment.KIND_TRACE, head, entry, ilist,
            self.client.trace if hooks_on else None, key,
            source_tags=tuple(recording.tags()),
        )
        # A trace is stale if any block it stitched is written.
        spans = tuple(
            span for block in recording.entries for span in block.source_spans
        )
        self._install(thread, thread.trace_cache, fragment, spans)
        self.stats.traces_built += 1
        # Shadow the head bb: redirect its incoming links to the trace.
        head_bb = thread.bb_cache.lookup(head)
        if head_bb is not None:
            _move_incoming(head_bb, fragment)
        thread.trace_in_progress = None
        return fragment

    def _client_end_trace(self, recording, next_tag):
        if self.client is None:
            return DEFAULT_TRACE_END
        guard = self.guard
        if guard is not None:
            return guard.end_trace(
                self.client, self.current_thread, recording.head_tag, next_tag
            )
        return self.client.end_trace(
            self.current_thread, recording.head_tag, next_tag
        )

    # ------------------------------------------------------------------ run

    def _spawn_thread(self, entry, stack_pointer):
        """A new application thread at ``entry`` with its own code
        caches."""
        thread = self._new_thread(self.process.layout)
        thread.cpu.pc = entry & 0xFFFFFFFF
        thread.cpu.regs[4] = stack_pointer & 0xFFFFFFFF
        thread.resume_tag = thread.cpu.pc
        self.counter.count("threads_spawned")
        if self.observer is not None:
            self.observer.emit(
                EV_THREAD_SPAWN,
                thread.cpu.pc,
                thread_index=len(self.threads) - 1,
            )
        return thread

    def _spawn_app_thread(self, entry, stack_pointer):
        """SYS_SPAWN handler while attached."""
        thread = self._spawn_thread(entry, stack_pointer)
        # the running thread must yield so the new one gets scheduled
        self._need_reschedule = True
        if self.client is not None:
            self.client.thread_init(thread)

    # -------------------------------------------------------------- drdetach

    def detach(self, reattach_after=None):
        """Request a transparent detach (dr_detach).

        Execution unwinds at the next application-consistent point —
        mid-fragment under ``options.precise_interrupts``, the
        next fragment boundary otherwise — where every thread's state is
        translated back to application state (repro.core.translate) and
        execution continues natively, bit-identical to a never-attached
        run.  ``reattach_after`` resumes translated execution after that
        many native instructions; ``None`` runs native to program exit.

        Callable from client hooks and clean calls; the request takes
        effect before the next application instruction is executed at a
        consistent point.
        """
        self._detach_pending = True
        self._reattach_after = reattach_after
        # Reuse the scheduler's unwind path: the run loop and the
        # dispatcher already break on this flag.
        self._need_reschedule = True

    @property
    def detached(self):
        return self._detached

    def reattach(self):
        """Schedule the earliest possible re-attach: a pending detach
        becomes a detach/re-attach bounce through the full translate →
        flush → native → resume cycle.  No-op when nothing is pending
        (the native phase re-attaches on its own schedule)."""
        if self._detach_pending:
            self._reattach_after = 0

    def _perform_detach(self):
        """Translate every live thread to application state and tear
        the cache down.  The thread's ``resume_tag`` *is* its translated
        PC: boundary unwinds leave the next fragment tag there, and
        mid-fragment polls unwind with the poll's source PC."""
        self._detach_pending = False
        for thread in self.threads:
            if not thread.exited:
                thread.cpu.pc = thread.resume_tag & 0xFFFFFFFF
            thread.prev_stub = None
        self._teardown_caches()
        self._detach_tracers()
        self._threads_since_detach = []
        self._detached = True
        self.stats.detaches += 1
        if self.observer is not None:
            self.observer.emit(
                EV_DETACH,
                None,
                threads=sum(1 for t in self.threads if not t.exited),
                instructions=self.executor.instructions,
            )

    def _perform_reattach(self, adopted):
        """Resume translated execution: adopt the native CPUs back as
        dispatch targets and restore the client's observability."""
        for ctx in adopted:
            if not ctx.exited:
                ctx.resume_tag = ctx.cpu.pc
                ctx.prev_stub = None
        self._reattach_tracers()
        if self.client is not None:
            for ctx in self._threads_since_detach:
                if not ctx.exited:
                    self.client.thread_init(ctx)
        self._threads_since_detach = []
        self._detached = False
        self.stats.reattaches += 1
        if self.observer is not None:
            self.observer.emit(
                EV_REATTACH,
                None,
                threads=sum(1 for t in self.threads if not t.exited),
                instructions=self.executor.instructions,
            )

    def _run_detached(self, max_instructions, quantum):
        """The native phase between detach and reattach.

        Runs the reference interpreter's scheduler over the translated
        threads, sharing this runtime's System (output stream, alarms
        armed under the cache — a pending signal delivers natively) and
        CycleCounter, with the instruction clock carried across so
        absolute alarm deadlines stay meaningful.  Returns after
        ``_reattach_after`` native instructions (reattaching), or
        propagates ProgramExit when the application ends natively.
        """
        self._perform_detach()
        stop_after = self._reattach_after
        self._reattach_after = None
        interp = self._native_interp
        if interp is None:
            interp = Interpreter(
                self.process,
                self.cost,
                mode="native",
                quantum=quantum,
                system=self.system,
                counter=self.counter,
                observer=self.observer,
            )
            self._native_interp = interp
        interp._instructions = self.executor.instructions
        stop_at = (
            None if stop_after is None else interp._instructions + stop_after
        )
        # ThreadContext -> the native thread running its CPU.
        adopted = {
            ctx: interp.adopt_thread(ctx.cpu)
            for ctx in self.threads
            if not ctx.exited
        }

        def native_spawn(entry, stack_pointer):
            # A thread spawned while detached still becomes a runtime
            # ThreadContext so reattach adopts it; the client meets it
            # (thread_init) at reattach time.
            ctx = self._spawn_thread(entry, stack_pointer)
            self._threads_since_detach.append(ctx)
            adopted[ctx] = interp.adopt_thread(ctx.cpu)

        self.system.spawn_thread = native_spawn
        try:
            interp.run_threads(adopted.values(), max_instructions, stop_at)
        finally:
            # On every exit path — including a native ProgramExit — the
            # runtime's threads, totals and scheduler hooks reflect the
            # native phase, so run()'s teardown reports complete results.
            for ctx, native in adopted.items():
                ctx.exited = not native.alive
            self.executor.instructions = interp._instructions
            self.system.spawn_thread = self._spawn_app_thread
            # The native quanta re-pointed the fault context at their
            # thread CPUs; translated execution blames resume tags.
            self.memory.set_fault_context(self._fault_context)
        self._perform_reattach(adopted)

    def run(self, entry=None, max_instructions=DEFAULT_MAX_INSTRUCTIONS,
            quantum=100):
        """Run the application under the runtime; returns a RunResult."""
        self._client_init()
        main = self.current_thread
        main.cpu.pc = self.process.entry if entry is None else entry
        main.cpu.regs[4] = self.process.initial_stack_pointer()
        main.resume_tag = main.cpu.pc
        self.system.spawn_thread = self._spawn_app_thread
        self._need_reschedule = False
        exit_code = None
        rotor = 0
        try:
            while True:
                if self._shield_pending:
                    # The shield recorded errant application stores into
                    # runtime-owned memory and the engines have unwound:
                    # attribute, emit, and recover (surgical unit
                    # invalidation) at this consistent point.
                    self.shield.deliver()
                if self._detach_pending:
                    # dr_detach was requested and the engines have
                    # unwound at a consistent point: translate, run
                    # natively, and (maybe) reattach.
                    self._run_detached(max_instructions, quantum)
                alive = [t for t in self.threads if not t.exited]
                if not alive:
                    break
                thread = alive[rotor % len(alive)]
                rotor += 1
                multi = len(alive) > 1
                if multi:
                    self.counter.charge(
                        self.cost.thread_switch, "thread_switches"
                    )
                self.current_thread = thread
                self._need_reschedule = False
                try:
                    self._dispatch(
                        thread,
                        # A lone thread runs without a quantum; the
                        # reschedule flag breaks it out when it spawns.
                        deadline=(
                            self.executor.instructions + quantum
                            if multi
                            else None
                        ),
                        max_instructions=max_instructions,
                    )
                except ThreadExit:
                    thread.exited = True
                    if self.client is not None:
                        self.client.thread_exit(thread)
        except ProgramExit as exit_:
            exit_code = exit_.code
        finally:
            self.current_thread = self.threads[0]
            self._client_exit()
            if self.observer is not None:
                self.observer.finalize(self.counter.cycles)
        return RunResult(
            cycles=self.counter.cycles,
            instructions=self.executor.instructions,
            output=self.system.output_bytes(),
            exit_code=exit_code,
            events=self._events(),
        )

    def _dispatch(self, thread, deadline, max_instructions):
        """The dispatch loop (Figure 1), bounded by the thread quantum."""
        tag = thread.resume_tag
        prev_stub = thread.prev_stub
        system = self.system
        executor = self.executor
        run = executor.run
        counter = self.counter
        dispatch_cost = self.cost.dispatch
        # Read per exit: the shield ladder may turn traces or direct
        # linking off mid-quantum.
        options = self.options
        shield = self.shield
        # Cache units are only ever cleared, never replaced, so their
        # tag maps stay valid for the whole quantum.  Traces shadow bbs.
        trace_fragments = thread.trace_cache.fragments
        bb_fragments = thread.bb_cache.fragments
        # The previous executor exit's reason.  After a mid-fragment
        # interrupt poll (EXIT_INTERRUPT) ``tag`` is a translated source
        # PC inside a fragment's body, and the delivery below is a
        # genuine mid-fragment delivery.
        reason = None
        try:
            while (
                deadline is None or executor.instructions < deadline
            ) and not self._need_reschedule:
                # Signal interception (Section 2): deliver pending alarm
                # signals here, at the dispatcher — the handler then runs
                # under the code cache like all application code.
                if executor.instructions >= system.due_at and (
                    system.signal_due(executor.instructions)
                ):
                    tag = self._deliver_signal(
                        thread, tag, reason == EXIT_INTERRUPT
                    )
                    prev_stub = None
                counter.cycles += dispatch_cost
                fragment = trace_fragments.get(tag)
                if fragment is None:
                    fragment = bb_fragments.get(tag)
                    if fragment is None:
                        if self.rguard is None:
                            fragment = self._build_bb(tag)
                        else:
                            fragment = self.rguard.build(tag)
                            if fragment is None:
                                # The ladder escalated to a detach:
                                # unwind to the run loop with
                                # resume_tag intact.
                                break
                if prev_stub is not None:
                    if options.traces:
                        self._note_branch_origin(prev_stub, fragment)
                    if options.link_direct:
                        self._maybe_link(prev_stub, fragment)

                recording = thread.trace_in_progress
                if recording is not None:
                    fragment, recording = self._trace_mode_step(
                        fragment, recording
                    )
                elif (
                    options.traces
                    and fragment.is_trace_head
                    and not fragment.is_trace
                ):
                    fragment.head_counter += 1
                    self.stats.trace_head_counts += 1
                    if self.observer is not None:
                        self.observer.emit(
                            EV_TRACE_HEAD_COUNT,
                            fragment.tag,
                            count=fragment.head_counter,
                        )
                    if fragment.head_counter >= self.options.trace_threshold:
                        recording = TraceRecording(fragment.tag)
                        thread.trace_in_progress = recording
                        recording.append(fragment)

                reason, tag, prev_stub = run(
                    fragment, recording is not None, max_instructions,
                    deadline,
                )
                if shield is not None:
                    # Forward progress: the fragment executed, so its
                    # tag is no longer a livelock suspect.
                    shield.note_progress(fragment.tag)
        finally:
            thread.resume_tag = tag
            thread.prev_stub = prev_stub

    def _trace_mode_step(self, fragment, recording):
        """In trace generation mode: decide whether ``fragment`` extends
        the trace or terminates it.  Returns the (possibly replaced)
        fragment to execute and the current recording (or None)."""
        thread = self.current_thread
        last = recording.entries[-1]
        decision = self._client_end_trace(recording, fragment.tag)
        end = False
        if decision == END_TRACE:
            end = True
        elif decision == CONTINUE_TRACE:
            end = False
        else:
            end = default_end_of_trace(recording, last, fragment.tag, thread)
        if len(recording) >= trace_builder.MAX_TRACE_BBS:
            end = True
        if fragment.is_trace:
            end = True
        if end:
            rguard = self.rguard
            if rguard is None:
                trace = self._finalize_trace(recording)
            else:
                trace = rguard.attempt(
                    "trace", recording.head_tag,
                    lambda: self._finalize_trace(recording), lambda: None,
                )
                if trace is None:
                    # Trace promotion faulted: the recording is
                    # discarded, the bb runs untouched and the head
                    # re-records on its own heat (repeated trace faults
                    # disable traces).
                    thread.trace_in_progress = None
                    return fragment, None
            # If the trace begins where we are about to execute, run it.
            if trace.tag == fragment.tag:
                return trace, None
            return fragment, None
        recording.append(fragment)
        return fragment, recording

    def _deliver_signal(self, thread, interrupted_tag, mid_fragment=False):
        """Redirect the thread to the signal handler.

        The *application* pc (the interrupted tag) and eflags go on the
        application stack — never a code-cache address (transparency);
        the handler address becomes the next dispatch target.  Under
        ``options.precise_interrupts`` the interrupted tag may be a
        translated mid-fragment PC (``mid_fragment``: the dispatcher's
        previous cache exit was an interrupt poll); either way the
        delivery latency — instructions executed past the alarm
        deadline — is accounted under ``signal_latency``.
        """
        # A signal arriving mid-trace-build abandons the recording:
        # stitching across an asynchronous redirect would bake the
        # handler's blocks into the trace as if they were its
        # fall-through path.  The head stays hot and re-records after
        # the handler returns.
        squashed_trace = thread.trace_in_progress is not None
        if squashed_trace:
            thread.trace_in_progress = None
        system = self.system
        latency = system.deliver_signal(
            thread.cpu, self.memory, interrupted_tag,
            self.executor.instructions, self.counter,
            self.cost.signal_delivery,
        )
        if self.observer is not None:
            data = {"handler": system.signal_handler}
            if latency is not None:
                data["latency"] = latency
            if mid_fragment:
                data["mid_fragment"] = True
            if squashed_trace:
                data["trace_squashed"] = True
            self.observer.emit(EV_SIGNAL_DELIVERED, interrupted_tag, **data)
        return system.signal_handler

    def cache_units(self):
        """Each code-cache unit as ``(thread, unit)``, in thread order,
        bb unit first."""
        for thread in self.threads:
            yield thread, thread.bb_cache
            yield thread, thread.trace_cache

    def _events(self):
        events = dict(self.counter.events)
        events.update(self.stats.as_dict())
        resident = {"bb": 0, "trace": 0}
        for _thread, cache in self.cache_units():
            resident[cache.name] += len(cache)
        events["bb_cache_fragments"] = resident["bb"]
        events["trace_cache_fragments"] = resident["trace"]
        if self.observer is not None:
            events.update(self.observer.summary())
        return events

    # ------------------------------------------- adaptive optimization API

    def decode_fragment(self, thread, tag):
        """dr_decode_fragment: re-create the InstrList of a fragment."""
        fragment = thread.lookup_fragment(tag)
        if fragment is None:
            return None
        from repro.ir.instrlist import InstrList, copy_instructions

        return InstrList(copy_instructions(fragment.body.instrs_source))

    def replace_fragment(self, thread, tag, ilist):
        """dr_replace_fragment: swap in a new version of a fragment.

        All links targeting the old fragment move to the new one
        immediately; a thread currently executing the old fragment
        finishes its current pass through the old code (the executor
        holds a snapshot) and picks up the new version at its next
        entry — the paper's low-overhead replacement.
        """
        old = thread.lookup_fragment(tag)
        if old is None:
            return False
        new = emit_fragment(
            tag, old.kind, ilist, self.cost, self.options, runtime=self,
            reason="replace", source_tags=old.body.source_tags,
        )
        new.is_trace_head = old.is_trace_head
        new.head_counter = old.head_counter
        new.generation = old.generation + 1
        cache = thread.trace_cache if old.is_trace else thread.bb_cache
        cache.remove(old)
        # The replacement covers the same application code.  Placing it
        # may evict; the old fragment's links go only after that.
        self._install(thread, cache, new, old.source_spans)
        # Incoming links move to the new fragment; the old one's
        # outgoing links dissolve.
        unlinked = self._retire(old, thread, successor=new)[1]
        self.stats.fragments_replaced += 1
        observer = self.observer
        if observer is not None:
            if unlinked:
                observer.emit(
                    EV_FRAGMENT_UNLINK, tag, reason="replace", links=unlinked
                )
            observer.emit(
                EV_FRAGMENT_REPLACE,
                tag,
                kind=new.kind,
                generation=new.generation,
                moved_links=len(new.incoming),
            )
        return True
