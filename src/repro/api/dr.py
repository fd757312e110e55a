"""``dr_*`` API routines and C-flavored aliases (paper Sections 3.2-3.5).

Transparency: clients must not share I/O buffers or allocators with the
application (Section 3.2).  ``dr_printf`` writes to a runtime-private
log, and ``dr_global_alloc`` / ``dr_thread_alloc`` carve memory out of
the *runtime* heap region — address-disjoint from every application
region, which tests verify.

The C-flavored aliases (``instr_get_opcode``, ``instrlist_first``, …)
exist so clients can be written to read like the paper's Figure 3.
"""

from repro.ir.instr import Instr
from repro.machine.cost import Family

# ----------------------------------------------------------- transparency


def dr_printf(client, fmt, *args):
    """Transparent output: appends to the runtime's private log."""
    runtime = client.runtime
    if not hasattr(runtime, "client_log"):
        runtime.client_log = []
    runtime.client_log.append(fmt % args if args else fmt)


def dr_get_log(client):
    """Read back everything dr_printf wrote (tests/tools)."""
    return list(getattr(client.runtime, "client_log", []))


class _RuntimeHeap:
    """Bump allocator over the runtime heap region."""

    def __init__(self, runtime):
        region = runtime.memory.region("runtime_heap")
        self.cursor = region.start
        self.end = region.end

    def alloc(self, size):
        addr = self.cursor
        self.cursor += (size + 15) & ~15
        if self.cursor > self.end:
            raise MemoryError("runtime heap exhausted")
        return addr


def dr_global_alloc(client, size):
    """Allocate runtime-private (never application-visible) memory."""
    runtime = client.runtime
    if not hasattr(runtime, "_dr_heap"):
        runtime._dr_heap = _RuntimeHeap(runtime)
    return runtime._dr_heap.alloc(size)


def dr_thread_alloc(context, size):
    """Thread-private runtime allocation."""
    runtime = context.runtime
    if not hasattr(runtime, "_dr_heap"):
        runtime._dr_heap = _RuntimeHeap(runtime)
    return runtime._dr_heap.alloc(size)


# ------------------------------------------------------- thread-local state


def dr_set_tls_field(context, value):
    """The generic thread-local storage field for clients."""
    context.client_field = value


def dr_get_tls_field(context):
    return context.client_field


def dr_save_reg(context, reg, slot):
    """Spill a register value to a thread-local slot (Section 3.2).

    In real DynamoRIO this emits a store into the fragment; here the
    clean-call mechanism makes the spill explicit at the API level.
    """
    context.spill_slots[slot] = context.cpu.regs[reg]


def dr_restore_reg(context, reg, slot):
    context.cpu.regs[reg] = context.spill_slots[slot]


# ----------------------------------------------------- processor information


def proc_get_family(client_or_runtime):
    """Identify the underlying processor (Section 3.2), enabling
    architecture-specific optimizations like Figure 3's."""
    runtime = getattr(client_or_runtime, "runtime", client_or_runtime)
    return runtime.cost.family


FAMILY_PENTIUM_III = Family.PENTIUM_III
FAMILY_PENTIUM_IV = Family.PENTIUM_IV


# ----------------------------------------------------- adaptive optimization


def dr_decode_fragment(context, tag):
    """Re-create the InstrList for a cached fragment (Section 3.4)."""
    return context.runtime.decode_fragment(context, tag)


def dr_replace_fragment(context, tag, ilist):
    """Install a new version of a fragment (Section 3.4).

    Safe to call from code reached *inside* the old fragment (a clean
    call): the current pass finishes in the old code and every later
    entry uses the new version.
    """
    return context.runtime.replace_fragment(context, tag, ilist)


# ------------------------------------------------------------- custom traces


def dr_mark_trace_head(context, tag):
    """Mark ``tag`` as a custom trace head (Section 3.5)."""
    context.runtime.mark_trace_head(tag)


# ----------------------------------------------------------- observability


def dr_register_event_tracer(client_or_context, fn):
    """Stream runtime events (drtrace) to ``fn(event)`` as they happen.

    Creates the runtime's :class:`~repro.observe.events.Observer` on
    demand when tracing was not enabled via
    ``RuntimeOptions(trace_events=True)`` — events before the first
    registration are then not observable.  Returns the observer, whose
    ring buffer / profiler can be queried after the run.
    """
    runtime = getattr(client_or_context, "runtime", client_or_context)
    observer = runtime.observer
    if observer is None:
        from repro.observe.events import Observer

        observer = Observer(runtime.options.trace_buffer)
        runtime.observer = observer
    if fn is not None:
        guard = getattr(runtime, "guard", None)
        if guard is not None:
            # drguard: a faulting tracer detaches instead of unwinding
            # the emit site it was called from.
            fn = guard.wrap_tracer(fn)
        observer.tracers.append(fn)
        # Track the registration (as actually installed, wrapper and
        # all) so detach and quarantine can unregister it — no client
        # emit site survives either.
        tracers = getattr(runtime, "_client_tracers", None)
        if tracers is not None:
            tracers.append(fn)
    return observer


def dr_get_profile(client_or_context, top=None):
    """The hot-fragment table of the per-fragment cycle profiler.

    Rows are dicts (``tag``, ``kind``, ``entries``, ``cycles``,
    ``share``) sorted hottest first; empty when tracing is disabled.
    """
    runtime = getattr(client_or_context, "runtime", client_or_context)
    observer = runtime.observer
    if observer is None:
        return []
    return observer.profiler.hot_fragments(top=top)


# ------------------------------------------------------ detach / re-attach


def dr_detach(client_or_context, reattach_after=None):
    """Detach the runtime from the application (paper Section 2's
    transparent exit).

    At the next application-consistent point — mid-fragment under
    ``RuntimeOptions(precise_interrupts=True)``, the next fragment
    boundary otherwise — every thread's state is translated back to
    pure application state (``repro.core.translate``), the code cache
    is flushed through the normal delete chokepoint (clients see
    ``fragment_deleted`` for every fragment), client event tracers are
    unregistered, and execution continues natively with bit-identical
    program output.  ``reattach_after`` resumes translated execution
    after that many native instructions; ``None`` stays native to
    program exit.  Safe to call from any client hook or clean call.
    """
    runtime = getattr(client_or_context, "runtime", client_or_context)
    runtime.detach(reattach_after=reattach_after)


def dr_reattach(client_or_context):
    """Turn a pending detach into a detach/re-attach bounce (the
    shortest native excursion), or cancel a scheduled stay-native
    detach by giving it an immediate re-attach.  No-op when no detach
    is pending."""
    runtime = getattr(client_or_context, "runtime", client_or_context)
    runtime.reattach()


# ------------------------------------------------------------- clean calls


def dr_insert_clean_call(ilist, where, fn):
    """Insert a call to client Python code at ``where`` (before it).

    ``fn(context)`` runs with the application context saved — the
    equivalent of DynamoRIO's clean-call insertion.  Returns the
    inserted pseudo-instruction.
    """
    pseudo = Instr.label()
    pseudo.note = {"clean_call": fn}
    pseudo.is_meta = True
    if where is None:
        ilist.append(pseudo)
    else:
        ilist.insert_before(where, pseudo)
    return pseudo


# --------------------------------------------------------- meta instructions


def instr_set_meta(instr, meta=True):
    """Mark ``instr`` as a meta-instruction: client instrumentation that
    executes for the client, not the application.

    The fragment verifier (``RuntimeOptions(verify_fragments=True)``)
    holds meta-instructions to the transparency rules: no clobbering of
    live eflags or registers, no writes to application memory.  Returns
    the instruction for chaining.
    """
    instr.is_meta = bool(meta)
    return instr


def instr_is_meta(instr):
    return instr.is_meta


def dr_insert_meta_instr(ilist, where, instr):
    """Insert ``instr`` before ``where`` (append when None), marked as a
    meta-instruction so the fragment verifier checks it for
    transparency."""
    instr_set_meta(instr)
    if where is None:
        ilist.append(instr)
    else:
        ilist.insert_before(where, instr)
    return instr


def dr_set_ind_branch_checker(instr, fn):
    """Attach an enforcement routine to an indirect-branch instruction.

    Unlike the profiler (reached only on dispatch misses), ``fn(context,
    target)`` runs on *every* execution, before control transfers — the
    hook security clients (program shepherding, reference [23] of the
    paper) use to validate targets.  Raise from ``fn`` to block the
    transfer.
    """
    note = instr.note if isinstance(instr.note, dict) else {}
    note["checker"] = fn
    instr.note = note


def dr_set_ind_branch_profiler(instr, fn):
    """Attach a profiling routine to an indirect-branch instruction.

    ``fn(context, target)`` runs whenever the branch misses all inlined
    dispatch targets — the profiling call of the paper's Figure 4.
    """
    note = instr.note if isinstance(instr.note, dict) else {}
    note["profiler"] = fn
    instr.note = note


def dr_get_ind_dispatch(instr):
    """The current inlined dispatch target list of an indirect branch."""
    note = instr.note if isinstance(instr.note, dict) else {}
    return list(note.get("dispatch", ()))


def dr_set_ind_dispatch(instr, tags):
    """Set the compare-and-branch dispatch chain (Figure 4) for an
    inlined indirect branch: each tag becomes a direct, linkable exit
    checked before the hashtable lookup."""
    note = instr.note if isinstance(instr.note, dict) else {}
    note["dispatch"] = tuple(tags)
    instr.note = note


# ------------------------------------------------------- custom exit stubs


def dr_set_exit_stub(instr, stub_ilist, always=False):
    """Prepend client instructions to the exit stub of an exit CTI
    (Section 3.2).  With ``always=True`` the exit goes through the stub
    even when linked."""
    instr.exit_stub_code = stub_ilist
    instr.exit_always_stub = always


# ----------------------------------------------------- C-flavored aliases


def instr_get_opcode(instr):
    return instr.opcode


def instr_get_eflags(instr):
    return instr.eflags


def instr_get_next(instr):
    return instr.next


def instr_get_prev(instr):
    return instr.prev


def instr_get_src(instr, i):
    return instr.src(i)


def instr_get_dst(instr, i):
    return instr.dst(i)


def instr_set_prefixes(instr, prefixes):
    instr.set_prefixes(prefixes)


def instr_get_prefixes(instr):
    return instr.prefixes


def instr_is_exit_cti(instr):
    return instr.is_exit_cti


def instr_destroy(_context, instr):
    """Free an instruction (a no-op under garbage collection, kept for
    Figure 3 fidelity)."""


def instrlist_first(ilist):
    return ilist.first()


def instrlist_last(ilist):
    return ilist.last()


def instrlist_replace(ilist, old, new):
    return ilist.replace(old, new)


def instrlist_remove(ilist, instr):
    return ilist.remove(instr)


def instrlist_insert_before(ilist, where, instr):
    return ilist.insert_before(where, instr)


def instrlist_insert_after(ilist, where, instr):
    return ilist.insert_after(where, instr)
