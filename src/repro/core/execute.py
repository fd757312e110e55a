"""The in-cache execution engine.

Executes fragment op streams against the application's CPU/memory,
following linked exits without leaving the cache; returns to the
dispatcher only on an unlinked exit or an IBL miss — the
performance-critical dotted lines of the paper's Figure 1.

Every cache exit is a plain return.  A pass is one call of the body's
generated function (:mod:`repro.core.closures`): it returns the next
fragment (a linked exit's target or an IBL hit), or records
``(reason, next_tag, stub)`` on the executor (``_exit``) and returns
``None``; :meth:`Executor.run` then returns that record to the
dispatcher.  The per-pass boundary exits (a due alarm, the quantum
deadline, a reschedule, single-step) return from the run loop directly;
all but single-step sit behind one fast-path test per boundary.
A pass that returns ``None`` without a recorded exit is a runtime bug
and raises ``MachineFault``; so does an instruction-budget overrun.

Cycle charging:

* every op carries its pre-computed instruction cost;
* taken control transfers add the hardware taken-branch penalty;
* indirect branches resolved in-cache pay ``ibl_lookup`` (the hashtable)
  or the per-pair compare cost when a trace-inlined check/dispatch hits;
* unlinked exits pay their client stub code, if any, and a full context
  switch.

Each fragment runs as its body's generated function, with runs, exits,
client stub code and interrupt polls inline and costs pre-summed, so
the loop makes one call per pass, and the executor runs no guest
instruction itself.  Out of line are the IBL probe (:meth:`Executor._ibl`),
the one way out of the cache (:meth:`Executor._leave`, for an unlinked
direct exit and an IBL miss alike) and a poll's slow path
(:meth:`Executor._poll`).  The code names an exit by its index and
reads the stub from the fragment whose pass is in flight
(``self.fragment.exits[index]``), so fragments sharing a body keep
their own links.

A fragment replaced mid-execution (adaptive optimization) keeps
running its old code until the next exit, exactly the paper's
replacement semantics.
"""

from repro.core.closures import compile_fragment
from repro.machine.errors import MachineFault
from repro.machine.system import NEVER
from repro.observe.events import EV_CONTEXT_SWITCH, EV_IBL_HIT, EV_IBL_MISS

# Exit reasons returned to the dispatcher.
EXIT_DISPATCH = "dispatch"  # unlinked exit; next_tag + stub
EXIT_IBL_MISS = "ibl_miss"  # indirect target not in table
# Mid-fragment interrupt poll fired (options.precise_interrupts): a due
# alarm or a pending detach unwound at an application-consistent op;
# next_tag is the *translated* source PC (repro.core.translate).
EXIT_INTERRUPT = "interrupt"


class Executor:
    """Executes fragments for one runtime (shared across its threads)."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.instructions = 0
        # The exit the current run() leaves through, recorded by the
        # pass that leaves the cache: (reason, next_tag, stub).
        self._exit = None
        # The fragment whose pass is in flight: exits leave through its
        # stubs, and memory-fault messages name its faulting
        # instruction.  None between passes.
        self.fragment = None

    # ------------------------------------------------------------ exit paths

    def _ibl(self, target):
        """The IBL probe of an indirect exit: the current thread's
        fragment at ``target``, or None on a miss and whenever
        ``link_indirect`` is off."""
        runtime = self.runtime
        if not runtime.options.link_indirect:
            return None
        runtime.counter.cycles += runtime.cost.ibl_lookup
        # One dict probe; hit/miss accounting is done here, at the
        # caller, so the table itself stays plumbing-free.
        fragment = runtime.current_thread.ibl.table.get(target)
        observer = runtime.observer
        if fragment is not None:
            runtime.stats.ibl_hits += 1
            if observer is not None:
                observer.emit(EV_IBL_HIT, target, fragment_kind=fragment.kind)
            return fragment
        runtime.stats.ibl_misses += 1
        if observer is not None:
            observer.emit(EV_IBL_MISS, target)
        return None

    def _leave(self, index, target=None):
        """Leave the cache through the running fragment's exit ``index``
        once its stub code ran: charge the context switch, record the
        dispatcher exit and return ``None``.  A direct exit leaves for
        its stub's target; an indirect one, after an IBL miss, for
        ``target``."""
        runtime = self.runtime
        stub = self.fragment.exits[index]
        if target is None:
            reason, target = EXIT_DISPATCH, stub.target_tag
        else:
            reason = EXIT_IBL_MISS
        runtime.counter.cycles += runtime.cost.context_switch
        runtime.stats.context_switches += 1
        observer = runtime.observer
        if observer is not None:
            observer.emit(
                EV_CONTEXT_SWITCH,
                target,
                from_tag=stub.fragment.tag,
                reason=reason,
            )
        self._exit = (reason, target, stub)
        return None

    def _poll(self, pc):
        """The slow path of an interrupt poll before the op at
        application PC ``pc``, taken only from ``System.due_at`` on or
        while a detach or shield recovery is pending: when a signal is
        due (``System.signal_due``) or either is pending, record the
        interrupt exit and return True."""
        runtime = self.runtime
        if (
            runtime.system.signal_due(self.instructions)
            or runtime._detach_pending
            or runtime._shield_pending
        ):
            self._exit = (EXIT_INTERRUPT, pc, None)
            return True
        return False

    # ------------------------------------------------------------- main loop

    def run(self, fragment, single_step=False, budget=None, deadline=None):
        """Execute starting at ``fragment``; follow linked exits until
        an unlinked one (or after one fragment when ``single_step``, or
        once the thread's instruction ``deadline`` passes — the
        scheduler's quantum boundary).

        Returns ``(reason, next_tag, stub)``: the exit the last pass
        recorded, or a fragment-boundary exit (``stub`` is
        then ``None``).  Raises ProgramExit when the application ends,
        MachineFault on machine errors.
        """
        runtime = self.runtime
        cpu = runtime.current_thread.cpu
        system = runtime.system
        counter = runtime.counter
        fragment_entry = runtime.cost.fragment_entry
        # drtrace profiler: sampled at fragment-pass granularity only
        # (one guard per pass, never per instruction) so the simulated
        # cycle stream is identical with tracing on or off.
        observer = runtime.observer
        profile_enter = observer.profile_enter if observer is not None else None
        self._exit = None

        if budget is not None and self.instructions > budget:
            raise MachineFault("instruction budget exhausted (%d)" % budget)
        # The first count at which a boundary stops whatever the signal
        # and scheduler state: past the budget (it raises) or at the
        # quantum's deadline.
        stop = NEVER if budget is None else budget + 1
        if deadline is not None and deadline < stop:
            stop = deadline
        try:
            while True:
                if profile_enter is not None:
                    profile_enter(fragment, counter.cycles)
                counter.cycles += fragment_entry
                entry = fragment.body.entry
                if entry is None:
                    entry = compile_fragment(fragment, runtime)
                self.fragment = fragment
                next_fragment = entry(self, cpu)
                if next_fragment is None:
                    # The pass left the cache and recorded why.
                    exit_ = self._exit
                    if exit_ is None:
                        raise MachineFault(
                            "fragment 0x%x left the cache without an exit"
                            % fragment.tag
                        )
                    break
                if single_step:
                    exit_ = (EXIT_DISPATCH, next_fragment.tag, None)
                    break
                # A linked (or IBL-hit) transfer: the fragment boundary
                # is a safe point.
                fragment = next_fragment
                n = self.instructions
                if n >= stop or n >= system.due_at or runtime._need_reschedule:
                    if budget is not None and n > budget:
                        raise MachineFault(
                            "instruction budget exhausted (%d)" % budget
                        )
                    if (
                        system.signal_due(n)
                        or (deadline is not None and n >= deadline)
                        or runtime._need_reschedule
                    ):
                        # A pending signal (delivered by the dispatcher
                        # at this boundary), an expired quantum or a
                        # spawned thread: back to the dispatcher without
                        # a context-switch charge (it charges the thread
                        # switch).
                        exit_ = (EXIT_DISPATCH, fragment.tag, None)
                        break
        finally:
            # No pass is in flight, whether it left or raised.
            self.fragment = None
        if observer is not None:
            observer.profile_break(counter.cycles)
        return exit_
