"""The in-cache execution engine.

Executes fragment op streams against the application's CPU/memory,
following linked exits without leaving the cache; returns to the
dispatcher only on an unlinked exit or an IBL miss — the
performance-critical dotted lines of the paper's Figure 1.

Every cache exit is a plain return.  The step that leaves the cache
records ``(reason, next_tag, stub)`` on the executor (``_exit``) and
returns ``None`` with no linked successor; :meth:`Executor.run` then
returns that record to the dispatcher.  The per-pass boundary exits
(a due alarm, the quantum deadline, a reschedule, single-step) return
from the run loop directly.  A pass that ends with neither a successor
nor a recorded exit is a runtime bug and raises ``MachineFault``; so
does an instruction-budget overrun.

Cycle charging:

* every op carries its pre-computed instruction cost;
* taken control transfers add the hardware taken-branch penalty;
* indirect branches resolved in-cache pay ``ibl_lookup`` (the hashtable)
  or the per-pair compare cost when a trace-inlined check/dispatch hits;
* unlinked exits pay the exit stub and a full context switch.

Each fragment runs through its closure-compiled step table
(:mod:`repro.core.closures`): every step has its operand accessors,
costs and link stubs pre-bound, so the loop is just
``i = steps[i](self, cpu)``.

The engine reads the step table once into a local, so a fragment
replaced mid-execution (adaptive optimization) keeps running its old
code until the next exit, exactly the paper's replacement semantics.
"""

from repro.core.emit import OP_CLEAN_CALL
from repro.core.closures import compile_fragment
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import execute_noncti
from repro.observe.events import EV_CONTEXT_SWITCH, EV_IBL_HIT, EV_IBL_MISS

# Exit reasons returned to the dispatcher.
EXIT_DISPATCH = "dispatch"  # unlinked exit; next_tag + stub
EXIT_IBL_MISS = "ibl_miss"  # indirect target not in table
# Mid-fragment interrupt poll fired (options.precise_interrupts): a due
# alarm or a pending detach unwound at an application-consistent step;
# next_tag is the *translated* source PC (repro.core.translate).
EXIT_INTERRUPT = "interrupt"


class Executor:
    """Executes fragments for one runtime (shared across its threads)."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.instructions = 0
        # Set by closure-compiled exit steps before they return None:
        # the linked/IBL-hit successor, or None after recording ``_exit``.
        self._next_fragment = None
        # The exit the current run() leaves through, recorded by the
        # step that leaves the cache: (reason, next_tag, stub).
        self._exit = None
        # The fragment whose pass is in flight, named by memory-fault
        # messages; None between passes.
        self.fragment = None

    # ------------------------------------------------------------ exit paths

    def _run_stub_ops(self, stub_ops, cpu, mem, system, counter):
        for op in stub_ops:
            if op[0] == OP_CLEAN_CALL:
                counter.cycles += op[2]
                guard = self.runtime.guard
                if guard is None:
                    op[1](self.runtime.current_thread)
                else:
                    guard.call(
                        op[1],
                        (self.runtime.current_thread,),
                        role="stub_call",
                    )
            else:
                counter.cycles += op[3]
                execute_noncti(cpu, mem, system, op[1], op[2])

    def _direct_exit(self, stub, cpu, mem, system):
        """Leave through a direct exit.  Returns the linked successor,
        or records the dispatcher exit and returns ``None``."""
        linked = stub.linked_to
        if linked is not None and not stub.always_stub:
            return linked
        runtime = self.runtime
        counter = runtime.counter
        if stub.stub_ops:
            self._run_stub_ops(stub.stub_ops, cpu, mem, system, counter)
        if linked is not None:
            return linked  # an always-stub exit, linked: its code ran
        counter.cycles += runtime.cost.context_switch
        runtime.stats.context_switches += 1
        observer = runtime.observer
        if observer is not None:
            observer.emit(
                EV_CONTEXT_SWITCH,
                stub.target_tag,
                from_tag=stub.fragment.tag,
                reason=EXIT_DISPATCH,
            )
        self._exit = (EXIT_DISPATCH, stub.target_tag, stub)
        return None

    def _indirect_exit(self, stub, target, cpu, mem, system):
        """Resolve an indirect branch through the IBL.  Returns the hit
        fragment, or runs any stub code, charges the context switch,
        records the dispatcher exit and returns ``None``."""
        runtime = self.runtime
        counter = runtime.counter
        stats = runtime.stats
        observer = runtime.observer
        if runtime.options.link_indirect:
            counter.cycles += runtime.cost.ibl_lookup
            # One dict probe; hit/miss accounting is done here, at the
            # caller, so the table itself stays plumbing-free.
            fragment = runtime.current_thread.ibl.table.get(target)
            if fragment is not None:
                stats.ibl_hits += 1
                if observer is not None:
                    observer.emit(
                        EV_IBL_HIT, target, fragment_kind=fragment.kind
                    )
                return fragment
            stats.ibl_misses += 1
            if observer is not None:
                observer.emit(EV_IBL_MISS, target)
        if stub.stub_ops:
            self._run_stub_ops(stub.stub_ops, cpu, mem, system, counter)
        counter.cycles += runtime.cost.context_switch
        stats.context_switches += 1
        if observer is not None:
            observer.emit(
                EV_CONTEXT_SWITCH,
                target,
                from_tag=stub.fragment.tag,
                reason=EXIT_IBL_MISS,
            )
        self._exit = (EXIT_IBL_MISS, target, stub)
        return None

    # ------------------------------------------------------------- main loop

    def run(self, fragment, single_step=False, budget=None, deadline=None):
        """Execute starting at ``fragment``; follow linked exits until
        an unlinked one (or after one fragment when ``single_step``, or
        once the thread's instruction ``deadline`` passes — the
        scheduler's quantum boundary).

        Returns ``(reason, next_tag, stub)``: the exit the last pass's
        exit step recorded, or a fragment-boundary exit (``stub`` is
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
        if system.alarm_active:
            system.convert_alarm(self.instructions)
        try:
            while True:
                if profile_enter is not None:
                    profile_enter(fragment, counter.cycles)
                counter.cycles += fragment_entry
                # Step table read once: a fragment replaced
                # mid-execution keeps running its old steps until the
                # next exit.
                steps = fragment.compiled
                if steps is None:
                    steps = compile_fragment(fragment, runtime)
                self.fragment = fragment
                self._next_fragment = None
                i = 0
                while i is not None:
                    i = steps[i](self, cpu)
                next_fragment = self._next_fragment
                if next_fragment is None:
                    # The pass left the cache: its exit step recorded why.
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
                if budget is not None and self.instructions > budget:
                    raise MachineFault(
                        "instruction budget exhausted (%d)" % budget
                    )
                if system.alarm_active:
                    system.convert_alarm(self.instructions)
                    if (
                        system.alarm_due(self.instructions)
                        and system.signal_handler
                    ):
                        # pending signal: deliver from the dispatcher at
                        # this fragment boundary
                        exit_ = (EXIT_DISPATCH, fragment.tag, None)
                        break
                if (
                    deadline is not None and self.instructions >= deadline
                ) or runtime._need_reschedule:
                    # Quantum expired (or a thread was spawned): back to
                    # the scheduler, without a context-switch charge
                    # (the dispatcher charges the thread switch).
                    exit_ = (EXIT_DISPATCH, fragment.tag, None)
                    break
        finally:
            # No pass is in flight, whether it left or raised.
            self.fragment = None
        if observer is not None:
            observer.profile_break(counter.cycles)
        return exit_
