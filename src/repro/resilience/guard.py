"""Client fault isolation: the :class:`ClientGuard`.

A buggy client must not take the application down with it (the paper's
Section 3 interface contract: clients are *cooperating* but the
infrastructure stays in control).  When ``options.guard_clients`` is on
the runtime owns a guard and every client hook site routes through it:

* **Build hooks** (basic block / trace): the instruction list is
  snapshotted before the hook runs.  If the hook raises — or corrupts
  the list such that emission fails — the fault is recorded and the
  pristine snapshot is emitted instead, so the application executes the
  untransformed fragment ("fragment bailout").
* **Execution hooks** (clean calls, indirect-branch checkers and
  profilers, exit-stub calls): bound once, when a fragment is compiled
  (:meth:`ClientGuard.bind` through ``DynamoRIO.client_hook``); a fault
  is recorded and the call's effect discarded; execution continues.
* **Event tracers**: a faulting tracer is detached and recorded.

After ``FAULT_LIMIT`` faults the client is *quarantined*: all
caches are flushed (dropping every client-instrumented fragment),
in-progress trace recordings are abandoned, and every subsequent hook
site skips the client entirely — the run continues at native fidelity.

``client_hook_budget`` optionally bounds how much Python work a single
hook may do, measured in ``sys.settrace`` events (calls, lines,
returns).  That count is a deterministic property of the client code
path — identical on every run, unlike wall-clock time — so a
runaway hook faults reproducibly.

The guard charges **no simulated cycles** of its own: hook-site cycle
accounting (charges, stats, events) happens at the call sites exactly
as when guarding is off, so a well-behaved client produces bit-identical
results with the guard on or off.

:class:`ClientHalt` is the escape hatch for clients that *mean* to stop
the world (e.g. program shepherding's ``SecurityViolation``): it always
propagates, and is never counted as a fault.  So do program and thread
exit.  Leaving the code cache raises nothing: an exit is the executor's
return value, so no guarded call ever sees one.
"""

import sys

from repro.core.trace_builder import DEFAULT_TRACE_END
from repro.ir.instrlist import InstrList, copy_instructions
from repro.machine.errors import ProgramExit
from repro.machine.system import ThreadExit
from repro.observe.events import (
    EV_CLIENT_FAULT,
    EV_CLIENT_QUARANTINED,
    EV_FRAGMENT_BAILOUT,
)


class ClientHalt(Exception):
    """A deliberate client-initiated control transfer (never a fault).

    Clients raise a subclass to stop the application on purpose —
    program shepherding's ``SecurityViolation`` is the canonical case.
    The guard lets these propagate untouched.
    """


class HookBudgetExceeded(Exception):
    """A client hook exceeded ``options.client_hook_budget``."""


class InjectedRuntimeFault(Exception):
    """A deliberately planted runtime-internal fault (test harness).

    Carries ``site`` so the runtime guard attributes the fault to the
    chokepoint the plan targeted even when it surfaces through an
    enclosing one (an ``emit`` fault unwinds through the bb-build or
    trace chokepoint).  Defined here, beside the passthrough sets, so
    ``shield.py`` imports both from this module without a cycle.
    """

    def __init__(self, message, site):
        super().__init__(message)
        self.site = site


# Exceptions the client guard must never swallow: deliberate client
# halts, program and thread exit, and planted *runtime* faults (the
# RuntimeGuard's ladder owns those — a client guard that caught one
# would misattribute an internal fault to the client).  Cache exits
# need no entry: they are plain returns (repro.core.execute).
_PASSTHROUGH = (
    ClientHalt,
    ProgramExit,
    ThreadExit,
    InjectedRuntimeFault,
)

# Exceptions the *runtime* chokepoints (``RuntimeGuard.attempt``) let
# through: control flow only (client halts, program and thread exit).
# InjectedRuntimeFault is deliberately absent — planted runtime faults
# are exactly what the escalation ladder must catch.
RUNTIME_PASSTHROUGH = (ClientHalt, ProgramExit, ThreadExit)

# Client faults before quarantine.
FAULT_LIMIT = 3


class ClientGuard:
    """Fault-isolation state for one runtime's client."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.hook_budget = runtime.options.client_hook_budget
        self.faults = 0
        self.quarantined = False
        self.fault_log = []  # dicts: phase, tag, error, message

    # ------------------------------------------------------------ invocation

    def _invoke(self, fn, args):
        """Call a client function, enforcing the hook budget if set."""
        budget = self.hook_budget
        if budget is None:
            return fn(*args)
        spent = [0]

        def tracer(frame, event, arg):
            spent[0] += 1
            if spent[0] > budget:
                raise HookBudgetExceeded(
                    "client hook exceeded budget of %d trace events" % budget
                )
            return tracer

        prior = sys.gettrace()
        sys.settrace(tracer)
        try:
            return fn(*args)
        finally:
            sys.settrace(prior)

    # ---------------------------------------------------------------- faults

    def record_fault(self, phase, tag, exc):
        """Attribute one fault to the client; quarantine at the limit."""
        self.faults += 1
        runtime = self.runtime
        runtime.stats.client_faults += 1
        self.fault_log.append(
            {
                "phase": phase,
                "tag": tag,
                "error": type(exc).__name__,
                "message": str(exc),
            }
        )
        observer = runtime.observer
        if observer is not None:
            observer.emit(
                EV_CLIENT_FAULT, tag, phase=phase, error=type(exc).__name__
            )
        if not self.quarantined and self.faults >= FAULT_LIMIT:
            self.quarantine()

    def quarantine(self):
        """Disable the client for the rest of the run (OSR-style
        bailout: flush everything it instrumented, continue native)."""
        self.quarantined = True
        runtime = self.runtime
        runtime.stats.client_quarantines += 1
        # Bail out *before* emitting: the flush also unregisters the
        # client's event tracers (the detach path), so the quarantined
        # client never observes its own quarantine — no client emit
        # site survives the bailout.
        runtime._bailout_client()
        observer = runtime.observer
        if observer is not None:
            observer.emit(
                EV_CLIENT_QUARANTINED,
                None,
                faults=self.faults,
                limit=FAULT_LIMIT,
            )

    # ------------------------------------------------------------ hook sites

    def build_hook(self, phase, tag, ilist, hook, emit):
        """Run a build-time hook (bb/trace) with bailout protection.

        ``hook(ilist)`` transforms the list in place; ``emit(ilist)``
        turns a list into a Fragment (and may itself raise if the client
        corrupted the list — also a client fault).  Returns the emitted
        Fragment, built from the pristine snapshot on fault.
        """
        pristine = InstrList(copy_instructions(ilist))
        try:
            self._invoke(hook, (ilist,))
            return emit(ilist)
        except _PASSTHROUGH:
            raise
        except Exception as exc:
            self.record_fault(phase, tag, exc)
            runtime = self.runtime
            runtime.stats.fragment_bailouts += 1
            observer = runtime.observer
            if observer is not None:
                observer.emit(
                    EV_FRAGMENT_BAILOUT,
                    tag,
                    phase=phase,
                    error=type(exc).__name__,
                )
            return emit(pristine)

    def bind(self, fn, tag, role):
        """``fn`` as compiled code calls an execution hook: each call
        goes through :meth:`call`, looked up when it is made."""

        def hook(*args):
            self.call(fn, args, tag=tag, role=role)

        return hook

    def call(self, fn, args, tag=None, role="clean_call"):
        """Run an execution-time hook (clean call, checker, profiler,
        stub call); a fault discards the call's effect and continues."""
        if self.quarantined:
            return
        try:
            self._invoke(fn, args)
        except _PASSTHROUGH:
            raise
        except Exception as exc:
            self.record_fault(role, tag, exc)

    def end_trace(self, client, thread, head_tag, next_tag):
        """Route the end-of-trace query; fall back to the default
        heuristic when quarantined or faulting."""
        if self.quarantined:
            return DEFAULT_TRACE_END
        try:
            return self._invoke(client.end_trace, (thread, head_tag, next_tag))
        except _PASSTHROUGH:
            raise
        except Exception as exc:
            self.record_fault("end_trace", head_tag, exc)
            return DEFAULT_TRACE_END

    def wrap_tracer(self, fn):
        """Wrap a dr_register_event_tracer callback: a fault detaches
        the tracer (before the fault event is emitted, so the emit does
        not re-enter it) and is recorded like any other."""
        state = {"dead": False}

        def guarded(event):
            if state["dead"] or self.quarantined:
                return
            try:
                self._invoke(fn, (event,))
            except _PASSTHROUGH:
                raise
            except Exception as exc:
                state["dead"] = True
                self.record_fault("tracer", None, exc)

        return guarded
