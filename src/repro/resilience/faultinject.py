"""Deterministic fault injection for the drguard test harness.

A :class:`FaultPlan` derives, from ``(kind, seed)``, *which* hook
invocations misbehave — everything downstream of the seed is pure
arithmetic, so the same plan produces the same faults at the same
points on every run.  A :class:`FaultInjectingClient` wraps a real
client and plants the planned bug:

``raise_in_hook``      raise from the basic-block hook;
``corrupt_instrlist``  append a branch to an orphan label (the hook
                       returns normally; emission then fails);
``hook_budget_burn``   spin forever in the hook (caught by the
                       ``client_hook_budget`` settrace counter);
``cache_poison``       call ``dr_replace_fragment`` with a corrupt
                       list from inside the hook (the API call raises
                       inside the hook — a fault mid-API);
``mid_trace_signal``   raise from the *trace* hook (paired by the
                       chaos harness with a signal-delivering
                       workload);
``smc_write``          no client misbehavior at all — the workload
                       itself stores into its own code, exercising the
                       cache-consistency path;
``detach``             call ``dr_detach`` from the hook: the runtime
                       must translate state, flush everything, and
                       finish the program natively, bit-identical;
``reattach``           ``dr_detach(reattach_after=N)`` — a full
                       detach / native excursion / re-attach bounce
                       (possibly several, the plan keeps firing after
                       the caches are rebuilt);
``mid_fragment_signal``  no client misbehavior — run under
                       ``precise_interrupts`` with a signal-delivering
                       workload so alarms are taken *inside* fragments
                       via the translation tables.

The drshield matrix targets the *runtime* instead of the client: a
:class:`RuntimeFaultPlan` is installed on the runtime's
:class:`~repro.resilience.shield.RuntimeGuard` and fires at the
runtime's own chokepoints — no client involved at all:

``runtime_raise:<site>``  raise :class:`~repro.resilience.shield.
                       InjectedRuntimeFault` at chokepoint ``<site>``
                       (one of bb_build, emit, link, unlink, evict,
                       trace) on the scheduled invocations; the
                       escalation ladder must contain every one;
``errant_write``       after scheduled builds, store into runtime-owned
                       memory (fragment body, exit stub, IBL range,
                       scratch — rotating) through the real memory
                       write path, so the shield's watcher detects,
                       attributes, and recovers;
``livelock``           delete each freshly built fragment before it can
                       execute, re-translating the same tag forever —
                       the forward-progress watchdog must break the
                       loop (flush, then detach to native).
"""

import random

from repro.api.client import Client
from repro.api.dr import dr_detach, dr_replace_fragment
from repro.ir.instr import Instr, LabelRef
from repro.isa.opcodes import Opcode
from repro.resilience.shield import RUNTIME_SITES

FAULT_KINDS = (
    "raise_in_hook",
    "corrupt_instrlist",
    "hook_budget_burn",
    "cache_poison",
    "mid_trace_signal",
    "smc_write",
    "detach",
    "reattach",
    "mid_fragment_signal",
)

# Runtime-targeted kinds (the chaos --runtime matrix).
RUNTIME_FAULT_KINDS = tuple(
    "runtime_raise:%s" % site for site in RUNTIME_SITES
) + ("errant_write", "livelock")

# Native excursion length for the ``reattach`` fault: short enough that
# every chaos workload has that much left to run after the first hook.
REATTACH_AFTER = 300


class InjectedFault(Exception):
    """The deliberate bug the harness plants in a client hook."""


def corrupt_instrlist(ilist):
    """Make ``ilist`` fail emission: branch to a label that is not in
    the list (the verifier/emitter reject out-of-fragment label
    targets)."""
    orphan = Instr.label()
    ilist.append(Instr.create(Opcode.JMP, LabelRef(orphan)))
    return ilist


class FaultPlan:
    """Seeded schedule of hook invocations that misbehave.

    Faults fire on invocation numbers ``start, start + period,
    start + 2*period, ...`` (1-based), with ``start`` and ``period``
    drawn deterministically from the seed.
    """

    def __init__(self, kind, seed):
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind %r" % (kind,))
        self.kind = kind
        self.seed = seed
        rng = random.Random("%s:%d" % (kind, seed))
        self.start = rng.randint(1, 3)
        self.period = rng.randint(1, 3)

    def fires(self, call_index):
        return (
            call_index >= self.start
            and (call_index - self.start) % self.period == 0
        )

    def __repr__(self):
        return "<FaultPlan %s seed=%d start=%d period=%d>" % (
            self.kind,
            self.seed,
            self.start,
            self.period,
        )


class RuntimeFaultPlan:
    """Seeded schedule of *runtime* chokepoint invocations that fault.

    ``kind`` is one of :data:`RUNTIME_FAULT_KINDS`.  For
    ``runtime_raise:<site>`` kinds, ``site`` names the targeted
    chokepoint and :meth:`fires` is consulted against that site's
    per-site call counter; for ``errant_write``/``livelock`` it is
    consulted against the successful-build counter.  Chokepoint
    invocation counts are a deterministic property of the dispatcher,
    so one plan fires at the same logical points on every run.

    ``livelock`` fires on *every* build past ``start`` — a periodic
    schedule would let non-firing builds execute and reset the
    watchdog, which is starvation, not livelock.

    ``start``/``period`` may be pinned explicitly (tests); by default
    they are drawn from the seed like :class:`FaultPlan`.
    """

    def __init__(self, kind, seed, start=None, period=None):
        if kind not in RUNTIME_FAULT_KINDS:
            raise ValueError("unknown runtime fault kind %r" % (kind,))
        self.kind = kind
        self.seed = seed
        self.site = (
            kind.split(":", 1)[1] if kind.startswith("runtime_raise:") else None
        )
        rng = random.Random("%s:%d" % (kind, seed))
        self.start = rng.randint(1, 3) if start is None else start
        self.period = rng.randint(1, 3) if period is None else period
        # Victim rotation for errant_write draws from its own stream so
        # firing arithmetic stays independent of victim choice.
        self.victim_rng = random.Random("victim:%s:%d" % (kind, seed))

    def fires(self, call_index):
        if self.kind == "livelock":
            return call_index >= self.start
        return (
            call_index >= self.start
            and (call_index - self.start) % self.period == 0
        )

    def __repr__(self):
        return "<RuntimeFaultPlan %s seed=%d start=%d period=%d>" % (
            self.kind,
            self.seed,
            self.start,
            self.period,
        )


class FaultInjectingClient(Client):
    """Delegates every hook to ``inner``, injecting the plan's fault on
    the scheduled invocations.  ``inner`` may be None (a pure-fault
    client)."""

    def __init__(self, plan, inner=None):
        super().__init__()
        self.plan = plan
        self.inner = inner
        self.bb_calls = 0
        self.trace_calls = 0
        self.injected = 0
        self._last_tag = None

    # ------------------------------------------------------------- plumbing

    def attach(self, runtime):
        super().attach(runtime)
        if self.inner is not None:
            self.inner.attach(runtime)

    def init(self):
        if self.inner is not None:
            self.inner.init()

    def exit(self):
        if self.inner is not None:
            self.inner.exit()

    def thread_init(self, context):
        if self.inner is not None:
            self.inner.thread_init(context)

    def thread_exit(self, context):
        if self.inner is not None:
            self.inner.thread_exit(context)

    def fragment_deleted(self, context, tag):
        if self.inner is not None:
            self.inner.fragment_deleted(context, tag)

    def end_trace(self, context, trace_tag, next_tag):
        if self.inner is not None:
            return self.inner.end_trace(context, trace_tag, next_tag)
        return super().end_trace(context, trace_tag, next_tag)

    # ---------------------------------------------------------- build hooks

    def basic_block(self, context, tag, ilist):
        self.bb_calls += 1
        kind = self.plan.kind
        if self.plan.fires(self.bb_calls) and kind not in (
            "mid_trace_signal",
            "smc_write",
            "mid_fragment_signal",
        ):
            if kind == "raise_in_hook":
                self.injected += 1
                raise InjectedFault(
                    "planted bb-hook fault #%d" % self.bb_calls
                )
            if kind == "corrupt_instrlist":
                self.injected += 1
                if self.inner is not None:
                    self.inner.basic_block(context, tag, ilist)
                corrupt_instrlist(ilist)
                return
            if kind == "hook_budget_burn":
                self.injected += 1
                spin = 0
                while True:  # runs until the hook budget trips
                    spin += 1
            if kind == "detach":
                # Stay-native detach from inside a build hook: not a
                # bug, but the harshest transparency test — the rest of
                # the program must run natively, bit-identical.
                if not self.injected:
                    self.injected += 1
                    dr_detach(self)
            if kind == "reattach":
                # Detach / re-attach bounce.  Fires again after the
                # re-attach rebuilds the caches and the hook is called
                # anew, so one seed exercises several round trips.
                self.injected += 1
                dr_detach(self, reattach_after=REATTACH_AFTER)
            if kind == "cache_poison":
                prior = self._last_tag
                if prior is not None and prior != tag:
                    stale = self.runtime.decode_fragment(context, prior)
                    if stale is not None:
                        self.injected += 1
                        self._last_tag = tag
                        # Raises EmitError inside this hook.
                        dr_replace_fragment(
                            context, prior, corrupt_instrlist(stale)
                        )
        if self.inner is not None:
            self.inner.basic_block(context, tag, ilist)
        self._last_tag = tag

    def trace(self, context, tag, ilist):
        self.trace_calls += 1
        if self.plan.kind == "mid_trace_signal" and self.plan.fires(
            self.trace_calls
        ):
            self.injected += 1
            raise InjectedFault(
                "planted trace-hook fault #%d" % self.trace_calls
            )
        if self.inner is not None:
            self.inner.trace(context, tag, ilist)
