"""Chaos harness: client x workload x fault matrices under drguard.

Usage::

    python -m repro.tools.chaos --seeds 4 --matrix small
    python -m repro.tools.chaos --seeds 2 --matrix full --verbose

Every cell pairs a real client wrapped in a
:class:`~repro.resilience.faultinject.FaultInjectingClient` with a
workload, under ``guard_clients`` + ``cache_consistency`` + fragment
verification, and is checked by the differential oracle
(:mod:`repro.tools.oracle`: nothing escapes, native output, exit
code and final state, replay-exact stats).  The cell's own checks add
that the fault was *exercised*, not dodged: the expected resilience
events fired, the plan fired, an alarm landed mid-fragment, and the
equivalence rule flagged every injected ``corrupt_instrlist`` and
``cache_poison``.

``--runtime`` switches to the drshield matrix: no client at all, the
faults target the *runtime's own* chokepoints (``runtime_raise:<site>``)
or plant errant stores / livelock (see
:class:`~repro.resilience.faultinject.RuntimeFaultPlan`).  Beyond the
oracle, the plan must fire and the ladder must engage (a
``shield_fault``, or a watchdog trip for livelock).

Exit status is non-zero if any run violates the contract.
"""

import argparse

from repro.asm import CodeBuilder, mem
from repro.core import RuntimeOptions
from repro.isa.registers import Reg
from repro.minicc import compile_source
from repro.resilience.faultinject import (
    FAULT_KINDS,
    RUNTIME_FAULT_KINDS,
    FaultInjectingClient,
    FaultPlan,
    RuntimeFaultPlan,
)
from repro.tools.oracle import Cell, sweep
from repro.tools.run import CLIENTS

# ------------------------------------------------------------------ workloads

LOOP_SRC = """
int main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 400; i++) {
        acc = acc + i;
        if (acc > 10000) { acc = acc - 9000; }
    }
    print(acc);
    return 0;
}
"""

INDIRECT_SRC = """
int table[4];

int f0(int x) { return x + 1; }
int f1(int x) { return x * 2; }
int f2(int x) { return x - 3; }
int f3(int x) { return x ^ 21; }

int main() {
    int i; int acc; int f;
    table[0] = &f0;
    table[1] = &f1;
    table[2] = &f2;
    table[3] = &f3;
    acc = 1;
    for (i = 0; i < 300; i++) {
        f = table[i & 3];
        acc = f(acc) & 0xFFFF;
    }
    print(acc);
    return 0;
}
"""

SIGNAL_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    if (ticks < 5) { alarm(200); }
    sigreturn;
    return 0;
}

int churn(int n) {
    int j; int acc;
    acc = n;
    for (j = 0; j < 20; j++) { acc = (acc + j) & 0xFFFF; }
    return acc;
}

int mix(int n) {
    int j; int acc;
    acc = n;
    for (j = 0; j < 20; j++) { acc = (acc ^ j) + 1; }
    return acc & 0xFFFF;
}

int main() {
    int i;
    sighandler(&on_alarm);
    alarm(200);
    i = 0;
    while (ticks < 5) { i = churn(i); i = mix(i); }
    print(ticks);
    return 0;
}
"""


def build_smc_image():
    """Self-modifying workload: iteration 6 patches the immediate of
    the emitting ``mov`` from ``0x1000041`` ('A') to ``0x1000042``
    ('B'), so the output is AAAAAAA then BBBBB (7 + 5).  The high bits
    pin the encoder to the imm32 form, keeping the patched bytes at a
    known offset before ``patch_end``."""
    b = CodeBuilder(base=0x1000)
    b.label("main")
    b.mov(Reg.ESI, 0)
    b.label("loop")
    b.call("fn_emit")
    b.cmp(Reg.ESI, 6)
    b.jnz("skip")
    b.mov(Reg.ECX, b.label_address("patch_end"))
    b.sub(Reg.ECX, 4)
    b.mov(Reg.EDX, 0x1000042)
    b.mov(mem(base=Reg.ECX), Reg.EDX)
    b.label("skip")
    b.add(Reg.ESI, 1)
    b.cmp(Reg.ESI, 12)
    b.jnz("loop")
    b.mov(Reg.EAX, 1)
    b.mov(Reg.EBX, 0)
    b.syscall()
    b.label("fn_emit")
    b.mov(Reg.EBX, 0x1000041)
    b.label("patch_end")
    b.mov(Reg.EAX, 2)
    b.syscall()
    b.ret()
    code, labels = b.assemble()
    patch_at = labels["patch_end"] - 4 - 0x1000
    imm = int.from_bytes(code[patch_at : patch_at + 4], "little")
    assert imm == 0x1000041, "encoder moved the patch site (imm=%#x)" % imm
    return b.image(entry="main")


def workload_images():
    return {
        "loop": compile_source(LOOP_SRC),
        "indirect": compile_source(INDIRECT_SRC),
        "signal": compile_source(SIGNAL_SRC),
        "smc": build_smc_image(),
    }


# ------------------------------------------------------------------- matrices

SMALL_CLIENTS = ("rlr", "inc2add", "ctrace")
FULL_CLIENTS = ("rlr", "inc2add", "ctrace", "ibdisp", "null")

# Fault kind -> workloads that exercise it.  mid_trace_signal and
# mid_fragment_signal need a signal-delivering program; smc_write needs
# the self-modifying one.
def fault_workloads(kind, matrix):
    if kind in ("mid_trace_signal", "mid_fragment_signal"):
        return ("signal",)
    if kind == "smc_write":
        return ("smc",)
    if matrix == "small":
        return ("loop", "indirect")
    return ("loop", "indirect", "signal")


# Event kinds that must appear for each fault kind (the fault actually
# fired) — checked against the observer's aggregate counts.
EXPECTED_EVENTS = {
    "raise_in_hook": ("client_fault", "fragment_bailout"),
    "corrupt_instrlist": ("client_fault", "fragment_bailout"),
    "hook_budget_burn": ("client_fault", "fragment_bailout"),
    "cache_poison": ("client_fault", "fragment_bailout"),
    "mid_trace_signal": ("client_fault", "signal_delivered"),
    "smc_write": ("smc_invalidate",),
    "detach": ("detach",),
    "reattach": ("detach", "reattach"),
    "mid_fragment_signal": ("signal_delivered",),
}

# Kinds exercising the drdetach machinery: run under precise
# interrupts so state translation and mid-fragment delivery are
# actually on the path, not just fragment-boundary rollback.
DETACH_KINDS = ("detach", "reattach", "mid_fragment_signal")


def client_options(fault_kind):
    options = RuntimeOptions.with_traces()
    options.guard_clients = True
    options.client_hook_budget = 200000
    options.cache_consistency = True
    options.verify_fragments = True
    options.trace_events = True
    options.trace_buffer = None
    if fault_kind in ("mid_trace_signal", "smc_write"):
        # Make traces (and therefore trace hooks / stitched-span
        # invalidation) happen early in these short programs.
        options.trace_threshold = 3
    if fault_kind in DETACH_KINDS:
        options.precise_interrupts = True
    return options


def expected_events(run):
    counts = run.runtime.observer.counts
    for kind in EXPECTED_EVENTS[run.client.plan.kind]:
        if not counts.get(kind):
            yield "expected event %r never fired" % kind


def plan_fired(run):
    if run.client.injected == 0:
        yield "fault plan never fired"


def mid_fragment_delivery(run):
    # The point of the kind: at least one alarm must have been taken
    # *inside* a fragment via the translation table, not at a fragment
    # boundary.
    if not any(
        ev.data.get("mid_fragment")
        for ev in run.runtime.observer.events(("signal_delivered",))
    ):
        yield "no mid-fragment signal delivery"


def equivalence_flagged(run):
    # drequiv negative control: these faults corrupt instruction lists
    # semantically, so beyond the guard's dynamic bailout the
    # equivalence rule must have flagged them *statically* at emit.
    if run.client.injected and not any(
        d.is_error and d.rule == "equivalence"
        for d in run.runtime.verifier_diagnostics
    ):
        yield "injected %s was never flagged by the equivalence rule" % (
            run.client.plan.kind
        )


def client_cell(image, client_name, fault_kind, seed):
    """One chaos cell: ``client_name`` behind a seeded fault injector."""

    def client():
        return FaultInjectingClient(
            FaultPlan(fault_kind, seed), inner=CLIENTS[client_name](image)
        )

    checks = [expected_events]
    if fault_kind not in ("smc_write", "mid_fragment_signal"):
        checks.append(plan_fired)
    if fault_kind == "mid_fragment_signal":
        checks.append(mid_fragment_delivery)
    if fault_kind in ("corrupt_instrlist", "cache_poison"):
        checks.append(equivalence_flagged)
    return Cell(
        image,
        options=lambda: client_options(fault_kind),
        client=client,
        checks=tuple(checks),
        client_faults=True,
    )


# ------------------------------------------------- drshield matrix (--runtime)

# Kinds whose chokepoint only runs under cache pressure: give them a
# small cache so evict/unlink are actually invoked in every workload.
PRESSURE_KINDS = ("runtime_raise:evict", "runtime_raise:unlink")


def runtime_fault_workloads(matrix):
    if matrix == "small":
        return ("loop", "indirect")
    return ("loop", "indirect", "signal")


def runtime_options(fault_kind):
    options = RuntimeOptions.with_traces()
    options.shield = True
    options.trace_events = True
    options.trace_buffer = None
    options.precise_interrupts = True
    options.trace_threshold = 3
    if fault_kind in PRESSURE_KINDS:
        options.code_cache_limit = 256
    if fault_kind == "runtime_raise:evict":
        options.cache_evict_policy = "fifo"
    return options


def runtime_plan_fired(run):
    if run.runtime.rguard.injected == 0:
        yield "runtime fault plan never fired"


def ladder_engaged(run):
    stats = run.runtime.stats
    if run.runtime.rguard.plan.kind == "livelock":
        # Livelock produces no internal exception, so no shield_fault;
        # the watchdog must have broken the loop instead.
        if not stats.watchdog_trips:
            yield "livelock never tripped the watchdog"
    elif not stats.shield_faults:
        yield "fault injected but no shield_fault recorded"


def runtime_cell(image, fault_kind, seed):
    """One drshield cell: a seeded runtime fault plan."""
    # Trace finalization only runs a handful of times in these short
    # workloads, so the plan must start at the first one to be
    # guaranteed to fire; the period still varies with the seed.
    start = 1 if fault_kind == "runtime_raise:trace" else None

    def install_plan(runtime):
        runtime.rguard.plan = RuntimeFaultPlan(fault_kind, seed, start=start)

    return Cell(
        image,
        options=lambda: runtime_options(fault_kind),
        setup=install_plan,
        checks=(runtime_plan_fired, ladder_engaged),
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=4, help="seeds per cell")
    parser.add_argument(
        "--matrix", default="small", choices=["small", "full"],
        help="small: 3 clients, 2 workloads/fault; "
        "full: 5 clients, 3 workloads/fault",
    )
    parser.add_argument(
        "--fault",
        choices=FAULT_KINDS + RUNTIME_FAULT_KINDS,
        help="restrict to one fault kind",
    )
    parser.add_argument(
        "--runtime", action="store_true",
        help="run the drshield runtime-fault matrix (no client; faults "
        "target the runtime's own chokepoints) instead of the client matrix",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.fault:
        pool = RUNTIME_FAULT_KINDS if args.runtime else FAULT_KINDS
        if args.fault not in pool:
            parser.error(
                "--fault %s does not belong to the %s matrix"
                % (args.fault, "runtime" if args.runtime else "client")
            )

    images = workload_images()
    if args.runtime:
        title = "chaos --runtime"
        cells = (
            ("%-22s %-8s seed=%d" % (kind, workload, seed),
             runtime_cell(images[workload], kind, seed))
            for kind in ((args.fault,) if args.fault else RUNTIME_FAULT_KINDS)
            for workload in runtime_fault_workloads(args.matrix)
            for seed in range(args.seeds)
        )
    else:
        title = "chaos"
        small = args.matrix == "small"
        clients = SMALL_CLIENTS if small else FULL_CLIENTS
        cells = (
            ("%-16s %-8s %-7s seed=%d" % (kind, workload, client_name, seed),
             client_cell(images[workload], client_name, kind, seed))
            for kind in ((args.fault,) if args.fault else FAULT_KINDS)
            for workload in fault_workloads(kind, args.matrix)
            for client_name in clients
            for seed in range(args.seeds)
        )
    runs, failures = sweep(cells, args.verbose)
    print(
        "%s: %d runs, %d failures (%s matrix, %d seeds)"
        % (title, runs, failures, args.matrix, args.seeds)
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
