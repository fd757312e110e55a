"""Runtime determinism regression: the generated fragment code against
the native interpreter.

Every cell goes through the differential oracle
(``repro.tools.oracle``), which holds each run to native: output, exit
code, and the final registers and eflags whenever native takes no
signal.  Traced cells also replay their stats exactly from the event
stream, and a traced column must land on the untraced column's cycles,
instructions, events and final state: tracing must not perturb the
simulated machine.  ("Engines" in the test names are the runtime and
the native interpreter.)

Each sample client exercises a different lowered-op surface: redundant
load removal rewrites straight-line exec ops, strength reduction changes
instruction costs, indirect-branch dispatch gives OP_IND_EXIT compare
chains and profilers, custom traces reshape fragment boundaries, and
exit stubs put client code on the way out of the cache.  Signals and
threads cover the alarm/safe-point and scheduler paths.
"""

import pytest

from repro.api.client import Client
from repro.api.dr import dr_insert_clean_call, dr_set_exit_stub
from repro.clients import (
    CustomTraces,
    IndirectBranchDispatch,
    RedundantLoadRemoval,
    StrengthReduction,
)
from repro.core import RuntimeOptions
from repro.ir.create import INSTR_CREATE_mov, OPND_CREATE_INT32, OPND_CREATE_MEM
from repro.ir.instrlist import InstrList
from repro.minicc import compile_source
from repro.tools.oracle import Cell, Column, check

from tests.conftest import INDIRECT_SRC, LOOP_SRC

SIGNAL_SRC = """
int ticks;

int on_alarm() {
    ticks++;
    if (ticks < 3) { alarm(200); }
    sigreturn;
    return 0;
}

int main() {
    int i;
    sighandler(&on_alarm);
    alarm(200);
    i = 0;
    while (ticks < 3) { i++; }
    print(ticks);
    return 0;
}
"""

THREADS_SRC = """
int done;
int total;

int worker() {
    int i;
    for (i = 0; i < 40; i++) { total = total + i; }
    done = done + 1;
    return 0;
}

int main() {
    done = 0;
    total = 0;
    spawn(&worker, 0x790000);
    while (done < 1) { }
    print(total);
    return 0;
}
"""


class ExitStubs(Client):
    """Custom stub code on every block's exit: a store into the runtime
    heap and a clean call, run only when the exit leaves unlinked, or
    (every fourth block by tag) on every pass."""

    def basic_block(self, context, tag, ilist):
        last = ilist.last()
        if last is not None and last.level >= 2 and last.is_cti():
            stub = InstrList()
            stub.append(INSTR_CREATE_mov(
                OPND_CREATE_MEM(disp=0x1000000), OPND_CREATE_INT32(tag)
            ))
            dr_insert_clean_call(stub, None, lambda context: None)
            dr_set_exit_stub(last, stub, always=(tag & 12) == 4)


CLIENTS = {
    "none": lambda: None,
    "exit_stubs": ExitStubs,
    "redundant_load": RedundantLoadRemoval,
    "inc2add": StrengthReduction,
    "indirect_dispatch": IndirectBranchDispatch,
    "custom_traces": CustomTraces,
}

SOURCES = {
    "loop": LOOP_SRC,
    "indirect": INDIRECT_SRC,
    "signals": SIGNAL_SRC,
}


def _options(factory=RuntimeOptions.with_traces, **overrides):
    """An options factory: ``factory()`` with ``overrides`` set."""

    def options():
        made = factory()
        for key, value in overrides.items():
            setattr(made, key, value)
        return made

    return options


@pytest.fixture(scope="module")
def images():
    return {name: compile_source(src) for name, src in SOURCES.items()}


def _assert_engines_identical(image, client=lambda: None, **cell):
    verdict = check(Cell(image, client=client, **cell))
    assert verdict.ok, verdict
    return verdict


@pytest.mark.parametrize("client_name", sorted(CLIENTS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_runtime_engines_bit_identical(images, source_name, client_name):
    _assert_engines_identical(images[source_name], CLIENTS[client_name])


def test_threaded_workload_engines_bit_identical():
    _assert_engines_identical(compile_source(THREADS_SRC))


def test_ablation_rows_bit_identical(images):
    """Every Table-1 configuration row agrees with native."""
    for factory in (
        RuntimeOptions.bb_cache_only,
        RuntimeOptions.with_direct_links,
        RuntimeOptions.with_indirect_links,
        RuntimeOptions.with_traces,
    ):
        _assert_engines_identical(images["loop"], options=factory)


# --------------------------------------------------- drtrace differential

def _check_traced_group(image, factory):
    # Replaying the (unbounded) event stream reconstructs every
    # RuntimeStats counter exactly.
    traced = _options(trace_events=True, trace_buffer=None)
    _assert_engines_identical(image, factory, options=traced)

    # Tracing must not perturb the simulated machine: a tracing-off run
    # lands on the same cycles/output as a traced one.
    _assert_engines_identical(image, factory, columns=(
        Column("traced", {"trace_events": True}),
        Column("untraced"),
    ))


@pytest.mark.parametrize("client_name", ["none", "indirect_dispatch"])
@pytest.mark.parametrize("source_name", ["loop", "indirect"])
def test_traced_runs_replay_stats_and_match_engines(
    images, source_name, client_name
):
    _check_traced_group(images[source_name], CLIENTS[client_name])


@pytest.mark.slow
@pytest.mark.parametrize("client_name", sorted(CLIENTS))
@pytest.mark.parametrize("source_name", sorted(SOURCES))
def test_traced_runs_full_matrix(images, source_name, client_name):
    _check_traced_group(images[source_name], CLIENTS[client_name])


@pytest.mark.parametrize("cell", [
    "loop", "indirect", "signals", "signals-precise", "threads",
])
def test_exit_stub_runs_replay_and_match_native(images, cell):
    """Runs whose exits carry client stub code, under every Table-1 row
    with an exit to stub (traces included), end in native's state and
    replay their stats exactly; precise interrupts add mid-fragment
    polls, and two threads share the stubbed bodies."""
    source, _, precise = cell.partition("-")
    image = (
        compile_source(THREADS_SRC) if source == "threads" else images[source]
    )
    for factory in (
        RuntimeOptions.bb_cache_only,
        RuntimeOptions.with_direct_links,
        RuntimeOptions.with_traces,
    ):
        _assert_engines_identical(image, ExitStubs, options=_options(
            factory, precise_interrupts=bool(precise),
            trace_events=True, trace_buffer=None,
        ))


# ----------------------------------------------- drguard fault determinism

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "fault_kind", ["raise_in_hook", "corrupt_instrlist"]
)
def test_faulted_runs_bit_identical_across_engines(images, fault_kind, seed):
    """Injected client faults, and the guard's recovery from them, keep
    the run native-identical with replay-exact stats."""
    from repro.resilience.faultinject import FaultInjectingClient, FaultPlan

    def client():
        return FaultInjectingClient(
            FaultPlan(fault_kind, seed), inner=StrengthReduction()
        )

    verdict = _assert_engines_identical(
        images["loop"], client, client_faults=True, options=_options(
            guard_clients=True, cache_consistency=True,
            trace_events=True, trace_buffer=None,
        ),
    )
    assert verdict.runs[0].runtime.stats.client_faults > 0
