"""Engine determinism regression: closure ↔ chain.

The two tiers of the fragment engine (step tables in
``repro.core.closures``; chain super-tables in ``repro.core.chains``)
must be *bit-identical* on every simulated observable: cycles,
instruction counts, program output, exit code, the full event/stat
dictionaries, and the final registers and eflags.  Only host
wall-clock time may differ.  Every cell goes through the differential
oracle (``repro.tools.oracle``), which also holds each run to native:
output, exit code, and the final registers and eflags whenever native
takes no signal.

Each sample client exercises a different lowered-op surface: redundant
load removal rewrites straight-line exec ops, strength reduction changes
instruction costs, indirect-branch dispatch emits OP_IND_CHECK chains
with profilers, and custom traces reshape fragment boundaries.  Signals
and threads cover the alarm/safe-point and scheduler paths.

The chain engine runs with ``chain_threshold=1`` so even the short test
workloads promote chains immediately; a dedicated test asserts chains
really get built (a chain run that never chains would vacuously pass
the differential).
"""

import pytest

from repro.clients import (
    CustomTraces,
    IndirectBranchDispatch,
    RedundantLoadRemoval,
    StrengthReduction,
)
from repro.core import RuntimeOptions
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

CLIENTS = {
    "none": lambda: None,
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


def _chaining(factory=RuntimeOptions.with_traces, **overrides):
    """An options factory that promotes chains at the first pass, so the
    short test workloads actually exercise stitched tables (only the
    chain engine reads the threshold)."""

    def options():
        made = factory()
        made.chain_threshold = 1
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
    _assert_engines_identical(
        images[source_name], CLIENTS[client_name], options=_chaining()
    )


def test_chain_runs_actually_chain(images):
    """The engine differentials are only meaningful if the chain
    runs execute stitched tables; assert chains get built and stay
    live on the plain loop workload."""
    verdict = _assert_engines_identical(
        images["loop"], options=_chaining(), columns=("chain",)
    )
    report = verdict["chain"].runtime.chains.report()
    assert report["chains_built"] > 0
    assert report["chains_live"] > 0


def test_threaded_workload_engines_bit_identical():
    src = """
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
    _assert_engines_identical(compile_source(src), options=_chaining())


def test_ablation_rows_bit_identical(images):
    """Every Table-1 configuration row agrees across all engines."""
    for factory in (
        RuntimeOptions.bb_cache_only,
        RuntimeOptions.with_direct_links,
        RuntimeOptions.with_indirect_links,
        RuntimeOptions.with_traces,
    ):
        _assert_engines_identical(images["loop"], options=_chaining(factory))


# --------------------------------------------------- drtrace differential

def _check_traced_group(image, factory):
    # Replaying the (unbounded) event stream reconstructs every
    # RuntimeStats counter exactly, and the streams themselves are
    # identical event by event, for all engines.
    traced = _chaining(trace_events=True, trace_buffer=None)
    _assert_engines_identical(image, factory, options=traced)

    # Tracing must not perturb the simulated machine: tracing-off runs
    # of both engines land on the same cycles/output as a traced one.
    _assert_engines_identical(image, factory, options=_chaining(), columns=(
        Column("traced", "closure", {"trace_events": True}),
        "closure",
        "chain",
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


# ----------------------------------------------- drguard fault determinism

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "fault_kind", ["raise_in_hook", "corrupt_instrlist"]
)
def test_faulted_runs_bit_identical_across_engines(images, fault_kind, seed):
    """Injected client faults — and the guard's recovery from them —
    are deterministic: the same fault plan produces the same faults,
    bailouts, cycles, and event stream on every engine, including the
    chain engine whose stitched tables the bailout flush dissolves."""
    from repro.resilience.faultinject import FaultInjectingClient, FaultPlan

    def client():
        return FaultInjectingClient(
            FaultPlan(fault_kind, seed), inner=StrengthReduction()
        )

    verdict = _assert_engines_identical(
        images["loop"], client, client_faults=True, options=_chaining(
            guard_clients=True, cache_consistency=True,
            trace_events=True, trace_buffer=None,
        ),
    )
    assert verdict.runs[0].runtime.stats.client_faults > 0
