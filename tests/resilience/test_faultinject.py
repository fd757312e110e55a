"""FaultPlan determinism and the chaos harness contract.

The fault-injection layer only earns its keep if it is *repeatable*:
the same ``(kind, seed)`` must misbehave at the same hook invocations
every run, on both engines, so a chaos failure reproduces from its
matrix cell alone.
"""

import pytest

from repro.ir.instr import LabelRef
from repro.isa.opcodes import Opcode
from repro.minicc import compile_source
from repro.resilience.faultinject import (
    FAULT_KINDS,
    FaultInjectingClient,
    FaultPlan,
    corrupt_instrlist,
)
from repro.tools import chaos
from repro.tools.oracle import check


def test_fault_plan_is_deterministic():
    for kind in FAULT_KINDS:
        for seed in range(6):
            a = FaultPlan(kind, seed)
            b = FaultPlan(kind, seed)
            assert (a.start, a.period) == (b.start, b.period)
            assert [a.fires(n) for n in range(1, 30)] == [
                b.fires(n) for n in range(1, 30)
            ]


def test_fault_plan_schedule_shape():
    plan = FaultPlan("raise_in_hook", 0)
    fired = [n for n in range(1, 40) if plan.fires(n)]
    assert fired[0] == plan.start
    assert all(
        later - earlier == plan.period
        for earlier, later in zip(fired, fired[1:])
    )
    # Nothing before the start.
    assert not any(plan.fires(n) for n in range(1, plan.start))


def test_fault_plans_vary_with_seed_and_kind():
    schedules = {
        (kind, seed): (FaultPlan(kind, seed).start, FaultPlan(kind, seed).period)
        for kind in FAULT_KINDS
        for seed in range(8)
    }
    # Not all cells collapse to one schedule.
    assert len(set(schedules.values())) > 1


def test_unknown_fault_kind_rejected():
    with pytest.raises(ValueError):
        FaultPlan("made_up_kind", 0)


def test_corrupt_instrlist_targets_orphan_label(loop_image):
    from repro.core.bb_builder import build_basic_block
    from repro.loader import Process

    process = Process(loop_image)
    ilist = build_basic_block(process.memory, process.entry)
    members_before = set(map(id, ilist))
    corrupt_instrlist(ilist)
    tail = list(ilist)[-1]
    assert tail.opcode == Opcode.JMP
    assert isinstance(tail.target, LabelRef)
    # The branch targets a label instruction that is not in the list.
    assert id(tail.target.label) not in members_before
    assert tail.target.label not in list(ilist)


def test_injecting_client_delegates_to_inner(loop_image, loop_native):
    from repro.clients import StrengthReduction
    from repro.core import RuntimeOptions

    from tests.conftest import run_under

    options = RuntimeOptions.with_traces()
    options.guard_clients = True
    options.trace_events = True
    options.trace_buffer = None
    inner = StrengthReduction()
    client = FaultInjectingClient(FaultPlan("raise_in_hook", 1), inner=inner)
    runtime, result = run_under(loop_image, options=options, client=client)
    assert result.output == loop_native.output
    assert client.injected >= 1
    assert runtime.stats.client_faults >= 1
    # The inner client saw the non-faulting invocations.
    assert client.bb_calls > client.injected


def test_chaos_run_one_contract(loop_image):
    image = compile_source(chaos.LOOP_SRC)
    verdict = check(chaos.client_cell(image, "rlr", "raise_in_hook", 0))
    assert verdict.ok, verdict
    assert verdict.runs[0].result is not None


def test_chaos_smc_workload_builds():
    image = chaos.build_smc_image()
    assert image.entry


def test_chaos_cli_smoke(capsys):
    assert chaos.main(["--seeds", "1", "--fault", "raise_in_hook"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out
