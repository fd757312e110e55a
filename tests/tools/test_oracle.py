"""Negative controls for the differential oracle.

Each test plants exactly one violation of one fixed invariant and
asserts the verdict fails and names that invariant (and nothing else),
so a check that silently stops checking fails here.
"""

from dataclasses import replace

from repro.api.client import Client
from repro.core import RuntimeOptions
from repro.core import closures as closures_module
from repro.ir.create import INSTR_CREATE_add, OPND_CREATE_INT32, OPND_CREATE_REG
from repro.isa.registers import Reg
from repro.tools.chaos import client_cell, workload_images
from repro.tools import oracle
from repro.tools.oracle import Cell, Column, check


def _traced():
    options = RuntimeOptions.with_traces()
    options.trace_events = True
    options.trace_buffer = None
    return options


def test_clean_cell_passes(loop_image):
    verdict = check(Cell(loop_image, options=_traced))
    assert verdict.ok, verdict
    assert [run.column.name for run in verdict.runs] == ["runtime"]


def test_wrong_native_reference_fails_output(loop_image, monkeypatch):
    wrong = oracle.native_result(loop_image)._replace(output=b"\0\0\0\0")
    monkeypatch.setattr(oracle, "native_result", lambda image: wrong)
    verdict = check(Cell(loop_image))
    assert verdict.failed() == {"output"}


def test_unevented_stat_fails_replay(loop_image):
    def bump(runtime):
        runtime.stats.fragments_replaced += 1

    verdict = check(Cell(loop_image, options=_traced, setup=bump))
    assert verdict.failed() == {"replay"}


def test_different_cost_model_fails_cycles(loop_image):
    def dearer(runtime):
        runtime.cost.bb_build_base += 1

    verdict = check(
        Cell(loop_image, columns=(
            Column("runtime"), Column("dearer", setup=dearer),
        ))
    )
    assert verdict.failed() == {"cycles"}


def test_stale_af_mask_fails_final_state(monkeypatch):
    """The generated templates' pre-fix mask (2253 leaves AF set) makes
    the runtime end the chaos indirect workload with eflags 0x54; native
    ends it with 0x44.  (On the loop workload the writer that leaks AF
    is dead, so it runs without flags.)"""
    for name in ("_LOGIC_FLAGS", "_SUB_FLAGS", "_ADD_FLAGS", "_INC_FLAGS",
                 "_DEC_FLAGS"):
        template = getattr(closures_module, name)
        assert "~2261" in template
        monkeypatch.setattr(
            closures_module, name, template.replace("~2261", "~2253")
        )
    monkeypatch.setattr(closures_module, "_FRAGMENT_CODE_CACHE", {})
    verdict = check(Cell(workload_images()["indirect"], options=_traced))
    assert verdict.failed() == {"final_state"}


def test_native_signal_exempts_final_state():
    """Native delivers its alarms between two instructions, the runtime
    at a fragment boundary, so a program that takes a signal may end in
    a state native never reaches.  The chaos cell
    ``mid_trace_signal · signal · ctrace · seed 0`` ends with a loop
    counter of its own (its registers differ from native's) and still
    passes: the final-state invariant does not apply to it."""
    cell = client_cell(
        workload_images()["signal"], "ctrace", "mid_trace_signal", 0
    )
    verdict = check(cell)
    assert verdict.ok, verdict
    assert verdict.native.events["signals_delivered"] > 0
    assert verdict["runtime"].final_state() != verdict.native.final_state


class _NonMetaInserter(Client):
    """Inserts an *application* (non-meta) add at the top of every block:
    the equivalence rule must flag it; the guard bails the block out."""

    def basic_block(self, context, tag, ilist):
        ilist.insert_before(
            ilist.first(),
            INSTR_CREATE_add(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
        )


def test_nonmeta_insertion_fails_verifier(loop_image):
    def options():
        made = _traced()
        made.guard_clients = True
        made.verify_fragments = True
        return made

    cell = Cell(loop_image, options=options, client=_NonMetaInserter)
    verdict = check(cell)
    assert verdict.failed() == {"verifier"}
    # The same runs are expected to carry errors in a fault-injecting cell.
    assert check(replace(cell, client_faults=True)).ok
