"""Tests for the drequiv equivalence engine and its verifier rule."""

from repro.analysis.equiv import check_equivalence
from repro.analysis.verifier import verify_fragment
from repro.api.dr import instr_set_meta
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.bb_builder import build_basic_block
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_mov,
    OPND_CREATE_INT32,
    OPND_CREATE_MEM,
    OPND_CREATE_REG,
)
from repro.ir.instr import Instr, LabelRef
from repro.ir.instrlist import copy_instructions
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.loader import Process
from repro.machine.interp import run_native
from repro.minicc import compile_source
from repro.resilience.faultinject import FaultInjectingClient, FaultPlan

SRC = """
int main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 30; i++) {
        acc = acc + i;
        if (acc > 100) { acc = acc - 50; }
    }
    print(acc);
    return 0;
}
"""


def _block(memory, tag):
    return build_basic_block(memory, tag)


def setup_image():
    image = compile_source(SRC)
    process = Process(image)
    return process.memory, process.entry


def errors(problems):
    return [p for p in problems if p.severity == "error"]


class TestCleanBlocks:
    def test_pristine_block_is_equivalent_to_itself(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        assert errors(check_equivalence(ilist, (entry,), memory)) == []

    def test_meta_instructions_are_erased(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        ilist.expand_bundles()
        meta = instr_set_meta(
            INSTR_CREATE_add(
                OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)
            )
        )
        ilist.insert_before(ilist.first(), meta)
        assert errors(check_equivalence(ilist, (entry,), memory)) == []


class TestDivergences:
    def test_nonmeta_computation_is_flagged(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        ilist.expand_bundles()
        # Same instruction as the meta test — but unmarked, it claims to
        # be application code the application never ran.
        ilist.insert_before(
            ilist.first(),
            INSTR_CREATE_add(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
        )
        assert errors(check_equivalence(ilist, (entry,), memory))

    def test_nonmeta_store_is_flagged(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        ilist.expand_bundles()
        ilist.insert_before(
            ilist.first(),
            INSTR_CREATE_mov(
                OPND_CREATE_MEM(base=Reg.ESP, disp=-64), OPND_CREATE_INT32(1)
            ),
        )
        probs = errors(check_equivalence(ilist, (entry,), memory))
        assert probs and "store" in probs[0].message

    def test_orphan_internal_branch_is_flagged(self):
        # The corrupt_instrlist fault shape: a non-meta jmp to a label
        # that is not a translation of anything.
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        ilist.expand_bundles()
        orphan = Instr.label()
        ilist.append(Instr.create(Opcode.JMP, LabelRef(orphan)))
        probs = errors(check_equivalence(ilist, (entry,), memory))
        assert probs and "internal label" in probs[0].message

    def test_dropped_exit_is_flagged(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        ilist.expand_bundles()
        ilist.remove(ilist.last())
        probs = errors(check_equivalence(ilist, (entry,), memory))
        assert probs and "ends before" in probs[0].message

    def test_wrong_branch_target_is_flagged(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        ilist.expand_bundles()
        last = ilist.last()
        copies = copy_instructions([last])
        from repro.isa.operands import PcOperand

        wrong = copies[0]
        wrong.set_target(PcOperand(0xDEAD))
        ilist.replace(last, wrong)
        assert errors(check_equivalence(ilist, (entry,), memory))


class TestVerifierRuleIntegration:
    def test_rule_noop_without_memory(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        diagnostics = verify_fragment(ilist, kind="bb", rules=["equivalence"])
        assert diagnostics == []

    def test_rule_fires_with_memory(self):
        memory, entry = setup_image()
        ilist = _block(memory, entry)
        ilist.expand_bundles()
        ilist.insert_before(
            ilist.first(),
            INSTR_CREATE_mov(
                OPND_CREATE_MEM(base=Reg.ESP, disp=-64), OPND_CREATE_INT32(1)
            ),
        )
        diagnostics = verify_fragment(
            ilist, kind="bb", rules=["equivalence"], tag=entry,
            source_tags=(entry,), memory=memory,
        )
        bad = [d for d in diagnostics if d.is_error]
        assert bad
        assert bad[0].rule == "equivalence"
        assert bad[0].tag == entry
        # Satellite: diagnostics carry a disassembly window.
        assert bad[0].window and ">>" in bad[0].window


class TestRuntimeIntegration:
    def test_clean_run_has_no_diagnostics(self):
        image = compile_source(SRC)
        native = run_native(Process(image))
        options = RuntimeOptions.with_traces()
        options.verify_fragments = True
        runtime = DynamoRIO(Process(image), options=options)
        result = runtime.run()
        assert result.output == native.output
        assert [d for d in runtime.verifier_diagnostics if d.is_error] == []

    def test_corrupt_instrlist_is_caught_statically(self):
        image = compile_source(SRC)
        options = RuntimeOptions.with_traces()
        options.guard_clients = True
        options.verify_fragments = True
        client = FaultInjectingClient(FaultPlan("corrupt_instrlist", 0))
        runtime = DynamoRIO(Process(image), options=options, client=client)
        runtime.run()
        assert client.injected > 0
        fired = [
            d
            for d in runtime.verifier_diagnostics
            if d.is_error and d.rule == "equivalence"
        ]
        assert fired
