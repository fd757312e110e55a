"""Redundant load removal tests (paper Section 4.1)."""

from repro.api.dr import dr_get_log
from repro.clients import RedundantLoadRemoval
from repro.core import RuntimeOptions
from repro.ir.instrlist import InstrList
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_call,
    INSTR_CREATE_fld,
    INSTR_CREATE_inc,
    INSTR_CREATE_mov,
    OPND_CREATE_INT32,
    OPND_CREATE_MEM,
    OPND_CREATE_PC,
    OPND_CREATE_REG,
)
from repro.isa.opcodes import Opcode
from repro.isa.operands import RegOperand
from repro.isa.registers import Reg
from repro.loader import Process
from repro.machine.interp import run_native
from repro.minicc import compile_source

from tests.core.conftest import run_under

EAX = OPND_CREATE_REG(Reg.EAX)
EBX = OPND_CREATE_REG(Reg.EBX)
ECX = OPND_CREATE_REG(Reg.ECX)
SLOT = OPND_CREATE_MEM(base=Reg.EBP, disp=-8)
OTHER = OPND_CREATE_MEM(base=Reg.EBP, disp=-12)


def optimize(instrs):
    il = InstrList(instrs)
    client = RedundantLoadRemoval()
    client._optimize(il)
    return il, client


def opcodes(il):
    return [i.opcode for i in il if not i.is_label()]


class TestRemoval:
    def test_exact_reload_removed(self):
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_mov(EAX, SLOT),  # redundant, same register
            ]
        )
        assert client.loads_removed == 1
        assert len(list(il)) == 1

    def test_reload_into_other_register_becomes_move(self):
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_mov(EBX, SLOT),
            ]
        )
        assert client.loads_rewritten == 1
        ops = list(il)
        assert ops[1].opcode == Opcode.MOV
        assert isinstance(ops[1].src(0), RegOperand)

    def test_store_establishes_mirror(self):
        il, client = optimize(
            [
                INSTR_CREATE_mov(SLOT, EAX),  # store
                INSTR_CREATE_mov(EBX, SLOT),  # load of the same slot
            ]
        )
        assert client.loads_rewritten == 1

    def test_register_overwrite_kills_mirror(self):
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_mov(EAX, OPND_CREATE_INT32(0)),
                INSTR_CREATE_mov(EBX, SLOT),  # must reload
            ]
        )
        assert client.loads_removed == 0 and client.loads_rewritten == 0
        assert len(list(il)) == 3

    def test_provably_disjoint_store_keeps_mirror(self):
        """[ebp-12] cannot alias [ebp-8]: same base, disjoint ranges."""
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_mov(OTHER, ECX),  # disjoint stack slot
                INSTR_CREATE_mov(EBX, SLOT),
            ]
        )
        assert client.loads_rewritten == 1

    def test_possibly_aliasing_store_kills_mirrors(self):
        wild = OPND_CREATE_MEM(base=Reg.ESI, index=Reg.ECX, scale=4)
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_mov(wild, ECX),  # indexed: may alias anything
                INSTR_CREATE_mov(EBX, SLOT),
            ]
        )
        assert client.loads_removed == 0 and client.loads_rewritten == 0

    def test_different_base_registers_assumed_aliasing(self):
        other_base = OPND_CREATE_MEM(base=Reg.ESI, disp=-8)
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_mov(other_base, ECX),  # esi could equal ebp
                INSTR_CREATE_mov(EBX, SLOT),
            ]
        )
        assert client.loads_removed == 0 and client.loads_rewritten == 0

    def test_address_register_write_kills_dependent_mirror(self):
        indexed = OPND_CREATE_MEM(base=Reg.ESI, disp=4)
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, indexed),
                INSTR_CREATE_inc(OPND_CREATE_REG(Reg.ESI)),  # address changes
                INSTR_CREATE_mov(EBX, indexed),
            ]
        )
        assert client.loads_removed == 0 and client.loads_rewritten == 0

    def test_call_kills_everything(self):
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_call(OPND_CREATE_PC(0x100)),
                INSTR_CREATE_mov(EBX, SLOT),
            ]
        )
        assert client.loads_removed == 0 and client.loads_rewritten == 0

    def test_alu_memory_operand_narrowed(self):
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, SLOT),
                INSTR_CREATE_add(EBX, SLOT),  # folded load of same slot
            ]
        )
        assert client.loads_rewritten == 1
        add = list(il)[1]
        assert isinstance(add.src(0), RegOperand)

    def test_fld_handled_like_mov(self):
        il, client = optimize(
            [
                INSTR_CREATE_fld(EAX, SLOT),
                INSTR_CREATE_fld(EAX, SLOT),
            ]
        )
        assert client.loads_removed == 1

    def test_load_into_own_address_register_not_mirrored(self):
        self_addr = OPND_CREATE_MEM(base=Reg.EAX, disp=0)
        il, client = optimize(
            [
                INSTR_CREATE_mov(EAX, self_addr),  # eax = [eax]
                INSTR_CREATE_mov(EBX, self_addr),  # different address now!
            ]
        )
        assert client.loads_removed == 0 and client.loads_rewritten == 0


FP_STENCIL_SRC = """
float grid[256];
float out[256];
float total;
int main() {
    int i; int round;
    for (i = 0; i < 256; i++) { grid[i] = i * 7 + 3; }
    for (round = 0; round < 30; round++) {
        for (i = 1; i < 255; i++) {
            out[i] = grid[i-1] + grid[i] * 4 + grid[i+1] + out[i];
        }
    }
    total = 0;
    for (i = 0; i < 256; i++) { total = total + out[i]; }
    print(total);
    return 0;
}
"""


class TestEndToEnd:
    def test_fp_stencil_speedup_and_transparency(self):
        image = compile_source(FP_STENCIL_SRC)
        native = run_native(Process(image))
        _dr, base = run_under(image)
        client = RedundantLoadRemoval()
        _dr, optimized = run_under(image, client=client)
        assert optimized.output == native.output
        assert optimized.exit_code == native.exit_code
        assert client.loads_removed + client.loads_rewritten > 0
        assert optimized.cycles < base.cycles

    def test_per_block_mode(self):
        image = compile_source(FP_STENCIL_SRC)
        native = run_native(Process(image))
        client = RedundantLoadRemoval(optimize_blocks=True)
        _dr, result = run_under(
            image, RuntimeOptions.with_indirect_links(), client=client
        )
        assert result.output == native.output
        assert client.loads_removed + client.loads_rewritten > 0

    def test_exit_reports_counts_to_the_log(self):
        client = RedundantLoadRemoval()
        run_under(compile_source(FP_STENCIL_SRC), client=client)
        assert dr_get_log(client) == [
            "RLR: %d loads seen, %d removed, %d narrowed to register moves"
            % (client.loads_seen, client.loads_removed, client.loads_rewritten)
        ]
        assert client.loads_seen > 0
