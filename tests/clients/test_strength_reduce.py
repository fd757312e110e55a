"""Strength-reduction client tests (paper Section 4.2 / Figure 3)."""

from repro.api.dr import dr_get_log
from repro.asm import assemble
from repro.clients import StrengthReduction
from repro.ir.instrlist import InstrList
from repro.ir.create import (
    INSTR_CREATE_cmp,
    INSTR_CREATE_inc,
    INSTR_CREATE_jb,
    INSTR_CREATE_jnz,
    INSTR_CREATE_jz,
    INSTR_CREATE_mov,
    INSTR_CREATE_dec,
    OPND_CREATE_INT32,
    OPND_CREATE_PC,
    OPND_CREATE_REG,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.loader import Process
from repro.machine.cost import CostModel, Family
from repro.machine.interp import run_native
from repro.minicc import compile_source

from tests.core.conftest import run_under


def make_client_for_family(family):
    client = StrengthReduction()

    class _FakeRuntime:
        cost = CostModel(family)

    client._runtime = _FakeRuntime()
    client.init()
    return client


class TestTransformation:
    def _walk(self, il, family=Family.PENTIUM_IV):
        client = make_client_for_family(family)
        client._walk(None, il)
        return client

    def test_inc_with_dead_cf_replaced(self):
        il = InstrList(
            [
                INSTR_CREATE_inc(OPND_CREATE_REG(Reg.EAX)),
                # cmp writes CF without reading it: CF is dead at the inc
                INSTR_CREATE_cmp(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(5)),
                INSTR_CREATE_jz(OPND_CREATE_PC(0x100)),
            ]
        )
        client = self._walk(il)
        assert client.num_converted == 1
        assert il.first().opcode == Opcode.ADD

    def test_inc_with_live_cf_kept(self):
        il = InstrList(
            [
                INSTR_CREATE_inc(OPND_CREATE_REG(Reg.EAX)),
                # jb reads CF: the inc must stay
                INSTR_CREATE_jb(OPND_CREATE_PC(0x100)),
            ]
        )
        client = self._walk(il)
        assert client.num_converted == 0
        assert il.first().opcode == Opcode.INC

    def test_dec_becomes_sub(self):
        il = InstrList(
            [
                INSTR_CREATE_dec(OPND_CREATE_REG(Reg.ECX)),
                INSTR_CREATE_cmp(OPND_CREATE_REG(Reg.ECX), OPND_CREATE_INT32(0)),
                INSTR_CREATE_jnz(OPND_CREATE_PC(0x100)),
            ]
        )
        client = self._walk(il)
        assert client.num_converted == 1
        first = il.first()
        assert first.opcode == Opcode.SUB
        assert first.src(0).value == 1

    def test_exit_cti_stops_the_scan(self):
        """Paper simplification: stop at the first exit."""
        jmp = INSTR_CREATE_jnz(OPND_CREATE_PC(0x100))
        jmp.is_exit_cti = True
        il = InstrList(
            [
                INSTR_CREATE_inc(OPND_CREATE_REG(Reg.EAX)),
                jmp,
                INSTR_CREATE_cmp(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(5)),
            ]
        )
        client = self._walk(il)
        assert client.num_converted == 0

    def test_mov_is_transparent_to_the_scan(self):
        il = InstrList(
            [
                INSTR_CREATE_inc(OPND_CREATE_REG(Reg.EAX)),
                INSTR_CREATE_mov(OPND_CREATE_REG(Reg.EBX), OPND_CREATE_REG(Reg.EAX)),
                INSTR_CREATE_cmp(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(5)),
            ]
        )
        client = self._walk(il)
        assert client.num_converted == 1

    def test_disabled_on_pentium3(self):
        il = InstrList(
            [
                INSTR_CREATE_inc(OPND_CREATE_REG(Reg.EAX)),
                INSTR_CREATE_cmp(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(5)),
            ]
        )
        client = make_client_for_family(Family.PENTIUM_III)
        client.trace(None, 0, il)
        assert client.num_converted == 0
        assert il.first().opcode == Opcode.INC

    def test_prefixes_preserved(self):
        inc = INSTR_CREATE_inc(OPND_CREATE_REG(Reg.EAX))
        inc.set_prefixes(b"\x66")
        il = InstrList(
            [inc, INSTR_CREATE_cmp(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(5))]
        )
        self._walk(il)
        assert il.first().prefixes == b"\x66"


INC_HEAVY_SRC = """
int counter;
int bound;
int main() {
    int i;
    counter = 0;
    bound = 4000;
    for (i = 0; i < bound; i++) {
        counter++;
    }
    print(counter);
    return 0;
}
"""


class TestEndToEnd:
    def test_speedup_on_p4_transparent(self):
        image = compile_source(INC_HEAVY_SRC)
        p4 = CostModel(Family.PENTIUM_IV)
        native = run_native(Process(image), cost_model=p4)
        _dr, base = run_under(image, cost_model=CostModel(Family.PENTIUM_IV))
        _dr, optimized = run_under(
            image,
            client=StrengthReduction(),
            cost_model=CostModel(Family.PENTIUM_IV),
        )
        assert optimized.output == native.output
        assert optimized.cycles < base.cycles  # the paper's speedup

    def test_noop_on_p3(self):
        image = compile_source(INC_HEAVY_SRC)
        client = StrengthReduction()
        _dr, result = run_under(
            image, client=client, cost_model=CostModel(Family.PENTIUM_III)
        )
        assert client.num_converted == 0
        assert dr_get_log(client) == ["kept original inc/dec"]

    def test_reports_conversions(self):
        image = compile_source(INC_HEAVY_SRC)
        client = StrengthReduction()
        run_under(image, client=client, cost_model=CostModel(Family.PENTIUM_IV))
        assert client.num_converted > 0
        log = dr_get_log(client)
        assert len(log) == 1 and log[0].startswith("converted")


# ``shl edx, ecx`` with ecx = 0 leaves CF as the add set it, so the jb
# reads it: the inc before the shift must stay an inc.
ZERO_SHIFT_ASM = """
.entry main
.text
main:
    mov ecx, 0
    mov ebx, 7
    mov eax, 0xffffffff
    add eax, 1
    inc ebx
    shl edx, ecx
    jb good
    mov ebx, 1
    mov eax, 1
    syscall
good:
    mov ebx, 0
    mov eax, 1
    syscall
"""


def test_zero_count_shift_keeps_cf_live():
    image = assemble(ZERO_SHIFT_ASM)
    p4 = CostModel(Family.PENTIUM_IV)
    native = run_native(Process(image), cost_model=p4)
    client = StrengthReduction(optimize_blocks=True)
    _dr, result = run_under(image, client=client, cost_model=p4)
    assert native.exit_code == 0
    assert (result.exit_code, result.output) == (
        native.exit_code, native.output
    )
    assert client.num_examined == 1 and client.num_converted == 0
