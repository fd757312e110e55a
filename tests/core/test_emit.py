"""Fragment lowering (emit) unit tests, including client-inserted
intra-fragment control flow (OP_LOCAL_BR) executed end to end.

Lowering emits one op per step: a run of straight-line instructions is
one ``OP_EXEC`` op, split only where a local branch lands."""

import pytest

from repro.api.client import Client
from repro.core import RuntimeOptions
from repro.core.emit import (
    INLINE_CHECK_COST,
    STUB_SIZE,
    EmitError,
    OP_COND_EXIT,
    OP_EXEC,
    OP_IND_EXIT,
    OP_JMP_EXIT,
    OP_LOCAL_BR,
    emit_fragment,
)
from repro.core.fragments import Fragment
from repro.ir.instr import Instr, LabelRef
from repro.ir.instrlist import InstrList
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_call,
    INSTR_CREATE_cmp,
    INSTR_CREATE_jmp,
    INSTR_CREATE_jmp_ind,
    INSTR_CREATE_jnz,
    INSTR_CREATE_jz,
    INSTR_CREATE_mov,
    INSTR_CREATE_nop,
    INSTR_CREATE_ret,
    INSTR_CREATE_sub,
    OPND_CREATE_INT32,
    OPND_CREATE_MEM,
    OPND_CREATE_PC,
    OPND_CREATE_REG,
)
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.machine.cost import CostModel
from repro.loader import Process
from repro.tools.oracle import Cell, Column, check

from tests.core.conftest import run_under


def emit(instrs, kind=Fragment.KIND_BB, tag=0x1000):
    return emit_fragment(tag, kind, InstrList(instrs), CostModel(), None)


class TestLoweringShapes:
    def test_straight_line(self):
        frag = emit(
            [
                INSTR_CREATE_mov(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
                INSTR_CREATE_jmp(OPND_CREATE_PC(0x2000)),
            ]
        )
        kinds = [op[0] for op in frag.body.code]
        assert kinds == [OP_EXEC, OP_JMP_EXIT]
        assert len(frag.exits) == 1
        assert frag.exits[0].target_tag == 0x2000

    def test_cond_exit(self):
        frag = emit(
            [
                INSTR_CREATE_cmp(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(0)),
                INSTR_CREATE_jz(OPND_CREATE_PC(0x3000)),
                INSTR_CREATE_jmp(OPND_CREATE_PC(0x4000)),
            ]
        )
        kinds = [op[0] for op in frag.body.code]
        assert kinds == [OP_EXEC, OP_COND_EXIT, OP_JMP_EXIT]
        assert len(frag.exits) == 2

    def test_ret_is_indirect_exit(self):
        frag = emit([INSTR_CREATE_ret()])
        assert frag.body.code[0][0] == OP_IND_EXIT
        assert frag.body.code[0][2] == "ret"
        assert frag.exits[0].kind == "indirect"

    def test_every_indirect_branch_is_one_op_kind(self):
        """A plain ``ret`` and a ``jmp*`` carrying a dispatch chain both
        lower to OP_IND_EXIT.  Only the checked form pays for its
        checks: one more compare (INLINE_CHECK_COST) and the check's
        ``6 + 10 * len(dispatch)`` bytes, beside one stub per
        dispatch exit."""
        ret = emit([INSTR_CREATE_ret()])
        plain = emit([INSTR_CREATE_jmp_ind(OPND_CREATE_REG(Reg.EAX))])
        jmp = INSTR_CREATE_jmp_ind(OPND_CREATE_REG(Reg.EAX))
        jmp.note = {"dispatch": (0x2000, 0x3000)}
        noted = emit([jmp])
        for frag in (ret, plain, noted):
            assert [op[0] for op in frag.body.code] == [OP_IND_EXIT]
        (op,) = noted.body.code
        assert op[3] is None  # no expected tag: nothing falls through
        assert op[4] == ((0x2000, 0), (0x3000, 1))
        assert op[9] == plain.body.code[0][9] + INLINE_CHECK_COST
        assert op[10] == INLINE_CHECK_COST
        assert noted.size - plain.size == (6 + 10 * 2) + STUB_SIZE * 2
        assert [stub.kind for stub in noted.exits] == [
            "direct", "direct", "indirect",
        ]

    def test_call_requires_return_address(self):
        call = INSTR_CREATE_call(OPND_CREATE_PC(0x100))  # level 4, no raw
        with pytest.raises(EmitError):
            emit([call])

    def test_call_with_note_return_addr(self):
        call = INSTR_CREATE_call(OPND_CREATE_PC(0x100))
        call.note = {"return_addr": 0x1234}
        frag = emit([call])
        assert frag.body.code[0][2] == 0x1234  # the pushed return address

    def test_local_branch_to_label(self):
        label = Instr.label()
        jz = INSTR_CREATE_jz(OPND_CREATE_PC(0))
        jz.set_target(LabelRef(label))
        frag = emit(
            [
                jz,
                INSTR_CREATE_nop(),
                label,
                INSTR_CREATE_jmp(OPND_CREATE_PC(0x9999)),
            ]
        )
        kinds = [op[0] for op in frag.body.code]
        assert kinds == [OP_LOCAL_BR, OP_EXEC, OP_JMP_EXIT]
        # the local branch targets step 2 (labels lower to nothing)
        assert frag.body.code[0][2] == 2

    def test_straight_line_block_is_one_run(self):
        frag = emit(
            [
                INSTR_CREATE_mov(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
                INSTR_CREATE_add(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(2)),
                INSTR_CREATE_mov(OPND_CREATE_REG(Reg.EBX), OPND_CREATE_REG(Reg.EAX)),
                INSTR_CREATE_jmp(OPND_CREATE_PC(0x2000)),
            ]
        )
        assert [op[0] for op in frag.body.code] == [OP_EXEC, OP_JMP_EXIT]
        run = frag.body.code[0][1]
        assert [opcode for opcode, _ops, _cost in run] == [
            Opcode.MOV, Opcode.ADD, Opcode.MOV,
        ]
        assert len(frag.body.translation.pcs) == len(frag.body.code)
        assert len(frag.body.translation.pcs[0]) == 3

    def test_targeted_label_splits_the_run(self):
        label = Instr.label()
        jnz = INSTR_CREATE_jnz(OPND_CREATE_PC(0))
        jnz.set_target(LabelRef(label))
        frag = emit(
            [
                INSTR_CREATE_mov(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
                jnz,
                INSTR_CREATE_sub(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
                label,
                INSTR_CREATE_nop(),
                INSTR_CREATE_add(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(2)),
                INSTR_CREATE_jmp(OPND_CREATE_PC(0x2000)),
            ]
        )
        kinds = [op[0] for op in frag.body.code]
        assert kinds == [OP_EXEC, OP_LOCAL_BR, OP_EXEC, OP_EXEC, OP_JMP_EXIT]
        assert [len(frag.body.code[i][1]) for i in (0, 2, 3)] == [1, 1, 2]
        assert frag.body.code[1][2] == 3  # the label begins op 3

    def test_untargeted_label_does_not_split(self):
        frag = emit(
            [
                INSTR_CREATE_mov(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
                Instr.label(),
                INSTR_CREATE_add(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(2)),
                INSTR_CREATE_jmp(OPND_CREATE_PC(0x2000)),
            ]
        )
        assert [op[0] for op in frag.body.code] == [OP_EXEC, OP_JMP_EXIT]
        assert len(frag.body.code[0][1]) == 2

    def test_label_outside_fragment_rejected(self):
        foreign = Instr.label()
        jz = INSTR_CREATE_jz(OPND_CREATE_PC(0))
        jz.set_target(LabelRef(foreign))
        with pytest.raises(EmitError):
            emit([jz, INSTR_CREATE_jmp(OPND_CREATE_PC(0x9999))])

    @pytest.mark.parametrize("before", [True, False], ids=["before", "at"])
    def test_backward_local_branch_rejected(self, before):
        """A local branch may only skip forward: its label sitting at or
        before the branch would loop inside one pass."""
        label = Instr.label()
        jnz = INSTR_CREATE_jnz(OPND_CREATE_PC(0))
        jnz.set_target(LabelRef(label))
        instrs = [
            label,
            INSTR_CREATE_sub(OPND_CREATE_REG(Reg.EAX), OPND_CREATE_INT32(1)),
            jnz,
            INSTR_CREATE_jmp(OPND_CREATE_PC(0x2000)),
        ]
        if not before:
            del instrs[1]  # the label begins the branch's own op
        with pytest.raises(EmitError, match="at or before"):
            emit(instrs)

    def test_size_includes_stub_space(self):
        frag = emit([INSTR_CREATE_jmp(OPND_CREATE_PC(0x2000))])
        assert frag.size >= STUB_SIZE


class _BranchInsertingClient(Client):
    """Inserts a conditional skip over a memory bump into every block:

        cmp [flag], 0
        jz skip
        add [counter], 1
      skip:

    Exercises OP_LOCAL_BR inside real fragments end to end."""

    FLAG = 0x1000010  # runtime heap addresses
    COUNTER = 0x1000014

    def basic_block(self, context, tag, ilist):
        from repro.analysis import find_dead_flags_point

        ilist.expand_bundles()
        point = find_dead_flags_point(ilist)
        if point is None:
            return
        label = Instr.label()
        jz = INSTR_CREATE_jz(OPND_CREATE_PC(0))
        jz.set_target(LabelRef(label))
        seq = [
            INSTR_CREATE_cmp(
                OPND_CREATE_MEM(disp=self.FLAG), OPND_CREATE_INT32(0)
            ),
            jz,
            INSTR_CREATE_add(
                OPND_CREATE_MEM(disp=self.COUNTER), OPND_CREATE_INT32(1)
            ),
            label,
        ]
        for instr in seq:
            ilist.insert_before(point, instr)


def test_client_local_branches_execute(loop_image, loop_native):
    client = _BranchInsertingClient()
    dr, result = run_under(loop_image, client=client)
    assert result.output == loop_native.output  # flag=0: bumps all skipped
    assert dr.memory.read_u32(_BranchInsertingClient.COUNTER) == 0

    # now with the flag set: the bump path executes per block entry
    client2 = _BranchInsertingClient()
    dr2 = None
    from repro.core import DynamoRIO

    process = Process(loop_image)
    dr2 = DynamoRIO(process, options=RuntimeOptions.with_traces(), client=client2)
    dr2.memory.write_u32(_BranchInsertingClient.FLAG, 1)
    result2 = dr2.run()
    assert result2.output == loop_native.output
    assert dr2.memory.read_u32(_BranchInsertingClient.COUNTER) > 100


class _JumpInsertingClient(Client):
    """Inserts an unconditional local jump over a store at the top of
    every block:

        jmp skip
        mov [MARK], 1
      skip:

    The store never runs, so ``MARK`` stays 0; a jump that fell through
    would set it."""

    MARK = 0x1000018  # runtime heap address

    def basic_block(self, context, tag, ilist):
        ilist.expand_bundles()
        first = ilist.first()
        label = Instr.label()
        jmp = INSTR_CREATE_jmp(OPND_CREATE_PC(0))
        jmp.set_target(LabelRef(label))
        seq = [
            jmp,
            INSTR_CREATE_mov(
                OPND_CREATE_MEM(disp=self.MARK), OPND_CREATE_INT32(1)
            ),
            label,
        ]
        for instr in seq:
            ilist.insert_before(first, instr)


def test_client_local_jump_executes(loop_image):
    """The unconditional local jump runs native-identical, with and
    without interrupt polls compiled in."""

    def mark_untouched(run):
        if run.runtime.memory.read_u32(_JumpInsertingClient.MARK) != 0:
            yield "the skipped store ran"

    verdict = check(Cell(
        loop_image,
        client=_JumpInsertingClient,
        columns=(
            Column("polls_off"),
            Column("polls_on", options={"precise_interrupts": True}),
        ),
        checks=(mark_untouched,),
    ))
    assert verdict.ok, verdict
