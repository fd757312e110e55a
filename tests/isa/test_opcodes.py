from repro.isa.eflags import (
    EFLAGS_READ_CF,
    EFLAGS_READ_ZF,
    EFLAGS_WRITE_CF,
    EFLAGS_WRITE_ALL,
)
from repro.isa.opcodes import (
    Opcode,
    OP_INFO,
    SHIFT_OPCODES,
    eflags_killed,
    opcode_info,
    opcode_from_name,
    JCC_CONDITION,
    JCC_OPPOSITE,
)
from repro.isa.operands import ImmOperand, RegOperand
from repro.isa.registers import Reg
from repro.machine.cpu import CPU


def test_inc_dec_do_not_write_cf():
    """The hazard the paper's strength-reduction client depends on."""
    for opc in (Opcode.INC, Opcode.DEC):
        info = opcode_info(opc)
        assert info.eflags & EFLAGS_WRITE_CF == 0
        assert info.eflags & EFLAGS_WRITE_ALL != 0  # writes the others


def test_add_sub_write_cf():
    for opc in (Opcode.ADD, Opcode.SUB):
        assert opcode_info(opc).eflags & EFLAGS_WRITE_CF


def test_not_writes_no_flags():
    assert opcode_info(Opcode.NOT).eflags == 0


def test_mov_lea_write_no_flags():
    for opc in (Opcode.MOV, Opcode.LEA, Opcode.MOVZX, Opcode.PUSH, Opcode.POP):
        assert opcode_info(opc).eflags == 0


def test_fp_opcodes_have_no_flag_effects():
    for opc in (Opcode.FLD, Opcode.FST, Opcode.FADD, Opcode.FMUL):
        info = opcode_info(opc)
        assert info.eflags == 0
        assert info.is_fp


def test_jcc_reads():
    assert opcode_info(Opcode.JB).eflags == EFLAGS_READ_CF
    assert opcode_info(Opcode.JZ).eflags == EFLAGS_READ_ZF
    assert opcode_info(Opcode.JBE).eflags == EFLAGS_READ_CF | EFLAGS_READ_ZF


def test_cti_classification():
    assert opcode_info(Opcode.JMP).is_cti and not opcode_info(Opcode.JMP).is_indirect
    assert opcode_info(Opcode.JMP_IND).is_indirect
    assert opcode_info(Opcode.CALL).is_call and not opcode_info(Opcode.CALL).is_indirect
    assert opcode_info(Opcode.CALL_IND).is_call and opcode_info(Opcode.CALL_IND).is_indirect
    ret = opcode_info(Opcode.RET)
    assert ret.is_ret and ret.is_indirect and ret.is_cti
    assert opcode_info(Opcode.JNZ).is_cond_branch
    assert not opcode_info(Opcode.ADD).is_cti


def test_jcc_opposites_are_involutions():
    for jcc, opposite in JCC_OPPOSITE.items():
        assert JCC_OPPOSITE[opposite] == jcc
        # opposite conditions differ only in the low bit, as in IA-32
        assert JCC_CONDITION[jcc] ^ 1 == JCC_CONDITION[opposite]


def test_every_opcode_has_info():
    for opc in Opcode:
        assert opc in OP_INFO
        assert OP_INFO[opc].name


def test_opcode_from_name():
    assert opcode_from_name("add") == Opcode.ADD
    assert opcode_from_name("jnz") == Opcode.JNZ
    assert opcode_from_name("jmp*") == Opcode.JMP_IND


def test_eflags_killed_follows_the_write_effects():
    assert eflags_killed(Opcode.ADD) == EFLAGS_WRITE_ALL
    assert eflags_killed(Opcode.INC) == EFLAGS_WRITE_ALL & ~EFLAGS_WRITE_CF
    assert eflags_killed(Opcode.MOV) == 0


def test_eflags_killed_by_a_shift_needs_a_nonzero_immediate_count():
    """A shift by 0 mod 32 leaves eflags unchanged, so only a shift by
    an immediate that is nonzero mod 32 always overwrites them."""
    for opcode in SHIFT_OPCODES:
        assert eflags_killed(opcode, ImmOperand(3)) == EFLAGS_WRITE_ALL
        assert eflags_killed(opcode, ImmOperand(33)) == EFLAGS_WRITE_ALL
        for count in (ImmOperand(0), ImmOperand(32), RegOperand(Reg.ECX)):
            assert eflags_killed(opcode, count) == 0
    cpu = CPU()
    cpu.eflags = 0x8D5
    cpu.flags_shl(0x80000001, 32)
    cpu.flags_shr(0x80000001, 0, arithmetic=True)
    assert cpu.eflags == 0x8D5
