"""Liveness edge cases: partial-eflags definitions and one-instruction
blocks.

``inc``/``dec`` are the ISA's partial flag definers — they write every
arithmetic flag *except* CF — so a CF consumer stays live straight
through them while the other five flags die.  Single-instruction lists
exercise the dataflow engine's boundary handling with no interior to
hide mistakes in.
"""

from repro.analysis import live_eflags, live_registers
from repro.analysis.liveness import (
    GPR_UNIVERSE,
    eflags_dead_before,
    find_dead_flags_point,
    registers_written_before_read,
)
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_dec,
    INSTR_CREATE_inc,
    INSTR_CREATE_jb,
    INSTR_CREATE_jmp,
    INSTR_CREATE_jz,
    INSTR_CREATE_mov,
    INSTR_CREATE_shl,
    OPND_CREATE_INT32,
    OPND_CREATE_PC,
    OPND_CREATE_REG,
)
from repro.ir.instrlist import InstrList
from repro.isa.eflags import (
    EFLAGS_READ_ALL,
    EFLAGS_READ_CF,
    EFLAGS_READ_ZF,
)
from repro.isa.registers import Reg

EAX = OPND_CREATE_REG(Reg.EAX)
EBX = OPND_CREATE_REG(Reg.EBX)
ECX = OPND_CREATE_REG(Reg.ECX)


class TestPartialEflagsDefs:
    def test_inc_does_not_kill_cf(self):
        # jb reads CF; inc writes all arithmetic flags *except* CF, so
        # CF liveness flows through it while the other five flags are
        # killed (they are redefined before any read).
        inc = INSTR_CREATE_inc(EBX)
        jb = INSTR_CREATE_jb(OPND_CREATE_PC(0x2000))
        il = InstrList([inc, jb])
        result = live_eflags(il)
        assert result.before(inc) == EFLAGS_READ_CF

    def test_dec_does_not_kill_cf(self):
        dec = INSTR_CREATE_dec(EBX)
        jb = INSTR_CREATE_jb(OPND_CREATE_PC(0x2000))
        il = InstrList([dec, jb])
        assert live_eflags(il).before(dec) == EFLAGS_READ_CF

    def test_full_def_kills_cf(self):
        # The control: add writes CF too, so nothing is live before it.
        add = INSTR_CREATE_add(EBX, OPND_CREATE_INT32(1))
        jb = INSTR_CREATE_jb(OPND_CREATE_PC(0x2000))
        il = InstrList([add, jb])
        assert live_eflags(il).before(add) == 0

    def test_inc_kills_zf(self):
        # A ZF consumer after inc reads the flag inc just wrote — dead
        # before the inc.
        inc = INSTR_CREATE_inc(EBX)
        jz = INSTR_CREATE_jz(OPND_CREATE_PC(0x2000))
        il = InstrList([inc, jz])
        assert live_eflags(il).before(inc) & EFLAGS_READ_ZF == 0

    def test_dead_flags_point_respects_partial_def(self):
        # Before the inc, CF is live (the jb still reads it), so the
        # only dead-flags point is past the branch — i.e. none.
        inc = INSTR_CREATE_inc(EBX)
        jb = INSTR_CREATE_jb(OPND_CREATE_PC(0x2000))
        il = InstrList([inc, jb])
        assert not eflags_dead_before(il, inc)
        assert find_dead_flags_point(il) is None


class TestShiftCounts:
    def test_shift_by_register_keeps_flags_live(self):
        # ecx may hold 0, which leaves eflags unchanged: the jz (and
        # the code past it) may read the flags written before the shift.
        shl = INSTR_CREATE_shl(EAX, ECX)
        jz = INSTR_CREATE_jz(OPND_CREATE_PC(0x2000))
        il = InstrList([shl, jz])
        assert live_eflags(il).before(shl) == EFLAGS_READ_ALL
        assert find_dead_flags_point(il) is None

    def test_shift_by_nonzero_immediate_kills_flags(self):
        shl = INSTR_CREATE_shl(EAX, OPND_CREATE_INT32(3))
        jz = INSTR_CREATE_jz(OPND_CREATE_PC(0x2000))
        il = InstrList([shl, jz])
        assert live_eflags(il).before(shl) == 0
        assert find_dead_flags_point(il) is shl


class TestSingleInstructionBlocks:
    def test_single_mov_register_liveness(self):
        mov = INSTR_CREATE_mov(EAX, EBX)
        il = InstrList([mov])
        result = live_registers(il)
        # Falling off the end exposes every register, so only the
        # written-and-not-read eax is dead before the mov.
        assert result.after(mov) == GPR_UNIVERSE
        assert Reg.EAX not in result.before(mov)
        assert Reg.EBX in result.before(mov)
        assert registers_written_before_read(il, mov) == {Reg.EAX}

    def test_single_full_flag_writer(self):
        add = INSTR_CREATE_add(EAX, OPND_CREATE_INT32(1))
        il = InstrList([add])
        result = live_eflags(il)
        assert result.after(add) == EFLAGS_READ_ALL
        assert result.before(add) == 0
        assert eflags_dead_before(il, add)
        assert find_dead_flags_point(il) is add

    def test_single_partial_flag_writer(self):
        inc = INSTR_CREATE_inc(EAX)
        il = InstrList([inc])
        # CF survives the partial def and is exposed at the end.
        assert live_eflags(il).before(inc) == EFLAGS_READ_CF

    def test_single_cti_is_a_barrier(self):
        jmp = INSTR_CREATE_jmp(OPND_CREATE_PC(0x2000))
        il = InstrList([jmp])
        assert live_eflags(il).before(jmp) == EFLAGS_READ_ALL
        assert live_registers(il).before(jmp) == GPR_UNIVERSE
        assert find_dead_flags_point(il) is None
