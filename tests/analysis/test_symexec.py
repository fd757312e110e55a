"""Unit tests for the drequiv symbolic evaluator."""

import itertools

import pytest

from repro.analysis import symexec
from repro.analysis.symexec import (
    FLAG_ORDER,
    SymState,
    add,
    band,
    const,
    flags_add,
    flags_inc,
    may_alias,
    render,
    shift,
    step,
    sub,
)
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_and,
    INSTR_CREATE_inc,
    INSTR_CREATE_movb,
    INSTR_CREATE_lea,
    INSTR_CREATE_pop,
    INSTR_CREATE_push,
    OPND_CREATE_INT32,
    OPND_CREATE_MEM,
    OPND_CREATE_REG,
)
from repro.isa.eflags import FLAG_BITS, FLAG_NAMES
from repro.isa.opcodes import Opcode
from repro.isa.registers import Reg
from repro.machine.cpu import CPU
from repro.machine.exec_ops import execute_noncti
from repro.machine.memory import Memory
from repro.machine.system import System

EAX = OPND_CREATE_REG(Reg.EAX)
EBX = OPND_CREATE_REG(Reg.EBX)
ESP = OPND_CREATE_REG(Reg.ESP)


def run(state, *instrs):
    for instr in instrs:
        step(state, instr.opcode, instr.explicit_operands())
    return state


class TestCanonicalization:
    def test_const_folding_wraps(self):
        assert add(const(0xFFFFFFFF), const(2)) == const(1)

    def test_add_chain_flattens(self):
        x = ("init", "eax")
        assert add(add(x, const(4)), const(8)) == add(x, const(12))

    def test_add_zero_is_identity(self):
        x = ("init", "eax")
        assert add(x, const(0)) == x

    def test_sub_const_is_add_negated(self):
        x = ("init", "eax")
        assert sub(x, const(4)) == add(x, const(0xFFFFFFFC))

    def test_shift_by_zero_is_identity(self):
        x = ("init", "eax")
        assert shift("shl", x, const(0)) == x
        assert shift("shl", x, const(32)) == x  # count masked to 5 bits

    def test_pop_equals_lea_esp_adjustment(self):
        # The custom-traces client replaces an inlined `ret` with
        # `lea esp, [esp+4]`; both sides must reach the same esp.
        a = run(SymState(), INSTR_CREATE_pop(EAX))
        b = run(
            SymState(),
            INSTR_CREATE_lea(EAX, OPND_CREATE_MEM(base=Reg.ESP)),
            INSTR_CREATE_lea(ESP, OPND_CREATE_MEM(base=Reg.ESP, disp=4)),
        )
        assert a.regs[Reg.ESP] == b.regs[Reg.ESP]


class TestMemoryLog:
    def test_store_to_load_forwarding(self):
        s = SymState()
        run(s, INSTR_CREATE_push(EBX))
        loaded = s.load(s.regs[Reg.ESP], 4)
        assert loaded == ("init", "ebx")

    def test_aliasing_store_bumps_version(self):
        s = SymState()
        addr = s.regs[Reg.EAX]
        v0 = s.load(addr, 4)
        s.store(s.regs[Reg.EBX], 4, const(1))  # unknown base: may alias
        v1 = s.load(addr, 4)
        assert v0 != v1

    def test_disjoint_offsets_forward_past(self):
        s = SymState()
        base = s.regs[Reg.EAX]
        s.store(base, 4, const(7))
        s.store(add(base, const(8)), 4, const(9))  # provably disjoint
        assert s.load(base, 4) == const(7)

    def test_may_alias_same_base_overlap(self):
        base = ("init", "eax")
        assert may_alias(base, 4, add(base, const(2)), 4)
        assert not may_alias(base, 4, add(base, const(4)), 4)

    def test_may_alias_different_bases(self):
        assert may_alias(("init", "eax"), 4, ("init", "ebx"), 4)


class TestFlagFormulas:
    def test_inc_is_add_except_cf(self):
        # The inc2add client's enabling identity: inc and add-1 agree on
        # every flag except CF, which inc preserves.
        a = run(SymState(), INSTR_CREATE_inc(EAX))
        b = run(SymState(), INSTR_CREATE_add(EAX, OPND_CREATE_INT32(1)))
        assert a.regs[Reg.EAX] == b.regs[Reg.EAX]
        for name in ("PF", "AF", "ZF", "SF", "OF"):
            assert a.flags[name] == b.flags[name]
        assert a.flags["CF"] == ("initf", "CF")  # preserved
        assert b.flags["CF"] != ("initf", "CF")  # rewritten

    def test_identical_sequences_identical_flags(self):
        x = ("init", "eax")
        fa, fb = SymState().flags, SymState().flags
        flags_add(fa, x, const(1))
        flags_add(fb, x, const(1))
        assert fa == fb
        fi = SymState().flags
        flags_inc(fi, x)
        assert fi != fa  # CF differs: preserved vs rewritten

    def test_logic_zeroes_cf_of(self):
        s = run(SymState(), INSTR_CREATE_and(EAX, EBX))
        assert s.flags["CF"] == const(0)
        assert s.flags["OF"] == const(0)
        assert s.flags["AF"] == const(0)

    def test_byte_store_masks_value(self):
        s = SymState()
        run(s, INSTR_CREATE_movb(OPND_CREATE_MEM(base=Reg.ESP, size=1), EBX))
        _addr, size, value = s.stores[-1]
        assert size == 1
        assert value == band(("init", "ebx"), const(0xFF))


class TestRender:
    def test_render_is_compact(self):
        s = run(SymState(), INSTR_CREATE_push(EAX), INSTR_CREATE_pop(EBX))
        text = render(s.regs[Reg.EBX])
        assert isinstance(text, str) and text


# ------------------------------------------- constant folding vs the CPU
#
# Equivalence compares two summaries that fold constants alike, so a
# fold that disagrees with the machine cancels out there; this holds
# every fold to execute_noncti.  ``a`` is in eax, ``b`` in ebx.

BOUNDARY = (
    0, 1, 2, 15, 16, 31, 32, 33,
    0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF,
)
ALL_FLAGS = sum(FLAG_BITS)
FLAG_BIT = {name: bit for bit, name in FLAG_NAMES.items()}
STACK_TOP = 0x800  # esp: the byte store and push land in memory
_BYTE = OPND_CREATE_MEM(base=Reg.ESP, disp=-8, size=1)

# Each program runs from every (a, b) pair; MOVSX and MOVZX read a byte
# that a MOVB_STORE just wrote, so their load forwards a constant.
FOLD_PROGRAMS = {
    op.name: ((op, (EAX, EBX)),)
    for op in (
        Opcode.MOV, Opcode.ADD, Opcode.SUB, Opcode.CMP, Opcode.AND,
        Opcode.OR, Opcode.XOR, Opcode.TEST, Opcode.IMUL, Opcode.SHL,
        Opcode.SHR, Opcode.SAR, Opcode.XCHG, Opcode.FLD, Opcode.FST,
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
    )
}
FOLD_PROGRAMS.update(
    {op.name: ((op, (EAX,)),) for op in (
        Opcode.INC, Opcode.DEC, Opcode.NOT, Opcode.NEG,
    )}
)
FOLD_PROGRAMS.update({
    "DIV": ((Opcode.DIV, (EBX,)),),
    "LEA": ((Opcode.LEA, (
        EAX, OPND_CREATE_MEM(base=Reg.EAX, index=Reg.EBX, scale=4, disp=-8)
    )),),
    "MOVB_STORE+MOVSX": (
        (Opcode.MOVB_STORE, (_BYTE, EBX)), (Opcode.MOVSX, (EAX, _BYTE)),
    ),
    "MOVB_STORE+MOVZX": (
        (Opcode.MOVB_STORE, (_BYTE, EBX)), (Opcode.MOVZX, (EAX, _BYTE)),
    ),
    "PUSH+POP": (
        (Opcode.PUSH, (EBX,)), (Opcode.POP, (OPND_CREATE_REG(Reg.ECX),)),
    ),
})


def _flag_consts(eflags):
    return {
        flag: const(1 if eflags & FLAG_BIT[flag] else 0) for flag in FLAG_ORDER
    }


def _fold_mismatches():
    """``(program, a, b, eflags, what, folded, concrete)`` for every
    register or flag whose fold differs from the concrete result."""
    memory, system = Memory(0x1000), System()
    mismatches = []
    for name, program in FOLD_PROGRAMS.items():
        for a, b, eflags in itertools.product(
            BOUNDARY, BOUNDARY, (0, ALL_FLAGS)
        ):
            if program[0][0] in (Opcode.DIV, Opcode.FDIV) and b == 0:
                continue  # the machine faults; nothing folds
            regs = [a, 0x11, 0x22, b, STACK_TOP, 0x55, 0x66, 0x77]
            cpu = CPU()
            cpu.regs = list(regs)
            cpu.eflags = eflags
            state = SymState()
            state.regs = {r: const(v) for r, v in enumerate(regs)}
            state.flags = _flag_consts(eflags)
            for opcode, ops in program:
                execute_noncti(cpu, memory, system, opcode, ops)
                step(state, opcode, ops)
            want = {Reg(r).name: const(v) for r, v in enumerate(cpu.regs)}
            want.update(_flag_consts(cpu.eflags))
            got = {Reg(r).name: v for r, v in state.regs.items()}
            got.update(state.flags)
            mismatches.extend(
                (name, a, b, eflags, what, got[what], want[what])
                for what in want if got[what] != want[what]
            )
    return mismatches


def test_constant_folds_match_the_machine():
    assert _fold_mismatches() == []


def _sar_fills_with_zeros(monkeypatch):
    monkeypatch.setattr(symexec, "_sar_v", lambda a, n: a >> (n & 31))


def _neg_inverts_cf(monkeypatch):
    flags_neg = symexec.flags_neg

    def planted(flags, a):
        r = flags_neg(flags, a)
        flags["CF"] = const(1 - flags["CF"][1])
        return r

    monkeypatch.setattr(symexec, "flags_neg", planted)


@pytest.mark.parametrize(
    "plant, program",
    [(_sar_fills_with_zeros, "SAR"), (_neg_inverts_cf, "NEG")],
    ids=["sar_fills_with_zeros", "neg_inverts_cf"],
)
def test_planted_fold_bug_is_caught(monkeypatch, plant, program):
    """Planted control: a fold bug that equivalence alone cannot see."""
    plant(monkeypatch)
    found = {m[0] for m in _fold_mismatches()}
    assert found == {program}
