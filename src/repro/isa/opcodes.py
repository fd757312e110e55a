"""The RIO-32 opcode table.

Every opcode carries:

* its eflags read/write effects (the "Level 2" information of the paper);
* its control-transfer classification (direct/indirect, call/return,
  conditional) — the properties the runtime's basic-block builder, linker
  and trace builder dispatch on;
* an *operand shape* describing how explicit operands map onto the full
  source/destination lists (including implicit operands such as ``esp``
  for ``push``), used by ``repro.ir.create``, and the shape's operand
  roles (``OPERAND_ROLES``: which explicit operands are read, written,
  or used for their address alone), read by the cost model and the
  fragment compiler;
* a *cost class* consumed by the machine cost model.

The table is deliberately IA-32-flavored: ``inc``/``dec`` do **not**
write CF (the hazard exploited by the strength-reduction client), ``not``
writes no flags at all, and conditional branches read exactly the flags
their IA-32 counterparts read.
"""

from enum import IntEnum

from repro.isa.eflags import (
    EFLAGS_READ_CF,
    EFLAGS_READ_ZF,
    EFLAGS_READ_SF,
    EFLAGS_READ_OF,
    EFLAGS_WRITE_ALL,
    EFLAGS_WRITE_CF,
)
from repro.isa.operands import ImmOperand


class Opcode(IntEnum):
    """All RIO-32 opcodes."""

    # Data movement
    MOV = 1
    MOVB_STORE = 2  # store low byte of a register to memory
    MOVZX = 3
    MOVSX = 4
    LEA = 5
    XCHG = 6
    PUSH = 7
    POP = 8
    # Integer arithmetic / logic
    ADD = 10
    SUB = 11
    INC = 12
    DEC = 13
    NEG = 14
    NOT = 15
    AND = 16
    OR = 17
    XOR = 18
    CMP = 19
    TEST = 20
    SHL = 21
    SHR = 22
    SAR = 23
    IMUL = 24
    DIV = 25
    # Fixed-point "floating point" (higher latency, no flag effects)
    FLD = 30
    FST = 31
    FADD = 32
    FSUB = 33
    FMUL = 34
    FDIV = 35
    # Control transfer
    JMP = 40
    JMP_IND = 41
    CALL = 42
    CALL_IND = 43
    RET = 44
    IRET = 45  # return from signal handler: pops pc, then eflags
    JO = 50
    JNO = 51
    JB = 52
    JNB = 53
    JZ = 54
    JNZ = 55
    JBE = 56
    JNBE = 57
    JS = 58
    JNS = 59
    JL = 60
    JNL = 61
    JLE = 62
    JNLE = 63
    # Misc
    NOP = 70
    HALT = 71
    SYSCALL = 72
    LABEL = 73  # pseudo-instruction: never encoded, used by builders


# Condition-code field values (IA-32 "tttn") for the Jcc family.
JCC_CONDITION = {
    Opcode.JO: 0x0,
    Opcode.JNO: 0x1,
    Opcode.JB: 0x2,
    Opcode.JNB: 0x3,
    Opcode.JZ: 0x4,
    Opcode.JNZ: 0x5,
    Opcode.JBE: 0x6,
    Opcode.JNBE: 0x7,
    Opcode.JS: 0x8,
    Opcode.JNS: 0x9,
    Opcode.JL: 0xC,
    Opcode.JNL: 0xD,
    Opcode.JLE: 0xE,
    Opcode.JNLE: 0xF,
}

CONDITION_TO_JCC = {cc: op for op, cc in JCC_CONDITION.items()}

# Opposite-condition map, used to invert branches (e.g. by the trace
# builder when it keeps fall-through on-trace).
JCC_OPPOSITE = {
    Opcode.JO: Opcode.JNO,
    Opcode.JNO: Opcode.JO,
    Opcode.JB: Opcode.JNB,
    Opcode.JNB: Opcode.JB,
    Opcode.JZ: Opcode.JNZ,
    Opcode.JNZ: Opcode.JZ,
    Opcode.JBE: Opcode.JNBE,
    Opcode.JNBE: Opcode.JBE,
    Opcode.JS: Opcode.JNS,
    Opcode.JNS: Opcode.JS,
    Opcode.JL: Opcode.JNL,
    Opcode.JNL: Opcode.JL,
    Opcode.JLE: Opcode.JNLE,
    Opcode.JNLE: Opcode.JLE,
}


class OpcodeInfo:
    """Static properties of one opcode."""

    __slots__ = (
        "opcode",
        "name",
        "eflags",
        "shape",
        "cost_class",
        "is_cti",
        "is_cond_branch",
        "is_call",
        "is_ret",
        "is_indirect",
        "is_fp",
        "condition",
    )

    def __init__(
        self,
        opcode,
        name,
        eflags,
        shape,
        cost_class,
        is_cti=False,
        is_cond_branch=False,
        is_call=False,
        is_ret=False,
        is_indirect=False,
        is_fp=False,
        condition=None,
    ):
        self.opcode = opcode
        self.name = name
        self.eflags = eflags
        self.shape = shape
        self.cost_class = cost_class
        self.is_cti = is_cti
        self.is_cond_branch = is_cond_branch
        self.is_call = is_call
        self.is_ret = is_ret
        self.is_indirect = is_indirect
        self.is_fp = is_fp
        self.condition = condition

    def __repr__(self):
        return "<OpcodeInfo %s>" % self.name


_W = EFLAGS_WRITE_ALL
# inc/dec write everything *except* CF — the paper's Section 4.2 hazard.
_W_NO_CF = EFLAGS_WRITE_ALL & ~EFLAGS_WRITE_CF

_JCC_READS = {
    Opcode.JO: EFLAGS_READ_OF,
    Opcode.JNO: EFLAGS_READ_OF,
    Opcode.JB: EFLAGS_READ_CF,
    Opcode.JNB: EFLAGS_READ_CF,
    Opcode.JZ: EFLAGS_READ_ZF,
    Opcode.JNZ: EFLAGS_READ_ZF,
    Opcode.JBE: EFLAGS_READ_CF | EFLAGS_READ_ZF,
    Opcode.JNBE: EFLAGS_READ_CF | EFLAGS_READ_ZF,
    Opcode.JS: EFLAGS_READ_SF,
    Opcode.JNS: EFLAGS_READ_SF,
    Opcode.JL: EFLAGS_READ_SF | EFLAGS_READ_OF,
    Opcode.JNL: EFLAGS_READ_SF | EFLAGS_READ_OF,
    Opcode.JLE: EFLAGS_READ_SF | EFLAGS_READ_OF | EFLAGS_READ_ZF,
    Opcode.JNLE: EFLAGS_READ_SF | EFLAGS_READ_OF | EFLAGS_READ_ZF,
}


def _build_table():
    table = {}

    def op(opcode, name, eflags, shape, cost_class, **kinds):
        table[opcode] = OpcodeInfo(opcode, name, eflags, shape, cost_class, **kinds)

    # Data movement
    op(Opcode.MOV, "mov", 0, "mov", "mov")
    op(Opcode.MOVB_STORE, "movb", 0, "mov", "store")
    op(Opcode.MOVZX, "movzx", 0, "mov", "load")
    op(Opcode.MOVSX, "movsx", 0, "mov", "load")
    op(Opcode.LEA, "lea", 0, "lea", "alu")
    op(Opcode.XCHG, "xchg", 0, "xchg", "xchg")
    op(Opcode.PUSH, "push", 0, "push", "push")
    op(Opcode.POP, "pop", 0, "pop", "pop")
    # Arithmetic / logic
    op(Opcode.ADD, "add", _W, "binary", "alu")
    op(Opcode.SUB, "sub", _W, "binary", "alu")
    op(Opcode.INC, "inc", _W_NO_CF, "unary", "incdec")
    op(Opcode.DEC, "dec", _W_NO_CF, "unary", "incdec")
    op(Opcode.NEG, "neg", _W, "unary", "alu")
    op(Opcode.NOT, "not", 0, "unary", "alu")
    op(Opcode.AND, "and", _W, "binary", "alu")
    op(Opcode.OR, "or", _W, "binary", "alu")
    op(Opcode.XOR, "xor", _W, "binary", "alu")
    op(Opcode.CMP, "cmp", _W, "compare", "alu")
    op(Opcode.TEST, "test", _W, "compare", "alu")
    op(Opcode.SHL, "shl", _W, "shift", "shift")
    op(Opcode.SHR, "shr", _W, "shift", "shift")
    op(Opcode.SAR, "sar", _W, "shift", "shift")
    op(Opcode.IMUL, "imul", _W, "binary", "mul")
    op(Opcode.DIV, "div", _W, "div", "div")
    # Fixed-point FP
    op(Opcode.FLD, "fld", 0, "mov", "fload", is_fp=True)
    op(Opcode.FST, "fst", 0, "mov", "fstore", is_fp=True)
    op(Opcode.FADD, "fadd", 0, "binary", "fadd", is_fp=True)
    op(Opcode.FSUB, "fsub", 0, "binary", "fadd", is_fp=True)
    op(Opcode.FMUL, "fmul", 0, "binary", "fmul", is_fp=True)
    op(Opcode.FDIV, "fdiv", 0, "binary", "fdiv", is_fp=True)
    # Control transfer
    op(Opcode.JMP, "jmp", 0, "branch", "jmp", is_cti=True)
    op(
        Opcode.JMP_IND,
        "jmp*",
        0,
        "branch",
        "jmp_ind",
        is_cti=True,
        is_indirect=True,
    )
    op(Opcode.CALL, "call", 0, "call", "call", is_cti=True, is_call=True)
    op(
        Opcode.CALL_IND,
        "call*",
        0,
        "call",
        "call_ind",
        is_cti=True,
        is_call=True,
        is_indirect=True,
    )
    op(
        Opcode.RET,
        "ret",
        0,
        "ret",
        "ret",
        is_cti=True,
        is_ret=True,
        is_indirect=True,
    )
    # iret writes all flags (it restores them from the stack); it is an
    # indirect CTI but *not* a ret for client purposes (a client must
    # not remove it the way CustomTraces removes returns).
    op(
        Opcode.IRET,
        "iret",
        _W,
        "ret",
        "ret",
        is_cti=True,
        is_indirect=True,
    )
    for jcc, cond in JCC_CONDITION.items():
        op(
            jcc,
            "j" + jcc.name[1:].lower(),
            _JCC_READS[jcc],
            "branch",
            "jcc",
            is_cti=True,
            is_cond_branch=True,
            condition=cond,
        )
    # Misc
    op(Opcode.NOP, "nop", 0, "none", "nop")
    op(Opcode.HALT, "hlt", 0, "none", "halt")
    # A syscall leaves eflags as they are (machine.system.System.syscall),
    # so liveness must not treat them as dead before one.
    op(Opcode.SYSCALL, "syscall", 0, "none", "syscall")
    op(Opcode.LABEL, "<label>", 0, "none", "nop")
    return table


OP_INFO = _build_table()


# How each operand shape (repro.ir.shapes) uses its explicit operands:
# per operand, "r" if the instruction reads it and "w" if it writes it;
# "" marks lea's source, whose address alone is used.  Implicit
# operands (the stack slot of push/pop, eax/edx of div) are not
# listed; the cost model folds them into the class base cost.  A
# control transfer's target read is part of its base cost and of the
# branch penalties it pays by outcome.
OPERAND_ROLES = {
    "mov": ("w", "r"),
    "lea": ("w", ""),
    "binary": ("rw", "r"),
    "unary": ("rw",),
    "compare": ("r", "r"),
    "shift": ("rw", "r"),
    "div": ("r",),
    "push": ("r",),
    "pop": ("w",),
    "xchg": ("rw", "rw"),
    "branch": (),
    "call": (),
    "ret": (),
    "none": (),
}


SHIFT_OPCODES = frozenset((Opcode.SHL, Opcode.SHR, Opcode.SAR))


def eflags_killed(opcode, count=None):
    """The ``EFLAGS_WRITE_*`` mask of the flags ``opcode`` always
    overwrites: the flags a liveness scan may treat as dead before it.

    That is the opcode's write effects (inc/dec leave CF alone), except
    for a shift: a count of 0 mod 32 leaves eflags unchanged
    (``CPU.flags_shl``/``flags_shr``), so a shift kills nothing unless
    ``count``, its count operand, is an immediate that is nonzero mod 32.
    ``count`` is ignored for every other opcode.
    """
    if opcode in SHIFT_OPCODES and not (
        isinstance(count, ImmOperand) and count.value & 31
    ):
        return 0
    return OP_INFO[opcode].eflags & EFLAGS_WRITE_ALL


def opcode_info(opcode):
    """Return the :class:`OpcodeInfo` for an opcode."""
    return OP_INFO[opcode]


def opcode_name(opcode):
    return OP_INFO[opcode].name


_NAME_TO_OPCODE = {info.name: opc for opc, info in OP_INFO.items()}


def opcode_from_name(name):
    """Look up an opcode by its assembly mnemonic."""
    return _NAME_TO_OPCODE[name.lower()]
