"""CPU state and IA-32-faithful eflags arithmetic.

The CPU holds the eight GPRs, the eflags register, and the program
counter.  Flag computation follows IA-32 semantics for the six
arithmetic flags; where IA-32 leaves a flag *undefined* (shifts by more
than one, multiplies), RIO-32 defines a deterministic value so that
native and translated executions are exactly comparable — the property
every transparency test in this repository relies on.
"""

from repro.isa.eflags import CF, PF, AF, ZF, SF, OF
from repro.isa.opcodes import Opcode

_MASK32 = 0xFFFFFFFF
_SIGN = 0x80000000

# Parity lookup for the low result byte (PF set when even number of bits).
_PARITY = bytes(
    1 if bin(i).count("1") % 2 == 0 else 0 for i in range(256)
)

_ALL_FLAGS = CF | PF | AF | ZF | SF | OF


class CPU:
    """Architectural register state."""

    __slots__ = ("regs", "eflags", "pc")

    def __init__(self):
        self.regs = [0] * 8
        self.eflags = 0
        self.pc = 0

    def copy(self):
        c = CPU()
        c.regs = list(self.regs)
        c.eflags = self.eflags
        c.pc = self.pc
        return c

    def state_tuple(self):
        """Hashable snapshot for state-equality assertions in tests."""
        return (tuple(self.regs), self.eflags, self.pc)

    def get_flag(self, bit):
        return bool(self.eflags & bit)

    def set_flag(self, bit, value):
        if value:
            self.eflags |= bit
        else:
            self.eflags &= ~bit

    # -------------------------------------------------------- flag updates

    def flags_add(self, a, b, carry_in=0):
        """Full add with IA-32 flags; returns the 32-bit result."""
        full = a + b + carry_in
        res = full & _MASK32
        f = self.eflags & ~_ALL_FLAGS
        if full > _MASK32:
            f |= CF
        if (~(a ^ b) & (a ^ res)) & _SIGN:
            f |= OF
        if (a ^ b ^ res) & 0x10:
            f |= AF
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    def flags_sub(self, a, b, update_cf=True):
        """Subtract with IA-32 flags; ``update_cf=False`` models dec."""
        res = (a - b) & _MASK32
        keep = self.eflags & ~_ALL_FLAGS
        if not update_cf:
            keep |= self.eflags & CF
        f = keep
        if update_cf and a < b:
            f |= CF
        if ((a ^ b) & (a ^ res)) & _SIGN:
            f |= OF
        if (a ^ b ^ res) & 0x10:
            f |= AF
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    def flags_inc(self, a):
        """inc: add 1 leaving CF untouched (the paper's Section 4.2 hazard)."""
        res = (a + 1) & _MASK32
        f = (self.eflags & ~_ALL_FLAGS) | (self.eflags & CF)
        if (~(a ^ 1) & (a ^ res)) & _SIGN:
            f |= OF
        if (a ^ 1 ^ res) & 0x10:
            f |= AF
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    def flags_dec(self, a):
        return self.flags_sub(a, 1, update_cf=False)

    def flags_logic(self, res):
        """and/or/xor/test: CF=OF=AF=0, ZF/SF/PF from result."""
        f = self.eflags & ~_ALL_FLAGS
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    def flags_shl(self, a, n):
        n &= 31
        if n == 0:
            return a  # flags unchanged, like IA-32
        res = (a << n) & _MASK32
        cf = (a >> (32 - n)) & 1
        f = self.eflags & ~_ALL_FLAGS
        if cf:
            f |= CF
        # OF defined only for n == 1 on IA-32; RIO-32 defines it always.
        if bool(res & _SIGN) != bool(cf):
            f |= OF
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    def flags_shr(self, a, n, arithmetic=False):
        n &= 31
        if n == 0:
            return a
        cf = (a >> (n - 1)) & 1
        if arithmetic and a & _SIGN:
            res = ((a - (1 << 32)) >> n) & _MASK32
        else:
            res = a >> n
        f = self.eflags & ~_ALL_FLAGS
        if cf:
            f |= CF
        if not arithmetic and n == 1 and a & _SIGN:
            f |= OF
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    def flags_neg(self, a):
        res = (-a) & _MASK32
        f = self.eflags & ~_ALL_FLAGS
        if a != 0:
            f |= CF
        if a == _SIGN:
            f |= OF
        if (0 ^ a ^ res) & 0x10:
            f |= AF
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    def flags_imul(self, a, b):
        sa = a - (1 << 32) if a & _SIGN else a
        sb = b - (1 << 32) if b & _SIGN else b
        full = sa * sb
        res = full & _MASK32
        sres = res - (1 << 32) if res & _SIGN else res
        f = self.eflags & ~_ALL_FLAGS
        if full != sres:  # result did not fit: CF and OF set
            f |= CF | OF
        if res == 0:
            f |= ZF
        if res & _SIGN:
            f |= SF
        if _PARITY[res & 0xFF]:
            f |= PF
        self.eflags = f
        return res

    # ------------------------------------------------------ branch predicates

    def condition_holds(self, opcode):
        """Evaluate a Jcc condition against current flags."""
        e = self.eflags
        if opcode == Opcode.JZ:
            return bool(e & ZF)
        if opcode == Opcode.JNZ:
            return not e & ZF
        if opcode == Opcode.JB:
            return bool(e & CF)
        if opcode == Opcode.JNB:
            return not e & CF
        if opcode == Opcode.JBE:
            return bool(e & (CF | ZF))
        if opcode == Opcode.JNBE:
            return not e & (CF | ZF)
        if opcode == Opcode.JS:
            return bool(e & SF)
        if opcode == Opcode.JNS:
            return not e & SF
        if opcode == Opcode.JL:
            return bool(e & SF) != bool(e & OF)
        if opcode == Opcode.JNL:
            return bool(e & SF) == bool(e & OF)
        if opcode == Opcode.JLE:
            return bool(e & ZF) or bool(e & SF) != bool(e & OF)
        if opcode == Opcode.JNLE:
            return not e & ZF and bool(e & SF) == bool(e & OF)
        if opcode == Opcode.JO:
            return bool(e & OF)
        if opcode == Opcode.JNO:
            return not e & OF
        raise ValueError("not a conditional branch: %r" % (opcode,))


# Precompiled Jcc predicates over an eflags value, used by the closure-
# compiled executors so hot branches skip the condition_holds dispatch
# chain.  Each returns a truthy/falsy value identical in truth value to
# CPU.condition_holds for the same flags.
_CF_OR_ZF = CF | ZF

_CONDITION_FNS = {
    Opcode.JZ: lambda e: e & ZF,
    Opcode.JNZ: lambda e: not e & ZF,
    Opcode.JB: lambda e: e & CF,
    Opcode.JNB: lambda e: not e & CF,
    Opcode.JBE: lambda e: e & _CF_OR_ZF,
    Opcode.JNBE: lambda e: not e & _CF_OR_ZF,
    Opcode.JS: lambda e: e & SF,
    Opcode.JNS: lambda e: not e & SF,
    Opcode.JL: lambda e: bool(e & SF) != bool(e & OF),
    Opcode.JNL: lambda e: bool(e & SF) == bool(e & OF),
    Opcode.JLE: lambda e: bool(e & ZF) or bool(e & SF) != bool(e & OF),
    Opcode.JNLE: lambda e: not e & ZF and bool(e & SF) == bool(e & OF),
    Opcode.JO: lambda e: e & OF,
    Opcode.JNO: lambda e: not e & OF,
}


def compile_condition(opcode):
    """Return a predicate ``fn(eflags) -> truthy`` for a Jcc opcode."""
    try:
        return _CONDITION_FNS[opcode]
    except KeyError:
        raise ValueError("not a conditional branch: %r" % (opcode,))
