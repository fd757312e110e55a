"""Symbolic small-step evaluation of RIO-32 instruction sequences.

drequiv's front half: execute a straight-line run of instructions over a
*symbolic* machine state — registers and flags hold canonicalized
expression trees, memory is an append-only store log with versioned
loads — producing a transfer-function summary that
:mod:`repro.analysis.equiv` compares between an emitted fragment and the
application blocks it was translated from.

Expressions are nested tuples whose first element names the operator::

    ("init", "eax")            initial register value
    ("initf", "CF")            initial flag value
    ("const", 0x10)            32-bit constant
    ("add", a, b)              wrap-around add (const operand kept last)
    ("load", addr, size, v)    memory read; ``v`` versions aliasing stores

plus one node kind per remaining ALU operator and per flag-producing
formula (``("addcf", a, b)`` is the carry of ``a + b`` and so on).
Plain tuple equality is the equivalence test, so canonicalization does
all the real work:

* constants fold through every operator, using the exact arithmetic of
  :mod:`repro.machine.cpu` / :mod:`repro.machine.exec_ops`;
* ``add`` chains flatten and keep their constant last, so ``pop``'s
  ``esp+4`` and a client's ``lea esp, [esp+4]`` are structurally equal;
* subtracting a constant becomes adding its negation;
* ``inc``/``dec`` produce the same flag nodes as ``add r, 1`` /
  ``sub r, 1`` apart from the preserved CF — exactly the identity the
  strength-reduction client relies on;
* a load takes the value of the latest *exactly matching* store
  (store-to-load forwarding), and otherwise a version counting the
  stores that may alias it — mirroring the redundant-load-removal
  client's conservative ``_may_alias`` so its rewrites cancel out.

The evaluator is deliberately *defining* rather than approximating:
every operator the concrete machine defines deterministically gets a
deterministic node here, so two sides agree iff they computed the same
function of the initial state, modulo expression canonicalization.
"""

from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.isa.registers import REG_NAMES, Reg

_MASK32 = 0xFFFFFFFF
_SIGN = 0x80000000

FLAG_ORDER = ("CF", "PF", "AF", "ZF", "SF", "OF")

_PARITY = bytes(1 if bin(i).count("1") % 2 == 0 else 0 for i in range(256))


class SymexecError(Exception):
    """The sequence contains something the evaluator cannot model."""


# ------------------------------------------------------------ constructors


def const(v):
    return ("const", v & _MASK32)


CONST_0 = const(0)
CONST_1 = const(1)


def is_const(e):
    return e[0] == "const"


def add(a, b):
    """Canonical wrap-around add: constants fold, chains flatten, the
    constant operand stays last."""
    if is_const(a) and is_const(b):
        return const(a[1] + b[1])
    if is_const(a):
        a, b = b, a
    if is_const(b):
        if b[1] == 0:
            return a
        if a[0] == "add" and is_const(a[2]):
            return add(a[1], const(a[2][1] + b[1]))
        return ("add", a, b)
    if a[0] == "add" and is_const(a[2]):
        # (x + c) + y  ->  (x + y) + c : keeps the constant last.
        return add(add(a[1], b), a[2])
    if b[0] == "add" and is_const(b[2]):
        return add(add(a, b[1]), b[2])
    return ("add", a, b)


def sub(a, b):
    if is_const(b):
        return add(a, const(-b[1]))
    if is_const(a) and is_const(b):
        return const(a[1] - b[1])
    return ("sub", a, b)


def _fold2(op, a, b, fn):
    if is_const(a) and is_const(b):
        return const(fn(a[1], b[1]))
    return (op, a, b)


def band(a, b):
    # Idempotent re-masking collapses: (x & c) & c == x & c.  Byte
    # stores mask twice (once in step(), once in the size-1 store path);
    # canonicalizing keeps the two spellings comparable.
    if (
        isinstance(b, tuple) and b[0] == "const"
        and isinstance(a, tuple) and a[0] == "and"
        and a[2] == b
    ):
        return a
    return _fold2("and", a, b, lambda x, y: x & y)


def bor(a, b):
    return _fold2("or", a, b, lambda x, y: x | y)


def bxor(a, b):
    return _fold2("xor", a, b, lambda x, y: x ^ y)


def bnot(a):
    if is_const(a):
        return const(~a[1])
    return ("not", a)


def neg(a):
    if is_const(a):
        return const(-a[1])
    return ("neg", a)


def imul(a, b):
    # Signed wrap-around product equals the unsigned one mod 2**32.
    return _fold2("imul", a, b, lambda x, y: x * y)


def _shl_v(a, n):
    return (a << (n & 31)) & _MASK32


def _shr_v(a, n):
    return a >> (n & 31)


def _sar_v(a, n):
    n &= 31
    if a & _SIGN:
        return ((a - (1 << 32)) >> n) & _MASK32
    return a >> n


def shift(kind, a, n):
    """kind in ('shl', 'shr', 'sar'); count already masked to 5 bits."""
    if is_const(n) and (n[1] & 31) == 0:
        return a
    fn = {"shl": _shl_v, "shr": _shr_v, "sar": _sar_v}[kind]
    return _fold2(kind, a, n, fn)


def sx(a, size):
    """Sign-extend a ``size``-byte value to 32 bits."""
    if is_const(a):
        bits = size * 8
        sign_bit = 1 << (bits - 1)
        return const((a[1] ^ sign_bit) - sign_bit)
    return ("sx", a, size)


def _sgn(v):
    return v - (1 << 32) if v & _SIGN else v


def udiv_q(a, b):
    if is_const(a) and is_const(b) and b[1] != 0:
        return const(a[1] // b[1])
    return ("udivq", a, b)


def udiv_r(a, b):
    if is_const(a) and is_const(b) and b[1] != 0:
        return const(a[1] % b[1])
    return ("udivr", a, b)


def fdiv(a, b):
    if is_const(a) and is_const(b) and _sgn(b[1]) != 0:
        sa, sb = _sgn(a[1]), _sgn(b[1])
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        return const(q)
    return ("fdiv", a, b)


# ---------------------------------------------------------- flag formulas
#
# One node kind per defined flag formula of repro.machine.cpu; constant
# operands fold with the exact concrete arithmetic.  Flag values are
# const(0)/const(1) when known.


def _flag(b):
    return CONST_1 if b else CONST_0


def _fold_flag(op, operands, fn):
    if all(is_const(e) for e in operands):
        return _flag(fn(*[e[1] for e in operands]))
    return (op,) + tuple(operands)


def res_zf(r):
    return _fold_flag("zf", (r,), lambda v: v == 0)


def res_sf(r):
    return _fold_flag("sf", (r,), lambda v: bool(v & _SIGN))


def res_pf(r):
    return _fold_flag("pf", (r,), lambda v: bool(_PARITY[v & 0xFF]))


def _result_flags(flags, r):
    flags["ZF"] = res_zf(r)
    flags["SF"] = res_sf(r)
    flags["PF"] = res_pf(r)


def flags_add(flags, a, b):
    r = add(a, b)
    flags["CF"] = _fold_flag("addcf", (a, b), lambda x, y: x + y > _MASK32)
    flags["OF"] = _fold_flag(
        "addof",
        (a, b),
        lambda x, y: bool((~(x ^ y) & (x ^ ((x + y) & _MASK32))) & _SIGN),
    )
    flags["AF"] = _fold_flag(
        "addaf", (a, b), lambda x, y: bool((x ^ y ^ ((x + y) & _MASK32)) & 0x10)
    )
    _result_flags(flags, r)
    return r


def flags_sub(flags, a, b, update_cf=True):
    r = sub(a, b)
    if update_cf:
        flags["CF"] = _fold_flag("subcf", (a, b), lambda x, y: x < y)
    flags["OF"] = _fold_flag(
        "subof",
        (a, b),
        lambda x, y: bool(((x ^ y) & (x ^ ((x - y) & _MASK32))) & _SIGN),
    )
    flags["AF"] = _fold_flag(
        "subaf", (a, b), lambda x, y: bool((x ^ y ^ ((x - y) & _MASK32)) & 0x10)
    )
    _result_flags(flags, r)
    return r


def flags_inc(flags, a):
    # Same nodes as add(a, 1) except CF is untouched — the identity that
    # makes ``inc r`` and ``add r, 1`` summaries agree at every point
    # where the strength-reduction client's CF-deadness proof holds.
    r = add(a, CONST_1)
    flags["OF"] = _fold_flag(
        "addof",
        (a, CONST_1),
        lambda x, y: bool((~(x ^ y) & (x ^ ((x + y) & _MASK32))) & _SIGN),
    )
    flags["AF"] = _fold_flag(
        "addaf",
        (a, CONST_1),
        lambda x, y: bool((x ^ y ^ ((x + y) & _MASK32)) & 0x10),
    )
    _result_flags(flags, r)
    return r


def flags_dec(flags, a):
    return flags_sub(flags, a, CONST_1, update_cf=False)


def flags_logic(flags, r):
    flags["CF"] = CONST_0
    flags["OF"] = CONST_0
    flags["AF"] = CONST_0
    _result_flags(flags, r)
    return r


def flags_neg(flags, a):
    r = neg(a)
    flags["CF"] = _fold_flag("negcf", (a,), lambda x: x != 0)
    flags["OF"] = _fold_flag("negof", (a,), lambda x: x == _SIGN)
    flags["AF"] = _fold_flag(
        "negaf", (a,), lambda x: bool((x ^ ((-x) & _MASK32)) & 0x10)
    )
    _result_flags(flags, r)
    return r


def flags_shift(flags, kind, a, n):
    """Shift with a count expression already masked to 5 bits.

    A constant count reproduces ``cpu.flags_shl``/``flags_shr`` exactly
    (count 0 leaves state untouched); a symbolic count folds the
    *incoming* flag expressions into opaque nodes, because the concrete
    machine preserves flags when the runtime count happens to be zero.
    """
    if is_const(n):
        c = n[1] & 31
        if c == 0:
            return a
        r = shift(kind, a, n)
        if kind == "shl":
            flags["CF"] = _fold_flag(
                "shlcf", (a, n), lambda x, y: bool((x >> (32 - (y & 31))) & 1)
            )
            flags["OF"] = _fold_flag(
                "shlof",
                (a, n),
                lambda x, y: bool(_shl_v(x, y) & _SIGN)
                != bool((x >> (32 - (y & 31))) & 1),
            )
        else:
            flags["CF"] = _fold_flag(
                "shrcf", (a, n), lambda x, y: bool((x >> ((y & 31) - 1)) & 1)
            )
            if kind == "shr" and c == 1:
                flags["OF"] = _fold_flag("shrof", (a,), lambda x: bool(x & _SIGN))
            else:
                flags["OF"] = CONST_0
        flags["AF"] = CONST_0
        _result_flags(flags, r)
        return r
    old = dict(flags)
    r = ("shiftv", kind, a, n)
    for name in FLAG_ORDER:
        flags[name] = ("shiftfl", kind, name, a, n, old[name])
    return r


def flags_imul(flags, a, b):
    r = imul(a, b)

    def _cc(x, y):
        full = _sgn(x) * _sgn(y)
        return full != _sgn(full & _MASK32)

    cc = _fold_flag("imulcc", (a, b), _cc)
    flags["CF"] = cc
    flags["OF"] = cc
    flags["AF"] = CONST_0
    _result_flags(flags, r)
    return r


# ------------------------------------------------------------------ state


def _decompose(addr):
    """Split an address expression into (symbolic base, constant offset).

    A purely constant address gets base ``None``.  Disjointness is only
    ever concluded for equal bases — the same conservative rule the
    redundant-load-removal client applies at the operand level.
    """
    if is_const(addr):
        return None, addr[1]
    if addr[0] == "add" and is_const(addr[2]):
        return addr[1], addr[2][1]
    return addr, 0


def may_alias(addr_a, size_a, addr_b, size_b):
    base_a, off_a = _decompose(addr_a)
    base_b, off_b = _decompose(addr_b)
    if base_a != base_b:
        return True
    # Same symbolic base: disjoint iff the byte intervals are, with no
    # wrap-around in either interval.
    if off_a + size_a > 0x100000000 or off_b + size_b > 0x100000000:
        return True
    return off_a < off_b + size_b and off_b < off_a + size_a


class SymState:
    """One side's symbolic machine state.

    ``regs`` maps register index to expression, ``flags`` maps flag name
    to expression, ``stores`` is the append-only log of
    ``(addr, size, value)``.
    """

    __slots__ = ("regs", "flags", "stores")

    def __init__(self):
        self.regs = {r: ("init", REG_NAMES[Reg(r)]) for r in range(8)}
        self.flags = {name: ("initf", name) for name in FLAG_ORDER}
        self.stores = []

    # ------------------------------------------------------------- memory

    def store(self, addr, size, value):
        self.stores.append((addr, size, value))

    def load(self, addr, size):
        """Read memory: forward the latest exactly-matching store, else a
        versioned load expression (version = one past the index of the
        last may-aliasing store)."""
        for i in range(len(self.stores) - 1, -1, -1):
            s_addr, s_size, s_value = self.stores[i]
            if s_addr == addr and s_size == size:
                return s_value
            if may_alias(addr, size, s_addr, s_size):
                return ("load", addr, size, i + 1)
        return ("load", addr, size, 0)

    # ----------------------------------------------------------- operands

    def effective_address(self, op):
        expr = None
        if op.base is not None:
            expr = self.regs[op.base]
        if op.index is not None:
            term = imul(self.regs[op.index], const(op.scale))
            expr = term if expr is None else add(expr, term)
        if expr is None:
            return const(op.disp)
        return add(expr, const(op.disp))

    def read_operand(self, op):
        if isinstance(op, RegOperand):
            return self.regs[op.reg]
        if isinstance(op, ImmOperand):
            return const(op.value)
        if isinstance(op, MemOperand):
            return self.load(self.effective_address(op), op.size)
        raise SymexecError("cannot read operand %r" % (op,))

    def write_operand(self, op, value):
        if isinstance(op, RegOperand):
            self.regs[op.reg] = value
            return
        if isinstance(op, MemOperand):
            if op.size == 4:
                self.store(self.effective_address(op), 4, value)
            elif op.size == 1:
                self.store(self.effective_address(op), 1, band(value, const(0xFF)))
            else:
                raise SymexecError("2-byte stores are not part of RIO-32")
            return
        raise SymexecError("cannot write operand %r" % (op,))

    # -------------------------------------------------------- stack / CTI

    def push(self, value):
        sp = add(self.regs[Reg.ESP], const(-4))
        self.regs[Reg.ESP] = sp
        self.store(sp, 4, value)

    def pop_value(self):
        sp = self.regs[Reg.ESP]
        value = self.load(sp, 4)
        self.regs[Reg.ESP] = add(sp, const(4))
        return value

    def pop_signal_frame(self):
        """The ``iret`` semantics of :func:`machine.system.pop_signal_frame`:
        pop the interrupted pc, restore the seven frame registers, then
        eflags (each flag becomes a bit of the restored word)."""
        target = self.pop_value()
        for reg in (0, 1, 2, 3, 5, 6, 7):  # eax,ecx,edx,ebx,ebp,esi,edi
            self.regs[reg] = self.pop_value()
        flags_word = self.pop_value()
        for name in FLAG_ORDER:
            self.flags[name] = ("flagbit", flags_word, name)
        return target

    # ---------------------------------------------------------- snapshots

    def snapshot(self):
        """A comparable picture of the full state at an observable."""
        return {
            "regs": dict(self.regs),
            "flags": dict(self.flags),
            "stores": len(self.stores),
        }


# ----------------------------------------------------------- instruction


def step(state, opcode, ops):
    """Symbolically execute one non-CTI instruction (the counterpart of
    :func:`repro.machine.exec_ops.execute_noncti`).

    ``SYSCALL`` and ``HALT`` are *not* stepped here — they are
    observables that :mod:`repro.analysis.equiv` snapshots; neither
    changes registers or flags.
    """
    flags = state.flags
    if opcode == Opcode.MOV or opcode == Opcode.MOVZX:
        state.write_operand(ops[0], state.read_operand(ops[1]))
    elif opcode == Opcode.ADD:
        a = state.read_operand(ops[0])
        b = state.read_operand(ops[1])
        state.write_operand(ops[0], flags_add(flags, a, b))
    elif opcode == Opcode.SUB:
        a = state.read_operand(ops[0])
        b = state.read_operand(ops[1])
        state.write_operand(ops[0], flags_sub(flags, a, b))
    elif opcode == Opcode.CMP:
        flags_sub(flags, state.read_operand(ops[0]), state.read_operand(ops[1]))
    elif opcode == Opcode.INC:
        state.write_operand(ops[0], flags_inc(flags, state.read_operand(ops[0])))
    elif opcode == Opcode.DEC:
        state.write_operand(ops[0], flags_dec(flags, state.read_operand(ops[0])))
    elif opcode == Opcode.LEA:
        state.regs[ops[0].reg] = state.effective_address(ops[1])
    elif opcode == Opcode.MOVSX:
        state.write_operand(ops[0], sx(state.read_operand(ops[1]), ops[1].size))
    elif opcode == Opcode.MOVB_STORE:
        state.write_operand(ops[0], band(state.read_operand(ops[1]), const(0xFF)))
    elif opcode == Opcode.AND:
        r = band(state.read_operand(ops[0]), state.read_operand(ops[1]))
        state.write_operand(ops[0], flags_logic(flags, r))
    elif opcode == Opcode.OR:
        r = bor(state.read_operand(ops[0]), state.read_operand(ops[1]))
        state.write_operand(ops[0], flags_logic(flags, r))
    elif opcode == Opcode.XOR:
        r = bxor(state.read_operand(ops[0]), state.read_operand(ops[1]))
        state.write_operand(ops[0], flags_logic(flags, r))
    elif opcode == Opcode.TEST:
        flags_logic(
            flags, band(state.read_operand(ops[0]), state.read_operand(ops[1]))
        )
    elif opcode == Opcode.NOT:
        state.write_operand(ops[0], bnot(state.read_operand(ops[0])))
    elif opcode == Opcode.NEG:
        state.write_operand(ops[0], flags_neg(flags, state.read_operand(ops[0])))
    elif opcode in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
        kind = {Opcode.SHL: "shl", Opcode.SHR: "shr", Opcode.SAR: "sar"}[opcode]
        a = state.read_operand(ops[0])
        n = band(state.read_operand(ops[1]), const(31))
        state.write_operand(ops[0], flags_shift(flags, kind, a, n))
    elif opcode == Opcode.IMUL:
        a = state.read_operand(ops[0])
        b = state.read_operand(ops[1])
        state.write_operand(ops[0], flags_imul(flags, a, b))
    elif opcode == Opcode.DIV:
        divisor = state.read_operand(ops[0])
        dividend = state.regs[Reg.EAX]
        q = udiv_q(dividend, divisor)
        state.regs[Reg.EAX] = q
        state.regs[Reg.EDX] = udiv_r(dividend, divisor)
        flags_logic(flags, q)
    elif opcode == Opcode.PUSH:
        state.push(state.read_operand(ops[0]))
    elif opcode == Opcode.POP:
        value = state.load(state.regs[Reg.ESP], 4)
        state.regs[Reg.ESP] = add(state.regs[Reg.ESP], const(4))
        state.write_operand(ops[0], value)
    elif opcode == Opcode.XCHG:
        a = state.read_operand(ops[0])
        b = state.read_operand(ops[1])
        state.write_operand(ops[0], b)
        state.write_operand(ops[1], a)
    elif opcode == Opcode.FLD or opcode == Opcode.FST:
        state.write_operand(ops[0], state.read_operand(ops[1]))
    elif opcode == Opcode.FADD:
        state.write_operand(
            ops[0], add(state.read_operand(ops[0]), state.read_operand(ops[1]))
        )
    elif opcode == Opcode.FSUB:
        state.write_operand(
            ops[0], sub(state.read_operand(ops[0]), state.read_operand(ops[1]))
        )
    elif opcode == Opcode.FMUL:
        state.write_operand(
            ops[0], imul(state.read_operand(ops[0]), state.read_operand(ops[1]))
        )
    elif opcode == Opcode.FDIV:
        state.write_operand(
            ops[0], fdiv(state.read_operand(ops[0]), state.read_operand(ops[1]))
        )
    elif opcode == Opcode.NOP or opcode == Opcode.LABEL:
        pass
    else:
        raise SymexecError("cannot symbolically execute %r" % (opcode,))


def render(expr, limit=96):
    """Compact, truncated rendering of an expression for diagnostics."""
    text = _render(expr)
    if len(text) > limit:
        text = text[: limit - 3] + "..."
    return text


def _render(expr):
    op = expr[0]
    if op == "const":
        return "0x%x" % expr[1]
    if op == "init":
        return expr[1]
    if op == "initf":
        return expr[1] + "0"
    if op == "load":
        return "mem%d[%s:%d]" % (expr[3], _render(expr[1]), expr[2])
    parts = [_render(e) if isinstance(e, tuple) else str(e) for e in expr[1:]]
    return "%s(%s)" % (op, ", ".join(parts))
