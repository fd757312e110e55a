"""Execution semantics for non-control-transfer RIO-32 instructions.

Control transfers are *not* handled here: the execution driver (the
native interpreter, or the runtime's fragment executor) owns them,
because resolving a branch needs context the instruction alone lacks
(fall-through address, return-address push, link state).  Everything
else — data movement, arithmetic, stack ops, syscalls — is executed by
:func:`execute_noncti` against a :class:`~repro.machine.cpu.CPU`,
:class:`~repro.machine.memory.Memory` and
:class:`~repro.machine.system.System`.
"""

from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.errors import MachineFault
from repro.machine.memory import U8, U16, U32, WATCH_SHIFT

_MASK32 = 0xFFFFFFFF
_SIGN = 0x80000000


def effective_address(cpu, op):
    """Compute the 32-bit effective address of a memory operand."""
    addr = op.disp
    if op.base is not None:
        addr += cpu.regs[op.base]
    if op.index is not None:
        addr += cpu.regs[op.index] * op.scale
    return addr & _MASK32


def read_operand(cpu, mem, op):
    """Read an operand's value (zero-extended for sub-word memory)."""
    if isinstance(op, RegOperand):
        return cpu.regs[op.reg]
    if isinstance(op, ImmOperand):
        return op.value & _MASK32
    if isinstance(op, MemOperand):
        addr = effective_address(cpu, op)
        if op.size == 4:
            return mem.read_u32(addr)
        if op.size == 2:
            return mem.read_u16(addr)
        return mem.read_u8(addr)
    raise MachineFault("cannot read operand %r" % (op,))


def write_operand(cpu, mem, op, value):
    if isinstance(op, RegOperand):
        cpu.regs[op.reg] = value & _MASK32
        return
    if isinstance(op, MemOperand):
        addr = effective_address(cpu, op)
        if op.size == 4:
            mem.write_u32(addr, value)
        elif op.size == 1:
            mem.write_u8(addr, value)
        else:
            raise MachineFault("2-byte stores are not part of RIO-32")
        return
    raise MachineFault("cannot write operand %r" % (op,))


def _sign_extend(value, size):
    bits = size * 8
    sign_bit = 1 << (bits - 1)
    return (value ^ sign_bit) - sign_bit & _MASK32


def _signed(value):
    return value - 0x100000000 if value & _SIGN else value


def execute_noncti(cpu, mem, system, opcode, ops):
    """Execute one non-CTI instruction given its explicit operands."""
    if opcode == Opcode.MOV:
        write_operand(cpu, mem, ops[0], read_operand(cpu, mem, ops[1]))
    elif opcode == Opcode.ADD:
        a = read_operand(cpu, mem, ops[0])
        b = read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], cpu.flags_add(a, b))
    elif opcode == Opcode.SUB:
        a = read_operand(cpu, mem, ops[0])
        b = read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], cpu.flags_sub(a, b))
    elif opcode == Opcode.CMP:
        a = read_operand(cpu, mem, ops[0])
        b = read_operand(cpu, mem, ops[1])
        cpu.flags_sub(a, b)
    elif opcode == Opcode.INC:
        write_operand(
            cpu, mem, ops[0], cpu.flags_inc(read_operand(cpu, mem, ops[0]))
        )
    elif opcode == Opcode.DEC:
        write_operand(
            cpu, mem, ops[0], cpu.flags_dec(read_operand(cpu, mem, ops[0]))
        )
    elif opcode == Opcode.LEA:
        cpu.regs[ops[0].reg] = effective_address(cpu, ops[1])
    elif opcode == Opcode.MOVZX:
        write_operand(cpu, mem, ops[0], read_operand(cpu, mem, ops[1]))
    elif opcode == Opcode.MOVSX:
        raw = read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], _sign_extend(raw, ops[1].size))
    elif opcode == Opcode.MOVB_STORE:
        write_operand(cpu, mem, ops[0], read_operand(cpu, mem, ops[1]) & 0xFF)
    elif opcode == Opcode.AND:
        res = read_operand(cpu, mem, ops[0]) & read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], cpu.flags_logic(res))
    elif opcode == Opcode.OR:
        res = read_operand(cpu, mem, ops[0]) | read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], cpu.flags_logic(res))
    elif opcode == Opcode.XOR:
        res = read_operand(cpu, mem, ops[0]) ^ read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], cpu.flags_logic(res))
    elif opcode == Opcode.TEST:
        cpu.flags_logic(
            read_operand(cpu, mem, ops[0]) & read_operand(cpu, mem, ops[1])
        )
    elif opcode == Opcode.NOT:
        write_operand(
            cpu, mem, ops[0], ~read_operand(cpu, mem, ops[0]) & _MASK32
        )
    elif opcode == Opcode.NEG:
        write_operand(
            cpu, mem, ops[0], cpu.flags_neg(read_operand(cpu, mem, ops[0]))
        )
    elif opcode == Opcode.SHL:
        a = read_operand(cpu, mem, ops[0])
        n = read_operand(cpu, mem, ops[1]) & 31
        write_operand(cpu, mem, ops[0], cpu.flags_shl(a, n))
    elif opcode == Opcode.SHR:
        a = read_operand(cpu, mem, ops[0])
        n = read_operand(cpu, mem, ops[1]) & 31
        write_operand(cpu, mem, ops[0], cpu.flags_shr(a, n))
    elif opcode == Opcode.SAR:
        a = read_operand(cpu, mem, ops[0])
        n = read_operand(cpu, mem, ops[1]) & 31
        write_operand(cpu, mem, ops[0], cpu.flags_shr(a, n, arithmetic=True))
    elif opcode == Opcode.IMUL:
        a = read_operand(cpu, mem, ops[0])
        b = read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], cpu.flags_imul(a, b))
    elif opcode == Opcode.DIV:
        divisor = read_operand(cpu, mem, ops[0])
        if divisor == 0:
            raise MachineFault("divide by zero")
        dividend = cpu.regs[0]  # eax (RIO-32 simplification: not edx:eax)
        q, r = divmod(dividend, divisor)
        cpu.regs[0] = q & _MASK32
        cpu.regs[2] = r & _MASK32
        cpu.flags_logic(q & _MASK32)  # deterministic defined flags
    elif opcode == Opcode.PUSH:
        value = read_operand(cpu, mem, ops[0])
        cpu.regs[4] = (cpu.regs[4] - 4) & _MASK32
        mem.write_u32(cpu.regs[4], value)
    elif opcode == Opcode.POP:
        value = mem.read_u32(cpu.regs[4])
        cpu.regs[4] = (cpu.regs[4] + 4) & _MASK32
        write_operand(cpu, mem, ops[0], value)
    elif opcode == Opcode.XCHG:
        a = read_operand(cpu, mem, ops[0])
        b = read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], b)
        write_operand(cpu, mem, ops[1], a)
    elif opcode == Opcode.FLD or opcode == Opcode.FST:
        write_operand(cpu, mem, ops[0], read_operand(cpu, mem, ops[1]))
    elif opcode == Opcode.FADD:
        a = read_operand(cpu, mem, ops[0])
        b = read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], (a + b) & _MASK32)
    elif opcode == Opcode.FSUB:
        a = read_operand(cpu, mem, ops[0])
        b = read_operand(cpu, mem, ops[1])
        write_operand(cpu, mem, ops[0], (a - b) & _MASK32)
    elif opcode == Opcode.FMUL:
        a = _signed(read_operand(cpu, mem, ops[0]))
        b = _signed(read_operand(cpu, mem, ops[1]))
        write_operand(cpu, mem, ops[0], (a * b) & _MASK32)
    elif opcode == Opcode.FDIV:
        b = _signed(read_operand(cpu, mem, ops[1]))
        if b == 0:
            raise MachineFault("fdiv by zero")
        a = _signed(read_operand(cpu, mem, ops[0]))
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        write_operand(cpu, mem, ops[0], q & _MASK32)
    elif opcode == Opcode.NOP or opcode == Opcode.LABEL:
        pass
    elif opcode == Opcode.SYSCALL:
        system.syscall(cpu)
    else:
        raise MachineFault("execute_noncti cannot execute %r" % (opcode,))


# --------------------------------------------------------------------------
# Closure compilation: the translate-once counterpart of execute_noncti.
#
# ``compile_noncti(opcode, ops, mem, system)`` specializes one decoded
# instruction into a Python closure ``fn(cpu)`` with its operand
# accessors (register index, immediate value, effective-address thunk)
# and flag helpers bound in.  Both executors call these from their hot
# loops, so per-dynamic-instruction work drops from "tuple unpack +
# opcode dispatch + isinstance chains" to a single call.  Semantics are
# bit-identical to execute_noncti by construction; any operand form the
# compiler does not recognize falls back to a closure that simply calls
# execute_noncti.
# --------------------------------------------------------------------------


def compile_ea(op):
    """Compile a MemOperand's effective-address computation: fn(cpu)->addr."""
    base = op.base
    index = op.index
    scale = op.scale
    disp = op.disp
    if base is None and index is None:
        addr = disp & _MASK32
        return lambda cpu: addr
    if index is None:
        if disp == 0:
            return lambda cpu: cpu.regs[base] & _MASK32
        return lambda cpu: (disp + cpu.regs[base]) & _MASK32
    if base is None:
        return lambda cpu: (disp + cpu.regs[index] * scale) & _MASK32
    return lambda cpu: (
        disp + cpu.regs[base] + cpu.regs[index] * scale
    ) & _MASK32


def _compile_load(op, mem):
    """Compile a memory operand load: fn(cpu) -> zero-extended value.

    The effective address is computed once.  In range, the backing
    store is read directly; otherwise the ``Memory`` method raises the
    exact fault (the inline-access contract of repro.machine.memory)."""
    ea = compile_ea(op)
    buf = mem.view()
    if op.size == 4:
        unpack, slow, limit = U32.unpack_from, mem.read_u32, mem.size - 4
    elif op.size == 2:
        unpack, slow, limit = U16.unpack_from, mem.read_u16, mem.size - 2
    else:
        slow, limit = mem.read_u8, mem.size - 1

        def load_u8(cpu):
            addr = ea(cpu)
            return buf[addr] if addr <= limit else slow(addr)

        return load_u8

    def load(cpu):
        addr = ea(cpu)
        return unpack(buf, addr)[0] if addr <= limit else slow(addr)

    return load


def _compile_store(op, mem):
    """Compile a memory operand store: fn(cpu, value), or None for a
    2-byte store (not part of RIO-32).

    Packs into the backing store only when a store-time test finds the
    address in range, write protection off and the touched watch lines
    unwatched — protection and watches can be armed mid-run — and
    otherwise calls the ``Memory`` method (checks, watchers, faults)."""
    if op.size == 4:
        pack, mask, slow = U32.pack_into, _MASK32, mem.write_u32
    elif op.size == 1:
        pack, mask, slow = U8.pack_into, 0xFF, mem.write_u8
    else:
        return None
    ea = compile_ea(op)
    buf = mem.view()
    limit = mem.size - op.size
    last = op.size - 1

    def store(cpu, value):
        addr = ea(cpu)
        lines = mem._watch_lines
        if addr <= limit and not mem._protect and (
            lines is None
            or not (
                lines[addr >> WATCH_SHIFT] or lines[(addr + last) >> WATCH_SHIFT]
            )
        ):
            pack(buf, addr, value & mask)
        else:
            slow(addr, value)

    return store


def compile_read(op, mem):
    """Compile an operand read: fn(cpu) -> zero-extended value."""
    if isinstance(op, RegOperand):
        reg = op.reg
        return lambda cpu: cpu.regs[reg]
    if isinstance(op, ImmOperand):
        value = op.value & _MASK32
        return lambda cpu: value
    if isinstance(op, MemOperand):
        return _compile_load(op, mem)
    return None


def compile_write(op, mem):
    """Compile an operand write: fn(cpu, value)."""
    if isinstance(op, RegOperand):
        reg = op.reg

        def write_reg(cpu, value):
            cpu.regs[reg] = value & _MASK32

        return write_reg
    if isinstance(op, MemOperand):
        return _compile_store(op, mem)
    return None


def _comp_mov(ops, mem, system):
    src = ops[1]
    dst = ops[0]
    if isinstance(dst, RegOperand):
        d = dst.reg
        if isinstance(src, RegOperand):
            s = src.reg

            def mov_rr(cpu):
                regs = cpu.regs
                regs[d] = regs[s]

            return mov_rr
        if isinstance(src, ImmOperand):
            v = src.value & _MASK32

            def mov_ri(cpu):
                cpu.regs[d] = v

            return mov_ri
        if isinstance(src, MemOperand) and src.size == 4:
            # Load: collapse the read/write thunk composition.
            load = _compile_load(src, mem)

            def mov_rm(cpu):
                cpu.regs[d] = load(cpu)

            return mov_rm
    elif isinstance(dst, MemOperand) and dst.size == 4:
        store = _compile_store(dst, mem)
        if isinstance(src, RegOperand):
            s = src.reg

            def mov_mr(cpu):
                store(cpu, cpu.regs[s])

            return mov_mr
        if isinstance(src, ImmOperand):
            v = src.value & _MASK32

            def mov_mi(cpu):
                store(cpu, v)

            return mov_mi
    r = compile_read(src, mem)
    w = compile_write(dst, mem)
    if r is None or w is None:
        return None
    return lambda cpu: w(cpu, r(cpu))


def _comp_movb_store(ops, mem, system):
    r = compile_read(ops[1], mem)
    w = compile_write(ops[0], mem)
    if r is None or w is None:
        return None
    return lambda cpu: w(cpu, r(cpu) & 0xFF)


def _comp_movsx(ops, mem, system):
    src = ops[1]
    if not isinstance(src, MemOperand):
        return None
    r = compile_read(src, mem)
    w = compile_write(ops[0], mem)
    if r is None or w is None:
        return None
    sign_bit = 1 << (src.size * 8 - 1)
    return lambda cpu: w(cpu, ((r(cpu) ^ sign_bit) - sign_bit) & _MASK32)


def _comp_add(ops, mem, system):
    dst = ops[0]
    r1 = compile_read(ops[1], mem)
    if r1 is None:
        return None
    if isinstance(dst, RegOperand):
        d = dst.reg

        def add_reg(cpu):
            regs = cpu.regs
            regs[d] = cpu.flags_add(regs[d], r1(cpu))

        return add_reg
    r0 = compile_read(dst, mem)
    w = compile_write(dst, mem)
    if r0 is None or w is None:
        return None
    return lambda cpu: w(cpu, cpu.flags_add(r0(cpu), r1(cpu)))


def _comp_sub(ops, mem, system):
    dst = ops[0]
    r1 = compile_read(ops[1], mem)
    if r1 is None:
        return None
    if isinstance(dst, RegOperand):
        d = dst.reg

        def sub_reg(cpu):
            regs = cpu.regs
            regs[d] = cpu.flags_sub(regs[d], r1(cpu))

        return sub_reg
    r0 = compile_read(dst, mem)
    w = compile_write(dst, mem)
    if r0 is None or w is None:
        return None
    return lambda cpu: w(cpu, cpu.flags_sub(r0(cpu), r1(cpu)))


def _comp_cmp(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    if r0 is None or r1 is None:
        return None
    return lambda cpu: cpu.flags_sub(r0(cpu), r1(cpu))


def _comp_test(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    if r0 is None or r1 is None:
        return None
    return lambda cpu: cpu.flags_logic(r0(cpu) & r1(cpu))


def _comp_inc(ops, mem, system):
    dst = ops[0]
    if isinstance(dst, RegOperand):
        d = dst.reg

        def inc_reg(cpu):
            regs = cpu.regs
            regs[d] = cpu.flags_inc(regs[d])

        return inc_reg
    r = compile_read(dst, mem)
    w = compile_write(dst, mem)
    if r is None or w is None:
        return None
    return lambda cpu: w(cpu, cpu.flags_inc(r(cpu)))


def _comp_dec(ops, mem, system):
    dst = ops[0]
    if isinstance(dst, RegOperand):
        d = dst.reg

        def dec_reg(cpu):
            regs = cpu.regs
            regs[d] = cpu.flags_dec(regs[d])

        return dec_reg
    r = compile_read(dst, mem)
    w = compile_write(dst, mem)
    if r is None or w is None:
        return None
    return lambda cpu: w(cpu, cpu.flags_dec(r(cpu)))


def _comp_lea(ops, mem, system):
    if not isinstance(ops[0], RegOperand) or not isinstance(ops[1], MemOperand):
        return None
    d = ops[0].reg
    ea = compile_ea(ops[1])

    def lea(cpu):
        cpu.regs[d] = ea(cpu)

    return lea


def _make_logic(pyop):
    def comp(ops, mem, system):
        dst = ops[0]
        r1 = compile_read(ops[1], mem)
        if r1 is None:
            return None
        if isinstance(dst, RegOperand):
            d = dst.reg
            if pyop == "and":

                def logic_reg(cpu):
                    regs = cpu.regs
                    regs[d] = cpu.flags_logic(regs[d] & r1(cpu))

            elif pyop == "or":

                def logic_reg(cpu):
                    regs = cpu.regs
                    regs[d] = cpu.flags_logic(regs[d] | r1(cpu))

            else:

                def logic_reg(cpu):
                    regs = cpu.regs
                    regs[d] = cpu.flags_logic(regs[d] ^ r1(cpu))

            return logic_reg
        r0 = compile_read(dst, mem)
        w = compile_write(dst, mem)
        if r0 is None or w is None:
            return None
        if pyop == "and":
            return lambda cpu: w(cpu, cpu.flags_logic(r0(cpu) & r1(cpu)))
        if pyop == "or":
            return lambda cpu: w(cpu, cpu.flags_logic(r0(cpu) | r1(cpu)))
        return lambda cpu: w(cpu, cpu.flags_logic(r0(cpu) ^ r1(cpu)))

    return comp


def _comp_not(ops, mem, system):
    r = compile_read(ops[0], mem)
    w = compile_write(ops[0], mem)
    if r is None or w is None:
        return None
    return lambda cpu: w(cpu, ~r(cpu) & _MASK32)


def _comp_neg(ops, mem, system):
    r = compile_read(ops[0], mem)
    w = compile_write(ops[0], mem)
    if r is None or w is None:
        return None
    return lambda cpu: w(cpu, cpu.flags_neg(r(cpu)))


def _make_shift(kind):
    def comp(ops, mem, system):
        r0 = compile_read(ops[0], mem)
        r1 = compile_read(ops[1], mem)
        w = compile_write(ops[0], mem)
        if r0 is None or r1 is None or w is None:
            return None
        if kind == "shl":
            return lambda cpu: w(cpu, cpu.flags_shl(r0(cpu), r1(cpu) & 31))
        if kind == "shr":
            return lambda cpu: w(cpu, cpu.flags_shr(r0(cpu), r1(cpu) & 31))
        return lambda cpu: w(
            cpu, cpu.flags_shr(r0(cpu), r1(cpu) & 31, arithmetic=True)
        )

    return comp


def _comp_imul(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    w = compile_write(ops[0], mem)
    if r0 is None or r1 is None or w is None:
        return None
    return lambda cpu: w(cpu, cpu.flags_imul(r0(cpu), r1(cpu)))


def _comp_div(ops, mem, system):
    r = compile_read(ops[0], mem)
    if r is None:
        return None

    def div(cpu):
        divisor = r(cpu)
        if divisor == 0:
            raise MachineFault("divide by zero")
        regs = cpu.regs
        q, rem = divmod(regs[0], divisor)
        regs[0] = q & _MASK32
        regs[2] = rem & _MASK32
        cpu.flags_logic(q & _MASK32)

    return div


def _comp_push(ops, mem, system):
    r = compile_read(ops[0], mem)
    if r is None:
        return None
    write_u32 = mem.write_u32

    def push(cpu):
        value = r(cpu)  # read before moving esp (push %esp semantics)
        regs = cpu.regs
        sp = (regs[4] - 4) & _MASK32
        regs[4] = sp
        write_u32(sp, value)

    return push


def _comp_pop(ops, mem, system):
    w = compile_write(ops[0], mem)
    if w is None:
        return None
    read_u32 = mem.read_u32

    def pop(cpu):
        regs = cpu.regs
        value = read_u32(regs[4])
        regs[4] = (regs[4] + 4) & _MASK32
        w(cpu, value)

    return pop


def _comp_xchg(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    w0 = compile_write(ops[0], mem)
    w1 = compile_write(ops[1], mem)
    if r0 is None or r1 is None or w0 is None or w1 is None:
        return None

    def xchg(cpu):
        a = r0(cpu)
        b = r1(cpu)
        w0(cpu, b)
        w1(cpu, a)

    return xchg


def _comp_fadd(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    w = compile_write(ops[0], mem)
    if r0 is None or r1 is None or w is None:
        return None
    return lambda cpu: w(cpu, (r0(cpu) + r1(cpu)) & _MASK32)


def _comp_fsub(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    w = compile_write(ops[0], mem)
    if r0 is None or r1 is None or w is None:
        return None
    return lambda cpu: w(cpu, (r0(cpu) - r1(cpu)) & _MASK32)


def _comp_fmul(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    w = compile_write(ops[0], mem)
    if r0 is None or r1 is None or w is None:
        return None

    def fmul(cpu):
        a = _signed(r0(cpu))
        b = _signed(r1(cpu))
        w(cpu, (a * b) & _MASK32)

    return fmul


def _comp_fdiv(ops, mem, system):
    r0 = compile_read(ops[0], mem)
    r1 = compile_read(ops[1], mem)
    w = compile_write(ops[0], mem)
    if r0 is None or r1 is None or w is None:
        return None

    def fdiv(cpu):
        b = _signed(r1(cpu))
        if b == 0:
            raise MachineFault("fdiv by zero")
        a = _signed(r0(cpu))
        q = abs(a) // abs(b)
        if (a < 0) != (b < 0):
            q = -q
        w(cpu, q & _MASK32)

    return fdiv


def _comp_nop(ops, mem, system):
    return lambda cpu: None


def _comp_syscall(ops, mem, system):
    syscall = system.syscall
    return lambda cpu: syscall(cpu)


_NONCTI_COMPILERS = {
    Opcode.MOV: _comp_mov,
    Opcode.MOVZX: _comp_mov,
    Opcode.MOVSX: _comp_movsx,
    Opcode.MOVB_STORE: _comp_movb_store,
    Opcode.ADD: _comp_add,
    Opcode.SUB: _comp_sub,
    Opcode.CMP: _comp_cmp,
    Opcode.TEST: _comp_test,
    Opcode.INC: _comp_inc,
    Opcode.DEC: _comp_dec,
    Opcode.LEA: _comp_lea,
    Opcode.AND: _make_logic("and"),
    Opcode.OR: _make_logic("or"),
    Opcode.XOR: _make_logic("xor"),
    Opcode.NOT: _comp_not,
    Opcode.NEG: _comp_neg,
    Opcode.SHL: _make_shift("shl"),
    Opcode.SHR: _make_shift("shr"),
    Opcode.SAR: _make_shift("sar"),
    Opcode.IMUL: _comp_imul,
    Opcode.DIV: _comp_div,
    Opcode.PUSH: _comp_push,
    Opcode.POP: _comp_pop,
    Opcode.XCHG: _comp_xchg,
    Opcode.FLD: _comp_mov,
    Opcode.FST: _comp_mov,
    Opcode.FADD: _comp_fadd,
    Opcode.FSUB: _comp_fsub,
    Opcode.FMUL: _comp_fmul,
    Opcode.FDIV: _comp_fdiv,
    Opcode.NOP: _comp_nop,
    Opcode.LABEL: _comp_nop,
    Opcode.SYSCALL: _comp_syscall,
}


def compile_noncti(opcode, ops, mem, system):
    """Compile one non-CTI instruction into a closure ``fn(cpu)``.

    Always returns a callable: unrecognized opcode/operand combinations
    get a fallback closure delegating to :func:`execute_noncti`, so
    behavior (including the exact faults raised) never diverges from
    the interpretive path.
    """
    compiler = _NONCTI_COMPILERS.get(opcode)
    fn = None
    if compiler is not None:
        try:
            fn = compiler(ops, mem, system)
        except Exception:
            fn = None
    if fn is not None:
        return fn
    return lambda cpu: execute_noncti(cpu, mem, system, opcode, ops)
