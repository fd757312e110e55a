"""Closure compilation of fragment bodies: the encode-into-cache step.

:func:`compile_fragment` translates a fragment body's lowered ops
(``repro.core.emit``) into a flat tuple of *step closures*, one per op
— op *i* is step *i* — plus the fell-through sentinel: the moral
equivalent of DynamoRIO's encoder emitting machine code into the code
cache, once per body.  Each step binds everything static about its op
at compile time: operand accessors, pre-summed cycle costs, the exit's
index, compiled branch predicates, and the runtime's
memory/system/counter/stats.  The executor's hot loop then degenerates
to ``i = steps[i](executor, cpu)``.

A step returns the index of the next step to run, or ``None`` when the
fragment is done — in which case the step has already resolved the exit:
``executor._next_fragment`` holds the linked/IBL-hit successor, or it is
``None`` and the step recorded ``(reason, next_tag, stub)`` in
``executor._exit`` (:meth:`~repro.core.execute.Executor._direct_exit`,
:meth:`~repro.core.execute.Executor._indirect_exit`), which
:meth:`~repro.core.execute.Executor.run` returns to the dispatcher.

Lowering already fused consecutive straight-line instructions into one
``OP_EXEC`` run op, broken only at a local-branch target or a clean
call, so ``OP_LOCAL_BR`` step indices stay addressable.  Every run, a
one-instruction run included, compiles to a generated segment
(:func:`compile_segment`): straight-line Python source with guest
memory accessed inline, charging cycles and instructions exactly as one
step per instruction would, including on a mid-run fault or program
exit.  Segment-local dataflow shapes that source: a flag writer whose
flags the run overwrites before anything can read them skips them, and
a 4-byte load of a word the run already holds reads the local holding
it.  Where the state can be observed mid-run — a fault or program exit
unwinding the segment — the handler rebuilds the skipped flags from the
writers' bound inputs, so the deoptimized state is exact.

The table is kept on the body (``body.steps``), so every fragment over
it — retranslation-memo rebuilds, one block in two threads' private
caches — runs one compile.  Only the CPU is passed per call, so no
per-thread state is bound at compile time, and no link state either:
an exit step names its exit by index, and the executor resolves it
against the running fragment's own :class:`~repro.core.fragments.LinkStub`
(``executor.fragment.exits[index]``) and reads its ``linked_to`` at exit
time, preserving the link/unlink and fragment-replacement semantics.

The native interpreter is the reference: every run must end with
native's output, exit code, registers and eflags (the differential
oracle, :mod:`repro.tools.oracle`), and the instruction differential
(``tests/machine/test_semantics_differential.py``) holds every template
to ``execute_noncti``.
"""

import sys

from repro.core.emit import (
    CLEAN_CALL_COST,
    OP_CALL_EXIT,
    OP_CALL_INLINE,
    OP_CLEAN_CALL,
    OP_COND_EXIT,
    OP_EXEC,
    OP_IND_CHECK,
    OP_IND_EXIT,
    OP_JMP_EXIT,
    OP_LOCAL_BR,
)
from repro.core.translate import make_poll_step
from repro.isa.eflags import (
    AF,
    CF,
    EFLAGS_WRITE_ALL,
    OF,
    PF,
    SF,
    ZF,
    writes_to_flags,
)
from repro.isa.opcodes import OP_INFO, SHIFT_OPCODES, Opcode, eflags_killed
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.cpu import _PARITY, CPU, compile_condition
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti, compile_read, read_operand
from repro.machine.memory import U8, U16, U32, WATCH_SHIFT
from repro.machine.system import pop_signal_frame
from repro.observe.events import (
    EV_CLEAN_CALL,
    EV_DISPATCH_CHECK_HIT,
    EV_INLINE_CHECK_HIT,
)

_MASK32 = 0xFFFFFFFF
_M = "4294967295"  # _MASK32 as a source literal
_ALL_FLAGS = CF | PF | AF | ZF | SF | OF

# Inline eflags templates mirroring the CPU's flag methods statement
# for statement (repro.machine.cpu: flags_sub / flags_add / flags_inc /
# flags_dec / flags_logic), with the flag bits as literals
# (CF=1, PF=4, AF=16, ZF=64, SF=128, OF=2048) and the parity table
# bound as ``_parity``.  ``_CLEAR`` drops all six arithmetic flags
# before the new ones are OR-ed in.  Templates are formatted with the
# instruction's input locals: ``{a}``/``{b}`` for sub/add, ``{a}`` for
# inc/dec, and the result ``{a}`` for logic; sub/add/inc/dec leave the
# 32-bit result in ``_r``.
_CLEAR = "cpu.eflags = (cpu.eflags & ~%d)" % _ALL_FLAGS
_RESULT_FLAGS = (
    "(64 if {r} == 0 else 0) | (128 if {r} & 2147483648 else 0)"
    " | (4 if _parity[{r} & 255] else 0)"
)
_LOGIC_FLAGS = _CLEAR + " | " + _RESULT_FLAGS.format(r="{a}")
_SUB_FLAGS = (
    "_r = ({a} - {b}) & 4294967295; "
    + _CLEAR
    + " | (1 if {a} < {b} else 0)"
    " | (2048 if (({a} ^ {b}) & ({a} ^ _r)) & 2147483648 else 0)"
    " | (16 if ({a} ^ {b} ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)
_ADD_FLAGS = (
    "_full = {a} + {b}; _r = _full & 4294967295; "
    + _CLEAR
    + " | (1 if _full > 4294967295 else 0)"
    " | (2048 if (~({a} ^ {b}) & ({a} ^ _r)) & 2147483648 else 0)"
    " | (16 if ({a} ^ {b} ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)
_INC_FLAGS = (
    "_r = ({a} + 1) & 4294967295; "
    + _CLEAR
    + " | (cpu.eflags & 1)"
    " | (2048 if (~({a} ^ 1) & ({a} ^ _r)) & 2147483648 else 0)"
    " | (16 if ({a} ^ 1 ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)
_DEC_FLAGS = (
    "_r = ({a} - 1) & 4294967295; "
    + _CLEAR
    + " | (cpu.eflags & 1)"
    " | (2048 if (({a} ^ 1) & ({a} ^ _r)) & 2147483648 else 0)"
    " | (16 if ({a} ^ 1 ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)

# The templated flag writers.  Each binds its inputs to per-instruction
# locals, ``_a<k>`` and (two-input writers) ``_b<k>``: a logic op binds
# its result, a shift its count masked to 0..31.  The fault path
# recomputes a dead writer's flags from them with the CPU method.
_LOGIC_OPS = {
    Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^", Opcode.TEST: "&",
}
_FLAG_METHODS = {
    Opcode.ADD: CPU.flags_add,
    Opcode.SUB: CPU.flags_sub,
    Opcode.CMP: CPU.flags_sub,
    Opcode.INC: CPU.flags_inc,
    Opcode.DEC: CPU.flags_dec,
    Opcode.NEG: CPU.flags_neg,
    Opcode.AND: CPU.flags_logic,
    Opcode.OR: CPU.flags_logic,
    Opcode.XOR: CPU.flags_logic,
    Opcode.TEST: CPU.flags_logic,
    Opcode.SHL: CPU.flags_shl,
    Opcode.SHR: CPU.flags_shr,
    Opcode.SAR: lambda cpu, a, n: cpu.flags_shr(a, n, arithmetic=True),
    Opcode.IMUL: CPU.flags_imul,
}
_ONE_INPUT = frozenset(
    (Opcode.INC, Opcode.DEC, Opcode.NEG) + tuple(_LOGIC_OPS)
)
# A live writer's result through its CPU method (the method sets the
# flags); a dead writer's through the same arithmetic without flags.
_FLAG_CALLS = {
    Opcode.ADD: "cpu.flags_add({a}, {b})",
    Opcode.SUB: "cpu.flags_sub({a}, {b})",
    Opcode.INC: "cpu.flags_inc({a})",
    Opcode.DEC: "cpu.flags_dec({a})",
    Opcode.NEG: "cpu.flags_neg({a})",
    Opcode.SHL: "cpu.flags_shl({a}, {b})",
    Opcode.SHR: "cpu.flags_shr({a}, {b})",
    Opcode.SAR: "cpu.flags_shr({a}, {b}, arithmetic=True)",
    Opcode.IMUL: "cpu.flags_imul({a}, {b})",
}
_SIGNED = "({0} - 4294967296 if {0} & 2147483648 else {0})"
_FLAG_FREE = {
    Opcode.ADD: "({a} + {b}) & 4294967295",
    Opcode.SUB: "({a} - {b}) & 4294967295",
    Opcode.INC: "({a} + 1) & 4294967295",
    Opcode.DEC: "({a} - 1) & 4294967295",
    Opcode.NEG: "-{a} & 4294967295",
    Opcode.SHL: "({a} << {b}) & 4294967295",
    Opcode.SHR: "{a} >> {b}",
    Opcode.SAR: "(({a} ^ 2147483648) - 2147483648 >> {b}) & 4294967295",
    Opcode.IMUL: "(%s * %s) & 4294967295" % (
        _SIGNED.format("{a}"), _SIGNED.format("{b}"),
    ),
}

# Opcodes with an inline template (:func:`_inline_instr`); DIV, XCHG,
# FDIV and SYSCALL always run through their compiled closures.
_TEMPLATED = frozenset(_FLAG_METHODS) | frozenset((
    Opcode.NOP, Opcode.LABEL, Opcode.PUSH, Opcode.POP, Opcode.LEA,
    Opcode.MOV, Opcode.MOVZX, Opcode.FLD, Opcode.FST, Opcode.MOVB_STORE,
    Opcode.MOVSX, Opcode.NOT, Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
))
# Templated opcodes that write no explicit operand, and those whose
# first operand is written without being read.
_NO_DST = frozenset(
    (Opcode.NOP, Opcode.LABEL, Opcode.CMP, Opcode.TEST, Opcode.PUSH)
)
_WRITE_ONLY_DST = frozenset((
    Opcode.MOV, Opcode.MOVZX, Opcode.MOVSX, Opcode.FLD, Opcode.FST,
    Opcode.MOVB_STORE, Opcode.POP,
))

# Generated segments (:func:`_generate_segment`), keyed by the run's
# ``(opcode, ops, cost)`` tuples: structurally identical runs — unrolled
# loops, retranslated traces — are analysed, generated and compiled by
# CPython once per process.  A test that patches the generator (a
# template, a pass) must swap this cache out.
_SEGMENT_CODE_CACHE = {}


def _ea_expr(op):
    """Source expression for a MemOperand's effective address —
    mirrors ``exec_ops.compile_ea`` case for case."""
    base, index, scale, disp = op.base, op.index, op.scale, op.disp
    if base is None and index is None:
        return str(disp & _MASK32)
    if index is None:
        if disp == 0:
            return "(regs[%d] & %s)" % (base, _M)
        return "((%d + regs[%d]) & %s)" % (disp, base, _M)
    if base is None:
        return "((%d + regs[%d] * %d) & %s)" % (disp, index, scale, _M)
    return "((%d + regs[%d] + regs[%d] * %d) & %s)" % (
        disp, base, index, scale, _M,
    )


def _load_expr(size, addr):
    """Source expression loading ``size`` bytes at the 32-bit address
    expression ``addr``, evaluated once into ``_e``: unpacked from the
    backing store in range, else the ``Memory`` method raises the exact
    fault (the inline-access contract of repro.machine.memory)."""
    if size == 4:
        return "(_u32(_mb, _e)[0] if (_e := %s) <= _l4 else read_u32(_e))" % addr
    if size == 2:
        return "(_u16(_mb, _e)[0] if (_e := %s) <= _l2 else read_u16(_e))" % addr
    return "(_mb[_e] if (_e := %s) <= _l1 else read_u8(_e))" % addr


def _store_expr(size, addr, value="_t"):
    """Source expression storing the local ``value`` (4 or 1 bytes) at
    the 32-bit address expression ``addr``.  It packs inline only when a
    store-time test finds the address in range, ``_protect`` off and
    the touched watch lines unwatched; otherwise the ``Memory`` method
    runs the protection check, the watchers, or raises the fault."""
    if size == 4:
        pack, mask, limit, slow = "_p32", _M, "_l4", "write_u32"
        lines = "_w[_e >> %d] or _w[(_e + 3) >> %d]" % (WATCH_SHIFT, WATCH_SHIFT)
    else:
        pack, mask, limit, slow = "_p8", "255", "_l1", "write_u8"
        lines = "_w[_e >> %d]" % WATCH_SHIFT
    return (
        "%s(_mb, _e, %s & %s) if (_e := %s) <= %s and not _mem._protect"
        " and ((_w := _mem._watch_lines) is None or not (%s)) else %s(_e, %s)"
        % (pack, value, mask, addr, limit, lines, slow, value)
    )


def _read_expr(op):
    """Source expression for an operand read (zero-extended) —
    mirrors ``exec_ops.compile_read``."""
    if isinstance(op, RegOperand):
        return "regs[%d]" % op.reg
    if isinstance(op, ImmOperand):
        return str(op.value & _MASK32)
    return _load_expr(op.size if op.size in (2, 4) else 1, _ea_expr(op))


def _store_stmt(op, value_expr, value="_t"):
    """Source statement writing the 32-bit ``value_expr`` (every
    template's result is already masked) to operand ``op`` — mirrors
    ``exec_ops.compile_write``, including its value-before-address
    evaluation order for memory stores (the value read may fault; the
    address arithmetic cannot).  A memory store goes through the local
    ``value``."""
    if isinstance(op, RegOperand):
        return "regs[%d] = %s" % (op.reg, value_expr)
    return "%s = %s; %s" % (
        value, value_expr, _store_expr(op.size, _ea_expr(op), value),
    )


def _templated(opcode, ops):
    """Whether ``opcode`` over ``ops`` has an inline template: every
    operand is a register, immediate or memory operand, and a written
    operand is a register or a 1- or 4-byte memory operand."""
    if opcode not in _TEMPLATED or not all(
        isinstance(op, (RegOperand, ImmOperand, MemOperand)) for op in ops
    ):
        return False
    if opcode == Opcode.LEA:
        return isinstance(ops[0], RegOperand) and isinstance(
            ops[1], MemOperand
        )
    if opcode == Opcode.MOVSX and not isinstance(ops[1], MemOperand):
        return False
    if opcode in _NO_DST:
        return True
    dst = ops[0]
    return isinstance(dst, RegOperand) or (
        isinstance(dst, MemOperand) and dst.size in (1, 4)
    )


def _memory_access(opcode, ops):
    """``(mem, loads, stores)`` for a templated instruction: its memory
    operand (RIO-32 has at most one) or None, and whether the
    instruction reads it and writes it."""
    for mem in ops:
        if isinstance(mem, MemOperand) and opcode != Opcode.LEA:
            stores = mem is ops[0] and opcode not in _NO_DST
            return mem, not (stores and opcode in _WRITE_ONLY_DST), stores
    return None, False, False


def _writer_source(opcode, ops, k, dead, reads, value):
    """The source line of templated flag writer ``k``: bind its inputs,
    then set its flags (live) or skip them (``dead``), then store its
    result.  ``reads`` holds the operands' read expressions."""
    a, b = "_a%d" % k, "_b%d" % k
    logic = _LOGIC_OPS.get(opcode)
    if logic is not None:
        bind = "%s = (%s) %s (%s)" % (a, reads[0], logic, reads[1])
    elif opcode in _ONE_INPUT:
        bind = "%s = %s" % (a, reads[0])
    elif opcode in SHIFT_OPCODES:
        count = ops[1]
        count = (
            str(count.value & 31) if isinstance(count, ImmOperand)
            else "(%s) & 31" % reads[1]
        )
        bind = "%s = %s; %s = %s" % (a, reads[0], b, count)
    else:
        bind = "%s = %s; %s = %s" % (a, reads[0], b, reads[1])
    if opcode in (Opcode.CMP, Opcode.TEST):
        if dead:
            return bind
        flags = _SUB_FLAGS if opcode == Opcode.CMP else _LOGIC_FLAGS
        return "%s; %s" % (bind, flags.format(a=a, b=b))
    dst = ops[0]
    if isinstance(dst, RegOperand) and not dead and (
        logic is not None or opcode in (Opcode.ADD, Opcode.SUB, Opcode.INC,
                                        Opcode.DEC)
    ):
        # The templates are looked up per call, so a patched template
        # takes effect in the next compiled segment.
        if logic is not None:
            flags, result = _LOGIC_FLAGS, a
        else:
            flags, result = {
                Opcode.ADD: _ADD_FLAGS, Opcode.SUB: _SUB_FLAGS,
                Opcode.INC: _INC_FLAGS, Opcode.DEC: _DEC_FLAGS,
            }[opcode], "_r"
        return "%s; %s; regs[%d] = %s" % (
            bind, flags.format(a=a, b=b), dst.reg, result,
        )
    if logic is not None:
        result = a if dead else "cpu.flags_logic(%s)" % a
    else:
        result = (_FLAG_FREE if dead else _FLAG_CALLS)[opcode].format(
            a=a, b=b
        )
    return "%s; %s" % (bind, _store_stmt(dst, result, value))


def _inline_instr(opcode, ops, k, dead=False, load=None, value="_t"):
    """One generated source line executing the templated (see
    :func:`_templated`) non-CTI instruction ``k`` of a run.

    Each template mirrors the corresponding ``exec_ops`` compiler —
    same value masking, same flags, same evaluation order — so faults
    and results are identical; the win is purely fewer Python calls (no
    per-instruction closure, no operand-accessor thunks, no memory
    method on an in-range access).  A flag writer whose flags are
    ``dead`` computes its result alone.  ``load`` replaces the
    instruction's memory read expression (a forwarded word's local, or
    the load bound to one); ``value`` names the local its memory store
    writes from.  Every instruction is exactly one source line
    (compound statements via ``;``), so a traceback line identifies the
    faulting instruction.
    """
    reads = [
        load if load is not None and isinstance(op, MemOperand)
        else _read_expr(op)
        for op in ops
    ]
    if opcode in _FLAG_METHODS:
        return _writer_source(opcode, ops, k, dead, reads, value)
    if opcode in (Opcode.NOP, Opcode.LABEL):
        return "pass"
    if opcode == Opcode.PUSH:
        # Value read before moving esp (push %esp semantics).
        return "_t = %s; _sp = (regs[4] - 4) & %s; regs[4] = _sp; %s" % (
            reads[0], _M, _store_expr(4, "_sp"),
        )
    if opcode == Opcode.POP:
        return "_t = %s; regs[4] = (regs[4] + 4) & %s; %s" % (
            _load_expr(4, "(regs[4] & %s)" % _M), _M,
            _store_stmt(ops[0], "_t"),
        )
    if opcode == Opcode.LEA:
        return "regs[%d] = %s" % (ops[0].reg, _ea_expr(ops[1]))
    dst = ops[0]
    if opcode in (Opcode.MOV, Opcode.MOVZX, Opcode.FLD, Opcode.FST):
        return _store_stmt(dst, reads[1], value)
    if opcode == Opcode.MOVB_STORE:
        return _store_stmt(dst, "(%s) & 255" % reads[1], value)
    if opcode == Opcode.MOVSX:
        sign_bit = 1 << (ops[1].size * 8 - 1)
        return _store_stmt(
            dst, "((%s ^ %d) - %d) & %s" % (reads[1], sign_bit, sign_bit, _M),
            value,
        )
    if opcode == Opcode.NOT:
        return _store_stmt(dst, "~(%s) & %s" % (reads[0], _M), value)
    if opcode in (Opcode.FADD, Opcode.FSUB):
        pyop = "+" if opcode == Opcode.FADD else "-"
        return _store_stmt(
            dst, "((%s) %s (%s)) & %s" % (reads[0], pyop, reads[1], _M), value,
        )
    # FMUL: both operands read, then signed (exec_ops._signed), then stored.
    return "_a = %s; _b = %s; %s" % (reads[0], reads[1], _store_stmt(
        dst, "(%s * %s) & %s" % (_SIGNED.format("_a"), _SIGNED.format("_b"), _M),
        value,
    ))


def _dead_writers(instrs, templated):
    """Backward eflags scan over a run: the indices of templated flag
    writers whose written flags are all dead, i.e. overwritten later in
    the run before anything can read them.  All six flags are live at
    the run's end and before every closure fallback."""
    dead = set()
    live = EFLAGS_WRITE_ALL
    for k in range(len(instrs) - 1, -1, -1):
        opcode, ops, _cost = instrs[k]
        if not templated[k]:
            live = EFLAGS_WRITE_ALL
            continue
        written = OP_INFO[opcode].eflags & EFLAGS_WRITE_ALL
        if written:
            if not written & live:
                dead.add(k)
            # A shift's count is its last operand.
            live &= ~eflags_killed(opcode, ops[-1])
    return dead


def _disjoint(form, other):
    """Whether 4-byte accesses through two address forms provably never
    overlap: the same base, index and scale, with displacements 4 to
    2**32 - 4 apart modulo 2**32."""
    return form[:3] == other[:3] and (
        4 <= (form[3] - other[3]) & _MASK32 <= _MASK32 - 3
    )


def _forward_loads(instrs, templated):
    """Forward scan over a run for 4-byte loads of words it already
    holds.

    An address form ``(base, index, scale, disp)`` is held from a
    4-byte load or store through it until a store that is not provably
    disjoint, a write to its base or index register, a PUSH or POP, a
    1-byte store or a closure fallback.  Returns ``(source, defs)``:
    ``source`` maps each load of a held form to the index ``j`` of the
    instruction whose local ``_m<j>`` holds the word; ``defs`` maps
    each such ``j`` to whether it stored (else loaded) the word.  A
    forwarded load cannot fault: the same bytes were accessed earlier
    in the run without a fault.
    """
    held = {}  # address form -> index of the instruction holding it
    source = {}
    stored = {}
    for k, (opcode, ops, _cost) in enumerate(instrs):
        if not templated[k]:
            held.clear()
            continue
        mem, loads, stores = _memory_access(opcode, ops)
        if loads and mem.size == 4:
            form = (mem.base, mem.index, mem.scale, mem.disp & _MASK32)
            if form in held:
                source[k] = held[form]
            elif not stores:
                held[form] = k
        if opcode in (Opcode.PUSH, Opcode.POP) or stores and mem.size != 4:
            held.clear()
        elif stores:
            form = (mem.base, mem.index, mem.scale, mem.disp & _MASK32)
            for other in [f for f in held if not _disjoint(f, form)]:
                del held[other]
            held[form] = k
            stored[k] = True
        elif opcode not in _NO_DST:  # a register destination
            reg = ops[0].reg
            for other in [f for f in held if reg in (f[0], f[1])]:
                del held[other]
    return source, {j: j in stored for j in source.values()}


def _rebuild_eflags(cpu, frame, writers):
    """Make ``cpu.eflags`` exact after a fault: every flag bit whose
    last executed writer was dead is recomputed from that writer's
    bound inputs by the CPU's flag method.  ``frame`` holds the
    segment's bound locals; a writer executed once all its inputs are
    bound (as in the closures, a read-modify-write whose store faults
    has set its flags).  ``writers`` lists ``(inputs, flags, method,
    dead)`` in run order; ``flags`` is None for a shift, which writes
    all six flags unless its count is 0."""
    pending = _ALL_FLAGS
    for inputs, flags, method, dead in reversed(writers):
        if inputs[-1] not in frame:
            continue
        args = [frame[name] for name in inputs]
        if flags is None:
            flags = _ALL_FLAGS if args[1] else 0
        hit = pending & flags
        if hit and dead:
            reference = CPU()
            reference.eflags = cpu.eflags
            method(reference, *args)
            cpu.eflags = (cpu.eflags & ~hit) | (reference.eflags & hit)
        pending &= ~flags
        if not pending:
            return


def _generate_segment(instrs, number):
    """Analyse and generate one run: ``(code, line_index, prefix,
    fallbacks, rebuild)`` — the compiled ``_segment`` source, the map
    from source line to instruction index, the running cycle totals,
    the indices that call their ``compile_noncti`` closure ``_f<k>``,
    and the eflags rebuild for the fault path (None without dead
    writers).  The code is named ``<segment number>`` (its index in
    ``_SEGMENT_CODE_CACHE``) so that profilers, which key entries by
    file, line and function name, keep segments apart."""
    templated = [_templated(opcode, ops) for opcode, ops, _cost in instrs]
    dead = _dead_writers(instrs, templated)
    forwarded, defs = _forward_loads(instrs, templated)
    lines = [
        "def _segment(ex, cpu):",
        " regs = cpu.regs",
        " try:",
    ]
    line_index = {}
    prefix = []
    total = 0
    fallbacks = []
    writers = []
    for k, (opcode, ops, cost) in enumerate(instrs):
        total += cost
        prefix.append(total)
        if templated[k]:
            load, value = None, "_t"
            if k in forwarded:
                load = "_m%d" % forwarded[k]
            if defs.get(k):
                value = "_m%d" % k
            elif k in defs:
                mem_op = _memory_access(opcode, ops)[0]
                load = "(_m%d := %s)" % (k, _read_expr(mem_op))
            text = _inline_instr(opcode, ops, k, k in dead, load, value)
            if dead and opcode in _FLAG_METHODS:
                inputs = ("_a%d" % k,) if opcode in _ONE_INPUT else (
                    "_a%d" % k, "_b%d" % k,
                )
                flags = None if opcode in SHIFT_OPCODES else writes_to_flags(
                    OP_INFO[opcode].eflags
                )
                writers.append(
                    (inputs, flags, _FLAG_METHODS[opcode], k in dead)
                )
        else:
            fallbacks.append(k)
            text = "_f%d(cpu)" % k
        lines.append("  " + text)
        line_index[len(lines)] = k
    lines.extend(
        [
            " except BaseException:",
            "  _flush(ex, _sys.exc_info()[2].tb_lineno)",
        ]
    )
    rebuild = None
    if dead:
        lines.append("  _rebuild(cpu, locals())")

        def rebuild(cpu, frame):
            _rebuild_eflags(cpu, frame, writers)

    lines.extend(
        [
            "  raise",
            " _counter.cycles += %d" % total,
            " ex.instructions += %d" % len(instrs),
            " return _nxt",
        ]
    )
    code = compile("\n".join(lines), "<segment %d>" % number, "exec")
    return code, line_index, tuple(prefix), tuple(fallbacks), rebuild


def compile_segment(instrs, mem, system, counter, nxt):
    """Compile a straight-line run into one step ``fn(ex, cpu) -> nxt``.

    ``instrs`` holds one ``(opcode, ops, cost)`` per non-CTI
    instruction.  The closure engine would otherwise pay, per
    instruction, a step or loop iteration, a closure call and its
    operand-accessor thunks; here the run becomes straight-line
    generated source: recognized opcode/operand shapes are translated
    to inline Python (:func:`_inline_instr`: register file bound as a
    local, guest memory accessed inline), unrecognized shapes call
    their ``compile_noncti`` closure, and cycles/instructions land in
    one batched update at the end.

    Two passes over the run shape the source first.  A backward eflags
    scan (:func:`_dead_writers`) finds the flag writers whose flags the
    run overwrites before anything can read them; those compute their
    results without flags.  A forward scan (:func:`_forward_loads`)
    finds the 4-byte loads of words the run already holds in a local;
    those read the local.  The generated code depends on the run alone,
    so it is made once per process (``_SEGMENT_CODE_CACHE``) and bound
    here to this runtime's memory, system, counter and return index.

    On a mid-run fault (or program exit) the exception's traceback
    line identifies exactly how far the run got — every instruction
    occupies exactly one source line — so the flushed totals match
    the per-instruction engines at every observable point; charges
    are deferred into locals, so only the final sums are ever visible.
    The handler then rebuilds the flags dead writers skipped
    (:func:`_rebuild_eflags`), so eflags are exact too.
    """
    key = tuple(instrs)
    generated = _SEGMENT_CODE_CACHE.get(key)
    if generated is None:
        generated = _SEGMENT_CODE_CACHE[key] = _generate_segment(
            key, len(_SEGMENT_CODE_CACHE)
        )
    code, line_index, prefix, fallbacks, rebuild = generated

    def _flush(ex, lineno):
        index = line_index[lineno]
        counter.cycles += prefix[index]
        ex.instructions += index + 1

    env = {
        "_sys": sys,
        "_counter": counter,
        "_nxt": nxt,
        "_flush": _flush,
        "_rebuild": rebuild,
        "_mem": mem,
        "_mb": mem.view(),
        "_l1": mem.size - 1,
        "_l2": mem.size - 2,
        "_l4": mem.size - 4,
        "_u16": U16.unpack_from,
        "_u32": U32.unpack_from,
        "_p8": U8.pack_into,
        "_p32": U32.pack_into,
        "read_u32": mem.read_u32,
        "read_u16": mem.read_u16,
        "read_u8": mem.read_u8,
        "write_u32": mem.write_u32,
        "write_u8": mem.write_u8,
        "_parity": _PARITY,
    }
    for k in fallbacks:
        opcode, ops, _cost = instrs[k]
        env["_f%d" % k] = compile_noncti(opcode, ops, mem, system)
    exec(code, env)
    return env["_segment"]


def _compile_target_fetch(operand, mem):
    """Compile the indirect-branch target fetch: fn(cpu) -> target."""
    if operand == "ret":
        read_u32 = mem.read_u32

        def pop_ret(cpu):
            regs = cpu.regs
            target = read_u32(regs[4])
            regs[4] = (regs[4] + 4) & _MASK32
            return target

        return pop_ret
    if operand == "iret":
        return lambda cpu: pop_signal_frame(cpu, mem)
    fetch = compile_read(operand, mem)
    if fetch is None:
        return lambda cpu: read_operand(cpu, mem, operand)
    return fetch


def compile_fragment(fragment, runtime):
    """The step table of ``fragment``'s body: one step closure per op
    plus the fell-through sentinel.  Compiled on the body's first call
    under a runtime and kept in ``body.steps``, so every fragment over
    the body runs one table with its own links."""
    body = fragment.body
    if body.steps is not None:
        return body.steps
    code = body.code
    mem = runtime.memory
    system = runtime.system
    counter = runtime.counter
    stats = runtime.stats
    taken_penalty = runtime.cost.taken_branch_penalty
    write_u32 = mem.write_u32
    tag = fragment.tag
    client_hook = runtime.client_hook

    def bind(fn, role):
        return None if fn is None else client_hook(fn, tag, role)

    # Client execution hooks are bound here, once per body: through the
    # client guard when there is one, bare otherwise.  Stubs are made
    # from ``body.exits``; one made before the body compiled (emitted
    # without a runtime) takes the bound ops too.
    exits = []
    for desc in body.exits:
        stub_ops = tuple(
            (OP_CLEAN_CALL, bind(op[1], "stub_call"), op[2])
            if op[0] == OP_CLEAN_CALL
            else op
            for op in desc[2]
        )
        exits.append(desc[:2] + (stub_ops,) + desc[3:])
    body.exits = tuple(exits)
    for stub, desc in zip(fragment.exits, body.exits):
        stub.stub_ops = desc[2]

    steps = []
    for index, op in enumerate(code):
        kind = op[0]
        nxt = index + 1
        if kind == OP_EXEC:
            steps.append(compile_segment(op[1], mem, system, counter, nxt))

        elif kind == OP_COND_EXIT:
            cond = compile_condition(op[1])
            exit_index = op[2]
            c = op[3]

            def cond_exit_step(
                ex, cpu, _cond=cond, _x=exit_index, _c=c, _nxt=nxt
            ):
                ex.instructions += 1
                if _cond(cpu.eflags):
                    counter.cycles += _c + taken_penalty
                    ex._next_fragment = ex._direct_exit(_x, cpu, mem, system)
                    return None
                counter.cycles += _c
                return _nxt

            steps.append(cond_exit_step)

        elif kind == OP_JMP_EXIT:
            exit_index = op[1]
            c = op[2]

            def jmp_exit_step(ex, cpu, _x=exit_index, _c=c):
                ex.instructions += 1
                counter.cycles += _c + taken_penalty
                ex._next_fragment = ex._direct_exit(_x, cpu, mem, system)
                return None

            steps.append(jmp_exit_step)

        elif kind == OP_CALL_EXIT:
            exit_index = op[1]
            ret_addr = op[2]
            c = op[3]

            def call_exit_step(ex, cpu, _x=exit_index, _ra=ret_addr, _c=c):
                ex.instructions += 1
                counter.cycles += _c + taken_penalty
                regs = cpu.regs
                regs[4] = (regs[4] - 4) & _MASK32
                write_u32(regs[4], _ra)
                ex._next_fragment = ex._direct_exit(_x, cpu, mem, system)
                return None

            steps.append(call_exit_step)

        elif kind == OP_CALL_INLINE:
            ret_addr = op[1]
            c = op[2]

            def call_inline_step(ex, cpu, _ra=ret_addr, _c=c, _nxt=nxt):
                # Inlined call in a trace: push and fall through (no
                # taken penalty — superior trace layout).
                ex.instructions += 1
                counter.cycles += _c
                regs = cpu.regs
                regs[4] = (regs[4] - 4) & _MASK32
                write_u32(regs[4], _ra)
                return _nxt

            steps.append(call_inline_step)

        elif kind == OP_IND_EXIT:
            _k, exit_index, operand, is_call, ret_addr, checker, c = op
            checker = bind(checker, "checker")
            fetch = _compile_target_fetch(operand, mem)

            def ind_exit_step(
                ex,
                cpu,
                _fetch=fetch,
                _x=exit_index,
                _is_call=is_call,
                _ra=ret_addr,
                _checker=checker,
                _c=c,
                _tag=tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="checker", target=target
                        )
                    _checker(ex.runtime.current_thread, target)
                if _is_call:
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                counter.cycles += _c + taken_penalty
                ex._next_fragment = ex._indirect_exit(
                    _x, target, cpu, mem, system
                )
                return None

            steps.append(ind_exit_step)

        elif kind == OP_IND_CHECK:
            (
                _k,
                ibl_idx,
                operand,
                expected,
                dispatch,
                is_call,
                ret_addr,
                profiler,
                checker,
                c,
                check_cost,
            ) = op
            profiler = bind(profiler, "profiler")
            checker = bind(checker, "checker")
            fetch = _compile_target_fetch(operand, mem)

            def ind_check_step(
                ex,
                cpu,
                _fetch=fetch,
                _expected=expected,
                _dispatch=dispatch,
                _ibl=ibl_idx,
                _is_call=is_call,
                _ra=ret_addr,
                _profiler=profiler,
                _checker=checker,
                _c=c,
                _check_cost=check_cost,
                _nxt=nxt,
                _tag=tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="checker", target=target
                        )
                    _checker(ex.runtime.current_thread, target)
                if _is_call:
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                counter.cycles += _c
                if target == _expected:
                    stats.inline_check_hits += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(EV_INLINE_CHECK_HIT, _tag, target=target)
                    return _nxt
                matched = None
                for d_tag, d_index in _dispatch:
                    counter.cycles += _check_cost
                    if target == d_tag:
                        matched = d_index
                        break
                if matched is not None:
                    stats.dispatch_check_hits += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(EV_DISPATCH_CHECK_HIT, _tag, target=target)
                    counter.cycles += taken_penalty
                    ex._next_fragment = ex._direct_exit(
                        matched, cpu, mem, system
                    )
                    return None
                if _profiler is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="profiler", target=target
                        )
                    _profiler(ex.runtime.current_thread, target)
                counter.cycles += taken_penalty
                ex._next_fragment = ex._indirect_exit(
                    _ibl, target, cpu, mem, system
                )
                return None

            steps.append(ind_check_step)

        elif kind == OP_LOCAL_BR:
            _k, jcc, target_step, c = op
            if jcc is None:

                def local_jmp_step(ex, cpu, _t=target_step, _c=c):
                    ex.instructions += 1
                    counter.cycles += _c + taken_penalty
                    return _t

                steps.append(local_jmp_step)
            else:
                cond = compile_condition(jcc)

                def local_br_step(
                    ex, cpu, _cond=cond, _t=target_step, _c=c, _nxt=nxt
                ):
                    ex.instructions += 1
                    if _cond(cpu.eflags):
                        counter.cycles += _c + taken_penalty
                        return _t
                    counter.cycles += _c
                    return _nxt

                steps.append(local_br_step)

        elif kind == OP_CLEAN_CALL:
            fn = bind(op[1], "clean_call")
            c = op[2]

            def clean_call_step(ex, cpu, _fn=fn, _c=c, _nxt=nxt, _tag=tag):
                counter.cycles += _c
                stats.clean_calls += 1
                observer = ex.runtime.observer
                if observer is not None:
                    observer.emit(EV_CLEAN_CALL, _tag, role="call")
                _fn(ex.runtime.current_thread)
                return _nxt

            steps.append(clean_call_step)

        else:
            raise MachineFault("unknown fragment op kind %r" % (kind,))

    if runtime.options.precise_interrupts:
        # Poll for interrupts at entry to every application-consistent
        # step (repro.core.translate).
        for index, pc in body.translation.poll_ops.items():
            steps[index] = make_poll_step(runtime, pc, steps[index])

    def fell_through_step(ex, cpu, _tag=tag):
        # Only reachable when a fragment has no terminating exit —
        # fragments are built so this cannot happen.
        raise MachineFault(
            "fragment 0x%x fell through without an exit" % _tag
        )

    steps.append(fell_through_step)
    body.steps = tuple(steps)
    return body.steps
