"""Fragment compilation: the encode-into-cache step.

:func:`compile_fragment` translates a fragment body's lowered ops
(``repro.core.emit``) into one generated Python function, the moral
equivalent of DynamoRIO's encoder emitting a fragment into the code
cache as one linear, single-entry, multiple-exit code stream (paper
Section 3.1), once per body.  The executor calls it once per pass:
``fn(executor, cpu)`` returns the next fragment — a linked exit's
target or an IBL hit — or ``None`` once it has recorded the cache exit
``(reason, next_tag, stub)`` in ``executor._exit``
(:meth:`~repro.core.execute.Executor._leave`), which
:meth:`~repro.core.execute.Executor.run` returns to the dispatcher.

Every op kind is written as source, in op order:

* a run (``OP_EXEC``) as straight-line code with guest memory accessed
  inline (:func:`_run_source`, :func:`_inline_instr`), charging cycles
  and instructions in one batched update at its end.  Each templated
  instruction is generated from its one row of ``_ROWS`` (its input
  bindings, eflags template, stored results and rebuild method), and
  which operands it reads, writes or only addresses comes from the
  ISA's ``OPERAND_ROLES``.  A 32-bit wrap is a comparison whose
  correcting branch runs only when the value wraps, a sign test a
  comparison with 2**31 - 1, and an effective address the unwrapped
  sum, tested to lie in memory (:func:`_in_range`);
* conditional, direct and call exits with the link check inline
  (``ex.fragment.exits[i].linked_to``); an unlinked exit leaves through
  ``Executor._leave``;
* inlined calls, indirect branches (``OP_IND_EXIT``: the target fetch,
  then any trace-inlined check and dispatch chain, then the IBL probe,
  ``Executor._ibl``) and clean calls, with their client hooks bound per
  body;
* a client's custom stub code at its exit, as runs and clean calls:
  after the link check (an always-stub exit reads its link first and
  follows it after the stub), or after an IBL miss.  It charges cycles
  and no guest instructions, and a fault in it names the exit's CTI;
* client local branches, which lowering admits forward only, so every
  op runs at most once per pass;
* under ``options.precise_interrupts``, the interrupt poll before every
  application-consistent op (:mod:`repro.core.translate`): one line of
  tests that takes its slow path, ``Executor._poll``, only when a signal
  can be due or a detach or shield recovery is pending.

Segment-local dataflow shapes each run: a flag writer whose flags the
run overwrites before anything can read them skips them, and a 4-byte
load of a word the run already holds reads the local holding it.

Faults are exact.  Every instruction of a run is one source line, and
each generated function has a line map (bound into the body's globals
as ``_lines``, keyed by the function's name): a fault on a run's
line charges the cycles and instructions the run reached, faulting
instruction included, and rebuilds the flags the run's dead writers
skipped from their bound inputs (:func:`_rebuild_eflags`); every other
op charges as it goes.  The same map names the faulting instruction's
application PC (:func:`fault_pc`).

The code depends on the body's shape alone, so it is generated and
compiled once per process while its shape stays among the
``_CODE_CACHE_LIMIT`` most recently used (``_FRAGMENT_CODE_CACHE``),
split into functions of at most about ``_PART_LINES`` lines that
tail-call the next, so no ``compile()`` unit grows with the body.  Each body binds
its own copy to the runtime's memory, system, counter and stats and to
its client hooks, kept on the body (``body.entry``): every fragment
over it — retranslation-memo rebuilds, one block in two threads'
private caches — runs one function.  Only the CPU is passed per call,
and no link state is bound: exits resolve against the running
fragment's own :class:`~repro.core.fragments.LinkStub` at exit time,
preserving the link/unlink and fragment-replacement semantics.

The native interpreter is the reference: every run must end with
native's output, exit code, registers and eflags (the differential
oracle, :mod:`repro.tools.oracle`), and the instruction differential
(``tests/machine/test_semantics_differential.py``) holds every template
to ``execute_noncti``.
"""

import itertools
import sys
from collections import namedtuple
from types import CodeType, FunctionType

from repro.core.emit import (
    CLEAN_CALL_COST,
    OP_CALL_EXIT,
    OP_CALL_INLINE,
    OP_CLEAN_CALL,
    OP_COND_EXIT,
    OP_EXEC,
    OP_IND_EXIT,
    OP_JMP_EXIT,
    OP_LOCAL_BR,
)
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
from repro.isa.opcodes import (
    OP_INFO,
    OPERAND_ROLES,
    SHIFT_OPCODES,
    Opcode,
    eflags_killed,
)
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.cpu import _PARITY, CPU
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti, read_operand
from repro.machine.memory import U8, U16, U32, WATCH_SHIFT
from repro.machine.system import pop_signal_frame
from repro.observe.events import (
    EV_CLEAN_CALL,
    EV_DISPATCH_CHECK_HIT,
    EV_INLINE_CHECK_HIT,
)

_MASK32 = 0xFFFFFFFF
_ALL_FLAGS = CF | PF | AF | ZF | SF | OF

# 32-bit arithmetic wraps with a comparison, not a mask.  2**32 - 1 and
# 2**31 are two-digit ints in CPython (a digit holds 30 bits), so
# ``x & 4294967295`` or ``x & 2147483648`` builds a new int on the
# multi-digit path even when nothing wraps; a comparison keeps the
# value, and each form's correcting branch runs only when it wraps.  A
# sum of two 32-bit values wraps at most once, a difference borrows at
# most once.  A product, a shift and an LEA's address may wrap more
# than once (an index scales by up to 8), so those keep the mask, on
# their out-of-range branch.


def _wrap_sum(expr):
    """The sum ``expr`` of two values in ``[0, 2**32)``, bound to
    ``_q``, wrapped to 32 bits."""
    return "(_q if (_q := %s) <= 4294967295 else _q - 4294967296)" % expr


def _wrap_diff(expr):
    """The difference ``expr`` of two values in ``[0, 2**32)``, bound
    to ``_q``, wrapped to 32 bits."""
    return "(_q if (_q := %s) >= 0 else _q + 4294967296)" % expr


def _wrap_any(expr, low=True):
    """Any integer ``expr``, bound to ``_q``, wrapped to 32 bits; its
    lower bound is tested only when ``low`` (``expr`` can be
    negative)."""
    return "(_q if %s(_q := %s) <= 4294967295 else _q & 4294967295)" % (
        "0 <= " if low else "", expr,
    )


# Inline eflags templates computing the CPU's flag methods
# (repro.machine.cpu: flags_sub / flags_add / flags_inc / flags_dec /
# flags_logic) bit for bit, with the flag bits as literals (CF=1, PF=4,
# AF=16, ZF=64, SF=128, OF=2048), comparisons in place of the methods'
# masks, and the parity table bound as ``_parity``.  ``_CLEAR`` drops
# all six arithmetic flags before the new ones are OR-ed in.  Templates
# are formatted with the instruction's bound inputs ``{a}`` and ``{b}``
# (a logic op binds its result to ``{a}``); sub/add/inc/dec leave the
# 32-bit result in ``_r`` (add's carry reads the unwrapped sum its wrap
# binds to ``_q``).  A 32-bit value has its sign bit set exactly
# when it is above 2**31 - 1; an increment overflows only from
# 2**31 - 1 and a decrement only from 2**31.
_CLEAR = "cpu.eflags = (cpu.eflags & ~%d)" % _ALL_FLAGS
_RESULT_FLAGS = (
    "(64 if {r} == 0 else 0) | (128 if {r} > 2147483647 else 0)"
    " | (4 if _parity[{r} & 255] else 0)"
)
_LOGIC_FLAGS = _CLEAR + " | " + _RESULT_FLAGS.format(r="{a}")
_SUB_FLAGS = (
    "_r = " + _wrap_diff("{a} - {b}") + "; "
    + _CLEAR
    + " | (1 if {a} < {b} else 0)"
    " | (2048 if ({a} ^ {b}) & ({a} ^ _r) > 2147483647 else 0)"
    " | (16 if ({a} ^ {b} ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)
_ADD_FLAGS = (
    "_r = " + _wrap_sum("{a} + {b}") + "; "
    + _CLEAR
    + " | (1 if _q > 4294967295 else 0)"
    " | (2048 if ({a} ^ _r) & ({b} ^ _r) > 2147483647 else 0)"
    " | (16 if ({a} ^ {b} ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)
_INC = "({a} + 1 if {a} != 4294967295 else 0)"
_DEC = "({a} - 1 if {a} else 4294967295)"
_INC_FLAGS = (
    "_r = " + _INC + "; "
    + _CLEAR
    + " | (cpu.eflags & 1)"
    " | (2048 if {a} == 2147483647 else 0)"
    " | (16 if ({a} ^ 1 ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)
_DEC_FLAGS = (
    "_r = " + _DEC + "; "
    + _CLEAR
    + " | (cpu.eflags & 1)"
    " | (2048 if {a} == 2147483648 else 0)"
    " | (16 if ({a} ^ 1 ^ _r) & 16 else 0) | "
    + _RESULT_FLAGS.format(r="_r")
)
_SIGNED = "({0} - 4294967296 if {0} > 2147483647 else {0})"
# The low 32 bits of the signed product of {a} and {b} (exec_ops._signed).
_PRODUCT = _wrap_any("%s * %s" % (_SIGNED.format("{a}"), _SIGNED.format("{b}")))


# How one templated instruction is generated (:func:`_inline_instr`):
#
# * ``bind``: the expressions, over the operand reads ``{0}`` and
#   ``{1}``, bound to the locals ``_a<k>`` and ``_b<k>`` in turn;
# * ``flags``: the name of the eflags template a live writer runs, or
#   None (no flags, or ``live`` calls the CPU method).  The template is
#   looked up by name when a body is generated, so a patched template
#   takes effect in the next generated body;
# * ``live``/``dead``: the result stored to the first operand with the
#   flags live/dead, over the reads, ``{a}``, ``{b}`` and a memory
#   source's sign bit ``{s}`` (None: nothing stored);
# * ``method``: the ``CPU.flags_*`` method :func:`_rebuild_eflags`
#   recomputes a dead writer's flags with, from its bound inputs.
_Row = namedtuple("_Row", "bind flags live dead method")
_TWO = ("{0}", "{1}")
_SHIFT = ("{0}", "({1}) & 31")  # a shift's count masked to 0..31

# One row per templated instruction.  NOP, LABEL, PUSH, POP and LEA
# have lines of their own (:func:`_inline_instr`); DIV, XCHG, FDIV and
# SYSCALL always run through their compiled closures.
_ROWS = {
    Opcode.ADD: _Row(_TWO, "_ADD_FLAGS", "_r", _wrap_sum("{a} + {b}"),
                     CPU.flags_add),
    Opcode.SUB: _Row(_TWO, "_SUB_FLAGS", "_r", _wrap_diff("{a} - {b}"),
                     CPU.flags_sub),
    Opcode.CMP: _Row(_TWO, "_SUB_FLAGS", None, None, CPU.flags_sub),
    Opcode.INC: _Row(("{0}",), "_INC_FLAGS", "_r", _INC, CPU.flags_inc),
    Opcode.DEC: _Row(("{0}",), "_DEC_FLAGS", "_r", _DEC, CPU.flags_dec),
    Opcode.AND: _Row(("({0}) & ({1})",), "_LOGIC_FLAGS", "{a}", "{a}",
                     CPU.flags_logic),
    Opcode.OR: _Row(("({0}) | ({1})",), "_LOGIC_FLAGS", "{a}", "{a}",
                    CPU.flags_logic),
    Opcode.XOR: _Row(("({0}) ^ ({1})",), "_LOGIC_FLAGS", "{a}", "{a}",
                     CPU.flags_logic),
    Opcode.TEST: _Row(("({0}) & ({1})",), "_LOGIC_FLAGS", None, None,
                      CPU.flags_logic),
    Opcode.NEG: _Row(("{0}",), None, "cpu.flags_neg({a})",
                     "(4294967296 - {a} if {a} else 0)", CPU.flags_neg),
    Opcode.SHL: _Row(_SHIFT, None, "cpu.flags_shl({a}, {b})",
                     _wrap_any("{a} << {b}", low=False), CPU.flags_shl),
    Opcode.SHR: _Row(_SHIFT, None, "cpu.flags_shr({a}, {b})", "{a} >> {b}",
                     CPU.flags_shr),
    Opcode.SAR: _Row(
        _SHIFT, None, "cpu.flags_shr({a}, {b}, arithmetic=True)",
        # A negative value shifts as its complement, which is positive.
        "({a} >> {b} if {a} <= 2147483647"
        " else 4294967295 - (4294967295 - {a} >> {b}))",
        lambda cpu, a, n: cpu.flags_shr(a, n, arithmetic=True),
    ),
    Opcode.IMUL: _Row(_TWO, None, "cpu.flags_imul({a}, {b})", _PRODUCT,
                      CPU.flags_imul),
    Opcode.MOV: _Row((), None, "{1}", None, None),
    Opcode.MOVZX: _Row((), None, "{1}", None, None),
    Opcode.FLD: _Row((), None, "{1}", None, None),
    Opcode.FST: _Row((), None, "{1}", None, None),
    Opcode.MOVB_STORE: _Row((), None, "({1}) & 255", None, None),
    Opcode.MOVSX: _Row((), None, _wrap_diff("({1} ^ {s}) - {s}"), None, None),
    Opcode.NOT: _Row((), None, "4294967295 - ({0})", None, None),
    Opcode.FADD: _Row((), None, _wrap_sum("({0}) + ({1})"), None, None),
    Opcode.FSUB: _Row((), None, _wrap_diff("({0}) - ({1})"), None, None),
    Opcode.FMUL: _Row(_TWO, None, _PRODUCT, None, None),
}
_TEMPLATED = frozenset(_ROWS) | frozenset((
    Opcode.NOP, Opcode.LABEL, Opcode.PUSH, Opcode.POP, Opcode.LEA,
))


def _ea_expr(op):
    """Source expression for a MemOperand's effective address before
    its wrap to 32 bits: ``disp + base + index * scale`` (an absolute
    address is its 32-bit literal).  A sum that ``exec_ops.compile_ea``
    would wrap lies outside ``[0, 2**32)``, so outside memory too: the
    access it feeds fails its in-range test (:func:`_in_range`) and
    calls the ``Memory`` method, which wraps its own address; an LEA
    wraps it with :func:`_wrap_any`.  The sum is negative only through
    a negative displacement."""
    base, index, scale, disp = op.base, op.index, op.scale, op.disp
    if base is None and index is None:
        return str(disp & _MASK32)
    terms = ["%d" % disp] if disp else []
    if base is not None:
        terms.append("regs[%d]" % base)
    if index is not None:
        terms.append("regs[%d] * %d" % (index, scale))
    return " + ".join(terms)


def _in_range(addr, limit, low):
    """The test that the address expression ``addr``, bound to ``_e``,
    lies in ``[0, limit]``.  The lower bound is written only when
    ``low`` (a negative displacement), and is needed there: ``struct``
    and ``mmap`` index a negative offset from the end, so a negative
    ``_e`` that passed would read or write the end of memory where the
    method faults."""
    if low:
        return "0 <= (_e := %s) <= %s" % (addr, limit)
    return "(_e := %s) <= %s" % (addr, limit)


def _load_expr(size, addr, low=False):
    """Source expression loading ``size`` bytes at the address
    expression ``addr`` (see :func:`_in_range` for ``low``), evaluated
    once into ``_e``: unpacked from the backing store in range, else the
    ``Memory`` method raises the exact fault (the inline-access contract
    of repro.machine.memory)."""
    test = _in_range(addr, "_l%d" % size, low)
    if size == 4:
        return "(_u32(_mb, _e)[0] if %s else read_u32(_e))" % test
    if size == 2:
        return "(_u16(_mb, _e)[0] if %s else read_u16(_e))" % test
    return "(_mb[_e] if %s else read_u8(_e))" % test


def _store_expr(size, addr, low=False, value="_t"):
    """Source expression storing the 32-bit local ``value`` (4 bytes, or
    its low byte) at the address expression ``addr`` (see
    :func:`_in_range` for ``low``).  It packs inline only when a
    store-time test finds the address in range, ``_protect`` off and the
    touched watch lines unwatched; otherwise the ``Memory`` method runs
    the protection check, the watchers, or raises the fault."""
    if size == 4:
        pack, packed, slow = "_p32", value, "write_u32"
        lines = "_w[_e >> %d] or _w[(_e + 3) >> %d]" % (WATCH_SHIFT, WATCH_SHIFT)
    else:
        pack, packed, slow = "_p8", value + " & 255", "write_u8"
        lines = "_w[_e >> %d]" % WATCH_SHIFT
    return (
        "%s(_mb, _e, %s) if %s and not _mem._protect"
        " and ((_w := _mem._watch_lines) is None or not (%s)) else %s(_e, %s)"
        % (pack, packed, _in_range(addr, "_l%d" % size, low), lines, slow,
           value)
    )


def _read_expr(op):
    """Source expression for an operand read (zero-extended) —
    mirrors ``exec_ops.compile_read``."""
    if isinstance(op, RegOperand):
        return "regs[%d]" % op.reg
    if isinstance(op, ImmOperand):
        return str(op.value & _MASK32)
    return _load_expr(
        op.size if op.size in (2, 4) else 1, _ea_expr(op), op.disp < 0,
    )


def _store_stmt(op, value_expr, value="_t"):
    """Source statement writing the 32-bit ``value_expr`` (every
    template's result lies in ``[0, 2**32)``; a 4-byte pack raises on
    anything else) to operand ``op`` — mirrors
    ``exec_ops.compile_write``, including its value-before-address
    evaluation order for memory stores (the value read may fault; the
    address arithmetic cannot).  A memory store goes through the local
    ``value``."""
    if isinstance(op, RegOperand):
        return "regs[%d] = %s" % (op.reg, value_expr)
    return "%s = %s; %s" % (
        value, value_expr,
        _store_expr(op.size, _ea_expr(op), op.disp < 0, value),
    )


def _templated(opcode, ops):
    """Whether ``opcode`` over ``ops`` has an inline template: every
    operand is a register, immediate or memory operand, an address-only
    operand is in memory, and a written operand is a register or a 1-
    or 4-byte memory operand (LEA writes a register, MOVSX reads
    memory)."""
    if opcode not in _TEMPLATED or not all(
        isinstance(op, (RegOperand, ImmOperand, MemOperand)) for op in ops
    ):
        return False
    if opcode == Opcode.LEA and not isinstance(ops[0], RegOperand):
        return False
    if opcode == Opcode.MOVSX and not isinstance(ops[1], MemOperand):
        return False
    for op, role in zip(ops, OPERAND_ROLES[OP_INFO[opcode].shape]):
        if not role and not isinstance(op, MemOperand):
            return False
        if "w" in role and not (
            isinstance(op, RegOperand)
            or isinstance(op, MemOperand) and op.size in (1, 4)
        ):
            return False
    return True


def _memory_access(opcode, ops):
    """``(mem, loads, stores)`` for a templated instruction: the memory
    operand it reads or writes (RIO-32 has at most one) or None, and
    whether it reads and writes it.  LEA's operand is an address only."""
    for mem, role in zip(ops, OPERAND_ROLES[OP_INFO[opcode].shape]):
        if role and isinstance(mem, MemOperand):
            return mem, "r" in role, "w" in role
    return None, False, False


def _inline_instr(opcode, ops, k, dead=False, load=None, value="_t"):
    """One generated source line executing the templated (see
    :func:`_templated`) non-CTI instruction ``k`` of a body, from its
    row (``_ROWS``): bind its inputs to ``_a<k>`` and ``_b<k>``, then
    set its flags (live) or skip them (``dead``), then store its result.

    Each template computes what the corresponding ``exec_ops``
    compiler computes — the same 32-bit values, flags and evaluation
    order — so faults and results are identical; the win is fewer
    Python calls (no per-instruction closure, no operand-accessor
    thunks, no memory method on an in-range access) and no two-digit
    mask on a path where nothing wraps.  ``load`` replaces the
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
    if opcode in (Opcode.NOP, Opcode.LABEL):
        return "pass"
    if opcode == Opcode.PUSH:
        # Value read before moving esp (push %esp semantics).
        return "_t = %s; _sp = %s; regs[4] = _sp; %s" % (
            reads[0], _wrap_diff("regs[4] - 4"), _store_expr(4, "_sp"),
        )
    if opcode == Opcode.POP:
        return "_t = %s; regs[4] = %s; %s" % (
            _load_expr(4, "regs[4]"), _wrap_sum("regs[4] + 4"),
            _store_stmt(ops[0], "_t"),
        )
    if opcode == Opcode.LEA:
        mem = ops[1]
        addr = _ea_expr(mem)
        if mem.index is not None or (mem.base is not None and mem.disp):
            addr = _wrap_any(addr, mem.disp < 0)
        return "regs[%d] = %s" % (ops[0].reg, addr)
    row = _ROWS[opcode]
    names = {"a": "_a%d" % k, "b": "_b%d" % k}
    source = [
        "%s = %s" % (name, expr.format(*reads))
        for name, expr in zip(names.values(), row.bind)
    ]
    if row.flags is not None and not dead:
        source.append(globals()[row.flags].format(**names))
    result = row.dead if dead else row.live
    if result is not None:
        last = ops[-1]
        sign = 1 << (last.size * 8 - 1) if isinstance(last, MemOperand) else 0
        source.append(_store_stmt(
            ops[0], result.format(*reads, s=sign, **names), value,
        ))
    return "; ".join(source)


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
        else:
            for op, role in zip(ops, OPERAND_ROLES[OP_INFO[opcode].shape]):
                if "w" in role:  # a register destination
                    for other in [f for f in held if op.reg in f[:2]]:
                        del held[other]
    return source, {j: j in stored for j in source.values()}


def _rebuild_eflags(cpu, frame, writers):
    """Make ``cpu.eflags`` exact after a fault: every flag bit whose
    last executed writer was dead is recomputed from that writer's
    bound inputs by the CPU's flag method.  ``frame`` holds the
    generated function's bound locals: each op runs at most once per
    pass and no two runs share a name, so a writer's inputs are bound
    only if it ran in this pass.  A writer executed once all its inputs
    are bound (as in the closures, a read-modify-write whose store
    faults has set its flags).  ``writers`` lists ``(inputs, flags, method,
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


def _run_source(instrs, first):
    """Generate one run: ``(lines, prefix, fallbacks, writers)`` — one
    source line per instruction, the running cycle totals, the indices
    (in the run) of the instructions that call their ``compile_noncti``
    closure ``_f<n>``, and the eflags rebuild's writers for the fault
    path (None without dead writers).  Locals are numbered from
    ``first``, the run's first instruction in its body, so no two runs
    of a body share a name."""
    templated = [_templated(opcode, ops) for opcode, ops, _cost in instrs]
    dead = _dead_writers(instrs, templated)
    forwarded, defs = _forward_loads(instrs, templated)
    lines = []
    prefix = []
    total = 0
    fallbacks = []
    writers = []
    for k, (opcode, ops, cost) in enumerate(instrs):
        n = first + k
        total += cost
        prefix.append(total)
        if not templated[k]:
            fallbacks.append(k)
            lines.append("_f%d(cpu)" % n)
            continue
        load, value = None, "_t"
        if k in forwarded:
            load = "_m%d" % (first + forwarded[k])
        if defs.get(k):
            value = "_m%d" % n
        elif k in defs:
            mem_op = _memory_access(opcode, ops)[0]
            load = "(_m%d := %s)" % (n, _read_expr(mem_op))
        lines.append(_inline_instr(opcode, ops, n, k in dead, load, value))
        row = _ROWS.get(opcode)
        if dead and row is not None and row.method is not None:
            inputs = ("_a%d" % n, "_b%d" % n)[:len(row.bind)]
            flags = None if opcode in SHIFT_OPCODES else writes_to_flags(
                OP_INFO[opcode].eflags
            )
            writers.append((inputs, flags, row.method, k in dead))
    return lines, prefix, fallbacks, tuple(writers) if dead else None


# Jcc predicates over ``cpu.eflags`` as source, truth-equal to
# ``repro.machine.cpu.compile_condition`` (CF=1, ZF=64, SF=128,
# OF=2048; SF != OF is bit 7 xor bit 11).
_SF_NE_OF = "((_fl := cpu.eflags) >> 7 ^ _fl >> 11) & 1"
_CONDITIONS = {
    Opcode.JZ: "cpu.eflags & 64",
    Opcode.JNZ: "not cpu.eflags & 64",
    Opcode.JB: "cpu.eflags & 1",
    Opcode.JNB: "not cpu.eflags & 1",
    Opcode.JBE: "cpu.eflags & 65",
    Opcode.JNBE: "not cpu.eflags & 65",
    Opcode.JS: "cpu.eflags & 128",
    Opcode.JNS: "not cpu.eflags & 128",
    Opcode.JL: _SF_NE_OF,
    Opcode.JNL: "not " + _SF_NE_OF,
    Opcode.JLE: "(_fl := cpu.eflags) & 64 or (_fl >> 7 ^ _fl >> 11) & 1",
    Opcode.JNLE: "not ((_fl := cpu.eflags) & 64 or (_fl >> 7 ^ _fl >> 11) & 1)",
    Opcode.JO: "cpu.eflags & 2048",
    Opcode.JNO: "not cpu.eflags & 2048",
}

# Generated fragment code, keyed by the body's shape (:func:`_body_key`):
# bodies with the same ops — a block rebuilt after eviction, one program
# under two runtimes — are generated and compiled by CPython once per
# process, as ``(codes, fallbacks, lines)`` (:func:`_generate`).  At
# most ``_CODE_CACHE_LIMIT`` shapes are kept, least recently used
# evicted first (a hit moves its key to the end); bodies already bound
# keep their code.  A test that patches the generator (a template, a
# pass) must swap this cache out.
_FRAGMENT_CODE_CACHE = {}
_CODE_CACHE_LIMIT = 512
# Numbers the generated code's file names, ``<fragment N>``: a counter,
# so an eviction never lets a new shape reuse a live shape's name.
_code_names = itertools.count()
# The source lines of one generated function: a longer body is split
# into functions that tail-call the next, so no ``compile()`` unit
# grows with the body.  An op is never split, so one long run may make
# a longer function on its own.
_PART_LINES = 60
_PART_FRAME = 7  # def, regs, try, except, unwind, raise, tail call
# Op kinds after which control never falls through to the next op (an
# indirect branch falls through only on its inline check's hit).
_NO_FALL_THROUGH = frozenset((OP_JMP_EXIT, OP_CALL_EXIT))


def _shape(code):
    """``code``'s ops with every client callable reduced to whether it
    is there (hooks are bound per body)."""
    shape = []
    for op in code:
        kind = op[0]
        if kind == OP_CLEAN_CALL:
            op = (kind, None, op[2])
        elif kind == OP_IND_EXIT:
            op = op[:7] + (op[7] is not None, op[8] is not None) + op[9:]
        shape.append(op)
    return tuple(shape)


def _body_key(body, penalty, polls):
    """The shape a body's generated code depends on: its ops, each
    exit's stub code and whether it always runs, the taken-branch
    penalty and the interrupt polls."""
    return (
        _shape(body.code),
        tuple((_shape(desc[3]), desc[4]) for desc in body.exits),
        penalty,
        polls,
    )


def _fetch_source(index, operand):
    """The statement binding an indirect branch's target to ``_tg``."""
    if operand == "ret":
        return "_tg = %s; regs[4] = %s" % (
            _load_expr(4, "regs[4]"), _wrap_sum("regs[4] + 4"),
        )
    if operand == "iret":
        return "_tg = _pop_frame(cpu, _mem)"
    if isinstance(operand, (RegOperand, ImmOperand, MemOperand)):
        return "_tg = %s" % _read_expr(operand)
    return "_tg = _read_operand(cpu, _mem, _op%d)" % index


def _push_source(ret_addr):
    """A call's push of its return address (the PUSH template)."""
    return "_t = %d; _sp = %s; regs[4] = _sp; %s" % (
        ret_addr & _MASK32, _wrap_diff("regs[4] - 4"), _store_expr(4, "_sp"),
    )


def _op_entries(index, op, runs, stubs, penalty, poll):
    """The source of op ``index`` as entries: ``("line", depth, text,
    at)`` (``at`` is the op and instruction the line runs, see
    :func:`_render_part`, or None), ``("charge", depth, cycles,
    instructions)`` (consecutive charges at one depth fold into one) and
    ``("goto", depth, op, at)`` (a local branch to ``op``).  Every
    statement runs in the order and with the charges of the op's
    semantics, so a fault or an observer anywhere sees exact totals.
    ``runs`` holds the generated runs of the body (keyed ``(None, op)``)
    and of its stubs (``(exit, op)``); ``poll`` is the op's application
    PC when an interrupt poll precedes it."""
    out = []
    at = (index, 0, 0, 0, None)

    def line(depth, text, where=at):
        out.append(("line", depth, text, where))

    def charge(depth, cycles, count=0):
        if out and out[-1][0] == "charge" and out[-1][1] == depth:
            _kind, _depth, before, counted = out.pop()
            cycles, count = before + cycles, counted + count
        out.append(("charge", depth, cycles, count))

    def stub(depth, exit_index):
        # Client stub code: cycles and no guest instructions, no polls;
        # a fault on its lines names the exit's CTI.
        for j, stub_op in enumerate(stubs[exit_index][0]):
            if stub_op[0] == OP_CLEAN_CALL:
                clean_call(depth, "stub_call", "_s%d_%d" % (exit_index, j), "")
                continue
            lines, prefix, _fallbacks, writers = runs[exit_index, j]
            for k, text in enumerate(lines):
                line(depth, text, (index, 0, prefix[k], 0, writers))
            charge(depth, prefix[-1])

    def direct_exit(depth, exit_index):
        if stubs[exit_index][1]:
            # Always through the stub: the link read before it runs is
            # the one followed.
            line(depth, "_l = ex.fragment.exits[%d].linked_to" % exit_index)
            stub(depth, exit_index)
            line(depth, "if _l is not None: return _l")
        else:
            line(depth, "if (_l := ex.fragment.exits[%d].linked_to) is not "
                        "None: return _l" % exit_index)
            stub(depth, exit_index)
        line(depth, "return ex._leave(%d)" % exit_index)

    def indirect_exit(depth, exit_index):
        line(depth, "if (_n := ex._ibl(_tg)) is not None: return _n")
        stub(depth, exit_index)
        line(depth, "return ex._leave(%d, _tg)" % exit_index)

    def clean_call(depth, role, hook, args):
        charge(depth, CLEAN_CALL_COST)
        line(depth, "stats.clean_calls += 1")
        line(depth, "if (_ob := _rt.observer) is not None: _ob.emit(%r, _tag, "
                    "role=%r%s)" % (EV_CLEAN_CALL, role,
                                    ", target=_tg" if args else ""))
        line(depth, "%s(_rt.current_thread%s)" % (hook, args))

    if poll is not None:
        # The slow path only from System.due_at on (a relative alarm to
        # convert, or a deliverable deadline reached) or while a detach
        # or shield recovery is pending.
        line(2, "if (ex.instructions >= _system.due_at or "
                "_rt._detach_pending or _rt._shield_pending) and "
                "ex._poll(%d): return None" % poll, None)

    kind = op[0]
    if kind == OP_EXEC:
        lines, prefix, _fallbacks, writers = runs[None, index]
        for k, text in enumerate(lines):
            line(2, text, (index, k, prefix[k], k + 1, writers))
        charge(2, prefix[-1], len(lines))

    elif kind == OP_COND_EXIT:
        _k, jcc, exit_index, cost = op
        charge(2, cost, 1)
        line(2, "if %s:" % _CONDITIONS[jcc])
        charge(3, penalty)
        direct_exit(3, exit_index)

    elif kind == OP_JMP_EXIT:
        _k, exit_index, cost = op
        charge(2, cost + penalty, 1)
        direct_exit(2, exit_index)

    elif kind == OP_CALL_EXIT:
        _k, exit_index, ret_addr, cost = op
        charge(2, cost + penalty, 1)
        line(2, _push_source(ret_addr))
        direct_exit(2, exit_index)

    elif kind == OP_CALL_INLINE:
        # Push and fall through (no taken penalty: superior trace
        # layout).
        _k, ret_addr, cost = op
        charge(2, cost, 1)
        line(2, _push_source(ret_addr))

    elif kind == OP_IND_EXIT:
        (_k, ibl_index, operand, expected, dispatch, is_call, ret_addr,
         profiler, checker, cost, check_cost) = op
        charge(2, 0, 1)
        line(2, _fetch_source(index, operand))
        if checker:
            clean_call(2, "checker", "_chk%d" % index, ", _tg")
        if is_call:
            line(2, _push_source(ret_addr))
        charge(2, cost)
        depth = 2
        if expected is not None:
            line(2, "if _tg != %d:" % expected)
            depth = 3
        # The miss path: the dispatch chain's compare-and-branch pairs,
        # then the profiler and the IBL.
        for j, (target, exit_index) in enumerate(dispatch):
            line(depth, "if _tg == %d:" % target)
            charge(depth + 1, check_cost * (j + 1))
            line(depth + 1, "stats.dispatch_check_hits += 1")
            line(depth + 1, "if (_ob := _rt.observer) is not None: "
                            "_ob.emit(%r, _tag, target=_tg)"
                 % EV_DISPATCH_CHECK_HIT)
            charge(depth + 1, penalty)
            direct_exit(depth + 1, exit_index)
        charge(depth, check_cost * len(dispatch))
        if profiler:
            clean_call(depth, "profiler", "_prof%d" % index, ", _tg")
        charge(depth, penalty)
        indirect_exit(depth, ibl_index)
        if expected is not None:
            line(2, "stats.inline_check_hits += 1")
            line(2, "if (_ob := _rt.observer) is not None: "
                    "_ob.emit(%r, _tag, target=_tg)" % EV_INLINE_CHECK_HIT)

    elif kind == OP_LOCAL_BR:
        # Lowering admits forward branches only, so every op runs at
        # most once per pass.
        _k, jcc, target, cost = op
        charge(2, cost, 1)
        if jcc is None:
            charge(2, penalty)
            out.append(("goto", 2, target, at))
        else:
            line(2, "if %s:" % _CONDITIONS[jcc])
            charge(3, penalty)
            out.append(("goto", 3, target, at))

    elif kind == OP_CLEAN_CALL:
        clean_call(2, "call", "_h%d" % index, "")

    else:
        raise MachineFault("unknown fragment op kind %r" % (kind,))
    return out


def _entry_lines(entries):
    """An upper bound on the source lines ``entries`` render to."""
    return sum(2 if entry[0] == "charge" else 1 for entry in entries)


def _render_part(number, part, entries, starts, falls_through):
    """Compile part ``part`` of a body: the function ``_part<part>``
    over the ops whose ``entries`` it holds, under the file name
    ``<fragment number>``.  ``starts`` maps each part's first op to the
    part; the part ends by tail-calling the next one if its last op can
    fall through.  Returns the function's code object and its line map,
    ``{line: (op, k, cycles, instructions, writers)}``: the op and
    instruction a source line runs, and for a run's instruction the
    charges a fault there flushes and the run's eflags rebuild."""
    lines = ["def _part%d(ex, cpu):" % part, " regs = cpu.regs", " try:"]
    line_ops = {}
    pending = None  # [depth, cycles, instructions] not yet written

    def commit():
        if pending is not None:
            depth, cycles, count = pending
            pad = " " * depth
            if cycles:
                lines.append("%s_counter.cycles += %d" % (pad, cycles))
            if count:
                lines.append("%sex.instructions += %d" % (pad, count))

    for entry in entries:
        if entry[0] == "charge":
            _kind, depth, cycles, count = entry
            if pending is not None and pending[0] == depth:
                pending[1] += cycles
                pending[2] += count
                continue
            commit()
            pending = [depth, cycles, count]
            continue
        commit()
        pending = None
        if entry[0] == "goto":
            _kind, depth, target, where = entry
            text = "return %s" % (
                "_part%d(ex, cpu)" % starts[target] if target in starts
                else "None"
            )
        else:
            _kind, depth, text, where = entry
        lines.append(" " * depth + text)
        if where is not None:
            line_ops[len(lines)] = where
    commit()
    lines += [
        " except BaseException:",
        "  _unwind(ex, cpu, _counter, _sys.exc_info()[2])",
        "  raise",
    ]
    if falls_through:
        lines.append(" return _part%d(ex, cpu)" % (part + 1))
    module = compile("\n".join(lines), "<fragment %d>" % number, "exec")
    code = next(c for c in module.co_consts if isinstance(c, CodeType))
    return code, line_ops


def _generate(key, number):
    """Generate and compile a body's code from its key
    (:func:`_body_key`): ``(codes, fallbacks, lines)`` — one code object
    per part, the entry first; ``(name, exit, op, k)`` for every
    instruction that calls its ``compile_noncti`` closure (``exit`` is
    None in the body's own ops, else the exit whose stub holds it); and
    each part's line map by its name.

    Parts begin at op 0, at every op a local branch targets, and
    wherever the next op would take the current part past
    ``_PART_LINES`` source lines."""
    code, stubs, penalty, polls = key
    polls = dict(polls)
    runs = {}
    fallbacks = []
    first = 0
    ops = [(None, index, op) for index, op in enumerate(code)] + [
        (exit_index, j, op)
        for exit_index, (stub, _always) in enumerate(stubs)
        for j, op in enumerate(stub)
    ]
    for exit_index, index, op in ops:
        if op[0] == OP_EXEC:
            runs[exit_index, index] = run = _run_source(op[1], first)
            fallbacks += [
                ("_f%d" % (first + k), exit_index, index, k) for k in run[2]
            ]
            first += len(op[1])
    targets = {op[2] for op in code if op[0] == OP_LOCAL_BR}
    blocks = [
        _op_entries(index, op, runs, stubs, penalty, polls.get(index))
        for index, op in enumerate(code)
    ]
    starts = {}  # first op of a part -> the part
    size = 0
    budget = _PART_LINES - _PART_FRAME
    for index, block in enumerate(blocks):
        lines = _entry_lines(block)
        if not starts or index in targets or size and size + lines > budget:
            starts[index] = len(starts)
            size = 0
        size += lines
    bounds = sorted(starts) + [len(code)]
    codes = []
    line_maps = {}
    for part, (begin, end) in enumerate(zip(bounds, bounds[1:])):
        last = code[end - 1]
        falls_through = end < len(code) and not (
            last[0] in _NO_FALL_THROUGH
            or last[0] == OP_LOCAL_BR and last[1] is None
            or last[0] == OP_IND_EXIT and last[3] is None
        )
        entries = [entry for block in blocks[begin:end] for entry in block]
        part_code, line_maps["_part%d" % part] = _render_part(
            number, part, entries, starts, falls_through
        )
        codes.append(part_code)
    return tuple(codes), tuple(fallbacks), line_maps


def _unwind(ex, cpu, counter, tb):
    """The fault path of a generated function whose line ``tb`` names
    raised: for a run's instruction, charge the cycles and instructions
    the run reached (the faulting one included) and rebuild the flags
    its dead writers skipped (:func:`_rebuild_eflags`), so totals and
    eflags are exact.  Any other op charged as it went."""
    frame = tb.tb_frame
    at = frame.f_globals["_lines"][frame.f_code.co_name].get(tb.tb_lineno)
    if at is None:
        return
    _op, _k, cycles, count, writers = at
    counter.cycles += cycles
    ex.instructions += count
    if writers is not None:
        _rebuild_eflags(cpu, tb.tb_frame.f_locals, writers)


def fault_pc(body):
    """The application PC of the instruction ``body``'s generated code
    is running, found from the innermost generated frame on the stack,
    or None (no such frame, or a line without one).  Consulted only on
    a fault: ``pcs[op][k]`` of the body's translation table."""
    frame = sys._getframe(1)
    while frame is not None:
        lines = frame.f_globals.get("_lines")
        if lines is not None:
            at = lines[frame.f_code.co_name].get(frame.f_lineno)
            if at is None:
                return None
            return body.translation.pcs[at[0]][at[1]]
        frame = frame.f_back
    return None


def _bind_body(body, tag, runtime):
    """The entry function of ``body``'s generated code under
    ``runtime``: the code comes from ``_FRAGMENT_CODE_CACHE`` (made on
    its first use in the process), and its names are bound here to the
    runtime's memory, system, counter and stats, to the parts' line
    maps, to the body's fallback closures and to its client hooks."""
    polls = ()
    if runtime.options.precise_interrupts:
        polls = tuple(sorted(body.translation.poll_ops.items()))
    key = _body_key(body, runtime.cost.taken_branch_penalty, polls)
    cache = _FRAGMENT_CODE_CACHE
    generated = cache.pop(key, None)
    if generated is None:
        if len(cache) >= _CODE_CACHE_LIMIT:
            del cache[next(iter(cache))]
        generated = _generate(key, next(_code_names))
    cache[key] = generated
    codes, fallbacks, lines = generated
    mem = runtime.memory
    system = runtime.system
    client_hook = runtime.client_hook
    env = {
        "_sys": sys,
        "_unwind": _unwind,
        "_lines": lines,
        "_rt": runtime,
        "_system": system,
        "_counter": runtime.counter,
        "stats": runtime.stats,
        "_tag": tag,
        "_pop_frame": pop_signal_frame,
        "_read_operand": read_operand,
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
    for name, exit_index, index, k in fallbacks:
        source = body.code if exit_index is None else body.exits[exit_index][3]
        opcode, ops, _cost = source[index][1][k]
        env[name] = compile_noncti(opcode, ops, mem, system)
    # Client execution hooks are bound here, once per body: through the
    # client guard when there is one, bare otherwise.
    for index, op in enumerate(body.code):
        kind = op[0]
        if kind == OP_CLEAN_CALL:
            env["_h%d" % index] = client_hook(op[1], tag, "clean_call")
        elif kind == OP_IND_EXIT:
            if op[8] is not None:
                env["_chk%d" % index] = client_hook(op[8], tag, "checker")
            if op[7] is not None:
                env["_prof%d" % index] = client_hook(op[7], tag, "profiler")
            env["_op%d" % index] = op[2]
    for exit_index, desc in enumerate(body.exits):
        for j, op in enumerate(desc[3]):
            if op[0] == OP_CLEAN_CALL:
                env["_s%d_%d" % (exit_index, j)] = client_hook(
                    op[1], tag, "stub_call"
                )
    for part, code in enumerate(codes):
        env["_part%d" % part] = FunctionType(code, env)
    return env["_part0"]


def compile_fragment(fragment, runtime):
    """The generated function of ``fragment``'s body, ``fn(ex, cpu)``:
    one pass through the body, returning the next fragment (a linked
    exit or an IBL hit) or None once it has recorded the cache exit in
    ``ex._exit``.  Compiled on the body's first call under a runtime
    and kept in ``body.entry``, so every fragment over the body runs
    one function with its own links."""
    body = fragment.body
    if body.entry is None:
        body.entry = _bind_body(body, fragment.tag, runtime)
    return body.entry
