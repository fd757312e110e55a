"""Closure compilation of fragments: the encode-into-cache step.

:func:`compile_fragment` translates a fragment's lowered op tuples
(``repro.core.emit``) into a flat tuple of *step closures* — the moral
equivalent of DynamoRIO's encoder emitting machine code into the code
cache.  Each step binds everything static about its op at compile time:
operand accessors, pre-summed cycle costs, the exit's
:class:`~repro.core.fragments.LinkStub` object, compiled branch
predicates, and the runtime's memory/system/counter/stats.  The
executor's hot loop then degenerates to ``i = steps[i](executor, cpu)``.

A step returns the index of the next step to run, or ``None`` when the
fragment is done — in which case the step has already resolved the exit
(``executor._next_fragment`` holds the linked/IBL-hit successor, or a
:class:`~repro.core.execute.CacheExit` was raised back to the
dispatcher).

Runs of consecutive straight-line ``OP_EXEC`` ops are *fused* into a
single step.  A run of two or more instructions becomes a generated
segment (:func:`compile_segment`): straight-line Python source with
guest memory accessed inline, charging cycles and instructions exactly
as the per-op engine would, including on a mid-run fault or program
exit.  The one segment compiler serves both tiers: the closure engine
keeps its segments on the fragment body, and the chain compiler
(:mod:`repro.core.chains`) rebinds them to its base offsets.  Fusion
never spans an intra-fragment branch target, so ``OP_LOCAL_BR`` indices
stay addressable.

Only the CPU is passed per call: fragments may be shared between
threads (the thread-shared cache ablation), so per-thread state cannot
be bound at compile time.  Link stubs are bound as objects and their
``linked_to`` fields read at exit time, preserving the link/unlink and
fragment-replacement semantics unchanged.

Compiled steps produce **bit-identical** cycles, stats, events and
output to the tuple-dispatch engine; the determinism regression tests
assert this end to end.
"""

import sys
from types import FunctionType

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
from repro.isa.eflags import AF, CF, OF, PF, SF, ZF
from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.cpu import _PARITY, compile_condition
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

# Inline eflags templates mirroring the CPU's flag methods statement
# for statement (repro.machine.cpu: flags_sub / flags_add / flags_inc /
# flags_dec / flags_logic), with the flag bits as literals
# (CF=1, PF=4, AF=16, ZF=64, SF=128, OF=2048) and the parity table
# bound as ``_parity``.  ``_CLEAR`` drops all six arithmetic flags
# before the new ones are OR-ed in.  ``_r`` is the 32-bit result;
# sub/add templates consume ``_a``/``_b``.
_CLEAR = "cpu.eflags = (cpu.eflags & ~%d)" % (CF | PF | AF | ZF | SF | OF)
_RESULT_FLAGS = (
    "(64 if _r == 0 else 0) | (128 if _r & 2147483648 else 0)"
    " | (4 if _parity[_r & 255] else 0)"
)
_LOGIC_FLAGS = _CLEAR + " | " + _RESULT_FLAGS
_SUB_FLAGS = (
    "_r = (_a - _b) & 4294967295; "
    + _CLEAR
    + " | (1 if _a < _b else 0)"
    " | (2048 if ((_a ^ _b) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ _b ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)
_ADD_FLAGS = (
    "_full = _a + _b; _r = _full & 4294967295; "
    + _CLEAR
    + " | (1 if _full > 4294967295 else 0)"
    " | (2048 if (~(_a ^ _b) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ _b ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)
_INC_FLAGS = (
    "_a = regs[%d]; _r = (_a + 1) & 4294967295; "
    + _CLEAR
    + " | (cpu.eflags & 1)"
    " | (2048 if (~(_a ^ 1) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ 1 ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)
_DEC_FLAGS = (
    "_a = regs[%d]; _r = (_a - 1) & 4294967295; "
    + _CLEAR
    + " | (cpu.eflags & 1)"
    " | (2048 if ((_a ^ 1) & (_a ^ _r)) & 2147483648 else 0)"
    " | (16 if (_a ^ 1 ^ _r) & 16 else 0) | " + _RESULT_FLAGS
)

# Compiled code objects for generated segment sources, keyed by the
# source text: structurally identical runs (common in unrolled loops)
# are compiled by CPython once per process.
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


def _store_expr(size, addr):
    """Source expression storing ``_t`` (4 or 1 bytes) at the 32-bit
    address expression ``addr``.  It packs inline only when a
    store-time test finds the address in range, ``_protect`` off and
    the touched watch lines unwatched; otherwise the ``Memory`` method
    runs the protection check, the watchers, or raises the fault."""
    if size == 4:
        pack, mask, limit, slow = "_p32", _M, "_l4", "write_u32"
        lines = "(_e >> %d) not in _w and ((_e + 3) >> %d) not in _w" % (
            WATCH_SHIFT, WATCH_SHIFT,
        )
    else:
        pack, mask, limit, slow = "_p8", "255", "_l1", "write_u8"
        lines = "(_e >> %d) not in _w" % WATCH_SHIFT
    return (
        "%s(_mb, _e, _t & %s) if (_e := %s) <= %s and not _mem._protect"
        " and ((_w := _mem._watch_pages) is None or (%s)) else %s(_e, _t)"
        % (pack, mask, addr, limit, lines, slow)
    )


def _read_expr(op):
    """Source expression for an operand read (zero-extended), or None
    — mirrors ``exec_ops.compile_read``."""
    if isinstance(op, RegOperand):
        return "regs[%d]" % op.reg
    if isinstance(op, ImmOperand):
        return str(op.value & _MASK32)
    if isinstance(op, MemOperand):
        return _load_expr(op.size if op.size in (2, 4) else 1, _ea_expr(op))
    return None


def _store_stmt(op, value_expr):
    """Source statement writing ``value_expr`` to operand ``op``, or
    None — mirrors ``exec_ops.compile_write``, including its
    value-before-address evaluation order for memory stores (the value
    read may fault; the address arithmetic cannot)."""
    if isinstance(op, RegOperand):
        return "regs[%d] = (%s) & %s" % (op.reg, value_expr, _M)
    if isinstance(op, MemOperand) and op.size in (1, 4):
        return "_t = %s; %s" % (value_expr, _store_expr(op.size, _ea_expr(op)))
    return None


def _inline_instr(opcode, ops):
    """One generated source line executing a non-CTI instruction, or
    None when the opcode/operand shape has no inline template (the
    segment then calls the instruction's ``compile_noncti`` closure).

    Each template mirrors the corresponding ``exec_ops`` compiler —
    same value masking, same flags, same evaluation order — so faults
    and results are identical; the win is purely fewer Python calls (no
    per-instruction closure, no operand-accessor thunks, no memory
    method on an in-range access).  Every instruction is exactly one
    source line (compound statements via ``;``), so a traceback line
    identifies the faulting instruction.
    """
    if opcode in (Opcode.NOP, Opcode.LABEL):
        return "pass"
    if opcode == Opcode.CMP:
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return "_a = %s; _b = %s; %s" % (r0, r1, _SUB_FLAGS)
    if opcode == Opcode.TEST:
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return "_r = (%s) & (%s); %s" % (r0, r1, _LOGIC_FLAGS)
    if opcode == Opcode.PUSH:
        r = _read_expr(ops[0])
        if r is None:
            return None
        # Value read before moving esp (push %esp semantics).
        return "_t = %s; _sp = (regs[4] - 4) & %s; regs[4] = _sp; %s" % (
            r, _M, _store_expr(4, "_sp"),
        )
    if opcode == Opcode.POP:
        store = _store_stmt(ops[0], "_t")
        if store is None:
            return None
        return "_t = %s; regs[4] = (regs[4] + 4) & %s; %s" % (
            _load_expr(4, "(regs[4] & %s)" % _M), _M, store,
        )
    if opcode == Opcode.LEA:
        if not isinstance(ops[0], RegOperand) or not isinstance(
            ops[1], MemOperand
        ):
            return None
        return "regs[%d] = %s" % (ops[0].reg, _ea_expr(ops[1]))

    if opcode in (Opcode.MOV, Opcode.MOVZX, Opcode.FLD, Opcode.FST):
        dst, src = ops[0], ops[1]
        r = _read_expr(src)
        if r is None:
            return None
        if isinstance(dst, RegOperand):
            # Every operand read is already a 32-bit value.
            return "regs[%d] = %s" % (dst.reg, r)
        return _store_stmt(dst, r)
    if opcode == Opcode.MOVB_STORE:
        r = _read_expr(ops[1])
        if r is None:
            return None
        return _store_stmt(ops[0], "(%s) & 255" % r)
    if opcode == Opcode.MOVSX:
        src = ops[1]
        if not isinstance(src, MemOperand):
            return None
        sign_bit = 1 << (src.size * 8 - 1)
        return _store_stmt(
            ops[0],
            "((%s ^ %d) - %d) & %s" % (_read_expr(src), sign_bit, sign_bit, _M),
        )

    if opcode in (Opcode.ADD, Opcode.SUB):
        flags = _ADD_FLAGS if opcode == Opcode.ADD else _SUB_FLAGS
        dst = ops[0]
        r1 = _read_expr(ops[1])
        if r1 is None:
            return None
        if isinstance(dst, RegOperand):
            d = dst.reg
            return "_a = regs[%d]; _b = %s; %s; regs[%d] = _r" % (
                d, r1, flags, d,
            )
        method = "flags_add" if opcode == Opcode.ADD else "flags_sub"
        r0 = _read_expr(dst)
        if r0 is None:
            return None
        return _store_stmt(dst, "cpu.%s(%s, %s)" % (method, r0, r1))
    if opcode in (Opcode.INC, Opcode.DEC):
        dst = ops[0]
        if isinstance(dst, RegOperand):
            d = dst.reg
            flags = _INC_FLAGS if opcode == Opcode.INC else _DEC_FLAGS
            return "%s; regs[%d] = _r" % (flags % d, d)
        method = "flags_inc" if opcode == Opcode.INC else "flags_dec"
        r = _read_expr(dst)
        if r is None:
            return None
        return _store_stmt(dst, "cpu.%s(%s)" % (method, r))
    if opcode in (Opcode.AND, Opcode.OR, Opcode.XOR):
        pyop = {Opcode.AND: "&", Opcode.OR: "|", Opcode.XOR: "^"}[opcode]
        dst = ops[0]
        r1 = _read_expr(ops[1])
        if r1 is None:
            return None
        if isinstance(dst, RegOperand):
            d = dst.reg
            return "_r = regs[%d] %s (%s); %s; regs[%d] = _r" % (
                d, pyop, r1, _LOGIC_FLAGS, d,
            )
        r0 = _read_expr(dst)
        if r0 is None:
            return None
        return _store_stmt(
            dst, "cpu.flags_logic((%s) %s (%s))" % (r0, pyop, r1)
        )
    if opcode == Opcode.NOT:
        r = _read_expr(ops[0])
        if r is None:
            return None
        return _store_stmt(ops[0], "~(%s) & %s" % (r, _M))
    if opcode == Opcode.NEG:
        r = _read_expr(ops[0])
        if r is None:
            return None
        return _store_stmt(ops[0], "cpu.flags_neg(%s)" % r)
    if opcode in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        if opcode == Opcode.SHL:
            value = "cpu.flags_shl(%s, (%s) & 31)" % (r0, r1)
        elif opcode == Opcode.SHR:
            value = "cpu.flags_shr(%s, (%s) & 31)" % (r0, r1)
        else:
            value = "cpu.flags_shr(%s, (%s) & 31, arithmetic=True)" % (r0, r1)
        return _store_stmt(ops[0], value)
    if opcode == Opcode.IMUL:
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return _store_stmt(ops[0], "cpu.flags_imul(%s, %s)" % (r0, r1))
    if opcode in (Opcode.FADD, Opcode.FSUB):
        pyop = "+" if opcode == Opcode.FADD else "-"
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        if r0 is None or r1 is None:
            return None
        return _store_stmt(ops[0], "((%s) %s (%s)) & %s" % (r0, pyop, r1, _M))
    if opcode == Opcode.FMUL:
        # Both operands read, then signed (exec_ops._signed), then stored.
        r0, r1 = _read_expr(ops[0]), _read_expr(ops[1])
        store = _store_stmt(
            ops[0],
            "((_a - 4294967296 if _a & 2147483648 else _a)"
            " * (_b - 4294967296 if _b & 2147483648 else _b)) & " + _M,
        )
        if r0 is None or r1 is None or store is None:
            return None
        return "_a = %s; _b = %s; %s" % (r0, r1, store)

    # DIV, XCHG, FDIV, SYSCALL and anything unrecognized run through
    # their compiled closures.
    return None


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

    On a mid-run fault (or program exit) the exception's traceback
    line identifies exactly how far the run got — every instruction
    occupies exactly one source line — so the flushed totals match
    the per-instruction engines at every observable point; charges
    are deferred into locals, so only the final sums are ever visible.
    """
    env = {
        "_sys": sys,
        "_counter": counter,
        "_total": None,  # placeholders, filled in below
        "_nxt": nxt,
        "_flush": None,
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
    lines = [
        "def _segment(ex, cpu):",
        " regs = cpu.regs",
        " try:",
    ]
    line_index = {}
    prefix = []
    total = 0
    for k, (opcode, ops, cost) in enumerate(instrs):
        total += cost
        prefix.append(total)
        text = _inline_instr(opcode, ops)
        if text is None:
            name = "_f%d" % k
            env[name] = compile_noncti(opcode, ops, mem, system)
            text = "%s(cpu)" % name
        lines.append("  " + text)
        line_index[len(lines)] = k
    lines.extend(
        [
            " except BaseException:",
            "  _flush(ex, _sys.exc_info()[2].tb_lineno)",
            "  raise",
            " _counter.cycles += _total",
            " ex.instructions += %d" % len(instrs),
            " return _nxt",
        ]
    )
    source = "\n".join(lines)
    code_obj = _SEGMENT_CODE_CACHE.get(source)
    if code_obj is None:
        code_obj = compile(source, "<segment>", "exec")
        _SEGMENT_CODE_CACHE[source] = code_obj
    prefix = tuple(prefix)

    def _flush(ex, lineno):
        index = line_index[lineno]
        counter.cycles += prefix[index]
        ex.instructions += index + 1

    env["_total"] = total
    env["_flush"] = _flush
    exec(code_obj, env)
    return env["_segment"]


def rebase_segment(segment, nxt):
    """A copy of ``segment`` that returns step index ``nxt``: the same
    code object over its environment with ``_nxt`` replaced (the chain
    compiler lays members out at base offsets in one super-table)."""
    return FunctionType(segment.__code__, dict(segment.__globals__, _nxt=nxt))


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


# Op kinds the chain compiler may replace with stitched variants.
EXIT_KINDS = (
    OP_COND_EXIT,
    OP_JMP_EXIT,
    OP_CALL_EXIT,
    OP_IND_EXIT,
    OP_IND_CHECK,
)


def plan_fragment(code):
    """Plan the op-index → step-index mapping, fusing OP_EXEC runs.

    Returns ``(plans, step_of, table_len)``: ``plans`` is a list of
    ``("run", [op indices])`` / ``("op", op index)`` entries, one per
    step; ``step_of`` maps op indices (and the one-past-the-end index)
    to step indices; ``table_len`` counts the trailing fell-through
    sentinel step.  Computed once per lowered body (``FragmentBody.
    plan``) and read by the translation table, :func:`compile_steps`
    and the chain compiler (which must know a member's table length
    before any of its stitched steps are built).
    """
    # Intra-fragment branch targets must begin a step of their own.
    branch_targets = set()
    for op in code:
        if op[0] == OP_LOCAL_BR:
            branch_targets.add(op[2])

    plans = []
    step_of = {}
    n_ops = len(code)
    i = 0
    while i < n_ops:
        if code[i][0] == OP_EXEC:
            run = [i]
            j = i + 1
            while (
                j < n_ops
                and code[j][0] == OP_EXEC
                and j not in branch_targets
            ):
                run.append(j)
                j += 1
            step_of[i] = len(plans)
            plans.append(("run", run))
            i = j
        else:
            step_of[i] = len(plans)
            plans.append(("op", i))
            i += 1
    sentinel_index = len(plans)
    step_of[n_ops] = sentinel_index
    return plans, step_of, sentinel_index + 1


def compile_fragment(fragment, runtime):
    """Compile ``fragment.code`` into step closures; caches the result
    on ``fragment.compiled`` and returns it."""
    compiled = tuple(compile_steps(fragment, runtime))
    fragment.compiled = compiled
    return compiled


def compile_runs(body, runtime):
    """The compiled ``OP_EXEC`` runs of ``body``, one entry per plan
    entry: ``None`` for an op, ``(cost, fn)`` (the instruction's
    ``compile_noncti`` closure) for a one-instruction run, and the
    generated segment (:func:`compile_segment`, at base 0) for a longer
    run.  Compiled on first use and kept on the body, so every fragment
    over it — retranslation memo rebuilds included — and every chain
    (through :func:`rebase_segment`) shares one compile per run."""
    runs = body.runs
    if runs is None:
        code = body.code
        plans, step_of, _table_len = body.plan
        sentinel_index = len(plans)
        mem = runtime.memory
        system = runtime.system
        compiled = []
        for plan_kind, payload in plans:
            if plan_kind != "run":
                compiled.append(None)
            elif len(payload) == 1:
                _k, opcode, ops, cost = code[payload[0]]
                compiled.append((cost, compile_noncti(opcode, ops, mem, system)))
            else:
                compiled.append(compile_segment(
                    [code[k][1:] for k in payload], mem, system,
                    runtime.counter,
                    step_of.get(payload[-1] + 1, sentinel_index),
                ))
        runs = body.runs = tuple(compiled)
    return runs


def compile_steps(fragment, runtime, base=0, exit_override=None):
    """Compile ``fragment.code`` into a list of step closures.

    ``base`` offsets every produced step index — the chain compiler
    (:mod:`repro.core.chains`) concatenates several fragments' step
    lists into one flat super-table, so intra-fragment transfers and
    fall-throughs must address their member's slice of it.

    ``exit_override(op_index, op, nxt)`` may return a replacement step
    for any exit-kind op (``EXIT_KINDS``); returning ``None`` keeps the
    generic step.  ``nxt`` is the (base-offset) fall-through step
    index.  The generic steps are the single source of truth for exit
    semantics; overrides only exist so chains can stitch linked exits
    into direct step-index transfers.
    """
    code = fragment.code
    exits = fragment.exits
    mem = runtime.memory
    system = runtime.system
    counter = runtime.counter
    stats = runtime.stats
    taken_penalty = runtime.cost.taken_branch_penalty
    write_u32 = mem.write_u32
    tag = fragment.tag

    plans, step_of, _table_len = fragment.body.plan
    runs = compile_runs(fragment.body, runtime)
    sentinel_index = len(plans)

    def next_step(op_index):
        return step_of.get(op_index, sentinel_index) + base

    steps = []
    for plan_index, (plan_kind, payload) in enumerate(plans):
        if plan_kind == "run":
            nxt = next_step(payload[-1] + 1)
            run = runs[plan_index]
            if len(payload) > 1:
                steps.append(run if base == 0 else rebase_segment(run, nxt))
                continue
            c, fn = run

            def exec_step(ex, cpu, _c=c, _fn=fn, _nxt=nxt):
                counter.cycles += _c
                ex.instructions += 1
                _fn(cpu)
                return _nxt

            steps.append(exec_step)
            continue

        op_index = payload
        op = code[op_index]
        kind = op[0]
        nxt = next_step(op_index + 1)

        if exit_override is not None and kind in EXIT_KINDS:
            custom = exit_override(op_index, op, nxt)
            if custom is not None:
                steps.append(custom)
                continue

        if kind == OP_COND_EXIT:
            cond = compile_condition(op[1])
            stub = exits[op[2]]
            c = op[3]

            def cond_exit_step(
                ex, cpu, _cond=cond, _stub=stub, _c=c, _nxt=nxt
            ):
                ex.instructions += 1
                if _cond(cpu.eflags):
                    counter.cycles += _c + taken_penalty
                    ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                    return None
                counter.cycles += _c
                return _nxt

            steps.append(cond_exit_step)

        elif kind == OP_JMP_EXIT:
            stub = exits[op[1]]
            c = op[2]

            def jmp_exit_step(ex, cpu, _stub=stub, _c=c):
                ex.instructions += 1
                counter.cycles += _c + taken_penalty
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                return None

            steps.append(jmp_exit_step)

        elif kind == OP_CALL_EXIT:
            stub = exits[op[1]]
            ret_addr = op[2]
            c = op[3]

            def call_exit_step(ex, cpu, _stub=stub, _ra=ret_addr, _c=c):
                ex.instructions += 1
                counter.cycles += _c + taken_penalty
                regs = cpu.regs
                regs[4] = (regs[4] - 4) & _MASK32
                write_u32(regs[4], _ra)
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
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
            _k, exit_idx, operand, is_call, ret_addr, profiler, checker, c = op
            stub = exits[exit_idx]
            fetch = _compile_target_fetch(operand, mem)

            def ind_exit_step(
                ex,
                cpu,
                _fetch=fetch,
                _stub=stub,
                _is_call=is_call,
                _ra=ret_addr,
                _profiler=profiler,
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
                    guard = ex.runtime.guard
                    if guard is None:
                        _checker(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _checker,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="checker",
                        )
                if _is_call:
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                counter.cycles += _c + taken_penalty
                if _profiler is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="profiler", target=target
                        )
                    guard = ex.runtime.guard
                    if guard is None:
                        _profiler(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _profiler,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="profiler",
                        )
                ex._next_fragment = ex._indirect_exit(
                    _stub, target, cpu, mem, system
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
            ibl_stub = exits[ibl_idx]
            dispatch_stubs = tuple(
                (d_tag, exits[d_idx]) for d_tag, d_idx in dispatch
            )
            fetch = _compile_target_fetch(operand, mem)

            def ind_check_step(
                ex,
                cpu,
                _fetch=fetch,
                _expected=expected,
                _dispatch=dispatch_stubs,
                _ibl_stub=ibl_stub,
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
                    guard = ex.runtime.guard
                    if guard is None:
                        _checker(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _checker,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="checker",
                        )
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
                for d_tag, d_stub in _dispatch:
                    counter.cycles += _check_cost
                    if target == d_tag:
                        matched = d_stub
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
                    guard = ex.runtime.guard
                    if guard is None:
                        _profiler(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _profiler,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="profiler",
                        )
                counter.cycles += taken_penalty
                ex._next_fragment = ex._indirect_exit(
                    _ibl_stub, target, cpu, mem, system
                )
                return None

            steps.append(ind_check_step)

        elif kind == OP_LOCAL_BR:
            _k, jcc, target_index, c = op
            target_step = next_step(target_index)
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
            fn = op[1]
            c = op[2]

            def clean_call_step(ex, cpu, _fn=fn, _c=c, _nxt=nxt, _tag=tag):
                counter.cycles += _c
                stats.clean_calls += 1
                observer = ex.runtime.observer
                if observer is not None:
                    observer.emit(EV_CLEAN_CALL, _tag, role="call")
                guard = ex.runtime.guard
                if guard is None:
                    _fn(ex.runtime.current_thread)
                else:
                    guard.call(
                        _fn,
                        (ex.runtime.current_thread,),
                        tag=_tag,
                        role="clean_call",
                    )
                return _nxt

            steps.append(clean_call_step)

        else:
            raise MachineFault("unknown fragment op kind %r" % (kind,))

    if runtime.options.precise_interrupts and fragment.translation is not None:
        # Wrap the application-consistent steps with the interrupt poll
        # (repro.core.translate) — after the overrides so chains'
        # stitched steps are wrapped uniformly with the generic ones.
        from repro.core.translate import wrap_poll_steps

        wrap_poll_steps(fragment, runtime, plans, steps)

    def fell_through_step(ex, cpu, _tag=tag):
        # Only reachable when a fragment has no terminating exit —
        # fragments are built so this cannot happen.
        raise MachineFault(
            "fragment 0x%x fell through without an exit" % _tag
        )

    steps.append(fell_through_step)
    return steps
