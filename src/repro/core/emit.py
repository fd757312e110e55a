"""Fragment lowering: client-visible InstrList → executable ops.

Lowering yields a :class:`~repro.core.fragments.FragmentBody`: a flat
tuple of *ops* that :mod:`repro.core.closures` writes, in order, as the
body's one generated function; op *i* is entry *i* of the body's
translation table.  Lowering is the moral equivalent of DynamoRIO's
encoder pass when it emits a fragment into the code cache, once, as
one linear single-entry, multiple-exit stream; every fragment
instantiated over the body (:func:`emit_body`) shares it and owns only
its link stubs.  Unmodified instructions are copied (here: pre-costed
and grouped into runs), control transfers become exits with link
stubs, and trace-inlined constructs (elided jumps, inlined calls,
indirect-branch checks, client dispatch chains) get their specialized
forms.

Op tuples (first element is the kind):

====================  ===================================================
``OP_EXEC``           ``(k, instrs)`` a run: a maximal sequence of
                      consecutive non-CTI instructions, one
                      ``(opcode, ops, cost)`` each, broken only at a
                      label some ``OP_LOCAL_BR`` targets or at a clean
                      call
``OP_LOCAL_BR``       ``(k, jcc|None, target_op, cost)`` client
                      intra-fragment branch to a LABEL later in the
                      fragment (forward only: every op runs at most
                      once per pass)
``OP_COND_EXIT``      ``(k, jcc, exit_index, cost)`` taken → exit
``OP_JMP_EXIT``       ``(k, exit_index, cost)`` unconditional direct exit
``OP_CALL_EXIT``      ``(k, exit_index, return_addr, cost)`` push + exit
``OP_CALL_INLINE``    ``(k, return_addr, cost)`` push, stay on trace
``OP_IND_EXIT``       ``(k, ibl_exit_index, operand,
                      expected_tag|None, dispatch, is_call,
                      return_addr|None, profiler, checker, cost,
                      check_cost)`` indirect branch: fetch the target,
                      then the inline checks, then the IBL
``OP_CLEAN_CALL``     ``(k, fn, cost)`` call into client Python code
====================  ===================================================

``operand`` is ``"ret"`` or ``"iret"`` for the forms that pop their
target off the app stack, otherwise the r/m operand the branch reads
its target from.  ``expected_tag`` is a trace-inlined target: a hit
falls through to the next op.  ``dispatch`` is a tuple of ``(tag,
exit_index)`` compare-and-branch pairs — the paper's Figure 4 chain,
each a linkable direct exit, the j-th hit charging ``check_cost`` per
compare it ran.  ``profiler`` runs only when every inlined check misses
(Figure 4's profiling call).  A branch with any of the three is the
checked form: its cost includes one more compare
(``INLINE_CHECK_COST``) and its code ``6 + 10 * len(dispatch)`` more
bytes.  ``checker`` runs on *every* execution before control
transfers — the enforcement hook security clients (program shepherding)
use to validate indirect targets.

A client's custom exit-stub code (Section 3.2) lowers to the same
format, restricted to runs and clean calls, and is kept in the body's
exit descriptor (:class:`~repro.core.fragments.FragmentBody`).
"""

from repro.core import translate
from repro.ir.instr import LabelRef
from repro.isa.opcodes import Opcode
from repro.observe.events import EV_FRAGMENT_EMIT

OP_EXEC = 0
OP_LOCAL_BR = 1
OP_COND_EXIT = 2
OP_JMP_EXIT = 3
OP_CALL_EXIT = 4
OP_CALL_INLINE = 5
OP_IND_EXIT = 6
OP_CLEAN_CALL = 7

from repro.core.fragments import Fragment, FragmentBody, LinkStub

# Simulated encoded size of an exit stub in the cache (push + mov + jmp).
STUB_SIZE = 11
# Cycles to execute a compare-and-branch pair (cmp imm32 + jcc).
INLINE_CHECK_COST = 2
# Cycles to enter/leave a clean call (register save/restore).
CLEAN_CALL_COST = 60


class EmitError(Exception):
    """The InstrList cannot be lowered into a fragment."""


def _note(instr, key):
    note = instr.note
    if isinstance(note, dict):
        return note.get(key)
    return None


def _costed(cost_model, instr):
    """``(opcode, ops, cost)`` of one instruction of a run."""
    ops = instr.explicit_operands()
    return instr.opcode, ops, cost_model.static_cost(instr.opcode, ops)


def _return_address(instr):
    addr = _note(instr, "return_addr")
    if addr is not None:
        return addr
    if instr.raw_bits_valid() and instr.raw_pc is not None:
        return instr.raw_pc + len(instr.raw)
    raise EmitError(
        "call instruction lacks a return address (set note['return_addr'])"
    )


def _verify_before_emit(tag, kind, ilist, runtime, source_tags):
    """Run every fragment-verifier rule on a client-processed InstrList.

    Called before bundle expansion so the Level-0 invariants are still
    observable.  Exit-stub code attached to exit CTIs is verified as its
    own ``"stub"`` fragment.  Errors raise
    :class:`~repro.analysis.verifier.VerificationError`; warnings are
    collected on ``runtime.verifier_diagnostics`` when available, and
    error diagnostics are recorded there too before the raise (so the
    chaos harness can attribute a guarded bailout to the rule that
    fired).  The equivalence rule additionally needs application memory
    and the source tags; both come from the runtime.
    """
    # Imported lazily: verification is a debug mode and repro.analysis
    # pulls in the whole rules package.
    from repro.analysis.verifier import VerificationError, assert_fragment_valid

    is_runtime_addr = None
    memory = None
    if runtime is not None:
        is_runtime_addr = runtime.is_runtime_address
        memory = runtime.memory
    where = "tag=0x%x kind=%s" % (tag, kind)
    try:
        diagnostics = assert_fragment_valid(
            ilist, kind=kind, is_runtime_addr=is_runtime_addr,
            where=where, tag=tag, source_tags=source_tags, memory=memory,
        )
        for instr in ilist:
            if instr.exit_stub_code is not None:
                diagnostics += assert_fragment_valid(
                    instr.exit_stub_code,
                    kind="stub",
                    is_runtime_addr=is_runtime_addr,
                    where=where + " (exit stub)",
                    tag=tag,
                )
    except VerificationError as exc:
        if runtime is not None:
            runtime.verifier_diagnostics.extend(exc.diagnostics)
        raise
    if runtime is not None and diagnostics:
        runtime.verifier_diagnostics.extend(diagnostics)


def emit_fragment(tag, kind, ilist, cost_model, options, runtime=None,
                  reason="build", source_tags=None):
    """Lower an InstrList into a :class:`Fragment` (not yet placed).

    ``reason`` tags the drtrace ``fragment_emit`` event: ``"build"``
    for fresh blocks/traces, ``"replace"`` when dr_replace_fragment
    re-emits an optimized version.  ``source_tags`` is the ordered
    sequence of application block tags the list translates (defaults to
    ``(tag,)``); the drequiv equivalence rule verifies against it.
    """
    if source_tags is None:
        source_tags = (tag,)
    if options is not None and options.verify_fragments:
        _verify_before_emit(tag, kind, ilist, runtime, source_tags)
    body = _lower_fragment(ilist, cost_model, source_tags)
    return emit_body(tag, kind, body, runtime, reason)


def emit_body(tag, kind, body, runtime, reason="build"):
    """A new, unplaced :class:`Fragment` over ``body``: the one
    instantiation path, for a body :func:`emit_fragment` just lowered
    and for one the runtime's retranslation memo kept.

    Under a runtime the body's code is compiled first (once per body),
    the fragment gets its own stubs, and ``fragment_emit`` is recorded.  A
    memo rebuild is observably an ordinary build, yet lowers, translates
    and compiles nothing.
    """
    fragment = Fragment(tag, kind)
    fragment.body = body
    fragment.size = body.size
    observer = None
    if runtime is not None:
        # Encode into the cache.  Lazy import — closures needs the OP_*
        # constants from this module.
        from repro.core.closures import compile_fragment

        compile_fragment(fragment, runtime)
        observer = runtime.observer
    fragment.exits = [
        LinkStub(fragment, index, *desc[:3])
        for index, desc in enumerate(body.exits)
    ]
    if observer is not None:
        # regen: this tag was evicted from its unit under capacity
        # pressure and is now being rebuilt — the retranslation churn
        # the fifo/adaptive policies exist to reduce.
        thread = runtime.current_thread
        unit = (
            thread.trace_cache if kind == Fragment.KIND_TRACE else thread.bb_cache
        )
        observer.emit(
            EV_FRAGMENT_EMIT,
            tag,
            kind=kind,
            reason=reason,
            size=fragment.size,
            ops=len(body.code),
            exits=len(fragment.exits),
            regen=unit.was_evicted(tag),
        )
    return fragment


def _lower_fragment(ilist, cost_model, source_tags):
    """Lower ``ilist`` (bundles expanded in place) into a
    :class:`FragmentBody`."""
    code, sources, exits, size = _lower_ops(ilist, cost_model)
    return FragmentBody(
        code,
        exits,
        size + STUB_SIZE * len(exits),
        ilist,
        tuple(source_tags),
        translate.build_translation(sources),
    )


def _lower_ops(ilist, cost_model):
    """Lower ``ilist`` (bundles expanded in place): ``(code, sources,
    exits, size)``, the op tuples, the source Instrs of each op, the
    exit descriptors and the encoded size without stubs."""
    ilist.expand_bundles()
    code = []
    # One tuple of source Instrs per op, in lowering order: a run's
    # instructions, or the one Instr a CTI or clean call lowered from.
    # The translation table anchors each back to its application PC.
    sources = []
    exits = []
    size = 0
    run = []  # the open run: one (opcode, ops, cost) per instruction
    run_sources = []
    label_op = {}  # targeted LABEL -> the op it begins
    local_branches = []  # indices of OP_LOCAL_BR ops to backpatch

    def new_exit(kind_, target_tag, src_instr, is_call_exit=False):
        stub = ()
        always_stub = False
        if src_instr is not None and src_instr.exit_stub_code is not None:
            stub = _lower_ops(src_instr.exit_stub_code, cost_model)[0]
            if any(op[0] not in (OP_EXEC, OP_CLEAN_CALL) for op in stub):
                raise EmitError("custom exit stubs must be straight-line code")
            always_stub = bool(src_instr.exit_always_stub)
        exits.append((kind_, target_tag, is_call_exit, stub, always_stub))
        return len(exits) - 1

    def close_run():
        if run:
            code.append((OP_EXEC, tuple(run)))
            sources.append(tuple(run_sources))
            run.clear()
            run_sources.clear()

    def append(op, instr):
        close_run()
        code.append(op)
        sources.append((instr,))

    # Pass 1: the labels some client branch targets; each begins an op.
    targeted = {
        instr.target.label
        for instr in ilist
        if instr.is_cti() and isinstance(instr.target, LabelRef)
    }

    for instr in ilist:
        clean_call = _note(instr, "clean_call")
        if clean_call is not None:
            append((OP_CLEAN_CALL, clean_call, CLEAN_CALL_COST), instr)
            size += 5
            continue
        if instr.is_label():
            if instr in targeted:
                close_run()
                label_op[instr] = len(code)
            continue
        size += instr.length
        if not instr.is_cti():
            run.append(_costed(cost_model, instr))
            run_sources.append(instr)
            continue

        info = instr.info
        cost = cost_model.static_cost(instr.opcode, instr.explicit_operands())
        target = instr.target

        if isinstance(target, LabelRef):
            # Client-inserted intra-fragment branch; its target op is
            # backpatched once every label has its op.
            if info.is_cond_branch:
                jcc = instr.opcode
            elif instr.opcode == Opcode.JMP:
                jcc = None
            else:
                raise EmitError("only jmp/jcc may target labels")
            append((OP_LOCAL_BR, jcc, target.label, cost), instr)
            local_branches.append(len(code) - 1)
            continue

        if info.is_cond_branch:
            idx = new_exit(LinkStub.KIND_DIRECT, target.pc, instr)
            append((OP_COND_EXIT, instr.opcode, idx, cost), instr)
            continue
        if instr.opcode == Opcode.JMP:
            idx = new_exit(LinkStub.KIND_DIRECT, target.pc, instr)
            append((OP_JMP_EXIT, idx, cost), instr)
            continue
        if instr.opcode == Opcode.CALL:
            return_addr = _return_address(instr)
            if _note(instr, "inline"):
                append((OP_CALL_INLINE, return_addr, cost), instr)
            else:
                idx = new_exit(
                    LinkStub.KIND_DIRECT, target.pc, instr, is_call_exit=True
                )
                append((OP_CALL_EXIT, idx, return_addr, cost), instr)
            continue

        # Indirect control transfer: ret, iret, jmp*, call*.  The
        # operand slot holds "ret"/"iret" mode strings for the stack-
        # popping forms, or the r/m operand the target is read from.
        if instr.is_ret():
            operand = "ret"
        elif instr.opcode == Opcode.IRET:
            operand = "iret"
        else:
            operand = target
        is_call = instr.is_call()
        return_addr = _return_address(instr) if is_call else None
        checker = _note(instr, "checker")
        profiler = _note(instr, "profiler")
        inline_target = _note(instr, "inline_target")
        dispatch_tags = _note(instr, "dispatch") or ()
        # The checked form: a trace-inlined target, a client dispatch
        # chain or a profiler (the bottom-of-trace sequence of Figure 4).
        checked = (
            inline_target is not None or dispatch_tags or profiler is not None
        )
        dispatch = tuple(
            (t, new_exit(LinkStub.KIND_DIRECT, t, None)) for t in dispatch_tags
        )
        idx = new_exit(LinkStub.KIND_INDIRECT, None, instr)
        append(
            (
                OP_IND_EXIT,
                idx,
                operand,
                inline_target,
                dispatch,
                is_call,
                return_addr,
                profiler,
                checker,
                cost + INLINE_CHECK_COST if checked else cost,
                INLINE_CHECK_COST,
            ),
            instr,
        )
        if checked:
            size += 6 + 10 * len(dispatch)
    close_run()

    for index in local_branches:
        kind_, jcc, label, cost = code[index]
        if label not in label_op:
            raise EmitError("branch to a label outside this fragment")
        if label_op[label] <= index:
            # A backward branch would loop inside one pass; the fragment
            # verifier's linearity rule reports it too.
            raise EmitError("branch to a label at or before the branch")
        code[index] = (kind_, jcc, label_op[label], cost)

    return tuple(code), sources, tuple(exits), size
