"""Fragment lowering: client-visible InstrList → executable ops.

The runtime executes fragments as a flat tuple of *ops*.  Lowering is
the moral equivalent of DynamoRIO's encoder pass when it emits a
fragment into the code cache: unmodified instructions are copied (here:
turned into pre-costed execute ops), control transfers become exits with
link stubs, and trace-inlined constructs (elided jumps, inlined calls,
indirect-branch checks, client dispatch chains) get their specialized
forms.

Op tuples (first element is the kind):

====================  ===================================================
``OP_EXEC``           ``(k, opcode, ops, cost)`` straight-line instruction
``OP_LOCAL_BR``       ``(k, jcc|None, target_op_index, cost)`` client
                      intra-fragment branch to a LABEL
``OP_COND_EXIT``      ``(k, jcc, exit_index, cost)`` taken → exit
``OP_JMP_EXIT``       ``(k, exit_index, cost)`` unconditional direct exit
``OP_CALL_EXIT``      ``(k, exit_index, return_addr, cost)`` push + exit
``OP_CALL_INLINE``    ``(k, return_addr, cost)`` push, stay on trace
``OP_IND_EXIT``       ``(k, exit_index, operand|None, is_call,
                      return_addr|None, profiler, checker, cost)``
``OP_IND_CHECK``      ``(k, ibl_exit_index, operand|None, expected_tag,
                      dispatch, is_call, return_addr|None, profiler,
                      checker, cost, check_cost)`` trace-inlined
                      indirect branch
``OP_CLEAN_CALL``     ``(k, fn, cost)`` call into client Python code
====================  ===================================================

``operand|None``: ``None`` means a ``ret`` (target popped off the app
stack); otherwise the r/m operand the branch reads its target from.
``dispatch`` is a tuple of ``(tag, exit_index)`` compare-and-branch
pairs — the paper's Figure 4 chain, each a linkable direct exit.
``profiler`` runs only when every inlined check misses (Figure 4's
profiling call); ``checker`` runs on *every* execution before control
transfers — the enforcement hook security clients (program shepherding)
use to validate indirect targets.
"""

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
OP_IND_CHECK = 7
OP_CLEAN_CALL = 8

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


def _instr_cost(cost_model, instr):
    info = instr.info
    imm1 = False
    if instr.opcode in (Opcode.ADD, Opcode.SUB):
        explicit = instr.explicit_operands()
        if len(explicit) == 2 and explicit[1].is_imm():
            imm1 = (explicit[1].value & 0xFFFFFFFF) in (1, 0xFFFFFFFF)
    return cost_model.instr_cost(
        info, instr.reads_memory(), instr.writes_memory(), imm1
    )


def _return_address(instr):
    addr = _note(instr, "return_addr")
    if addr is not None:
        return addr
    if instr.raw_bits_valid() and instr.raw_pc is not None:
        return instr.raw_pc + len(instr.raw)
    raise EmitError(
        "call instruction lacks a return address (set note['return_addr'])"
    )


def _verify_before_emit(tag, kind, ilist, runtime, options, source_tags):
    """Run the fragment verifier on a client-processed InstrList.

    Called before bundle expansion so the Level-0 invariants are still
    observable.  Exit-stub code attached to exit CTIs is verified as its
    own ``"stub"`` fragment.  Errors raise
    :class:`~repro.analysis.verifier.VerificationError`; warnings are
    collected on ``runtime.verifier_diagnostics`` when available, and
    error diagnostics are recorded there too before the raise (so the
    chaos harness can attribute a guarded bailout to the rule that
    fired).

    ``verify_fragments`` selects the full rule set; when only
    ``verify_equivalence`` is on, just the equivalence rule runs.  The
    equivalence rule additionally needs application memory and the
    source tags; both come from the runtime.
    """
    # Imported lazily: verification is a debug mode and repro.analysis
    # pulls in the whole rules package.
    from repro.analysis.verifier import VerificationError, assert_fragment_valid

    structural = getattr(options, "verify_fragments", False)
    equivalence = getattr(options, "verify_equivalence", False)
    rules = None if structural else ["equivalence"]
    is_runtime_addr = None
    memory = None
    if runtime is not None:
        is_runtime_addr = runtime.is_runtime_address
        if equivalence:
            memory = runtime.memory
    where = "tag=0x%x kind=%s" % (tag, kind)
    try:
        diagnostics = assert_fragment_valid(
            ilist, kind=kind, rules=rules, is_runtime_addr=is_runtime_addr,
            where=where, tag=tag, source_tags=source_tags, memory=memory,
        )
        if structural:
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


def _emit_chokepoint(runtime, tag):
    """drshield: the emit chokepoint is a fault-injection site, but only
    for dispatcher-owned builds (in_chokepoint) — an emit initiated by a
    client API call (dr_replace_fragment) is the client guard's problem,
    not the runtime ladder's."""
    if runtime is not None:
        rguard = getattr(runtime, "rguard", None)
        if rguard is not None and rguard.in_chokepoint:
            rguard.check("emit", tag)


def emit_fragment(tag, kind, ilist, cost_model, options, stats=None, runtime=None,
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
    _emit_chokepoint(runtime, tag)
    if options is not None and (
        getattr(options, "verify_fragments", False)
        or getattr(options, "verify_equivalence", False)
    ):
        _verify_before_emit(tag, kind, ilist, runtime, options, source_tags)
    body = _lower_fragment(tag, ilist, cost_model, source_tags)
    return _instantiate(tag, kind, body, runtime, reason)


def emit_body(tag, kind, body, runtime):
    """Emit a fresh fragment over a body lowered by an earlier
    :func:`emit_fragment` (the runtime's retranslation memo).

    Observably an ordinary build: the same shield chokepoint check, the
    same ``fragment_emit`` event, and a new :class:`Fragment` with its
    own stubs and freshly compiled exit steps — only lowering and the
    translation table are skipped.
    """
    _emit_chokepoint(runtime, tag)
    return _instantiate(tag, kind, body, runtime, "build")


def _instantiate(tag, kind, body, runtime, reason):
    """A new, unplaced :class:`Fragment` over ``body``; under a runtime
    its steps are compiled and ``fragment_emit`` is recorded."""
    fragment = Fragment(tag, kind)
    fragment.body = body
    fragment.code = body.code
    fragment.exits = [
        LinkStub(fragment, index, *desc) for index, desc in enumerate(body.exits)
    ]
    fragment.size = body.size
    fragment.instrs_source = body.instrs_source
    fragment.source_tags = body.source_tags
    fragment.translation = body.translation
    if runtime is not None:
        # Encode into the cache: compile the op tuples to step closures
        # while emission state is hot.  Lazy import — closures needs the
        # OP_* constants from this module.
        from repro.core.closures import compile_fragment

        compile_fragment(fragment, runtime)
        observer = runtime.observer
        if observer is not None:
            # regen: this tag was evicted from its unit under capacity
            # pressure and is now being rebuilt — the retranslation
            # churn the fifo/adaptive policies exist to reduce.
            thread = runtime.current_thread
            unit = (
                thread.trace_cache
                if kind == Fragment.KIND_TRACE
                else thread.bb_cache
            )
            observer.emit(
                EV_FRAGMENT_EMIT,
                tag,
                kind=kind,
                reason=reason,
                size=fragment.size,
                ops=len(fragment.code),
                exits=len(fragment.exits),
                regen=unit.was_evicted(tag),
            )
    return fragment


def _lower_fragment(tag, ilist, cost_model, source_tags):
    """Lower ``ilist`` (bundles expanded in place) into a
    :class:`FragmentBody`."""
    ilist.expand_bundles()
    code = []
    exits = []
    size = 0

    def new_exit(kind_, target_tag, src_instr, is_call_exit=False):
        stub_ops = ()
        always_stub = False
        if src_instr is not None and src_instr.exit_stub_code is not None:
            stub_ops = _lower_stub(src_instr.exit_stub_code, cost_model)
            always_stub = bool(src_instr.exit_always_stub)
        exits.append((kind_, target_tag, stub_ops, always_stub, is_call_exit))
        return len(exits) - 1

    # Pass 1: map LABEL instrs to op indices.  Every non-label
    # instruction lowers to exactly one op.
    label_index = {}
    op_index = 0
    for instr in ilist:
        if instr.is_label() and not _note(instr, "clean_call"):
            label_index[instr] = op_index
        else:
            op_index += 1

    for instr in ilist:
        clean_call = _note(instr, "clean_call")
        if clean_call is not None:
            code.append((OP_CLEAN_CALL, clean_call, CLEAN_CALL_COST))
            size += 5
            continue
        if instr.is_label():
            continue
        size += instr.length
        if not instr.is_cti():
            code.append(
                (
                    OP_EXEC,
                    instr.opcode,
                    instr.explicit_operands(),
                    _instr_cost(cost_model, instr),
                )
            )
            continue

        info = instr.info
        cost = cost_model.instr_cost(info, False, False)
        target = instr.target
        profiler = _note(instr, "profiler")

        if isinstance(target, LabelRef):
            # Client-inserted intra-fragment branch.
            if target.label not in label_index:
                raise EmitError("branch to a label outside this fragment")
            if info.is_cond_branch:
                code.append(
                    (OP_LOCAL_BR, instr.opcode, label_index[target.label], cost)
                )
            elif instr.opcode == Opcode.JMP:
                code.append((OP_LOCAL_BR, None, label_index[target.label], cost))
            else:
                raise EmitError("only jmp/jcc may target labels")
            continue

        if info.is_cond_branch:
            idx = new_exit(LinkStub.KIND_DIRECT, target.pc, instr)
            code.append((OP_COND_EXIT, instr.opcode, idx, cost))
            continue
        if instr.opcode == Opcode.JMP:
            idx = new_exit(LinkStub.KIND_DIRECT, target.pc, instr)
            code.append((OP_JMP_EXIT, idx, cost))
            continue
        if instr.opcode == Opcode.CALL:
            return_addr = _return_address(instr)
            if _note(instr, "inline"):
                code.append((OP_CALL_INLINE, return_addr, cost))
            else:
                idx = new_exit(
                    LinkStub.KIND_DIRECT, target.pc, instr, is_call_exit=True
                )
                code.append((OP_CALL_EXIT, idx, return_addr, cost))
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
        inline_target = _note(instr, "inline_target")
        dispatch_tags = _note(instr, "dispatch") or ()
        if inline_target is not None or dispatch_tags or profiler is not None:
            # Inlined-check form: used for trace-inlined branches and for
            # any indirect branch carrying a client dispatch chain or
            # profiler (the bottom-of-trace sequence of Figure 4).
            dispatch = tuple(
                (t, new_exit(LinkStub.KIND_DIRECT, t, None)) for t in dispatch_tags
            )
            ibl_idx = new_exit(LinkStub.KIND_INDIRECT, None, instr)
            code.append(
                (
                    OP_IND_CHECK,
                    ibl_idx,
                    operand,
                    inline_target,
                    dispatch,
                    is_call,
                    return_addr,
                    profiler,
                    checker,
                    cost + INLINE_CHECK_COST,
                    INLINE_CHECK_COST,
                )
            )
            size += 6 + 10 * len(dispatch)
        else:
            idx = new_exit(LinkStub.KIND_INDIRECT, None, instr)
            code.append(
                (
                    OP_IND_EXIT,
                    idx,
                    operand,
                    is_call,
                    return_addr,
                    profiler,
                    checker,
                    cost,
                )
            )
        continue

    code = tuple(code)
    # One source Instr per emitted op, in lowering order: clean-call
    # pseudo-labels emit one op, other labels emit none, everything else
    # emits exactly one (mirrors pass 1's op_index accounting).  The
    # translation table anchors each op back to its application PC.
    sources = [
        instr
        for instr in ilist
        if _note(instr, "clean_call") is not None or not instr.is_label()
    ]
    # Lazy imports, like compile_fragment's: closures imports this module.
    from repro.core.closures import plan_fragment
    from repro.core.translate import build_translation

    plan = plan_fragment(code)
    return FragmentBody(
        code,
        tuple(exits),
        size + STUB_SIZE * len(exits),
        ilist,
        tuple(source_tags),
        build_translation(tag, code, sources, plan),
        plan,
    )


def _lower_stub(stub_ilist, cost_model):
    """Lower client custom-stub code: straight-line instructions only."""
    ops = []
    for instr in stub_ilist:
        if _note(instr, "clean_call") is not None:
            ops.append((OP_CLEAN_CALL, _note(instr, "clean_call"), CLEAN_CALL_COST))
            continue
        if instr.is_label():
            continue
        if instr.is_cti():
            raise EmitError("custom exit stubs must be straight-line code")
        ops.append(
            (
                OP_EXEC,
                instr.opcode,
                instr.explicit_operands(),
                _instr_cost(cost_model, instr),
            )
        )
    return tuple(ops)
