"""drequiv: symbolic translation-equivalence of fragments and traces.

The back half of the checker built on :mod:`repro.analysis.symexec`:
given an emitted fragment's InstrList and the tags of the application
blocks it was translated from, prove that the fragment computes the same
function of the initial machine state — registers, the six flags, and
the sequence of application memory stores — at every *observable* point,
modulo the transformations the runtime and its clients are sanctioned to
make.

The two sides are walked independently with one carried symbolic state
each:

* the **source reference** decodes every block fresh from application
  memory (:func:`~repro.core.bb_builder.build_basic_block`) and flattens
  it into an ordered list of *expectations* — one per block terminal
  (conditional exit, jump, call, indirect branch) or block-ending event
  (syscall, hlt);
* the **fragment side** flattens the emitted instruction stream into an
  ordered list of *observables* at the same construct kinds.

Matching the two lists in order sidesteps the hardest part of trace
verification — stitched segment boundaries are invisible in the
fragment (elided jumps emit no code at all) — because an elided jump is
simply an expectation that consumes zero observables.

Sanctioned differences:

* meta-marked client instructions and clean-call labels are erased
  (their safety is the structural rules' charge, not drequiv's);
* a mid-trace conditional may appear inverted (opposite jcc targeting
  the old fall-through) when the taken side stays on the trace;
* a mid-trace direct jump to the next segment is elided;
* calls and indirect branches inlined into a trace push/pop exactly as
  their exit forms do and are compared as such;
* a return deleted by the custom-traces client must leave behind the
  stack-pointer adjustment tagged ``note["ret_removed"]``; the target
  equality is checked symbolically, but the client's claim that the
  popped target equals the trace continuation is *assumed* (reported as
  a warning — it is a dynamic property no static check can prove);
* flags are not compared at ``hlt``, where the program ends.  A
  ``syscall`` leaves them as they are, so they are compared there like
  registers.

Everything else — a non-meta branch to an internal label, client code
that rewrites an application instruction to compute a different
expression, a store log that diverges — is an equivalence error.
"""

from repro.analysis.symexec import (
    FLAG_ORDER,
    SymexecError,
    SymState,
    const,
    render,
    step,
)
from repro.core.bb_builder import build_basic_block
from repro.ir.instr import LabelRef
from repro.ir.instrlist import copy_instructions
from repro.isa.opcodes import JCC_OPPOSITE, Opcode
from repro.isa.registers import REG_NAMES, Reg
from repro.machine.errors import MachineFault

ERROR = "error"
WARNING = "warning"


class Problem:
    """One equivalence finding; ``instr`` anchors fragment-side findings
    to an instruction of the verified list for diagnostics."""

    __slots__ = ("severity", "message", "instr")

    def __init__(self, severity, message, instr=None):
        self.severity = severity
        self.message = message
        self.instr = instr

    def __repr__(self):
        return "<Problem %s: %s>" % (self.severity, self.message)


class _Site:
    """One expectation or observable."""

    __slots__ = (
        "kind",  # "cond" | "jmp" | "call" | "ind" | "syscall" | "halt"
        "jcc",
        "target",  # pc (int) for direct kinds, expression for "ind"
        "fall",  # cond expectations: fall-through pc
        "ret_addr",  # call kinds: pushed return address (int)
        "inline",  # fragment call/ind: stays on trace
        "assumed",  # fragment ind synthesized from a removed return
        "last",  # source: belongs to the final segment
        "next",  # source: tag of the following segment (or None)
        "tag",  # source: tag of the segment this came from
        "snap",  # SymState.snapshot() at this point
        "instr",  # fragment: originating instruction (pre-copy)
    )

    def __init__(self, kind, **fields):
        self.kind = kind
        for name in self.__slots__[1:]:
            setattr(self, name, fields.get(name))


def _flatten(ilist, originals=None):
    """Expand Level-0 bundles; yields ``(instr, original)`` pairs where
    ``original`` is the pre-copy instruction to anchor diagnostics to
    (the bundle itself for split instructions), or None."""
    out = []
    nodes = list(ilist)
    if originals is None:
        originals = nodes
    for instr, orig in zip(nodes, originals):
        if instr.is_bundle:
            for piece in instr.split():
                out.append((piece, orig))
        else:
            out.append((instr, orig))
    return out


def _return_address(instr):
    note = instr.note
    if isinstance(note, dict) and note.get("return_addr") is not None:
        return note["return_addr"]
    if instr.raw_bits_valid() and instr.raw_pc is not None:
        return instr.raw_pc + len(instr.raw)
    return None


# ---------------------------------------------------------------- source


def _walk_source(source_tags, memory, max_bb_instrs):
    """Build the expectation list by symbolically executing the pristine
    blocks; returns (expectations, state, problems)."""
    state = SymState()
    expects = []
    problems = []
    n = len(source_tags)
    for i, tag in enumerate(source_tags):
        last = i == n - 1
        nxt = None if last else source_tags[i + 1]
        try:
            ilist = build_basic_block(memory, tag, max_instrs=max_bb_instrs)
        except MachineFault as exc:
            problems.append(
                Problem(
                    ERROR,
                    "cannot rebuild source block 0x%x: %s" % (tag, exc),
                )
            )
            return expects, state, problems
        pending_cond = None
        for instr, _orig in _flatten(ilist):
            opcode = instr.opcode
            if instr.is_label():
                continue
            if not instr.is_cti():
                if opcode == Opcode.SYSCALL:
                    expects.append(
                        _Site("syscall", snap=state.snapshot(), tag=tag, last=last)
                    )
                elif opcode == Opcode.HALT:
                    expects.append(
                        _Site("halt", snap=state.snapshot(), tag=tag, last=last)
                    )
                else:
                    try:
                        step(state, opcode, instr.explicit_operands())
                    except SymexecError as exc:
                        problems.append(
                            Problem(
                                ERROR,
                                "source block 0x%x: %s" % (tag, exc),
                            )
                        )
                        return expects, state, problems
                continue

            # Block terminals.
            if instr.is_cond_branch():
                pending_cond = (opcode, instr.target.pc)
                continue
            if opcode == Opcode.JMP:
                target = instr.target.pc
                if pending_cond is not None:
                    jcc, taken = pending_cond
                    pending_cond = None
                    if last:
                        expects.append(
                            _Site(
                                "cond", jcc=jcc, target=taken, fall=target,
                                last=True, next=None, tag=tag,
                                snap=state.snapshot(),
                            )
                        )
                        expects.append(
                            _Site(
                                "jmp", target=target, last=True, next=None,
                                tag=tag, snap=state.snapshot(),
                            )
                        )
                    else:
                        expects.append(
                            _Site(
                                "cond", jcc=jcc, target=taken, fall=target,
                                last=False, next=nxt, tag=tag,
                                snap=state.snapshot(),
                            )
                        )
                else:
                    expects.append(
                        _Site(
                            "jmp", target=target, last=last, next=nxt,
                            tag=tag, snap=state.snapshot(),
                        )
                    )
                continue
            if opcode == Opcode.CALL:
                ret_addr = _return_address(instr)
                state.push(const(ret_addr))
                expects.append(
                    _Site(
                        "call", target=instr.target.pc, ret_addr=ret_addr,
                        last=last, next=nxt, tag=tag, snap=state.snapshot(),
                    )
                )
                continue
            # Indirect terminal: ret / iret / jmp* / call*.
            if instr.is_ret():
                texpr = state.pop_value()
            elif opcode == Opcode.IRET:
                texpr = state.pop_signal_frame()
            else:
                texpr = state.read_operand(instr.target)
                if instr.is_call():
                    state.push(const(_return_address(instr)))
            expects.append(
                _Site(
                    "ind", target=texpr, last=last, next=nxt, tag=tag,
                    snap=state.snapshot(),
                )
            )
    return expects, state, problems


# -------------------------------------------------------------- fragment


def _is_meta(instr):
    return bool(instr.is_meta)


def _note(instr, key):
    note = instr.note
    if isinstance(note, dict):
        return note.get(key)
    return None


def _walk_fragment(ilist, nodes):
    """Build the observable list from the emitted stream; returns
    (observables, state, problems, aborted)."""
    state = SymState()
    observables = []
    problems = []
    flat = _flatten(copy_instructions(ilist), originals=nodes)
    # Positions of labels within the flattened copy, for meta-branch
    # span validation.
    label_pos = {}
    for pos, (instr, _orig) in enumerate(flat):
        if not instr.is_bundle and instr.is_label():
            label_pos[id(instr)] = pos

    for pos, (instr, orig) in enumerate(flat):
        if instr.is_label():
            continue
        if _is_meta(instr):
            if instr.is_cti():
                target = instr.target
                if not isinstance(target, LabelRef):
                    problems.append(
                        Problem(
                            ERROR,
                            "meta control transfer leaves the fragment; "
                            "drequiv cannot erase it",
                            instr=orig,
                        )
                    )
                    return observables, state, problems, True
                span_end = label_pos.get(id(target.label))
                if span_end is None or span_end <= pos:
                    # Linearity's problem; nothing to verify semantically.
                    continue
                for j in range(pos + 1, span_end):
                    inner = flat[j][0]
                    if not inner.is_label() and not _is_meta(inner):
                        problems.append(
                            Problem(
                                ERROR,
                                "meta branch spans application "
                                "instructions; their execution becomes "
                                "conditional and cannot be verified",
                                instr=orig,
                            )
                        )
                        return observables, state, problems, True
            continue

        if _note(instr, "ret_removed") is not None:
            # The custom-traces client deleted an inlined return and left
            # the stack adjustment behind: synthesize the indirect
            # observable the return would have produced.  The popped
            # target is compared symbolically; that it equals the trace
            # continuation is the client's (unprovable) claim.
            texpr = state.load(state.regs[Reg.ESP], 4)
            try:
                step(state, instr.opcode, instr.explicit_operands())
            except SymexecError as exc:
                problems.append(Problem(ERROR, str(exc), instr=orig))
                return observables, state, problems, True
            observables.append(
                _Site(
                    "ind", target=texpr, inline=True, assumed=True,
                    snap=state.snapshot(), instr=orig,
                )
            )
            continue

        if not instr.is_cti():
            opcode = instr.opcode
            if opcode == Opcode.SYSCALL:
                observables.append(
                    _Site("syscall", snap=state.snapshot(), instr=orig)
                )
            elif opcode == Opcode.HALT:
                observables.append(
                    _Site("halt", snap=state.snapshot(), instr=orig)
                )
            else:
                try:
                    step(state, opcode, instr.explicit_operands())
                except SymexecError as exc:
                    problems.append(Problem(ERROR, str(exc), instr=orig))
                    return observables, state, problems, True
            continue

        # Non-meta control transfer.
        target = instr.target
        if isinstance(target, LabelRef):
            problems.append(
                Problem(
                    ERROR,
                    "non-meta control flow to an internal label: the "
                    "application never branched here; fragment is not a "
                    "translation of its source blocks",
                    instr=orig,
                )
            )
            return observables, state, problems, True
        opcode = instr.opcode
        if instr.is_cond_branch():
            observables.append(
                _Site(
                    "cond", jcc=opcode, target=target.pc,
                    snap=state.snapshot(), instr=orig,
                )
            )
            continue
        if opcode == Opcode.JMP:
            observables.append(
                _Site(
                    "jmp", target=target.pc, snap=state.snapshot(), instr=orig
                )
            )
            continue
        if opcode == Opcode.CALL:
            ret_addr = _return_address(instr)
            if ret_addr is None:
                problems.append(
                    Problem(ERROR, "call without a return address", instr=orig)
                )
                return observables, state, problems, True
            state.push(const(ret_addr))
            observables.append(
                _Site(
                    "call", target=target.pc, ret_addr=ret_addr,
                    inline=bool(_note(instr, "inline")),
                    snap=state.snapshot(), instr=orig,
                )
            )
            continue
        # Indirect.
        if instr.is_ret():
            texpr = state.pop_value()
        elif opcode == Opcode.IRET:
            texpr = state.pop_signal_frame()
        else:
            texpr = state.read_operand(target)
            if instr.is_call():
                ret_addr = _return_address(instr)
                if ret_addr is None:
                    problems.append(
                        Problem(
                            ERROR, "call without a return address", instr=orig
                        )
                    )
                    return observables, state, problems, True
                state.push(const(ret_addr))
        observables.append(
            _Site(
                "ind", target=texpr,
                inline=_note(instr, "inline_target") is not None,
                snap=state.snapshot(), instr=orig,
            )
        )
    return observables, state, problems, False


# --------------------------------------------------------------- matching


def _compare_states(exp, ob, src_stores, frag_stores, where, compare_flags=True):
    """Diff two snapshots; returns a list of mismatch strings."""
    diffs = []
    se, so = exp.snap, ob.snap
    for r in range(8):
        a = so["regs"][r]
        b = se["regs"][r]
        if a != b:
            diffs.append(
                "%s: reg %s differs: fragment=%s source=%s"
                % (where, REG_NAMES[Reg(r)], render(a), render(b))
            )
    if compare_flags:
        for name in FLAG_ORDER:
            a = so["flags"][name]
            b = se["flags"][name]
            if a != b:
                diffs.append(
                    "%s: flag %s differs: fragment=%s source=%s"
                    % (where, name, render(a), render(b))
                )
    if so["stores"] != se["stores"]:
        diffs.append(
            "%s: store count differs: fragment logged %d, source %d"
            % (where, so["stores"], se["stores"])
        )
    else:
        for k in range(so["stores"]):
            fa, fs, fv = frag_stores[k]
            sa, ss, sv = src_stores[k]
            if fa != sa or fs != ss or fv != sv:
                diffs.append(
                    "%s: store #%d differs: fragment [%s:%d]=%s, "
                    "source [%s:%d]=%s"
                    % (
                        where, k, render(fa), fs, render(fv),
                        render(sa), ss, render(sv),
                    )
                )
    return diffs


def _describe(exp, index):
    names = {
        "cond": "conditional exit",
        "jmp": "jump exit",
        "call": "call",
        "ind": "indirect branch",
        "syscall": "syscall",
        "halt": "hlt",
    }
    return "%s #%d (source block 0x%x)" % (names[exp.kind], index, exp.tag)


def _match(expects, observables, src_state, frag_state):
    problems = []
    src_stores = src_state.stores
    frag_stores = frag_state.stores
    oi = 0

    def fail(message, instr=None):
        problems.append(Problem(ERROR, message, instr=instr))

    for index, exp in enumerate(expects):
        where = _describe(exp, index)

        if exp.kind == "jmp" and not exp.last:
            # Mid-trace direct jump: stitched out when it targets the
            # next segment — an expectation consuming zero observables.
            if exp.target != exp.next:
                fail(
                    "%s: recorded continuation 0x%x does not match jump "
                    "target 0x%x" % (where, exp.next, exp.target)
                )
                return problems
            if (
                oi < len(observables)
                and observables[oi].kind == "jmp"
                and observables[oi].target == exp.target
            ):
                ob = observables[oi]
                oi += 1
                problems.extend(
                    p_to_problems(
                        _compare_states(exp, ob, src_stores, frag_stores, where),
                        ob,
                    )
                )
            continue

        if oi >= len(observables):
            fail(
                "fragment ends before its source: no code matches %s" % where
            )
            return problems
        ob = observables[oi]
        oi += 1

        if exp.kind in ("syscall", "halt"):
            if ob.kind != exp.kind:
                fail(
                    "%s: fragment has %s here instead" % (where, ob.kind),
                    instr=ob.instr,
                )
                return problems
            # Flags are unobservable at hlt; a syscall leaves them as
            # they are, so they must match there.
            problems.extend(
                p_to_problems(
                    _compare_states(
                        exp, ob, src_stores, frag_stores, where,
                        compare_flags=exp.kind == "syscall",
                    ),
                    ob,
                )
            )
            continue

        if exp.kind == "cond":
            if ob.kind != exp.kind:
                fail(
                    "%s: fragment has a %s here instead" % (where, ob.kind),
                    instr=ob.instr,
                )
                return problems
            straight = ob.jcc == exp.jcc and ob.target == exp.target
            inverted = (
                not exp.last
                and ob.jcc == JCC_OPPOSITE.get(exp.jcc)
                and ob.target == exp.fall
                and exp.target == exp.next
            )
            if straight and not exp.last and exp.fall != exp.next:
                fail(
                    "%s: branch kept but fall-through 0x%x is not the "
                    "recorded continuation 0x%x"
                    % (where, exp.fall, exp.next),
                    instr=ob.instr,
                )
                return problems
            if not straight and not inverted:
                fail(
                    "%s: expected %s -> 0x%x%s, fragment has %s -> 0x%x"
                    % (
                        where, exp.jcc.name.lower(), exp.target,
                        (
                            " (or inverted %s -> 0x%x)"
                            % (
                                JCC_OPPOSITE[exp.jcc].name.lower(), exp.fall
                            )
                            if not exp.last
                            else ""
                        ),
                        ob.jcc.name.lower(), ob.target,
                    ),
                    instr=ob.instr,
                )
                return problems
            problems.extend(
                p_to_problems(
                    _compare_states(exp, ob, src_stores, frag_stores, where),
                    ob,
                )
            )
            continue

        if exp.kind == "jmp":  # last segment
            if ob.kind != "jmp" or ob.target != exp.target:
                fail(
                    "%s: expected jmp -> 0x%x, fragment has %s"
                    % (
                        where, exp.target,
                        "%s -> %s" % (ob.kind, getattr(ob, "target", "?")),
                    ),
                    instr=ob.instr,
                )
                return problems
            problems.extend(
                p_to_problems(
                    _compare_states(exp, ob, src_stores, frag_stores, where),
                    ob,
                )
            )
            continue

        if exp.kind == "call":
            if ob.kind != "call" or ob.target != exp.target:
                fail(
                    "%s: expected call -> 0x%x, fragment has %s"
                    % (where, exp.target, ob.kind),
                    instr=ob.instr,
                )
                return problems
            if ob.ret_addr != exp.ret_addr:
                fail(
                    "%s: return address differs: fragment pushes 0x%x, "
                    "source 0x%x" % (where, ob.ret_addr, exp.ret_addr),
                    instr=ob.instr,
                )
                return problems
            if not exp.last and not ob.inline:
                fail(
                    "%s: mid-trace call was not inlined" % where,
                    instr=ob.instr,
                )
                return problems
            problems.extend(
                p_to_problems(
                    _compare_states(exp, ob, src_stores, frag_stores, where),
                    ob,
                )
            )
            continue

        if exp.kind == "ind":
            if ob.kind != "ind":
                fail(
                    "%s: fragment has a %s here instead" % (where, ob.kind),
                    instr=ob.instr,
                )
                return problems
            if ob.target != exp.target:
                fail(
                    "%s: target expression differs: fragment computes %s, "
                    "source %s"
                    % (where, render(ob.target), render(exp.target)),
                    instr=ob.instr,
                )
                return problems
            if ob.assumed:
                problems.append(
                    Problem(
                        WARNING,
                        "%s: return removed by client; that its target "
                        "0x%x continues the trace is assumed, not proven"
                        % (where, exp.next if exp.next is not None else 0),
                        instr=ob.instr,
                    )
                )
            problems.extend(
                p_to_problems(
                    _compare_states(exp, ob, src_stores, frag_stores, where),
                    ob,
                )
            )
            continue

    if oi < len(observables):
        extra = observables[oi]
        fail(
            "fragment continues past its source: unexpected %s after the "
            "final exit" % extra.kind,
            instr=extra.instr,
        )
    return problems


def p_to_problems(diff_strings, ob):
    return [Problem(ERROR, d, instr=ob.instr) for d in diff_strings]


# ------------------------------------------------------------ entry point


def check_equivalence(ilist, source_tags, memory, max_bb_instrs=256, nodes=None):
    """Compare an emitted fragment against its source blocks.

    ``ilist`` is the (pre-lowering) instruction list headed for the
    cache; it is copied, never mutated.  ``source_tags`` is the ordered
    tuple of application block tags (one for a basic block, the stitched
    sequence for a trace).  ``memory`` is the application memory the
    reference blocks are rebuilt from.  Returns a list of
    :class:`Problem`.
    """
    if not source_tags:
        return [Problem(ERROR, "fragment has no source tags to verify against")]
    if nodes is None:
        nodes = list(ilist)
    expects, src_state, src_problems = _walk_source(
        tuple(source_tags), memory, max_bb_instrs
    )
    if src_problems:
        return src_problems
    observables, frag_state, frag_problems, aborted = _walk_fragment(
        ilist, nodes
    )
    if aborted:
        return frag_problems
    return frag_problems + _match(expects, observables, src_state, frag_state)
