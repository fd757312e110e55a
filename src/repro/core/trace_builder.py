"""Trace construction (paper Sections 2, 3.5).

Basic blocks that are *trace heads* (targets of backward branches, exits
of existing traces, or blocks the client marked via
``dr_mark_trace_head``) carry an execution counter.  When the counter
crosses the threshold the runtime enters trace generation mode: each
subsequently executed block is appended until a termination point, then
the recorded blocks are stitched into a single linear InstrList:

* elided unconditional jumps between consecutive blocks;
* conditional branches inverted when the trace follows the taken side,
  so staying on-trace is always the fall-through;
* calls whose callee is the next block inlined (the return address push
  is kept, with the *application* return address — transparency);
* indirect branches inlined with a target check: much cheaper than the
  hashtable lookup when the target is stable, falling back to the IBL
  when the check fails.
"""

from repro.ir.instrlist import InstrList
from repro.isa.opcodes import JCC_OPPOSITE, Opcode
from repro.isa.operands import PcOperand
from repro.observe.events import EV_TRACE_STITCH

# Client end-trace answers (paper Table 3 / Section 3.5).
END_TRACE = 1
CONTINUE_TRACE = 0
DEFAULT_TRACE_END = -1

# Longest trace, in basic blocks: recording ends here whatever the
# client's end-trace answer.
MAX_TRACE_BBS = 16


class TraceRecording:
    """Blocks accumulated while in trace generation mode."""

    def __init__(self, head_tag):
        self.head_tag = head_tag
        self.entries = []  # list of (fragment, ilist-copy)

    def append(self, fragment):
        self.entries.append(fragment)

    def __len__(self):
        return len(self.entries)

    def tags(self):
        return [f.tag for f in self.entries]


def default_end_of_trace(recording, last_fragment, next_tag, runtime_thread):
    """The built-in termination test (Dynamo's NET): stop at a
    *backward taken branch* — a direct jmp/jcc closing a cycle — or
    upon reaching an existing trace or trace head.

    Calls and returns are not cycle-closing and do not stop trace
    growth, which is how traces come to contain inlined calls and
    returns (with the paper's Section 4.4 caveat that loop-focused
    traces still frequently split a call from its return)."""
    frag = runtime_thread.lookup_fragment(next_tag)
    if frag is not None and (frag.is_trace or frag.is_trace_head):
        return True
    if next_tag <= last_fragment.tag:
        for stub in last_fragment.exits:
            if (
                stub.kind == "direct"
                and not stub.is_call_exit
                and stub.target_tag == next_tag
            ):
                return True
    return False


def _copy_block(ilist):
    from repro.ir.instrlist import copy_instructions

    return copy_instructions(ilist)


def _is_synthetic_jmp(instr):
    return isinstance(instr.note, dict) and instr.note.get("synthetic_fallthrough")


def stitch_trace(recording, observer=None):
    """Stitch recorded blocks into one linear InstrList.

    ``recording.entries[i+1].tag`` is the on-trace continuation of block
    ``i``; the last block's exits are left untouched.  When tracing is
    enabled, emits one ``trace_stitch`` event summarizing the layout
    transformations (elided jumps, inverted branches, inlined calls and
    indirect checks — the paper's Figure 4 mechanisms).
    """
    trace = InstrList()
    entries = recording.entries
    elided_jumps = 0
    inverted_branches = 0
    inlined_calls = 0
    inlined_checks = 0
    for i, fragment in enumerate(entries):
        block = _copy_block(fragment.instrs_source)
        is_last = i == len(entries) - 1
        next_tag = None if is_last else entries[i + 1].tag
        j = 0
        while j < len(block):
            instr = block[j]
            if is_last or not (instr.level >= 2 and instr.is_cti()):
                trace.append(instr)
                j += 1
                continue
            opcode = instr.opcode
            from repro.ir.instr import LabelRef

            if isinstance(instr.target, LabelRef):
                # client-inserted intra-block branch: leave untouched
                trace.append(instr)
                j += 1
                continue

            if instr.is_cond_branch():
                taken = instr.target.pc
                # the bb builder guarantees a synthetic fall-through jmp
                # right after a block-ending conditional branch
                fallthrough_jmp = block[j + 1] if j + 1 < len(block) else None
                fallthrough = (
                    fallthrough_jmp.target.pc if fallthrough_jmp is not None else None
                )
                if next_tag == taken:
                    # invert: stay on trace via fall-through
                    instr.set_opcode(JCC_OPPOSITE[opcode])
                    instr.set_target(PcOperand(fallthrough))
                    instr.is_exit_cti = True
                    inverted_branches += 1
                    trace.append(instr)
                    j += 2  # drop the synthetic jmp: elided
                else:
                    # trace follows the fall-through: keep the branch as
                    # a taken-side exit, elide the synthetic jump
                    trace.append(instr)
                    j += 2
                continue

            if opcode == Opcode.JMP:
                if instr.target.pc == next_tag:
                    elided_jumps += 1
                    j += 1  # elided: fall straight into the next block
                else:
                    trace.append(instr)
                    j += 1
                continue

            if opcode == Opcode.CALL:
                if instr.target.pc == next_tag:
                    note = instr.note if isinstance(instr.note, dict) else {}
                    note["inline"] = True
                    instr.note = note
                    inlined_calls += 1
                trace.append(instr)
                j += 1
                continue

            # Indirect branch inside the trace: inline a check against
            # the recorded continuation.
            if instr.is_indirect_branch():
                note = instr.note if isinstance(instr.note, dict) else {}
                note["inline_target"] = next_tag
                instr.note = note
                instr.is_exit_cti = True
                inlined_checks += 1
                trace.append(instr)
                j += 1
                continue

            trace.append(instr)
            j += 1
    if observer is not None:
        observer.emit(
            EV_TRACE_STITCH,
            recording.head_tag,
            blocks=len(entries),
            elided_jumps=elided_jumps,
            inverted_branches=inverted_branches,
            inlined_calls=inlined_calls,
            inlined_checks=inlined_checks,
        )
    return trace
