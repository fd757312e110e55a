"""Liveness on linear streams: eflags and registers.

Both analyses are *backward* dataflow problems solved in one pass by
:mod:`repro.analysis.dataflow` — the efficiency the paper buys with its
single-entry, multiple-exit restriction.  Conservatism at the edges:
any control transfer that can leave the fragment (an exit CTI, an
indirect branch, a call, a clean call) is assumed to expose every flag
and register to unknown code, as is falling off the end of the list and
any un-decoded Level-0 bundle.

The query helpers (:func:`eflags_dead_before`,
:func:`find_dead_flags_point`, :func:`registers_written_before_read`)
keep the historical forward-scan API; internally they read the backward
solution, which additionally handles client-inserted intra-fragment
label branches precisely instead of treating them as barriers.
"""

from repro.analysis.dataflow import BACKWARD, DataflowProblem, solve
from repro.isa.eflags import EFLAGS_READ_ALL, writes_to_reads
from repro.isa.opcodes import SHIFT_OPCODES, eflags_killed
from repro.isa.operands import MemOperand, RegOperand
from repro.isa.registers import Reg

# The general-purpose register universe, derived from the ISA definition
# so the analysis cannot drift from ``repro.isa.registers``.
GPR_UNIVERSE = frozenset(Reg)


def _is_clean_call(instr):
    return isinstance(instr.note, dict) and bool(instr.note.get("clean_call"))


def _is_barrier(instr):
    """Instructions past which liveness is unknowable."""
    if _is_clean_call(instr):
        return True
    return instr.is_cti() or instr.is_exit_cti


def instr_eflags_killed(instr):
    """The ``EFLAGS_WRITE_*`` flags ``instr`` always overwrites
    (:func:`repro.isa.opcodes.eflags_killed`; a shift's count is its
    first source)."""
    opcode = instr.opcode
    count = instr.srcs[0] if opcode in SHIFT_OPCODES else None
    return eflags_killed(opcode, count)


def instr_use_def(instr):
    """``(regs_read, regs_written)`` for one instruction.

    Address registers of memory operands count as reads; memory
    contents are not tracked here.
    """
    reads = set()
    writes = set()
    for op in instr.srcs:
        if isinstance(op, RegOperand):
            reads.add(op.reg)
        elif isinstance(op, MemOperand):
            reads.update(op.address_registers())
    for op in instr.dsts:
        if isinstance(op, RegOperand):
            writes.add(op.reg)
        elif isinstance(op, MemOperand):
            reads.update(op.address_registers())
    return reads, writes


class RegisterLiveness(DataflowProblem):
    """Backward register liveness; states are frozensets of ``Reg``."""

    direction = BACKWARD

    def boundary(self):
        return GPR_UNIVERSE

    def transfer(self, instr, state):
        if instr.is_bundle or _is_clean_call(instr):
            # un-decoded code / a clean call: unknown uses
            return GPR_UNIVERSE
        if instr.is_label():
            return state
        reads, writes = instr_use_def(instr)
        if writes or reads:
            return frozenset((state - writes) | reads)
        return state

    def join(self, a, b):
        return a | b


class EflagsLiveness(DataflowProblem):
    """Backward eflags liveness; states are read-effect bitmasks."""

    direction = BACKWARD

    def boundary(self):
        return EFLAGS_READ_ALL

    def transfer(self, instr, state):
        if instr.is_bundle or _is_clean_call(instr):
            return EFLAGS_READ_ALL
        if instr.is_label():
            return state
        killed = writes_to_reads(instr_eflags_killed(instr))
        return (state & ~killed) | (instr.eflags & EFLAGS_READ_ALL)

    def join(self, a, b):
        return a | b


def live_registers(ilist):
    """Solve register liveness over the whole list.

    Returns a :class:`~repro.analysis.dataflow.DataflowResult` whose
    ``before``/``after`` states are frozensets of live ``Reg`` values.
    """
    return solve(RegisterLiveness(), ilist)


def live_eflags(ilist):
    """Solve eflags liveness over the whole list.

    Returns a :class:`~repro.analysis.dataflow.DataflowResult` whose
    ``before``/``after`` states are ``EFLAGS_READ_*`` bitmasks of the
    flags some path may still read.
    """
    return solve(EflagsLiveness(), ilist)


def eflags_dead_before(ilist, where):
    """Whether all six arithmetic flags are dead just before ``where``.

    Dead means no path from ``where`` reads any flag before it is
    rewritten; ``where``'s own flag writes count.  This is the general
    form of the Figure 3 client's CF scan.
    """
    return live_eflags(ilist).before(where) == 0


def find_dead_flags_point(ilist):
    """First instruction in the list before which eflags are dead.

    Returns the Instr (insert before it), or None when no such point
    exists.  Instrumentation clients use this to place flag-writing
    counters without an eflags save/restore.
    """
    result = live_eflags(ilist)
    for instr in ilist:
        if instr.is_bundle:
            return None
        if instr.is_label():
            continue
        if result.before(instr) == 0:
            return instr
        if _is_barrier(instr):
            return None
    return None


def registers_written_before_read(ilist, where):
    """Registers provably dead just before ``where``: no path from
    ``where`` reads them before writing them.

    A client may use such a register as scratch at that point without
    spilling.  Conservative: exits, clean calls, and un-decoded bundles
    keep every register live.
    """
    return set(GPR_UNIVERSE - live_registers(ilist).before(where))
