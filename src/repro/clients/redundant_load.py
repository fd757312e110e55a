"""Redundant load removal (paper Section 4.1).

A classical compiler optimization applied dynamically: IA-32's eight
registers force compilers to keep locals on the stack, so hot code is
full of loads from locations whose value is already in a register.  The
client walks each trace's linear instruction stream tracking which
register mirrors which memory location; a later load from a mirrored
location becomes a register move (or disappears when it targets the
same register).

Safety rules on the linear stream:

* a register write kills its own mapping and every mapping whose
  address uses it;
* a store kills the mappings its target *may alias*: two operands off
  the same base register with no index and disjoint displacement ranges
  provably do not alias (the stack-slot case that makes the analysis
  useful); anything else is conservatively assumed to alias;
* calls, clean calls, syscalls, and indirect branches kill everything;
* removing/rewriting a ``mov`` (or ``fld``) is flags-safe because RIO-32
  moves never touch eflags;
* exits need no special casing: off-trace paths resume at original
  application code.
"""

from repro.api.client import Client
from repro.api.dr import dr_printf
from repro.ir.create import INSTR_CREATE_mov, OPND_CREATE_REG
from repro.isa.opcodes import Opcode
from repro.isa.operands import MemOperand, RegOperand


def _kills_everything(instr):
    if isinstance(instr.note, dict) and instr.note.get("clean_call"):
        return True
    opcode = instr.opcode
    return opcode in (Opcode.SYSCALL, Opcode.CALL, Opcode.CALL_IND, Opcode.RET)


class RedundantLoadRemoval(Client):
    """Removes trace-local redundant loads; counts its work."""

    def __init__(self, optimize_blocks=False):
        super().__init__()
        self.optimize_blocks = optimize_blocks
        self.loads_seen = 0
        self.loads_removed = 0
        self.loads_rewritten = 0

    # ------------------------------------------------------------ the pass

    def basic_block(self, context, tag, ilist):
        if self.optimize_blocks:
            ilist.decode_all()
            self._optimize(ilist)

    def trace(self, context, tag, ilist):
        self._optimize(ilist)

    def _optimize(self, ilist):
        # reg -> MemOperand currently mirrored by that register
        mirrors = {}

        def kill_reg(reg):
            mirrors.pop(reg, None)
            for r in list(mirrors):
                if mirrors[r].uses_reg(reg):
                    del mirrors[r]

        def kill_stores(store_op=None):
            """A store happened; drop every mirror it may alias."""
            for r in list(mirrors):
                if store_op is None or _may_alias(mirrors[r], store_op):
                    del mirrors[r]

        for instr in ilist:
            if instr.is_label():
                if isinstance(instr.note, dict) and instr.note.get("clean_call"):
                    mirrors.clear()
                continue
            if _kills_everything(instr):
                mirrors.clear()
                continue
            opcode = instr.opcode

            # Pure register<-memory loads are the candidates.
            if opcode in (Opcode.MOV, Opcode.FLD):
                dst = instr.dst(0)
                src = instr.src(0)
                if isinstance(dst, RegOperand) and isinstance(src, MemOperand):
                    self.loads_seen += 1
                    holder = self._find_mirror(mirrors, src)
                    if holder is not None:
                        if holder == dst.reg:
                            ilist.remove(instr)
                            self.loads_removed += 1
                        else:
                            new = INSTR_CREATE_mov(
                                OPND_CREATE_REG(dst.reg),
                                OPND_CREATE_REG(holder),
                            )
                            ilist.replace(instr, new)
                            self.loads_rewritten += 1
                            kill_reg(dst.reg)
                            if not src.uses_reg(dst.reg):
                                mirrors[dst.reg] = src
                        continue
                    kill_reg(dst.reg)
                    if not src.uses_reg(dst.reg):
                        mirrors[dst.reg] = src
                    continue
                if isinstance(dst, MemOperand) and isinstance(src, RegOperand):
                    # store: the stored register now mirrors the slot
                    kill_stores(dst)
                    if not dst.uses_reg(src.reg):
                        mirrors[src.reg] = dst
                    continue

            # Memory operands folded into ALU instructions (add eax,
            # [ebp-8]) are loads too: narrow them to register operands
            # when the location is mirrored.  Skip lea (address, not
            # load) and operands that are also written.
            if (
                mirrors
                and opcode not in (Opcode.LEA, Opcode.POP)
                and not instr.is_cti()
            ):
                dsts = instr.dsts
                for idx, op in enumerate(instr.srcs):
                    if not isinstance(op, MemOperand):
                        continue
                    if any(d == op for d in dsts):
                        continue
                    holder = self._find_mirror(mirrors, op)
                    if holder is not None:
                        self.loads_seen += 1
                        instr.set_src(idx, RegOperand(holder))
                        self.loads_rewritten += 1

            # General case: account writes.
            if instr.writes_memory():
                store_ops = [op for op in instr.dsts if isinstance(op, MemOperand)]
                for op in store_ops:
                    kill_stores(op)
            for op in instr.dsts:
                if isinstance(op, RegOperand):
                    kill_reg(op.reg)
            if instr.opcode == Opcode.XCHG:
                mirrors.clear()

    @staticmethod
    def _find_mirror(mirrors, memop):
        for reg, mem in mirrors.items():
            if mem == memop:
                return reg
        return None

    # --------------------------------------------------------------- report

    def exit(self):
        dr_printf(
            self,
            "RLR: %d loads seen, %d removed, %d narrowed to register moves",
            self.loads_seen,
            self.loads_removed,
            self.loads_rewritten,
        )


def _may_alias(a, b):
    """Whether two memory operands may address overlapping bytes.

    Provably disjoint only for index-free operands off the *same* base
    register (or both absolute) with non-overlapping [disp, disp+size)
    ranges; everything else conservatively aliases.
    """
    if a.index is not None or b.index is not None:
        return True
    if a.base != b.base:
        return True
    return a.disp < b.disp + b.size and b.disp < a.disp + a.size
