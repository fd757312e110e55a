"""inc→add strength reduction (paper Section 4.2, Figure 3).

On the Pentium 4, ``inc``/``dec`` stall on the partial eflags update
(they write every arithmetic flag *except* CF), so ``add 1``/``sub 1``
are faster — and the opposite holds on the Pentium 3.  The client is a
near-transliteration of the paper's Figure 3: enabled only when the
processor is a Pentium 4, it walks each trace, and for every inc/dec
performs the CF-liveness scan — ``add`` writes CF where ``inc`` does
not, so the substitution is legal only if CF is written again (by an
instruction that does not first read it) before any read, without
leaving the fragment.
"""

from repro.analysis.liveness import instr_eflags_killed
from repro.api.client import Client
from repro.api.dr import (
    FAMILY_PENTIUM_IV,
    dr_printf,
    instr_get_dst,
    instr_get_eflags,
    instr_get_next,
    instr_get_opcode,
    instr_get_prefixes,
    instr_set_prefixes,
    instrlist_first,
    instrlist_replace,
    proc_get_family,
)
from repro.ir.create import (
    INSTR_CREATE_add,
    INSTR_CREATE_sub,
    OPND_CREATE_INT8,
)
from repro.isa.eflags import EFLAGS_READ_CF, EFLAGS_WRITE_CF
from repro.isa.opcodes import Opcode


class StrengthReduction(Client):
    """The paper's inc2add client."""

    def __init__(self, optimize_blocks=False):
        super().__init__()
        self.enable = False
        self.optimize_blocks = optimize_blocks
        self.num_examined = 0
        self.num_converted = 0

    def init(self):
        self.enable = proc_get_family(self) == FAMILY_PENTIUM_IV

    def exit(self):
        if self.enable:
            dr_printf(
                self,
                "converted %d out of %d",
                self.num_converted,
                self.num_examined,
            )
        else:
            dr_printf(self, "kept original inc/dec")

    def basic_block(self, context, tag, ilist):
        if self.optimize_blocks and self.enable:
            ilist.decode_all()
            self._walk(context, ilist)

    def trace(self, context, tag, ilist):
        if not self.enable:
            return
        self._walk(context, ilist)

    def _walk(self, context, trace):
        instr = instrlist_first(trace)
        while instr is not None:
            next_instr = instr_get_next(instr)
            if not instr.is_label():
                opcode = instr_get_opcode(instr)
                if opcode in (Opcode.INC, Opcode.DEC):
                    self.num_examined += 1
                    if self._inc2add(context, instr, trace):
                        self.num_converted += 1
            instr = next_instr

    def _inc2add(self, context, instr, trace):
        """Figure 3's ``inc2add``: replace if CF is dead here."""
        opcode = instr_get_opcode(instr)
        ok_to_replace = False
        # add writes CF, inc does not — check that's acceptable.
        scan = instr
        while scan is not None:
            if not scan.is_label():
                eflags = instr_get_eflags(scan)
                if scan is not instr and eflags & EFLAGS_READ_CF:
                    return False
                if scan is not instr and (
                    instr_eflags_killed(scan) & EFLAGS_WRITE_CF
                ):
                    # always overwritten without a read: safe to clobber
                    ok_to_replace = True
                    break
                # simplification from the paper: stop at the first exit
                if scan is not instr and scan.is_exit_cti:
                    return False
                if scan.is_cti():
                    return False
            scan = instr_get_next(scan)
        if not ok_to_replace:
            return False
        if opcode == Opcode.INC:
            new = INSTR_CREATE_add(instr_get_dst(instr, 0), OPND_CREATE_INT8(1))
        else:
            new = INSTR_CREATE_sub(instr_get_dst(instr, 0), OPND_CREATE_INT8(1))
        instr_set_prefixes(new, instr_get_prefixes(instr))
        instrlist_replace(trace, instr, new)
        return True
