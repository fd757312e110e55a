"""Deterministic cycle cost model for the RIO-32 machine.

The paper's measurements come from real hardware effects; this model
encodes the same effects as explicit, documented parameters so that the
*events* — not wall-clock noise — determine every reported number:

* per-instruction execution costs (with the Pentium-family quirk the
  strength-reduction client exploits: ``inc``/``dec`` stall on the P4's
  partial-flags update, so ``add 1`` is cheaper there, and vice versa on
  the P3);
* pipeline penalties: taken branches, indirect-branch (BTB) and return
  (RAS) mispredictions;
* runtime event costs charged by the dynamic translator: context
  switches, basic-block/trace construction, linking, the indirect-branch
  hashtable lookup, and the per-instruction cost of pure emulation.

All program-level experiments report *ratios* of total cycles, which is
exactly what the paper reports (normalized execution time).
"""

from enum import Enum

from repro.isa.opcodes import OP_INFO, OPERAND_ROLES, Opcode
from repro.isa.operands import ImmOperand, MemOperand


class Family(Enum):
    """Processor family, selectable per machine (paper Section 4.2)."""

    PENTIUM_III = 3
    PENTIUM_IV = 4


# Base cycles per cost class, shared by both families.
_BASE_COSTS = {
    "mov": 1,
    "load": 1,
    "store": 1,
    "alu": 1,
    "incdec": 1,
    "shift": 1,
    "mul": 4,
    "div": 24,
    "push": 2,
    "pop": 2,
    "xchg": 2,
    "fload": 2,
    "fstore": 2,
    "fadd": 4,
    "fmul": 6,
    "fdiv": 24,
    "nop": 1,
    "halt": 1,
    "syscall": 40,
    "jmp": 1,
    "jcc": 1,
    "jmp_ind": 2,
    "call": 2,
    "call_ind": 3,
    "ret": 2,
}
_MASK32 = 0xFFFFFFFF


class CostModel:
    """All tunable cycle costs.  Instances are mutable for ablations."""

    def __init__(self, family=Family.PENTIUM_IV):
        self.family = family
        self.base_costs = dict(_BASE_COSTS)
        # Family quirks: P4 pays a partial-flags stall on inc/dec; the
        # P3 instead pays a micro-op penalty on add-with-immediate
        # relative to inc (the "opposite is true on the Pentium 3").
        self.incdec_p4_stall = 3
        self.addsub_imm1_p3_extra = 1
        # Memory operand extras (beyond the class base): a P4 L1 load
        # is ~4 cycles of latency, so folding a load into an ALU op or
        # removing it outright (the RLR client) is worth real cycles.
        self.mem_read_extra = 3
        self.mem_write_extra = 2
        # Hardware branch penalties.
        self.taken_branch_penalty = 3
        self.indirect_mispredict = 14
        self.ras_mispredict = 14
        self.ras_depth = 16
        # Thread scheduling and (optional) shared-cache synchronization.
        self.thread_switch = 120
        self.shared_cache_sync = 60
        # Asynchronous signal delivery (kernel → handler redirect).
        self.signal_delivery = 150
        # Runtime (software) event costs.
        self.context_switch = 250
        self.dispatch = 150
        self.bb_build_base = 500
        self.bb_build_per_instr = 60
        self.trace_build_base = 900
        self.trace_build_per_instr = 90
        self.link_cost = 40
        self.ibl_lookup = 25
        self.fragment_entry = 2
        # Cache consistency: invalidating the fragments translated from
        # a written code region (unlink + delete bookkeeping).
        self.smc_invalidate = 120
        # Calibrated so pure emulation lands at the paper's "slowdown
        # factor of several hundred" on crafty/vpr (Table 1 row 1).
        self.emulate_per_instr = 800
        # Client event costs (charged when a client hook runs).
        self.client_bb_hook_per_instr = 15
        self.client_trace_hook_per_instr = 30

    def instr_cost(self, info, reads_mem, writes_mem, imm1=False):
        """Execution cost of one instruction.

        ``reads_mem``/``writes_mem`` refer to explicit memory operands;
        implicit stack traffic is folded into the class base cost.
        ``imm1`` marks an add/sub with an immediate of 1 (the strength-
        reduction alternative to inc/dec) for the P3-side quirk.
        """
        cost = self.base_costs[info.cost_class]
        if info.cost_class == "incdec" and self.family == Family.PENTIUM_IV:
            cost += self.incdec_p4_stall
        if imm1 and self.family == Family.PENTIUM_III:
            cost += self.addsub_imm1_p3_extra
        if reads_mem:
            cost += self.mem_read_extra
        if writes_mem:
            cost += self.mem_write_extra
        return cost

    def static_cost(self, opcode, explicit):
        """The cycles one instruction costs wherever it runs: natively,
        emulated, or lowered into a fragment (a control transfer's
        branch penalties, which depend on the outcome, excluded).

        ``explicit`` is the instruction's explicit operand tuple; each
        memory operand is charged by its role in the opcode's operand
        shape (``repro.isa.opcodes.OPERAND_ROLES``; read:
        ``mem_read_extra``, written: ``mem_write_extra``).
        An add/sub of the immediate 1 or -1 is the strength-reduction
        alternative to inc/dec.
        """
        info = OP_INFO[opcode]
        reads = writes = False
        for operand, role in zip(explicit, OPERAND_ROLES[info.shape]):
            if isinstance(operand, MemOperand):
                reads = reads or "r" in role
                writes = writes or "w" in role
        imm1 = (
            opcode in (Opcode.ADD, Opcode.SUB)
            and isinstance(explicit[1], ImmOperand)
            and explicit[1].value & _MASK32 in (1, _MASK32)
        )
        return self.instr_cost(info, reads, writes, imm1)

    def copy(self):
        import copy as _copy

        return _copy.deepcopy(self)


class CycleCounter:
    """Accumulates cycles and named event counts."""

    __slots__ = ("cycles", "events")

    def __init__(self):
        self.cycles = 0
        self.events = {}

    def charge(self, cycles, event=None):
        self.cycles += cycles
        if event is not None:
            self.events[event] = self.events.get(event, 0) + 1

    def count(self, event):
        """Record an event without charging cycles."""
        self.events[event] = self.events.get(event, 0) + 1

    def merge(self, other):
        self.cycles += other.cycles
        for key, value in other.events.items():
            self.events[key] = self.events.get(key, 0) + value
