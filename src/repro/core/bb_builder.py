"""Basic block construction from application code.

A basic block is a sequence of instructions ending with a single control
transfer (paper Section 2).  Following the paper's Section 3.1 example,
the built InstrList contains a Level-0 bundle for the straight-line run
and a fully decoded (Level 3) block-ending CTI, "ready for
modification"; a client that wants more detail expands/decodes the list
itself — paying only for what it uses.

A block ending in a conditional branch gets a synthetic fall-through
``jmp`` appended (the fall-through exit that DynamoRIO materializes in
the cache), so such blocks have two direct exits.
"""

from repro.ir.instr import Instr
from repro.ir.instrlist import InstrList
from repro.isa.decoder import decode_boundary, decode_opcode
from repro.isa.opcodes import OP_INFO, Opcode
from repro.isa.operands import PcOperand
from repro.machine.errors import MachineFault

# Longest basic block: a longer straight-line run is split here.
MAX_BB_INSTRS = 256


def build_basic_block(memory, tag, max_instrs=MAX_BB_INSTRS):
    """Decode the basic block starting at application address ``tag``.

    Returns an :class:`InstrList`.  The straight-line prefix is a single
    Level-0 bundle; the block-ending CTI is decoded to Level 3.  Blocks
    are also terminated (without a CTI) at ``max_instrs`` or at a
    ``hlt``; such blocks get a synthetic jump to the next address.
    """
    view = memory.view()
    pc = tag
    count = 0
    # Scan for the block end with the cheap Level-2 decode.
    while True:
        try:
            opcode, _eflags, length = decode_opcode(view, pc)
        except Exception as exc:
            raise MachineFault("cannot decode block at 0x%x: %s" % (pc, exc))
        count += 1
        if OP_INFO[opcode].is_cti:
            cti_pc, cti_len = pc, length
            break
        pc += length
        # Syscalls end basic blocks (as in DynamoRIO: the kernel may
        # transfer control); hlt ends the program, and over-long blocks
        # are split.
        if (
            opcode == Opcode.HALT
            or opcode == Opcode.SYSCALL
            or count >= max_instrs
        ):
            cti_pc, cti_len = None, 0
            break

    ilist = InstrList()
    if cti_pc is None:
        body_end = pc
    else:
        body_end = cti_pc
    if body_end > tag:
        ilist.append(Instr.bundle(bytes(view[tag:body_end]), tag))
    if cti_pc is not None:
        cti = Instr.from_raw(bytes(view[cti_pc : cti_pc + cti_len]), cti_pc)
        cti.srcs  # decode to Level 3, "ready for modification"
        cti.is_exit_cti = True
        ilist.append(cti)
        if cti.is_cond_branch():
            fallthrough = Instr.create(Opcode.JMP, PcOperand(cti_pc + cti_len))
            fallthrough.is_exit_cti = True
            fallthrough.note = {"synthetic_fallthrough": True}
            ilist.append(fallthrough)
    else:
        # Block ended without a CTI (hlt or size limit): continue at the
        # next address via a synthetic jump (hlt itself stays in the
        # block and ends the program when executed).
        cont = Instr.create(Opcode.JMP, PcOperand(pc))
        cont.is_exit_cti = True
        cont.note = {"synthetic_fallthrough": True}
        ilist.append(cont)
    return ilist


def block_source_span(ilist, tag):
    """The application-code byte range ``(tag, end)`` a built block was
    decoded from, for the cache-consistency region map.

    Scans for the highest raw-byte extent among instructions that still
    carry their original bytes (the Level-0 bundle and the decoded exit
    CTI); synthetic instructions (no raw bits) contribute nothing.  A
    block whose instructions have all been replaced falls back to a
    one-byte span at ``tag`` so the head address itself stays monitored.
    """
    end = tag
    for instr in ilist:
        if instr.raw_bits_valid() and instr.raw_pc is not None:
            extent = instr.raw_pc + len(instr.raw)
            if extent > end:
                end = extent
    if end == tag:
        end = tag + 1
    return (tag, end)


def block_instr_count(ilist):
    """Number of application instructions in a built block (synthetic
    fall-through jumps excluded)."""
    total = 0
    for instr in ilist:
        if instr.is_bundle:
            off = 0
            while off < len(instr.raw):
                off += decode_boundary(instr.raw, off)
                total += 1
        elif isinstance(instr.note, dict) and instr.note.get("synthetic_fallthrough"):
            continue
        elif not (instr.level >= 2 and instr.is_label()):
            total += 1
    return total
