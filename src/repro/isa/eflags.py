"""Condition-code (eflags) masks for RIO-32.

Following the paper, every opcode is tagged with the set of flags it
*reads* and the set it *writes*.  The six arithmetic flags mirror IA-32:

========  ===========================================
``CF``    carry (unsigned overflow)
``PF``    parity of the low result byte
``AF``    auxiliary carry (BCD half-carry)
``ZF``    zero
``SF``    sign (high bit of result)
``OF``    signed overflow
========  ===========================================

Read and write effects are packed into one integer bitmask so a client
can test hazards with single ``&`` operations — this is exactly the
"Level 2" information DynamoRIO decodes eagerly because it is the common
question every code transformation asks.
"""

# Flag bit positions within the eflags register value itself.
CF = 1 << 0
PF = 1 << 2
AF = 1 << 4
ZF = 1 << 6
SF = 1 << 7
OF = 1 << 11

FLAG_BITS = (CF, PF, AF, ZF, SF, OF)
FLAG_NAMES = {CF: "CF", PF: "PF", AF: "AF", ZF: "ZF", SF: "SF", OF: "OF"}

# Read/write effect masks (independent from the flag bit positions).
EFLAGS_READ_CF = 1 << 0
EFLAGS_READ_PF = 1 << 1
EFLAGS_READ_AF = 1 << 2
EFLAGS_READ_ZF = 1 << 3
EFLAGS_READ_SF = 1 << 4
EFLAGS_READ_OF = 1 << 5
EFLAGS_WRITE_CF = 1 << 6
EFLAGS_WRITE_PF = 1 << 7
EFLAGS_WRITE_AF = 1 << 8
EFLAGS_WRITE_ZF = 1 << 9
EFLAGS_WRITE_SF = 1 << 10
EFLAGS_WRITE_OF = 1 << 11

EFLAGS_READ_ALL = (
    EFLAGS_READ_CF
    | EFLAGS_READ_PF
    | EFLAGS_READ_AF
    | EFLAGS_READ_ZF
    | EFLAGS_READ_SF
    | EFLAGS_READ_OF
)
EFLAGS_WRITE_ALL = (
    EFLAGS_WRITE_CF
    | EFLAGS_WRITE_PF
    | EFLAGS_WRITE_AF
    | EFLAGS_WRITE_ZF
    | EFLAGS_WRITE_SF
    | EFLAGS_WRITE_OF
)

# "WCPAZSO" in the paper's Figure 2: writes all six arithmetic flags.
EFLAGS_WRITE_ARITH = EFLAGS_WRITE_ALL
EFLAGS_READ_ARITH = EFLAGS_READ_ALL

# Map between read and write halves: write mask for a given read mask.
_READ_TO_WRITE_SHIFT = 6


def reads_to_writes(read_mask):
    """Convert a read-effects mask into the corresponding write mask."""
    return (read_mask & EFLAGS_READ_ALL) << _READ_TO_WRITE_SHIFT


def writes_to_reads(write_mask):
    """Convert a write-effects mask into the corresponding read mask."""
    return (write_mask & EFLAGS_WRITE_ALL) >> _READ_TO_WRITE_SHIFT


_WRITE_TO_FLAG = (
    (EFLAGS_WRITE_CF, CF),
    (EFLAGS_WRITE_PF, PF),
    (EFLAGS_WRITE_AF, AF),
    (EFLAGS_WRITE_ZF, ZF),
    (EFLAGS_WRITE_SF, SF),
    (EFLAGS_WRITE_OF, OF),
)


def writes_to_flags(write_mask):
    """The eflags register bits (``CF``, ``PF``, ...) a write-effects
    mask names."""
    flags = 0
    for write, flag in _WRITE_TO_FLAG:
        if write_mask & write:
            flags |= flag
    return flags


_EFFECT_LETTERS = (
    (EFLAGS_WRITE_CF, EFLAGS_READ_CF, "C"),
    (EFLAGS_WRITE_PF, EFLAGS_READ_PF, "P"),
    (EFLAGS_WRITE_AF, EFLAGS_READ_AF, "A"),
    (EFLAGS_WRITE_ZF, EFLAGS_READ_ZF, "Z"),
    (EFLAGS_WRITE_SF, EFLAGS_READ_SF, "S"),
    (EFLAGS_WRITE_OF, EFLAGS_READ_OF, "O"),
)


def eflags_to_string(effects):
    """Render an effects mask in the paper's Figure 2 notation.

    Writes are listed after a ``W``, reads after an ``R``; an instruction
    with no flag effects renders as ``"-"``.  Example: ``cmp`` is
    ``"WCPAZSO"`` and ``jnl`` is ``"RSO"``.
    """
    writes = "".join(letter for w, _, letter in _EFFECT_LETTERS if effects & w)
    reads = "".join(letter for _, r, letter in _EFFECT_LETTERS if effects & r)
    parts = []
    if writes:
        parts.append("W" + writes)
    if reads:
        parts.append("R" + reads)
    return " ".join(parts) if parts else "-"
