"""The ``Instr`` data structure with adaptive levels of detail.

An ``Instr`` starts at the level its constructor implies and moves
between levels automatically:

* asking for the opcode of a Level-0/1 instruction performs the Level-2
  decode in place;
* asking for operands performs the full Level-3 decode;
* any mutation (operand, opcode, prefixes) invalidates the raw bits,
  moving the instruction to Level 4;
* encoding a Level-0..3 instruction is a raw-byte copy; only Level 4
  pays for template-search encoding.

Instances double as linked-list nodes of an
:class:`~repro.ir.instrlist.InstrList` (``prev``/``next``), exactly like
DynamoRIO's ``instr_t``.  The ``note`` field is the client annotation
slot the paper describes.
"""

import sys

from repro.isa.decoder import decode_boundary, decode_full, decode_opcode
from repro.isa.encoder import encode_instr
from repro.isa.opcodes import OP_INFO, Opcode
from repro.isa.operands import MemOperand, PcOperand
from repro.ir.levels import LEVEL_0, LEVEL_1, LEVEL_2, LEVEL_3, LEVEL_4
from repro.ir.shapes import expand_operands, extract_explicit


class BundleError(Exception):
    """Operation requires a single instruction but this is a bundle."""


class LabelRef:
    """A branch target that points at a LABEL pseudo-instruction.

    Resolved to a concrete :class:`PcOperand` when the owning
    :class:`InstrList` is encoded.
    """

    __slots__ = ("label",)

    def __init__(self, label):
        if label.opcode != Opcode.LABEL:
            raise ValueError("LabelRef must point at a LABEL instruction")
        self.label = label

    def is_reg(self):
        return False

    def is_imm(self):
        return False

    def is_mem(self):
        return False

    def is_pc(self):
        return False

    def uses_reg(self, reg):
        return False

    def __repr__(self):
        return "<label %x>" % id(self.label)


class Instr:
    """One instruction (or Level-0 bundle) in an InstrList."""

    __slots__ = (
        "prev",
        "next",
        "owner",
        "note",
        "is_meta",
        "is_exit_cti",
        "exit_stub_code",
        "exit_always_stub",
        "_level",
        "_raw",
        "_raw_pc",
        "_bundle_count",
        "_opcode",
        "_eflags",
        "_prefixes",
        "_srcs",
        "_dsts",
    )

    def __init__(self):
        self.prev = None
        self.next = None
        self.owner = None  # the InstrList this node is linked into
        self.note = None
        # Meta-instructions (client-inserted instrumentation) execute
        # for the client's benefit, not the application's: the fragment
        # verifier holds them to the transparency rules (no application
        # state clobbered).  Mark via dr.instr_set_meta().
        self.is_meta = False
        # Exit-CTI support (paper Section 3.2, custom exit stubs).
        self.is_exit_cti = False
        self.exit_stub_code = None  # InstrList prepended to this exit's stub
        self.exit_always_stub = False  # exit goes through stub even when linked
        self._level = LEVEL_4
        self._raw = None
        self._raw_pc = None
        self._bundle_count = None
        self._opcode = None
        self._eflags = 0
        self._prefixes = b""
        self._srcs = None
        self._dsts = None

    # ---------------------------------------------------------- constructors

    @classmethod
    def bundle(cls, raw, pc):
        """Level 0: raw bytes of one *or more* instructions.

        Only the final boundary (total length) is recorded; individual
        boundaries are discovered when the bundle is expanded.
        """
        instr = cls()
        instr._level = LEVEL_0
        instr._raw = bytes(raw)
        instr._raw_pc = pc
        instr._bundle_count = None  # unknown until expanded
        return instr

    @classmethod
    def from_raw(cls, raw, pc):
        """Level 1: the raw bytes of exactly one instruction."""
        instr = cls()
        instr._level = LEVEL_1
        instr._raw = bytes(raw)
        instr._raw_pc = pc
        return instr

    @classmethod
    def from_decoded(cls, opcode, explicit, raw=None, pc=None, prefixes=()):
        """Level 3 (raw given) or Level 4 (raw is None)."""
        instr = cls()
        instr._opcode = Opcode(opcode)
        instr._eflags = OP_INFO[instr._opcode].eflags
        instr._prefixes = bytes(prefixes)
        srcs, dsts = expand_operands(instr._opcode, tuple(explicit))
        instr._srcs = srcs
        instr._dsts = dsts
        if raw is not None:
            instr._level = LEVEL_3
            instr._raw = bytes(raw)
            instr._raw_pc = pc
        else:
            instr._level = LEVEL_4
        return instr

    @classmethod
    def create(cls, opcode, *explicit):
        """Level 4: a brand new instruction from explicit operands."""
        return cls.from_decoded(opcode, explicit)

    @classmethod
    def label(cls):
        """A LABEL pseudo-instruction (encodes to zero bytes)."""
        return cls.from_decoded(Opcode.LABEL, ())

    # ------------------------------------------------------------- level ops

    @property
    def level(self):
        return self._level

    @property
    def raw(self):
        """The raw bytes, or None if invalid (Level 4)."""
        return self._raw

    @property
    def raw_pc(self):
        """Original address of the raw bytes (for PC-relative operands)."""
        return self._raw_pc

    def raw_bits_valid(self):
        return self._raw is not None

    @property
    def is_bundle(self):
        return self._level == LEVEL_0

    def split(self):
        """Split a Level-0 bundle into a list of Level-1 Instrs.

        This is the boundary-finding decode: each produced ``Instr``
        holds only the un-decoded raw bits of one instruction.
        """
        if self._level != LEVEL_0:
            raise BundleError("split() requires a Level-0 bundle")
        out = []
        off = 0
        while off < len(self._raw):
            n = decode_boundary(self._raw, off)
            out.append(
                Instr.from_raw(self._raw[off : off + n], self._raw_pc + off)
            )
            off += n
        self._bundle_count = len(out)
        return out

    def _require_single(self, what):
        if self._level == LEVEL_0:
            # A bundle of exactly one instruction can be promoted in place.
            if decode_boundary(self._raw, 0) == len(self._raw):
                self._level = LEVEL_1
            else:
                raise BundleError(
                    "%s requires a single instruction; expand the bundle "
                    "first (InstrList.expand_bundles)" % what
                )

    def _decode_to_level2(self):
        self._require_single("opcode query")
        if self._level >= LEVEL_2:
            return
        opcode, eflags, _length = decode_opcode(self._raw, 0)
        self._opcode = opcode
        self._eflags = eflags
        self._level = LEVEL_2

    def _decode_to_level3(self):
        self._require_single("operand query")
        if self._level >= LEVEL_3:
            return
        d = decode_full(self._raw, 0, pc=self._raw_pc)
        self._opcode = d.opcode
        self._eflags = d.eflags
        self._prefixes = bytes(d.prefixes)
        srcs, dsts = expand_operands(d.opcode, d.operands)
        self._srcs = srcs
        self._dsts = dsts
        self._level = LEVEL_3

    def _invalidate_raw(self):
        """A mutation happened: raw bits no longer match. Level 4."""
        if self._level < LEVEL_3:
            self._decode_to_level3()
        self._raw = None
        self._raw_pc = None
        self._level = LEVEL_4

    # ----------------------------------------------------------- field access

    @property
    def opcode(self):
        if self._level < LEVEL_2:
            self._decode_to_level2()
        return self._opcode

    @property
    def eflags(self):
        """Combined read/write eflags effects mask (Level 2 information)."""
        if self._level < LEVEL_2:
            self._decode_to_level2()
        return self._eflags

    @property
    def info(self):
        return OP_INFO[self.opcode]

    @property
    def prefixes(self):
        if self._level < LEVEL_3:
            self._decode_to_level3()
        return self._prefixes

    def set_prefixes(self, prefixes):
        if self._level < LEVEL_3:
            self._decode_to_level3()
        prefixes = bytes(prefixes)
        if prefixes != self._prefixes:
            self._prefixes = prefixes
            self._invalidate_raw()

    @property
    def srcs(self):
        if self._level < LEVEL_3:
            self._decode_to_level3()
        return tuple(self._srcs)

    @property
    def dsts(self):
        if self._level < LEVEL_3:
            self._decode_to_level3()
        return tuple(self._dsts)

    def num_srcs(self):
        return len(self.srcs)

    def num_dsts(self):
        return len(self.dsts)

    def src(self, i):
        return self.srcs[i]

    def dst(self, i):
        return self.dsts[i]

    def set_src(self, i, operand):
        if self._level < LEVEL_3:
            self._decode_to_level3()
        self._srcs[i] = operand
        self._invalidate_raw()

    def set_dst(self, i, operand):
        if self._level < LEVEL_3:
            self._decode_to_level3()
        self._dsts[i] = operand
        self._invalidate_raw()

    def set_opcode(self, opcode):
        if self._level < LEVEL_3:
            self._decode_to_level3()
        self._opcode = Opcode(opcode)
        self._eflags = OP_INFO[self._opcode].eflags
        self._invalidate_raw()

    # -------------------------------------------------------- classification

    def is_cti(self):
        return self.info.is_cti

    def is_cond_branch(self):
        return self.info.is_cond_branch

    def is_call(self):
        return self.info.is_call

    def is_ret(self):
        return self.info.is_ret

    def is_indirect_branch(self):
        return self.info.is_indirect

    def is_label(self):
        return self._level >= LEVEL_2 and self._opcode == Opcode.LABEL

    @property
    def target(self):
        """Branch target operand (PcOperand, LabelRef, or r/m for indirect)."""
        if not self.is_cti():
            raise ValueError("%r is not a control transfer" % self)
        return self.srcs[0]

    def set_target(self, operand):
        if not self.is_cti():
            raise ValueError("%r is not a control transfer" % self)
        self.set_src(0, operand)

    def reads_memory(self):
        if self.opcode == Opcode.LEA:
            return False
        return any(isinstance(op, MemOperand) for op in self.srcs)

    def writes_memory(self):
        return any(isinstance(op, MemOperand) for op in self.dsts)

    def uses_reg(self, reg):
        return any(op.uses_reg(reg) for op in self.srcs) or any(
            op.uses_reg(reg) for op in self.dsts
        )

    # -------------------------------------------------------------- encoding

    def _has_pc_relative(self):
        return any(isinstance(op, (PcOperand, LabelRef)) for op in self.srcs)

    def explicit_operands(self):
        """The canonical explicit operand tuple used for encoding."""
        if self._level < LEVEL_3:
            self._decode_to_level3()
        return extract_explicit(self._opcode, self._srcs, self._dsts)

    def encode(self, pc=None, allow_short=True, label_addresses=None,
               force_pc_relative=False):
        """Encode to machine bytes.

        Raw bits are copied whenever they are valid and still correct
        for the placement address ``pc`` (PC-relative instructions moved
        to a new address must be re-encoded).  ``label_addresses`` maps
        LABEL instructions to resolved addresses for intra-list branches.
        With ``force_pc_relative`` PC-relative CTIs are always re-encoded
        even at their original address, so their length matches
        :meth:`max_length` (used by the two-pass list encoder).
        """
        if self._raw is not None and self._level <= LEVEL_3:
            if self._level == LEVEL_0 and self._bundle_count != 1:
                # Bundles contain no CTIs by construction (the basic-block
                # builder bundles only straight-line runs), so a byte copy
                # is always correct.
                return self._raw
            if not force_pc_relative and (pc is None or pc == self._raw_pc):
                return self._raw
            if not self.is_cti() or not self._has_pc_relative():
                return self._raw
            # fall through: re-encode the moved PC-relative instruction
        explicit = self.explicit_operands()
        if label_addresses is not None or any(
            isinstance(op, LabelRef) for op in explicit
        ):
            resolved = []
            for op in explicit:
                if isinstance(op, LabelRef):
                    if label_addresses is None or op.label not in label_addresses:
                        raise ValueError("unresolved label in %r" % self)
                    resolved.append(PcOperand(label_addresses[op.label]))
                else:
                    resolved.append(op)
            explicit = tuple(resolved)
        return encode_instr(
            self._opcode,
            explicit,
            pc=pc,
            prefixes=self._prefixes,
            allow_short=allow_short,
        )

    def max_length(self):
        """Worst-case encoded length (stable under placement address)."""
        if self._raw is not None and not (
            self._level >= LEVEL_2 and self.is_cti() and self._has_pc_relative()
        ):
            return len(self._raw)
        if self.is_label():
            return 0
        explicit = tuple(
            PcOperand(0) if isinstance(op, (LabelRef, PcOperand)) else op
            for op in self.explicit_operands()
        )
        return len(
            encode_instr(
                self._opcode,
                explicit,
                pc=0,
                prefixes=self._prefixes,
                allow_short=False,
            )
        )

    @property
    def length(self):
        """Length of the current raw bits, or the worst-case length."""
        if self._raw is not None:
            return len(self._raw)
        return self.max_length()

    # ----------------------------------------------------------------- misc

    def copy(self):
        """An unlinked deep-enough copy (operands are immutable)."""
        new = Instr()
        new._level = self._level
        new._raw = self._raw
        new._raw_pc = self._raw_pc
        new._bundle_count = self._bundle_count
        new._opcode = self._opcode
        new._eflags = self._eflags
        new._prefixes = self._prefixes
        new._srcs = list(self._srcs) if self._srcs is not None else None
        new._dsts = list(self._dsts) if self._dsts is not None else None
        new.note = self.note
        new.is_meta = self.is_meta
        new.is_exit_cti = self.is_exit_cti
        new.exit_always_stub = self.exit_always_stub
        return new

    def memory_footprint(self):
        """Bytes of memory this representation occupies (Table 2 metric)."""
        total = sys.getsizeof(self)
        if self._raw is not None:
            total += sys.getsizeof(self._raw)
        if self._prefixes:
            total += sys.getsizeof(self._prefixes)
        for ops in (self._srcs, self._dsts):
            if ops is not None:
                total += sys.getsizeof(ops)
                total += sum(sys.getsizeof(op) for op in ops)
        return total

    def __repr__(self):
        if self._level == LEVEL_0:
            return "<Instr L0 %d raw bytes @0x%x>" % (len(self._raw), self._raw_pc)
        if self._level == LEVEL_1:
            return "<Instr L1 %s @0x%x>" % (self._raw.hex(), self._raw_pc)
        if self._level == LEVEL_2:
            return "<Instr L2 %s>" % self.info.name
        ops = ", ".join(repr(op) for op in self.explicit_operands())
        return "<Instr L%d %s %s>" % (self._level, self.info.name, ops)

    def disassemble(self):
        """A human-readable one-line disassembly (operands AT&T-ish)."""
        if self._level < LEVEL_2:
            return "<raw %s>" % self._raw.hex()
        if self.is_label():
            return "<label>"
        ops = self.explicit_operands()
        if not ops:
            return self.info.name
        return "%s %s" % (self.info.name, " ".join(repr(op) for op in ops))
