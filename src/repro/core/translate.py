"""Precise state translation: code-cache point -> application state.

The paper's transparency mechanisms (signal delivery at arbitrary
points, sampling, full detach — Section 2) all rest on one primitive:
given where execution currently is *inside the code cache*, reconstruct
the precise application machine state, as if the program had been
running natively.  This module is that primitive for the reproduction.

Every lowered fragment body records a :class:`TranslationTable` over
its ops (:mod:`repro.core.emit`):

* ``pcs[op]`` — the source application PCs of the op, one per
  instruction of a run and one for any other op, ``None`` where there
  is none: client meta-instructions and clean calls execute for the
  client, not the application.  A memory fault names
  ``pcs[op][k]`` of the instruction whose line in the body's generated
  code raised (:func:`repro.core.closures.fault_pc`), as native names
  the faulting instruction's PC;
* ``poll_ops`` — ``{op: pc}``, the *application-consistent interrupt
  points*: the ops (other than the entry, op 0) whose first PC is
  known.  At entry to such an op the engine holds **no in-flight
  state**: every preceding instruction's registers, flags, memory
  effects and cycle charges are committed (a run writes its batched
  charges at its end, and a fault inside it flushes them through the
  generated code's line map), so the machine state *is* the
  application state at that PC.  This is the role an OSR mapping plays
  between two versions of the code (OSR à la Carte, PAPERS.md).

Interruption requests (a due alarm, a pending detach) made between
poll points are acted on at the next one, giving mid-fragment delivery
a deterministic latency bounded by the longest run (at most
``bb_builder.MAX_BB_INSTRS`` instructions).  The poll is an inline
flag test that :func:`~repro.core.closures.compile_fragment` writes
before each poll-point op: with an alarm armed or a detach pending, a
poll that finds something to deliver records ``(EXIT_INTERRUPT, pc,
None)`` as the executor's exit and leaves the cache with the
translated PC as the resume tag — mid-fragment delivery with no state
reconstruction needed.

Polling is compiled in only under ``options.precise_interrupts``; the
default configuration carries no polls and is bit-identical to the
pre-translation runtime.
"""


class TranslationTable:
    """Op -> application-PC map for one fragment body."""

    __slots__ = ("pcs", "poll_ops")

    def __init__(self, pcs, poll_ops):
        # Per-op tuple of source application PCs (None = meta / no
        # application PC): one per instruction of a run.
        self.pcs = pcs
        # op -> pc for application-consistent interrupt points.
        self.poll_ops = poll_ops

    def __repr__(self):
        return "<TranslationTable ops=%d polls=%d>" % (
            len(self.pcs), len(self.poll_ops),
        )


def _source_pc(instr):
    """The application PC an emitted instruction is anchored to, or
    ``None``.

    Client meta-instructions and synthesized instructions without raw
    bytes have no application PC — interruption there must roll forward.
    """
    if instr.is_meta:
        return None
    if instr.raw_bits_valid() and instr.raw_pc is not None:
        return instr.raw_pc
    return None


def build_translation(sources):
    """Build the :class:`TranslationTable` for a freshly lowered
    fragment.  ``sources`` has one tuple per op: the Instrs the op was
    lowered from, in order."""
    pcs = tuple(tuple(_source_pc(instr) for instr in op) for op in sources)
    # Op 0 is the fragment entry: the dispatcher (and the run loop's
    # boundary check) already covers it, so polling there would be
    # redundant.
    poll_ops = {
        op: pcs[op][0]
        for op in range(1, len(pcs))
        if pcs[op][0] is not None
    }
    return TranslationTable(pcs, poll_ops)

