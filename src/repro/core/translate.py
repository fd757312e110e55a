"""Precise state translation: code-cache point -> application state.

The paper's transparency mechanisms (signal delivery at arbitrary
points, sampling, full detach — Section 2) all rest on one primitive:
given where execution currently is *inside the code cache*, reconstruct
the precise application machine state, as if the program had been
running natively.  This module is that primitive for the reproduction.

Every lowered fragment body records a :class:`TranslationTable` over
its steps (op *i* of a fragment is step *i*, :mod:`repro.core.emit`):

* ``pcs[step]`` — the source application PCs of the step, one per
  instruction of a run and one for any other step, ``None`` where there
  is none: client meta-instructions and clean calls execute for the
  client, not the application;
* ``poll_ops`` — ``{step: pc}``, the *application-consistent interrupt
  points*: the steps (other than the entry, step 0) whose first PC is
  known.  At entry to such a step the engine holds **no in-flight
  state**: every preceding instruction's registers, flags, memory
  effects and cycle charges are committed (generated segments flush
  their batched charges before unwinding — the traceback-line
  machinery in :func:`~repro.core.closures.compile_segment` guarantees
  it on the fault path too), so the machine state *is* the application
  state at that PC.  This is the role an OSR mapping plays between two
  versions of the code (OSR à la Carte, PAPERS.md).

Interruption requests (a due alarm, a pending detach) made between
poll points are acted on at the next one, giving mid-fragment delivery
a deterministic latency bounded by the longest run (at most
``bb_builder.MAX_BB_INSTRS`` instructions).  :func:`make_poll_step`
wraps exactly the poll-point steps, segments included, when
:func:`~repro.core.closures.compile_fragment` compiles a fragment body.

Polling is compiled in only under ``options.precise_interrupts``; the
default configuration carries no polls and is bit-identical to the
pre-translation runtime.
"""


class TranslationTable:
    """Step -> application-PC map for one fragment."""

    __slots__ = ("pcs", "poll_ops")

    def __init__(self, pcs, poll_ops):
        # Per-step tuple of source application PCs (None = meta / no
        # application PC): one per instruction of a run.
        self.pcs = pcs
        # step -> pc for application-consistent interrupt points.
        self.poll_ops = poll_ops

    def __repr__(self):
        return "<TranslationTable steps=%d polls=%d>" % (
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
    fragment.  ``sources`` has one tuple per step: the Instrs the step
    was lowered from, in order."""
    pcs = tuple(tuple(_source_pc(instr) for instr in step) for step in sources)
    # Step 0 is the fragment entry: the dispatcher (and the run loop's
    # boundary check) already covers it, so polling there would be
    # redundant.
    poll_ops = {
        step: pcs[step][0]
        for step in range(1, len(pcs))
        if pcs[step][0] is not None
    }
    return TranslationTable(pcs, poll_ops)


def make_poll_step(runtime, pc, step):
    """Wrap one step closure with the interrupt poll.

    The poll runs *before* the step: the machine is application-
    consistent at ``pc``, so a due alarm or pending detach leaves for
    the dispatcher with the translated PC as the resume tag — the poll
    records ``(EXIT_INTERRUPT, pc, None)`` as the executor's exit and
    returns ``None``: mid-fragment delivery with no state
    reconstruction needed.  The fast path (no alarm armed, no detach
    pending) is a single attribute test, mirroring the run loop's
    boundary check.
    """
    from repro.core.execute import EXIT_INTERRUPT

    system = runtime.system
    exit_ = (EXIT_INTERRUPT, pc, None)

    def poll_step(ex, cpu, _step=step, _exit=exit_, _sys=system, _rt=runtime):
        if _sys.alarm_active or _rt._detach_pending or _rt._shield_pending:
            _sys.convert_alarm(ex.instructions)
            if _rt._detach_pending or _rt._shield_pending or (
                _sys.alarm_due(ex.instructions) and _sys.signal_handler
            ):
                ex._exit = _exit
                return None
        return _step(ex, cpu)

    return poll_step
