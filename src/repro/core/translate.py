"""Precise state translation: code-cache point -> application state.

The paper's transparency mechanisms (signal delivery at arbitrary
points, sampling, full detach — Section 2) all rest on one primitive:
given where execution currently is *inside the code cache*, reconstruct
the precise application machine state, as if the program had been
running natively.  This module is that primitive for the reproduction.

Every emitted fragment records a :class:`TranslationTable` mapping its
execution points back to source application PCs:

* ``pcs[op_index]`` — the application PC of the source instruction the
  op was lowered from, or ``None`` for client meta-instructions and
  clean calls (they have no application PC: they execute for the
  client, not the application);
* ``poll_ops`` — the *application-consistent interrupt points*: op
  indices that begin a step (per :func:`~repro.core.closures.
  plan_fragment`'s fusion plan) whose first op is anchored to a source
  PC.  At entry to such a step the engine holds **no in-flight state**:
  every preceding instruction's registers, flags, memory effects and
  cycle charges are committed (generated segments flush their batched
  charges before unwinding — the traceback-line machinery in
  :func:`~repro.core.closures.compile_segment` guarantees it on the
  fault path too), so the machine state *is* the application state at
  that PC.

Execution points that are not poll points (mid-run, or steps lowered
from meta-instructions) translate by **rolling forward** to the nearest
consistent point at or after them — :meth:`TranslationTable.
translate_step` — which is exactly how delivery works: interruption
requests (a due alarm, a pending detach) made between consistent
points are acted on at the next one, giving mid-fragment delivery a
deterministic latency bounded by the longest fused run (at most
``options.max_bb_instrs`` instructions).

The same table drives both engine tiers so they stay bit-identical:

* the closure engine wraps exactly the poll-point steps — segments
  included — with :func:`make_poll_step` at compile time;
* the chain compiler's stitched exits and rebased segments replace
  steps inside that same compile, so :func:`wrap_poll_steps` wraps
  them at the same plan indices.

Polling is compiled in only under ``options.precise_interrupts``; the
default configuration carries no polls and is bit-identical to the
pre-translation runtime.
"""


class TranslationTable:
    """Execution-point -> application-PC map for one fragment."""

    __slots__ = ("tag", "pcs", "poll_ops", "step_pcs")

    def __init__(self, tag, pcs, poll_ops, step_pcs):
        self.tag = tag
        # Per-op source application PC (None = meta / no application PC).
        self.pcs = pcs
        # op_index -> pc for application-consistent interrupt points.
        self.poll_ops = poll_ops
        # Per-step translated PC (roll-forward applied; always valid).
        self.step_pcs = step_pcs

    def pc_at(self, op_index):
        """The source PC of one op, or ``None`` for meta ops."""
        return self.pcs[op_index]

    def translate_step(self, step_index):
        """Application PC for interruption at entry to ``step_index``.

        Rolls forward to the nearest application-consistent point at or
        after the step; the trailing fell-through sentinel (and any
        trailing meta steps) roll *backward* to the last known PC, so
        every step index in the table translates to a valid source PC.
        """
        return self.step_pcs[step_index]

    def __repr__(self):
        return "<TranslationTable tag=0x%x ops=%d polls=%d>" % (
            self.tag, len(self.pcs), len(self.poll_ops),
        )


def _source_pc(instr):
    """The application PC an emitted op is anchored to, or ``None``.

    Client meta-instructions and synthesized instructions without raw
    bytes have no application PC — interruption there must roll forward.
    """
    if instr is None or instr.is_meta:
        return None
    if instr.raw_bits_valid() and instr.raw_pc is not None:
        return instr.raw_pc
    return None


def build_translation(tag, code, source_instrs, plan):
    """Build the :class:`TranslationTable` for a freshly lowered
    fragment.  ``source_instrs`` has one entry per op in ``code`` — the
    Instr each op was lowered from (``None`` for clean-call pseudo-ops);
    ``plan`` is the body's :func:`~repro.core.closures.plan_fragment`
    result, so poll points follow the engines' step boundaries.
    """
    pcs = tuple(_source_pc(instr) for instr in source_instrs)
    plans, _step_of, table_len = plan

    poll_ops = {}
    step_pcs = []
    for plan_kind, payload in plans:
        first_op = payload[0] if plan_kind == "run" else payload
        pc = pcs[first_op]
        # Op 0 is the fragment entry: the dispatcher (and the run
        # loop's boundary check) already covers it, so polling there
        # would be redundant.
        if pc is not None and first_op > 0:
            poll_ops[first_op] = pc
        # Roll forward for the step's translated PC.
        translated = None
        for op_index in range(first_op, len(pcs)):
            if pcs[op_index] is not None:
                translated = pcs[op_index]
                break
        step_pcs.append(translated)
    # Sentinel step (fell-through) and any trailing meta steps: roll
    # backward to the last anchored PC; fall back to the fragment tag.
    step_pcs.append(None)
    last = tag
    for i, pc in enumerate(step_pcs):
        if pc is None:
            step_pcs[i] = last
        else:
            last = pc
    assert len(step_pcs) == table_len
    return TranslationTable(tag, pcs, poll_ops, tuple(step_pcs))


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


def wrap_poll_steps(fragment, runtime, plans, steps):
    """Apply :func:`make_poll_step` to every poll-point step in a
    freshly compiled step list (in place).  ``steps`` holds one entry
    per plan (the fell-through sentinel is appended afterwards)."""
    translation = fragment.translation
    if translation is None:
        return
    poll_ops = translation.poll_ops
    if not poll_ops:
        return
    for plan_index, (plan_kind, payload) in enumerate(plans):
        first_op = payload[0] if plan_kind == "run" else payload
        pc = poll_ops.get(first_op)
        if pc is not None:
            steps[plan_index] = make_poll_step(
                runtime, pc, steps[plan_index]
            )
