"""A generic dataflow engine for linear instruction streams.

The paper restricts fragments to *linear* control flow — single entry,
multiple exits, intra-list branches only as forward references to LABEL
pseudo-instructions.  On that shape every dataflow problem solves in a
**single pass** instead of a fixed-point iteration:

* a *backward* problem walks the list once in reverse.  When it meets a
  branch whose target is a LABEL later in the list, that label's state
  has already been computed (forward references only), so the join is
  immediate;
* a *forward* problem walks the list once front-to-back, accumulating
  branch-in states at each label as it passes the branches that target
  it (again: forward references only).

Anything that can leave the fragment — a direct exit, an indirect
branch, a return — joins with the problem's :meth:`~DataflowProblem.
exit_state`, which conservative clients set to "everything live".

The engine knows nothing about liveness specifically; a problem supplies
the lattice (``join``), the boundary states, and the per-instruction
``transfer`` function.  :mod:`repro.analysis.liveness` instantiates it
for register and eflags liveness; the fragment verifier
(:mod:`repro.analysis.verifier`) consumes those solutions.
"""

from repro.ir.instr import LabelRef

FORWARD = "forward"
BACKWARD = "backward"


class DataflowProblem:
    """One dataflow problem over a linear InstrList.

    Subclasses define the lattice and semantics:

    ``direction``
        :data:`FORWARD` or :data:`BACKWARD`.
    ``boundary()``
        State at the analysis start: the fragment entry (forward) or
        the fall-off-the-end point (backward).
    ``exit_state()``
        State joined in wherever control can leave the fragment
        (backward problems; forward problems use it for unknown
        predecessors, which linear fragments do not have).
    ``transfer(instr, state)``
        State immediately before ``instr`` given the state after it
        (backward), or vice versa (forward).  Must not mutate ``state``.
    ``join(a, b)``
        Least upper bound of two states.
    """

    direction = BACKWARD

    def boundary(self):
        raise NotImplementedError

    def exit_state(self):
        return self.boundary()

    def transfer(self, instr, state):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError


class DataflowResult:
    """Per-instruction states from one solver run.

    ``before(instr)`` / ``after(instr)`` are in *program order*: before
    is the state at the point just preceding the instruction, after the
    point just following it, regardless of analysis direction.
    """

    __slots__ = ("_before", "_after", "problem")

    def __init__(self, before, after, problem):
        self._before = before
        self._after = after
        self.problem = problem

    def before(self, instr):
        return self._before[id(instr)]

    def after(self, instr):
        return self._after[id(instr)]


def _branch_kind(instr):
    """Classify a node for the solver.

    Returns ``(is_cti, label_target, falls_through)`` where
    ``label_target`` is the LABEL instruction of an intra-list branch
    (or None for exits) and ``falls_through`` says whether control can
    continue to the next node.
    """
    if instr.is_bundle or not instr.is_cti():
        return False, None, True
    target = instr.target if instr.num_srcs() else None
    label = target.label if isinstance(target, LabelRef) else None
    # Unconditional transfers never reach the next instruction, with two
    # trace-inlining exceptions: an inlined call (note["inline"]) pushes
    # the return address and continues on-trace, and an inlined indirect
    # branch (note["inline_target"]) falls through when its target check
    # hits.  A plain call is an exit whose return re-enters through
    # dispatch, so for fragment-local analyses it does not fall through.
    falls = instr.is_cond_branch()
    if not falls and isinstance(instr.note, dict):
        falls = bool(
            instr.note.get("inline")
            or instr.note.get("inline_target") is not None
        )
    return True, label, falls


def solve(problem, ilist):
    """Run ``problem`` over ``ilist`` in a single pass.

    Returns a :class:`DataflowResult`.  Backward label references (which
    violate the linearity restriction) are handled conservatively by
    joining :meth:`~DataflowProblem.exit_state`; the fragment verifier
    reports them as errors separately.
    """
    nodes = list(ilist)
    if problem.direction == BACKWARD:
        return _solve_backward(problem, nodes)
    return _solve_forward(problem, nodes)


def _solve_backward(problem, nodes):
    before = {}
    after = {}
    label_states = {}
    state = problem.boundary()
    for instr in reversed(nodes):
        is_cti, label, falls = _branch_kind(instr)
        if is_cti:
            if label is not None:
                target_state = label_states.get(id(label))
                if target_state is None:
                    # backward reference or foreign label: conservative
                    target_state = problem.exit_state()
                out = problem.join(state, target_state) if falls else target_state
            else:
                out = (
                    problem.join(state, problem.exit_state())
                    if falls
                    else problem.exit_state()
                )
        else:
            out = state
        after[id(instr)] = out
        state = problem.transfer(instr, out)
        before[id(instr)] = state
        if instr.level >= 2 and instr.is_label():
            label_states[id(instr)] = state
    return DataflowResult(before, after, problem)


def _solve_forward(problem, nodes):
    before = {}
    after = {}
    # States flowing into each label from branches seen earlier.
    pending = {}
    state = problem.boundary()
    for instr in nodes:
        if instr.level >= 2 and instr.is_label() and id(instr) in pending:
            incoming = pending.pop(id(instr))
            state = incoming if state is None else problem.join(state, incoming)
        if state is None:
            # Unreachable straight-line code after an unconditional
            # transfer; stay unreachable until a targeted label.
            before[id(instr)] = None
            after[id(instr)] = None
            continue
        before[id(instr)] = state
        out = problem.transfer(instr, state)
        after[id(instr)] = out
        is_cti, label, falls = _branch_kind(instr)
        if is_cti and label is not None:
            prior = pending.get(id(label))
            pending[id(label)] = out if prior is None else problem.join(prior, out)
        state = out if (not is_cti or falls) else None
    return DataflowResult(before, after, problem)
