"""Closure compilation of fragments: the encode-into-cache step.

:func:`compile_fragment` translates a fragment's lowered op tuples
(``repro.core.emit``) into a flat tuple of *step closures* — the moral
equivalent of DynamoRIO's encoder emitting machine code into the code
cache.  Each step binds everything static about its op at compile time:
operand accessors, pre-summed cycle costs, the exit's
:class:`~repro.core.fragments.LinkStub` object, compiled branch
predicates, and the runtime's memory/system/counter/stats.  The
executor's hot loop then degenerates to ``i = steps[i](executor, cpu)``.

A step returns the index of the next step to run, or ``None`` when the
fragment is done — in which case the step has already resolved the exit
(``executor._next_fragment`` holds the linked/IBL-hit successor, or a
:class:`~repro.core.execute.CacheExit` was raised back to the
dispatcher).

Runs of consecutive straight-line ``OP_EXEC`` ops are *fused* into a
single step that executes the whole run in one call (charging cycles
and instructions exactly as the per-op engine would, including on a
mid-run fault or program exit).  Fusion never spans an intra-fragment
branch target, so ``OP_LOCAL_BR`` indices stay addressable.

Only the CPU is passed per call: fragments may be shared between
threads (the thread-shared cache ablation), so per-thread state cannot
be bound at compile time.  Link stubs are bound as objects and their
``linked_to`` fields read at exit time, preserving the link/unlink and
fragment-replacement semantics unchanged.

Compiled steps produce **bit-identical** cycles, stats, events and
output to the tuple-dispatch engine; the determinism regression tests
assert this end to end.
"""

from repro.core.emit import (
    CLEAN_CALL_COST,
    OP_CALL_EXIT,
    OP_CALL_INLINE,
    OP_CLEAN_CALL,
    OP_COND_EXIT,
    OP_EXEC,
    OP_IND_CHECK,
    OP_IND_EXIT,
    OP_JMP_EXIT,
    OP_LOCAL_BR,
)
from repro.machine.cpu import compile_condition
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti, compile_read, read_operand
from repro.machine.system import pop_signal_frame
from repro.observe.events import (
    EV_CLEAN_CALL,
    EV_DISPATCH_CHECK_HIT,
    EV_INLINE_CHECK_HIT,
)

_MASK32 = 0xFFFFFFFF


def _compile_target_fetch(operand, mem):
    """Compile the indirect-branch target fetch: fn(cpu) -> target."""
    if operand == "ret":
        read_u32 = mem.read_u32

        def pop_ret(cpu):
            regs = cpu.regs
            target = read_u32(regs[4])
            regs[4] = (regs[4] + 4) & _MASK32
            return target

        return pop_ret
    if operand == "iret":
        return lambda cpu: pop_signal_frame(cpu, mem)
    fetch = compile_read(operand, mem)
    if fetch is None:
        return lambda cpu: read_operand(cpu, mem, operand)
    return fetch


# Op kinds the chain compiler may replace with stitched variants.
EXIT_KINDS = (
    OP_COND_EXIT,
    OP_JMP_EXIT,
    OP_CALL_EXIT,
    OP_IND_EXIT,
    OP_IND_CHECK,
)


def plan_fragment(code):
    """Plan the op-index → step-index mapping, fusing OP_EXEC runs.

    Returns ``(plans, step_of, table_len)``: ``plans`` is a list of
    ``("run", [op indices])`` / ``("op", op index)`` entries, one per
    step; ``step_of`` maps op indices (and the one-past-the-end index)
    to step indices; ``table_len`` counts the trailing fell-through
    sentinel step.  Computed once per lowered body (``FragmentBody.
    plan``) and read by the translation table, :func:`compile_steps`
    and the chain compiler (which must know a member's table length
    before any of its stitched steps are built).
    """
    # Intra-fragment branch targets must begin a step of their own.
    branch_targets = set()
    for op in code:
        if op[0] == OP_LOCAL_BR:
            branch_targets.add(op[2])

    plans = []
    step_of = {}
    n_ops = len(code)
    i = 0
    while i < n_ops:
        if code[i][0] == OP_EXEC:
            run = [i]
            j = i + 1
            while (
                j < n_ops
                and code[j][0] == OP_EXEC
                and j not in branch_targets
            ):
                run.append(j)
                j += 1
            step_of[i] = len(plans)
            plans.append(("run", run))
            i = j
        else:
            step_of[i] = len(plans)
            plans.append(("op", i))
            i += 1
    sentinel_index = len(plans)
    step_of[n_ops] = sentinel_index
    return plans, step_of, sentinel_index + 1


def compile_fragment(fragment, runtime):
    """Compile ``fragment.code`` into step closures; caches the result
    on ``fragment.compiled`` and returns it."""
    compiled = tuple(compile_steps(fragment, runtime))
    fragment.compiled = compiled
    return compiled


def compile_runs(body, runtime):
    """The compiled instructions of ``body``'s fused ``OP_EXEC`` runs:
    per plan entry, ``((cost, fn), ...)`` for a run and ``None`` for an
    op.  Compiled on first use and kept on the body, so every fragment
    and chain over it shares one ``compile_noncti`` per instruction."""
    runs = body.runs
    if runs is None:
        code = body.code
        mem = runtime.memory
        system = runtime.system
        runs = body.runs = tuple(
            tuple(
                (code[k][3], compile_noncti(code[k][1], code[k][2], mem, system))
                for k in payload
            )
            if plan_kind == "run"
            else None
            for plan_kind, payload in body.plan[0]
        )
    return runs


def compile_steps(fragment, runtime, base=0, exit_override=None,
                  run_override=None):
    """Compile ``fragment.code`` into a list of step closures.

    ``base`` offsets every produced step index — the chain compiler
    (:mod:`repro.core.chains`) concatenates several fragments' step
    lists into one flat super-table, so intra-fragment transfers and
    fall-throughs must address their member's slice of it.

    ``exit_override(op_index, op, nxt)`` may return a replacement step
    for any exit-kind op (``EXIT_KINDS``); returning ``None`` keeps the
    generic step.  ``nxt`` is the (base-offset) fall-through step
    index.  The generic steps are the single source of truth for exit
    semantics; overrides only exist so chains can stitch linked exits
    into direct step-index transfers.  ``run_override(payload, pairs,
    nxt)`` likewise replaces the step of every run of two or more
    instructions (``pairs`` as in :func:`compile_runs`).
    """
    code = fragment.code
    exits = fragment.exits
    mem = runtime.memory
    system = runtime.system
    counter = runtime.counter
    stats = runtime.stats
    taken_penalty = runtime.cost.taken_branch_penalty
    write_u32 = mem.write_u32
    tag = fragment.tag

    plans, step_of, _table_len = fragment.body.plan
    runs = compile_runs(fragment.body, runtime)
    sentinel_index = len(plans)

    def next_step(op_index):
        return step_of.get(op_index, sentinel_index) + base

    steps = []
    for plan_index, (plan_kind, payload) in enumerate(plans):
        if plan_kind == "run":
            nxt = next_step(payload[-1] + 1)
            pairs = runs[plan_index]
            if len(pairs) == 1:
                c, fn = pairs[0]

                def exec_step(ex, cpu, _c=c, _fn=fn, _nxt=nxt):
                    counter.cycles += _c
                    ex.instructions += 1
                    _fn(cpu)
                    return _nxt

                steps.append(exec_step)
            elif run_override is not None:
                steps.append(run_override(payload, pairs, nxt))
            else:

                def fused_step(ex, cpu, _pairs=pairs, _nxt=nxt):
                    cycles = 0
                    done = 0
                    try:
                        for c, fn in _pairs:
                            cycles += c
                            done += 1
                            fn(cpu)
                    finally:
                        # Flush even when an instruction faults or exits
                        # the program: totals match the per-op engine at
                        # every observable point.
                        counter.cycles += cycles
                        ex.instructions += done
                    return _nxt

                steps.append(fused_step)
            continue

        op_index = payload
        op = code[op_index]
        kind = op[0]
        nxt = next_step(op_index + 1)

        if exit_override is not None and kind in EXIT_KINDS:
            custom = exit_override(op_index, op, nxt)
            if custom is not None:
                steps.append(custom)
                continue

        if kind == OP_COND_EXIT:
            cond = compile_condition(op[1])
            stub = exits[op[2]]
            c = op[3]

            def cond_exit_step(
                ex, cpu, _cond=cond, _stub=stub, _c=c, _nxt=nxt
            ):
                ex.instructions += 1
                if _cond(cpu.eflags):
                    counter.cycles += _c + taken_penalty
                    ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                    return None
                counter.cycles += _c
                return _nxt

            steps.append(cond_exit_step)

        elif kind == OP_JMP_EXIT:
            stub = exits[op[1]]
            c = op[2]

            def jmp_exit_step(ex, cpu, _stub=stub, _c=c):
                ex.instructions += 1
                counter.cycles += _c + taken_penalty
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                return None

            steps.append(jmp_exit_step)

        elif kind == OP_CALL_EXIT:
            stub = exits[op[1]]
            ret_addr = op[2]
            c = op[3]

            def call_exit_step(ex, cpu, _stub=stub, _ra=ret_addr, _c=c):
                ex.instructions += 1
                counter.cycles += _c + taken_penalty
                regs = cpu.regs
                regs[4] = (regs[4] - 4) & _MASK32
                write_u32(regs[4], _ra)
                ex._next_fragment = ex._direct_exit(_stub, cpu, mem, system)
                return None

            steps.append(call_exit_step)

        elif kind == OP_CALL_INLINE:
            ret_addr = op[1]
            c = op[2]

            def call_inline_step(ex, cpu, _ra=ret_addr, _c=c, _nxt=nxt):
                # Inlined call in a trace: push and fall through (no
                # taken penalty — superior trace layout).
                ex.instructions += 1
                counter.cycles += _c
                regs = cpu.regs
                regs[4] = (regs[4] - 4) & _MASK32
                write_u32(regs[4], _ra)
                return _nxt

            steps.append(call_inline_step)

        elif kind == OP_IND_EXIT:
            _k, exit_idx, operand, is_call, ret_addr, profiler, checker, c = op
            stub = exits[exit_idx]
            fetch = _compile_target_fetch(operand, mem)

            def ind_exit_step(
                ex,
                cpu,
                _fetch=fetch,
                _stub=stub,
                _is_call=is_call,
                _ra=ret_addr,
                _profiler=profiler,
                _checker=checker,
                _c=c,
                _tag=tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="checker", target=target
                        )
                    guard = ex.runtime.guard
                    if guard is None:
                        _checker(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _checker,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="checker",
                        )
                if _is_call:
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                counter.cycles += _c + taken_penalty
                if _profiler is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="profiler", target=target
                        )
                    guard = ex.runtime.guard
                    if guard is None:
                        _profiler(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _profiler,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="profiler",
                        )
                ex._next_fragment = ex._indirect_exit(
                    _stub, target, cpu, mem, system
                )
                return None

            steps.append(ind_exit_step)

        elif kind == OP_IND_CHECK:
            (
                _k,
                ibl_idx,
                operand,
                expected,
                dispatch,
                is_call,
                ret_addr,
                profiler,
                checker,
                c,
                check_cost,
            ) = op
            ibl_stub = exits[ibl_idx]
            dispatch_stubs = tuple(
                (d_tag, exits[d_idx]) for d_tag, d_idx in dispatch
            )
            fetch = _compile_target_fetch(operand, mem)

            def ind_check_step(
                ex,
                cpu,
                _fetch=fetch,
                _expected=expected,
                _dispatch=dispatch_stubs,
                _ibl_stub=ibl_stub,
                _is_call=is_call,
                _ra=ret_addr,
                _profiler=profiler,
                _checker=checker,
                _c=c,
                _check_cost=check_cost,
                _nxt=nxt,
                _tag=tag,
            ):
                ex.instructions += 1
                target = _fetch(cpu)
                if _checker is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="checker", target=target
                        )
                    guard = ex.runtime.guard
                    if guard is None:
                        _checker(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _checker,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="checker",
                        )
                if _is_call:
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                counter.cycles += _c
                if target == _expected:
                    stats.inline_check_hits += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(EV_INLINE_CHECK_HIT, _tag, target=target)
                    return _nxt
                matched = None
                for d_tag, d_stub in _dispatch:
                    counter.cycles += _check_cost
                    if target == d_tag:
                        matched = d_stub
                        break
                if matched is not None:
                    stats.dispatch_check_hits += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(EV_DISPATCH_CHECK_HIT, _tag, target=target)
                    counter.cycles += taken_penalty
                    ex._next_fragment = ex._direct_exit(
                        matched, cpu, mem, system
                    )
                    return None
                if _profiler is not None:
                    counter.cycles += CLEAN_CALL_COST
                    stats.clean_calls += 1
                    observer = ex.runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_CLEAN_CALL, _tag, role="profiler", target=target
                        )
                    guard = ex.runtime.guard
                    if guard is None:
                        _profiler(ex.runtime.current_thread, target)
                    else:
                        guard.call(
                            _profiler,
                            (ex.runtime.current_thread, target),
                            tag=_tag,
                            role="profiler",
                        )
                counter.cycles += taken_penalty
                ex._next_fragment = ex._indirect_exit(
                    _ibl_stub, target, cpu, mem, system
                )
                return None

            steps.append(ind_check_step)

        elif kind == OP_LOCAL_BR:
            _k, jcc, target_index, c = op
            target_step = next_step(target_index)
            if jcc is None:

                def local_jmp_step(ex, cpu, _t=target_step, _c=c):
                    ex.instructions += 1
                    counter.cycles += _c + taken_penalty
                    return _t

                steps.append(local_jmp_step)
            else:
                cond = compile_condition(jcc)

                def local_br_step(
                    ex, cpu, _cond=cond, _t=target_step, _c=c, _nxt=nxt
                ):
                    ex.instructions += 1
                    if _cond(cpu.eflags):
                        counter.cycles += _c + taken_penalty
                        return _t
                    counter.cycles += _c
                    return _nxt

                steps.append(local_br_step)

        elif kind == OP_CLEAN_CALL:
            fn = op[1]
            c = op[2]

            def clean_call_step(ex, cpu, _fn=fn, _c=c, _nxt=nxt, _tag=tag):
                counter.cycles += _c
                stats.clean_calls += 1
                observer = ex.runtime.observer
                if observer is not None:
                    observer.emit(EV_CLEAN_CALL, _tag, role="call")
                guard = ex.runtime.guard
                if guard is None:
                    _fn(ex.runtime.current_thread)
                else:
                    guard.call(
                        _fn,
                        (ex.runtime.current_thread,),
                        tag=_tag,
                        role="clean_call",
                    )
                return _nxt

            steps.append(clean_call_step)

        else:
            raise MachineFault("unknown fragment op kind %r" % (kind,))

    if runtime.options.precise_interrupts and fragment.translation is not None:
        # Wrap the application-consistent steps with the interrupt poll
        # (repro.core.translate) — after the overrides so chains'
        # stitched steps are wrapped uniformly with the generic ones.
        from repro.core.translate import wrap_poll_steps

        wrap_poll_steps(fragment, runtime, plans, steps)

    def fell_through_step(ex, cpu, _tag=tag):
        # Only reachable when a fragment has no terminating exit —
        # fragments are built so this cannot happen.
        raise MachineFault(
            "fragment 0x%x fell through without an exit" % _tag
        )

    steps.append(fell_through_step)
    return steps
