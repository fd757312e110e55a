"""Chain compilation: dispatch-free execution across linked fragments.

The second compilation tier above :mod:`repro.core.closures`.  The
closure engine compiles one fragment at a time; a *linked transfer*
between two compiled fragments still returns to ``Executor.run``,
which re-checks the budget/alarm/deadline, samples the profiler,
charges the entry cost, and re-enters the step loop — a Python-level
round trip per fragment pass even when the whole working set is hot
and fully linked.

The chain compiler removes that round trip.  When a fragment has been
entered ``options.chain_threshold`` times, :class:`ChainManager`
walks its *stable direct links* (``LinkStub.KIND_DIRECT``, linked, not
``always_stub``) breadth-first up to ``MAX_FRAGMENTS`` members and
concatenates the members' step tables into one flat super-table:

* linked ``jmp``/``cond``/``call`` exit steps whose target is a chain
  member become **direct step-index transfers** — the fragment
  boundary collapses to an inline :func:`cross` call that performs the
  run loop's per-pass bookkeeping (budget, alarm, deadline/reschedule,
  profiler sample, entry cost) without leaving the step loop;
* indirect exits gain an **IBL hit fast path**: one dict probe of the
  thread's IBL table, and when the hit is a chain member control jumps
  straight into its slice of the super-table; ``CacheExit`` is raised
  only on a real miss;
* cycle charges at stitched boundaries are **fused**: the deferred
  exit cost and the entry cost of the next member land in a single
  counter update on the common (no-raise, profiler-off) path.

Chains are a pure wall-clock optimization: cycles, stats, events and
output are bit-identical to both the closure and the tuple engine —
the three-engine determinism tests assert it.  Chains therefore add
**no** stats counters or event kinds; build/invalidate telemetry lives
in :meth:`ChainManager.report` only.

Correctness under mutation rests on two mechanisms:

* every stitched step re-reads ``stub.linked_to`` and falls back to
  the generic ``_direct_exit`` when the baked target is no longer the
  link (self-validation — covers same-pass mutation by clean calls,
  SMC write watchers, and replacement);
* every unlink chokepoint in the runtime (fragment delete — which
  flush, eviction, SMC invalidation and client quarantine all route
  through — replacement, trace-head promotion and trace shadowing)
  calls :meth:`ChainManager.invalidate`, which dissolves every chain
  embedding the touched fragment via ``fragment.chains_in``
  back-pointers.  Stitched targets are always members, so invalidating
  the touched fragment reaches every baked reference to it.  New link
  *formation* is deliberately not a chokepoint: un-stitched generic
  exit steps read ``linked_to`` at exit time and pick up the fresh
  link, and the fragment gets a better chain at its next promotion.
"""

from repro.core.closures import _compile_target_fetch, compile_steps
from repro.core.emit import (
    CLEAN_CALL_COST,
    OP_CALL_EXIT,
    OP_COND_EXIT,
    OP_IND_CHECK,
    OP_IND_EXIT,
    OP_JMP_EXIT,
)
from repro.core.execute import EXIT_DISPATCH, CacheExit
from repro.core.fragments import LinkStub
from repro.machine.cpu import compile_condition
from repro.machine.errors import MachineFault
from repro.observe.events import (
    EV_CLEAN_CALL,
    EV_DISPATCH_CHECK_HIT,
    EV_IBL_HIT,
    EV_IBL_MISS,
    EV_INLINE_CHECK_HIT,
)

_MASK32 = 0xFFFFFFFF

# Members per chain: the breadth-first walk stops here.
MAX_FRAGMENTS = 16


class _ChainRecord:
    """One built chain: the root whose ``chain`` holds the table, and
    the members whose steps (and link stubs) the table embeds."""

    __slots__ = ("root", "members", "table", "bases", "dead")

    def __init__(self, root, members, table, bases):
        self.root = root
        self.members = members
        self.table = table
        # Each member's starting index in the super-table, parallel to
        # ``members`` — the key for translating a super-table step back
        # to (member, local step) for detach-time state translation.
        self.bases = bases
        self.dead = False

    def __repr__(self):
        return "<_ChainRecord root=0x%x members=%d steps=%d%s>" % (
            self.root.tag,
            len(self.members),
            len(self.table),
            " dead" if self.dead else "",
        )


class ChainManager:
    """Builds, caches and invalidates chains for one runtime."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.threshold = runtime.options.chain_threshold
        self.built = 0
        self.dissolved = 0
        self._cross = self._make_cross()

    # ------------------------------------------------------------- promotion

    def note_pass(self, fragment):
        """One pass through a chainless fragment.  Returns the freshly
        built chain table at the promotion threshold, else ``None``."""
        count = fragment.chain_counter + 1
        if count < self.threshold:
            fragment.chain_counter = count
            return None
        fragment.chain_counter = 0
        if fragment.deleted:
            return None
        rguard = self.runtime.rguard
        if rguard is None or rguard.recovering:
            return self._build(fragment)
        # drshield: chain building is a runtime chokepoint — a fault
        # here is recorded and the fragment simply keeps running its
        # per-fragment table (chains are a wall-clock optimization, so
        # skipping the build is always safe); repeated chain faults
        # disable the chain subsystem outright.
        from repro.resilience.guard import RUNTIME_PASSTHROUGH

        try:
            rguard.check("chain", fragment.tag)
            return self._build(fragment)
        except RUNTIME_PASSTHROUGH:
            raise
        except Exception as exc:
            rguard.record_fault("chain", fragment.tag, exc)
            return None

    # ----------------------------------------------------------- invalidation

    def invalidate(self, fragment):
        """Dissolve every chain whose table embeds ``fragment``.

        Called at each unlink chokepoint.  A table currently executing
        keeps running correctly (its stitched steps self-validate
        against the live link stubs); this only demotes future entries
        back to per-fragment tables."""
        records = fragment.chains_in
        if not records:
            return
        for record in list(records):
            self._dissolve(record)

    def _dissolve(self, record):
        if record.dead:
            return
        record.dead = True
        root = record.root
        root.chain = None
        root.chain_counter = 0
        for member in record.members:
            try:
                member.chains_in.remove(record)
            except ValueError:
                pass
        self.dissolved += 1

    def translate_step(self, record, index):
        """Application PC for interruption at entry to super-table step
        ``index``: find the owning member's slice and translate through
        that fragment's table (repro.core.translate)."""
        members = record.members
        bases = record.bases
        for pos in range(len(bases) - 1, -1, -1):
            if index >= bases[pos]:
                member = members[pos]
                if member.translation is not None:
                    return member.translation.translate_step(index - bases[pos])
                return member.tag
        return record.root.tag

    def report(self):
        """Build/invalidate telemetry (not part of RunResult.events —
        chains must not perturb the replayable stats/event streams)."""
        return {
            "chains_built": self.built,
            "chains_invalidated": self.dissolved,
            "chains_live": self.built - self.dissolved,
        }

    def check_integrity(self):
        """Debug invariant sweep over every live chain (used by the
        cache-pressure fuzz tests): no live chain may embed a deleted
        fragment, every member's ``chains_in`` back-pointer must reach
        its record, and every record a fragment points at must list it
        as a member.  Returns a list of violation strings (empty =
        clean)."""
        problems = []
        seen = set()
        for thread in self.runtime.threads:
            for cache in (thread.bb_cache, thread.trace_cache):
                if id(cache) in seen:
                    continue
                seen.add(id(cache))
                for fragment in cache.fragments.values():
                    for record in fragment.chains_in:
                        if record.dead:
                            problems.append(
                                "0x%x: chains_in holds a dead record"
                                % fragment.tag
                            )
                            continue
                        if fragment not in record.members:
                            problems.append(
                                "0x%x: back-pointer to a chain that does "
                                "not list it" % fragment.tag
                            )
                        for member in record.members:
                            if member.deleted:
                                problems.append(
                                    "chain rooted at 0x%x embeds deleted "
                                    "0x%x" % (record.root.tag, member.tag)
                                )
                        if record.root.chain is not record.table:
                            problems.append(
                                "chain rooted at 0x%x live but not "
                                "installed" % record.root.tag
                            )
        return problems

    # ---------------------------------------------------------------- building

    def _build(self, root):
        """Stitch ``root`` and its stable linked successors into one
        flat super-table; returns it, or ``None`` when a chain would
        not beat the plain per-fragment table."""
        members = [root]
        seen = {id(root)}
        queue = [root]
        while queue:
            frag = queue.pop(0)
            for stub in frag.exits:
                if stub.kind != LinkStub.KIND_DIRECT or stub.always_stub:
                    continue
                target = stub.linked_to
                if (
                    target is None
                    or target.deleted
                    or id(target) in seen
                    or len(members) >= MAX_FRAGMENTS
                ):
                    continue
                seen.add(id(target))
                members.append(target)
                queue.append(target)

        if len(members) == 1 and not any(
            stub.kind == LinkStub.KIND_INDIRECT for stub in root.exits
        ):
            # No stitchable link and no indirect exit that could
            # self-resolve: the chain would be the compiled table with
            # extra overhead.  (The counter was reset — links formed
            # later get another shot after `threshold` more passes.)
            return None

        runtime = self.runtime
        base_of = {}
        bases = []
        total = 0
        for member in members:
            _plans, _step_of, table_len = member.body.plan
            base_of[id(member)] = total
            bases.append(total)
            total += table_len
        # IBL hits transfer by application tag; first member wins when
        # a bb and its shadowing trace share one (the identity check in
        # the fast path keeps a stale entry from ever being taken).
        members_by_tag = {}
        for member, base in zip(members, bases):
            members_by_tag.setdefault(member.tag, (member, base))

        table = []
        for member, base in zip(members, bases):
            override = self._make_override(
                member, base_of, members_by_tag
            )
            table.extend(
                compile_steps(
                    member, runtime, base=base, exit_override=override
                )
            )
        table = tuple(table)

        record = _ChainRecord(root, tuple(members), table, tuple(bases))
        root.chain = table
        for member in members:
            member.chains_in.append(record)
        self.built += 1
        return table

    # -------------------------------------------------------- boundary steps

    def _make_cross(self):
        """The inline fragment boundary: exactly the per-pass prologue
        of ``Executor.run``'s loop (non-first iteration), with the
        previous exit's deferred cycle charge (``pending``) landing at
        the same observable points as the generic engines charge it."""
        runtime = self.runtime
        counter = runtime.counter
        system = runtime.system
        fragment_entry = runtime.cost.fragment_entry

        def cross(ex, fragment, pending):
            budget = ex._budget
            if budget is not None and ex.instructions > budget:
                counter.cycles += pending
                raise MachineFault(
                    "instruction budget exhausted (%d)" % budget
                )
            if system.alarm_active:
                system.convert_alarm(ex.instructions)
                if system.alarm_due(ex.instructions):
                    counter.cycles += pending
                    raise CacheExit(EXIT_DISPATCH, fragment.tag, None)
            if (
                ex._deadline is not None
                and ex.instructions >= ex._deadline
            ) or runtime._need_reschedule:
                counter.cycles += pending
                raise CacheExit(EXIT_DISPATCH, fragment.tag, None)
            profile_enter = ex._profile_enter
            if profile_enter is None:
                # The fused boundary: deferred exit cost + entry cost
                # in one counter update.
                counter.cycles += pending + fragment_entry
            else:
                counter.cycles += pending
                profile_enter(fragment, counter.cycles)
                counter.cycles += fragment_entry

        return cross

    def _make_override(self, member, base_of, members_by_tag):
        """The ``exit_override`` for one member's ``compile_steps``:
        returns stitched replacements for exits resolvable inside the
        chain, ``None`` (keep the generic step) otherwise."""
        runtime = self.runtime
        counter = runtime.counter
        stats = runtime.stats
        mem = runtime.memory
        system = runtime.system
        write_u32 = mem.write_u32
        taken_penalty = runtime.cost.taken_branch_penalty
        ibl_lookup = runtime.cost.ibl_lookup
        fragment_entry = runtime.cost.fragment_entry
        cross = self._cross
        exits = member.exits
        tag = member.tag

        # The stitched steps below open-code cross()'s common path —
        # no budget stop, no alarm, no deadline/reschedule, no
        # profiler — as one fused counter update, calling cross() only
        # when any slow condition holds (cross re-derives the exact
        # charge/raise ordering).  This saves a Python call per
        # stitched boundary, which dominates chain overhead on
        # small-fragment workloads.

        def stitch_of(stub):
            """``(target, base)`` when the stub's link is baked into
            this chain, else ``None``."""
            if stub.kind != LinkStub.KIND_DIRECT or stub.always_stub:
                return None
            target = stub.linked_to
            if target is None:
                return None
            target_base = base_of.get(id(target))
            if target_base is None:
                return None
            return target, target_base

        def hook_call(ex, fn, role, target):
            # Checker/profiler clean call, identical to the generic
            # engines' accounting and guard routing.
            counter.cycles += CLEAN_CALL_COST
            stats.clean_calls += 1
            observer = runtime.observer
            if observer is not None:
                observer.emit(EV_CLEAN_CALL, tag, role=role, target=target)
            guard = runtime.guard
            if guard is None:
                fn(runtime.current_thread, target)
            else:
                guard.call(
                    fn, (runtime.current_thread, target), tag=tag, role=role
                )

        def resolve_indirect(ex, stub, target, cpu):
            """In-step IBL: one dict probe, and a hit on a chain member
            jumps straight into its slice of the super-table.  Unwinds
            to the dispatcher only on a real miss."""
            if runtime.options.link_indirect:
                counter.cycles += ibl_lookup
                fragment = runtime.current_thread.ibl.table.get(target)
                if fragment is not None:
                    stats.ibl_hits += 1
                    observer = runtime.observer
                    if observer is not None:
                        observer.emit(
                            EV_IBL_HIT, target, fragment_kind=fragment.kind
                        )
                    entry = members_by_tag.get(target)
                    if entry is not None and entry[0] is fragment:
                        n = ex.instructions
                        budget = ex._budget
                        deadline = ex._deadline
                        if (
                            (budget is None or n <= budget)
                            and not system.alarm_active
                            and (deadline is None or n < deadline)
                            and not runtime._need_reschedule
                            and ex._profile_enter is None
                        ):
                            counter.cycles += fragment_entry
                        else:
                            cross(ex, fragment, 0)
                        return entry[1]
                    ex._next_fragment = fragment
                    return None
                stats.ibl_misses += 1
                observer = runtime.observer
                if observer is not None:
                    observer.emit(EV_IBL_MISS, target)
            ex._ibl_miss(stub, target, cpu, mem, system)

        def override(op_index, op, nxt):
            kind = op[0]

            if kind == OP_COND_EXIT:
                stub = exits[op[2]]
                stitch = stitch_of(stub)
                if stitch is None:
                    return None
                target, target_base = stitch
                cond = compile_condition(op[1])
                c = op[3]
                c_taken = c + taken_penalty

                def chained_cond_step(
                    ex,
                    cpu,
                    _cond=cond,
                    _stub=stub,
                    _target=target,
                    _tbase=target_base,
                    _c=c,
                    _ct=c_taken,
                    _nxt=nxt,
                ):
                    n = ex.instructions + 1
                    ex.instructions = n
                    if _cond(cpu.eflags):
                        if _stub.linked_to is _target:
                            budget = ex._budget
                            deadline = ex._deadline
                            if (
                                (budget is None or n <= budget)
                                and not system.alarm_active
                                and (deadline is None or n < deadline)
                                and not runtime._need_reschedule
                                and ex._profile_enter is None
                            ):
                                counter.cycles += _ct + fragment_entry
                            else:
                                cross(ex, _target, _ct)
                            return _tbase
                        counter.cycles += _ct
                        ex._next_fragment = ex._direct_exit(
                            _stub, cpu, mem, system
                        )
                        return None
                    counter.cycles += _c
                    return _nxt

                return chained_cond_step

            if kind == OP_JMP_EXIT:
                stub = exits[op[1]]
                stitch = stitch_of(stub)
                if stitch is None:
                    return None
                target, target_base = stitch
                c_taken = op[2] + taken_penalty

                def chained_jmp_step(
                    ex,
                    cpu,
                    _stub=stub,
                    _target=target,
                    _tbase=target_base,
                    _ct=c_taken,
                ):
                    n = ex.instructions + 1
                    ex.instructions = n
                    if _stub.linked_to is _target:
                        budget = ex._budget
                        deadline = ex._deadline
                        if (
                            (budget is None or n <= budget)
                            and not system.alarm_active
                            and (deadline is None or n < deadline)
                            and not runtime._need_reschedule
                            and ex._profile_enter is None
                        ):
                            counter.cycles += _ct + fragment_entry
                        else:
                            cross(ex, _target, _ct)
                        return _tbase
                    counter.cycles += _ct
                    ex._next_fragment = ex._direct_exit(
                        _stub, cpu, mem, system
                    )
                    return None

                return chained_jmp_step

            if kind == OP_CALL_EXIT:
                stub = exits[op[1]]
                stitch = stitch_of(stub)
                if stitch is None:
                    return None
                target, target_base = stitch
                ret_addr = op[2]
                c_taken = op[3] + taken_penalty

                def chained_call_step(
                    ex,
                    cpu,
                    _stub=stub,
                    _target=target,
                    _tbase=target_base,
                    _ra=ret_addr,
                    _ct=c_taken,
                ):
                    ex.instructions += 1
                    # Charged before the push: the store may trip the
                    # SMC write watcher, whose charges land after this
                    # exit's in the generic engines too.
                    counter.cycles += _ct
                    regs = cpu.regs
                    regs[4] = (regs[4] - 4) & _MASK32
                    write_u32(regs[4], _ra)
                    # Link re-read after the push — the store may have
                    # just invalidated the baked target.
                    if _stub.linked_to is _target:
                        n = ex.instructions
                        budget = ex._budget
                        deadline = ex._deadline
                        if (
                            (budget is None or n <= budget)
                            and not system.alarm_active
                            and (deadline is None or n < deadline)
                            and not runtime._need_reschedule
                            and ex._profile_enter is None
                        ):
                            counter.cycles += fragment_entry
                        else:
                            cross(ex, _target, 0)
                        return _tbase
                    ex._next_fragment = ex._direct_exit(
                        _stub, cpu, mem, system
                    )
                    return None

                return chained_call_step

            if kind == OP_IND_EXIT:
                _k, exit_idx, operand, is_call, ret_addr, profiler, checker, c = op
                stub = exits[exit_idx]
                fetch = _compile_target_fetch(operand, mem)
                c_taken = c + taken_penalty

                def chained_ind_step(
                    ex,
                    cpu,
                    _fetch=fetch,
                    _stub=stub,
                    _is_call=is_call,
                    _ra=ret_addr,
                    _profiler=profiler,
                    _checker=checker,
                    _ct=c_taken,
                ):
                    ex.instructions += 1
                    target = _fetch(cpu)
                    if _checker is not None:
                        hook_call(ex, _checker, "checker", target)
                    if _is_call:
                        regs = cpu.regs
                        regs[4] = (regs[4] - 4) & _MASK32
                        write_u32(regs[4], _ra)
                    counter.cycles += _ct
                    if _profiler is not None:
                        hook_call(ex, _profiler, "profiler", target)
                    return resolve_indirect(ex, _stub, target, cpu)

                return chained_ind_step

            if kind == OP_IND_CHECK:
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
                entries = []
                for d_tag, d_idx in dispatch:
                    d_stub = exits[d_idx]
                    stitch = stitch_of(d_stub)
                    if stitch is None:
                        entries.append((d_tag, d_stub, None, 0))
                    else:
                        entries.append((d_tag, d_stub, stitch[0], stitch[1]))
                dispatch_entries = tuple(entries)
                fetch = _compile_target_fetch(operand, mem)

                def chained_ind_check_step(
                    ex,
                    cpu,
                    _fetch=fetch,
                    _expected=expected,
                    _dispatch=dispatch_entries,
                    _ibl_stub=ibl_stub,
                    _is_call=is_call,
                    _ra=ret_addr,
                    _profiler=profiler,
                    _checker=checker,
                    _c=c,
                    _cc=check_cost,
                    _nxt=nxt,
                ):
                    ex.instructions += 1
                    target = _fetch(cpu)
                    if _checker is not None:
                        hook_call(ex, _checker, "checker", target)
                    if _is_call:
                        regs = cpu.regs
                        regs[4] = (regs[4] - 4) & _MASK32
                        write_u32(regs[4], _ra)
                    counter.cycles += _c
                    if target == _expected:
                        stats.inline_check_hits += 1
                        observer = runtime.observer
                        if observer is not None:
                            observer.emit(
                                EV_INLINE_CHECK_HIT, tag, target=target
                            )
                        return _nxt
                    matched = None
                    for entry in _dispatch:
                        counter.cycles += _cc
                        if target == entry[0]:
                            matched = entry
                            break
                    if matched is not None:
                        stats.dispatch_check_hits += 1
                        observer = runtime.observer
                        if observer is not None:
                            observer.emit(
                                EV_DISPATCH_CHECK_HIT, tag, target=target
                            )
                        counter.cycles += taken_penalty
                        d_stub = matched[1]
                        d_target = matched[2]
                        if d_target is not None and d_stub.linked_to is d_target:
                            n = ex.instructions
                            budget = ex._budget
                            deadline = ex._deadline
                            if (
                                (budget is None or n <= budget)
                                and not system.alarm_active
                                and (deadline is None or n < deadline)
                                and not runtime._need_reschedule
                                and ex._profile_enter is None
                            ):
                                counter.cycles += fragment_entry
                            else:
                                cross(ex, d_target, 0)
                            return matched[3]
                        ex._next_fragment = ex._direct_exit(
                            d_stub, cpu, mem, system
                        )
                        return None
                    if _profiler is not None:
                        hook_call(ex, _profiler, "profiler", target)
                    counter.cycles += taken_penalty
                    return resolve_indirect(ex, _ibl_stub, target, cpu)

                return chained_ind_check_step

            return None

        return override
