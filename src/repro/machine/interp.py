"""Reference executors: native execution and pure emulation.

``Interpreter`` executes a program image directly from memory.  In
*native* mode its cycle total models the program running on bare
hardware (instruction costs + branch penalties with BTB/RAS prediction);
in *emulation* mode every instruction additionally pays the interpreter
dispatch overhead — the several-hundred-fold slowdown of the paper's
Table 1 baseline.

The executor decodes each instruction once and memoizes the decode by
address.  Memoized decodes are invalidated on writes into decoded code
(self-modifying code): each decode registers a write watch on its byte
range, and a store that lands there evicts every decode on the touched
lines so the next execution re-decodes the new bytes — keeping native
runs a correct reference even for SMC workloads.  Decoding is a
*translation* step in the paper's sense:
besides the operand list, it binds a specialized execution closure
(:func:`repro.machine.exec_ops.compile_noncti`), the pre-summed cycle
cost, the fall-through pc, and — for conditional branches — a compiled
condition predicate into the :class:`_Decoded` record.  The hot quantum
loop is then "look up the decode, call its closure": all per-opcode
dispatch, operand isinstance chains and cost recomputation happen once
per *static* instruction instead of once per *dynamic* instruction, so
wall-clock simulation speed does not distort the *simulated* cycle
accounting.
"""

from collections import namedtuple

from repro.isa.decoder import decode_full
from repro.isa.opcodes import OP_INFO, Opcode
from repro.machine.cost import CostModel, CycleCounter
from repro.machine.cpu import CPU, compile_condition
from repro.machine.errors import MachineFault, ProgramExit
from repro.machine.exec_ops import compile_noncti, read_operand
from repro.machine.memory import WATCH_SHIFT
from repro.machine.predictors import BranchTargetBuffer, ReturnAddressStack
from repro.machine.system import System, ThreadExit, pop_signal_frame
from repro.observe.events import EV_SIGNAL_DELIVERED, EV_THREAD_SPAWN

_MASK32 = 0xFFFFFFFF

RunResult = namedtuple(
    "RunResult",
    ["cycles", "instructions", "output", "exit_code", "events"],
)

# Default safety net against runaway programs.
DEFAULT_MAX_INSTRUCTIONS = 100_000_000


class _Decoded(
    namedtuple(
        "_Decoded",
        ["opcode", "ops", "cost", "execute", "next_pc", "cond"],
    )
):
    """One memoized decode.

    ``cost``    the static cost (:meth:`CostModel.static_cost`; for CTIs
                branch penalties, which depend on the outcome, excluded).
    ``execute`` bound non-CTI execution closure, or ``None`` for
                control transfers and the HALT/SYSCALL safe-point
                opcodes, which the quantum loop handles out of line.
    ``next_pc`` the fall-through address (pc + length).
    ``cond``    compiled condition predicate for conditional branches.
    """

    __slots__ = ()


class _NativeThread:
    """Per-thread architectural state of the native machine."""

    __slots__ = ("cpu", "ras", "alive")

    def __init__(self, cpu, ras):
        self.cpu = cpu
        self.ras = ras
        self.alive = True


class Interpreter:
    """Executes RIO-32 code directly from a process's memory.

    Supports multiple application threads (SYS_SPAWN): threads are
    scheduled round-robin with an instruction quantum; each has its own
    CPU state and return-address stack, the BTB is shared (as in
    hardware).
    """

    def __init__(self, process, cost_model=None, mode="native", quantum=100,
                 observer=None, system=None, counter=None):
        if mode not in ("native", "emulation"):
            raise ValueError("mode must be 'native' or 'emulation'")
        self.process = process
        # drtrace: no fragments exist at this level, so only the system
        # events (signals, thread spawns) are observable.
        self.observer = observer
        self.cost = cost_model if cost_model is not None else CostModel()
        self.mode = mode
        self.quantum = quantum
        self.cpu = CPU()
        # The runtime's detach path ("drdetach") hands its System and
        # CycleCounter in so the native continuation appends to the same
        # output stream, honors alarms armed under the cache, and keeps
        # one cycle/instruction total across the attach boundary.
        self.system = system if system is not None else System()
        self.counter = counter if counter is not None else CycleCounter()
        self.btb = BranchTargetBuffer()
        self.ras = ReturnAddressStack(self.cost.ras_depth)
        self._decode_cache = {}
        # SMC support: line number -> set of decoded pcs whose bytes
        # touch that line.  Populated lazily by _decode; a watched write
        # evicts the affected decodes (coarse, at line granularity —
        # safe because eviction only forces a re-decode).
        self._decode_pages = {}
        self._watch_installed = False
        # One view of the backing bytes suffices; SMC writes mutate the
        # same backing store (Memory.view) in place, so it stays current.
        self._code_view = process.memory.view()
        self._instructions = 0
        # One _NativeThread per application thread, main thread first;
        # after run() they hold the final architectural state.
        self.threads = []

    # ------------------------------------------------------------ execution

    def _decode(self, pc):
        cached = self._decode_cache.get(pc)
        if cached is not None:
            return cached
        try:
            d = decode_full(self._code_view, pc, pc=pc)
        except Exception as exc:
            raise MachineFault("cannot decode at 0x%x: %s" % (pc, exc))
        info = OP_INFO[d.opcode]
        next_pc = (pc + d.length) & _MASK32
        # Branch penalties depend on the dynamic outcome; the static
        # cost is pre-summed here.
        cost = self.cost.static_cost(d.opcode, d.operands)
        if info.is_cti:
            execute = None
            cond = compile_condition(d.opcode) if info.is_cond_branch else None
        else:
            cond = None
            if d.opcode is Opcode.HALT or d.opcode is Opcode.SYSCALL:
                # Safe-point opcodes: handled out of line by the quantum
                # loop (program exit / alarm re-arming).
                execute = None
            else:
                execute = compile_noncti(
                    d.opcode, d.operands, self.process.memory, self.system
                )
        decoded = _Decoded(d.opcode, d.operands, cost, execute, next_pc, cond)
        self._decode_cache[pc] = decoded
        if not self._watch_installed:
            self._watch_installed = True
            self.process.memory.add_write_watcher(self._on_code_write)
        self.process.memory.watch_range(pc, pc + d.length)
        pages = self._decode_pages
        for page in range(pc >> WATCH_SHIFT, ((pc + d.length - 1) >> WATCH_SHIFT) + 1):
            pages.setdefault(page, set()).add(pc)
        return decoded

    def _on_code_write(self, addr, size):
        """Evict memoized decodes whose lines a store touched (SMC)."""
        cache = self._decode_cache
        pages = self._decode_pages
        for page in range(addr >> WATCH_SHIFT, ((addr + size - 1) >> WATCH_SHIFT) + 1):
            pcs = pages.pop(page, None)
            if pcs:
                for pc in pcs:
                    cache.pop(pc, None)

    def _spawn(self, entry, stack_pointer):
        thread = _NativeThread(CPU(), ReturnAddressStack(self.cost.ras_depth))
        thread.cpu.pc = entry & _MASK32
        thread.cpu.regs[4] = stack_pointer & _MASK32
        self.threads.append(thread)
        self.counter.count("threads_spawned")
        if self.observer is not None:
            self.observer.emit(
                EV_THREAD_SPAWN,
                thread.cpu.pc,
                thread_index=len(self.threads) - 1,
            )

    def adopt_thread(self, cpu):
        """Wrap an existing CPU as a native thread, with a fresh
        return-address stack (predictor state, not architectural state).
        The runtime's detach path uses this to continue its translated
        threads natively; the caller owns scheduling."""
        return _NativeThread(cpu, ReturnAddressStack(self.cost.ras_depth))

    def run(self, entry=None, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
        """Run until program exit; returns a :class:`RunResult`."""
        main = _NativeThread(self.cpu, self.ras)
        main.cpu.pc = self.process.entry if entry is None else entry
        main.cpu.regs[4] = self.process.initial_stack_pointer()
        self.threads = [main]
        self.system.spawn_thread = self._spawn
        exit_code = None
        try:
            self.run_threads(self.threads, max_instructions)
        except ProgramExit as exit_:
            exit_code = exit_.code
        events = dict(self.counter.events)
        if self.observer is not None:
            self.observer.finalize(self.counter.cycles)
            events.update(self.observer.summary())
        return RunResult(
            cycles=self.counter.cycles,
            instructions=self._instructions,
            output=self.system.output_bytes(),
            exit_code=exit_code,
            events=events,
        )

    def run_threads(self, threads, max_instructions, stop_at=None):
        """The round-robin scheduler: run the live ``threads`` a
        quantum each, charging a thread switch whenever more than one
        is live, until none is or the instruction count reaches
        ``stop_at``.  ``threads`` is re-read every round, so a spawn
        handler may append to it.  A thread's ThreadExit ends it; the
        program's ProgramExit propagates."""
        rotor = 0
        while stop_at is None or self._instructions < stop_at:
            alive = [t for t in threads if t.alive]
            if not alive:
                return
            thread = alive[rotor % len(alive)]
            rotor += 1
            if len(alive) > 1:
                self.counter.charge(self.cost.thread_switch, "thread_switches")
            quantum = self.quantum
            if stop_at is not None and stop_at - self._instructions < quantum:
                quantum = stop_at - self._instructions
            try:
                self._run_quantum(thread, quantum, max_instructions)
            except ThreadExit:
                thread.alive = False

    def _deliver_signal(self, cpu, n):
        """Redirect to the signal handler (``n``: the instruction count;
        the latency is 0 or 1 here, since the native loop checks per
        instruction)."""
        interrupted = cpu.pc
        system = self.system
        latency = system.deliver_signal(
            cpu, self.process.memory, interrupted, n, self.counter,
            self.cost.signal_delivery,
        )
        cpu.pc = system.signal_handler
        if self.observer is not None:
            data = {"handler": system.signal_handler}
            if latency is not None:
                data["latency"] = latency
            self.observer.emit(EV_SIGNAL_DELIVERED, interrupted, **data)

    def _run_quantum(self, thread, quantum, max_instructions):
        """The quantum loop.

        Per dynamic instruction: one decode-cache lookup, one closure
        call and one comparison, of the count with ``stop``: the
        quantum's end (the instruction budget folded in) or, when
        earlier, ``System.due_at``, from which the safe point must ask
        ``System.signal_due``.  Only a SYSCALL (handled out of line) or
        a delivery moves ``due_at``, so workloads that never arm an
        alarm never ask.
        """
        cpu = thread.cpu
        # Fault context: memory errors raised during this quantum blame
        # this thread's current PC (consulted on error paths only).
        self.process.memory.set_fault_context(lambda: cpu.pc)
        counter = self.counter
        emulating = self.mode == "emulation"
        emu_cost = self.cost.emulate_per_instr
        system = self.system
        if self._instructions >= max_instructions:
            raise MachineFault(
                "instruction budget exhausted (%d)" % max_instructions
            )
        limit = self._instructions + quantum
        if limit > max_instructions:
            limit = max_instructions
        dcache_get = self._decode_cache.get
        decode = self._decode
        stop = min(limit, system.due_at)
        n = self._instructions
        try:
            while True:
                if n >= stop:
                    if n >= limit:
                        break
                    if system.signal_due(n):
                        self._deliver_signal(cpu, n)
                    stop = min(limit, system.due_at)
                d = dcache_get(cpu.pc)
                if d is None:
                    d = decode(cpu.pc)
                n += 1
                if emulating:
                    counter.cycles += emu_cost
                execute = d.execute
                if execute is not None:
                    counter.cycles += d.cost
                    execute(cpu)
                    cpu.pc = d.next_pc
                    continue
                opcode = d.opcode
                if opcode is Opcode.SYSCALL:
                    counter.cycles += d.cost
                    system.syscall(cpu)
                    cpu.pc = d.next_pc
                    stop = min(limit, system.due_at)
                    continue
                if opcode is Opcode.HALT:
                    raise ProgramExit(cpu.regs[0])
                self._execute_cti_fast(d, cpu.pc, thread)
        finally:
            self._instructions = n

    def _execute_cti_fast(self, d, pc, thread):
        """Control transfers using the decode's precomputed fields."""
        cpu = thread.cpu
        mem = self.process.memory
        cost = self.cost
        counter = self.counter
        opcode = d.opcode
        base = d.cost
        fallthrough = d.next_pc

        if d.cond is not None:
            if d.cond(cpu.eflags):
                counter.charge(base + cost.taken_branch_penalty, "branch_taken")
                cpu.pc = d.ops[0].pc
            else:
                counter.charge(base, "branch_not_taken")
                cpu.pc = fallthrough
        elif opcode is Opcode.JMP:
            counter.charge(base + cost.taken_branch_penalty)
            cpu.pc = d.ops[0].pc
        elif opcode is Opcode.CALL:
            counter.charge(base + cost.taken_branch_penalty)
            cpu.regs[4] = (cpu.regs[4] - 4) & _MASK32
            mem.write_u32(cpu.regs[4], fallthrough)
            thread.ras.push(fallthrough)
            cpu.pc = d.ops[0].pc
        elif opcode is Opcode.CALL_IND:
            target = read_operand(cpu, mem, d.ops[0])
            penalty = 0
            if not self.btb.predict_and_update(pc, target):
                penalty = cost.indirect_mispredict
                counter.count("btb_miss")
            counter.charge(base + cost.taken_branch_penalty + penalty)
            cpu.regs[4] = (cpu.regs[4] - 4) & _MASK32
            mem.write_u32(cpu.regs[4], fallthrough)
            thread.ras.push(fallthrough)
            cpu.pc = target
        elif opcode is Opcode.JMP_IND:
            target = read_operand(cpu, mem, d.ops[0])
            penalty = 0
            if not self.btb.predict_and_update(pc, target):
                penalty = cost.indirect_mispredict
                counter.count("btb_miss")
            counter.charge(base + cost.taken_branch_penalty + penalty)
            cpu.pc = target
        elif opcode is Opcode.RET:
            target = mem.read_u32(cpu.regs[4])
            cpu.regs[4] = (cpu.regs[4] + 4) & _MASK32
            penalty = 0
            if not thread.ras.pop_and_check(target):
                penalty = cost.ras_mispredict
                counter.count("ras_miss")
            counter.charge(base + cost.taken_branch_penalty + penalty)
            cpu.pc = target
        elif opcode is Opcode.IRET:
            target = pop_signal_frame(cpu, mem)
            # no RAS benefit: interrupt returns are unpredicted
            counter.charge(
                base + cost.taken_branch_penalty + cost.indirect_mispredict
            )
            cpu.pc = target
        else:
            raise MachineFault("unhandled CTI %r" % (opcode,))


def run_native(process, cost_model=None, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Convenience: run a process natively and return its RunResult."""
    return Interpreter(process, cost_model, mode="native").run(
        max_instructions=max_instructions
    )


def run_emulated(process, cost_model=None, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Convenience: run under pure emulation (Table 1 baseline)."""
    return Interpreter(process, cost_model, mode="emulation").run(
        max_instructions=max_instructions
    )
