"""The minimal OS surface of the RIO-32 machine.

Programs talk to the outside world through the ``syscall`` instruction
with the call number in ``eax``:

====  =========  ============================================
eax   argument   effect
====  =========  ============================================
1     ebx        exit the program with status ``ebx``
2     ebx        write the low byte of ``ebx`` to the output
3     ebx        write ``ebx`` as 4 little-endian output bytes
4     ebx, ecx   spawn a thread at pc=``ebx`` with esp=``ecx``
5     —          exit the calling thread
6     ebx        install the signal handler at address ``ebx``
7     ebx        request a (one-shot) alarm signal after ``ebx``
                 more instructions
====  =========  ============================================

Alarm signals are delivered by the executor at a *safe point* (between
instructions natively; at a fragment boundary under the runtime — the
paper's Section 2 interception requirement: the handler, like all
application code, executes under the code cache).  Delivery pushes a
full *signal frame* (eflags, the seven non-esp GPRs, then the
interrupted pc), since the handler — compiled with the ordinary calling
convention — is free to clobber caller-saved registers that the
interrupted code still needs; ``iret`` unwinds the frame.

The output stream is how every correctness test compares native
execution with execution under the runtime: identical output (and exit
code) is the observable definition of transparency.

Thread syscalls dispatch to executor-provided handlers (the native
interpreter and the runtime each manage their own thread contexts —
the latter with thread-private code caches, the paper's Section 2).
"""

from repro.machine.errors import MachineFault, ProgramExit

SYS_EXIT = 1
SYS_WRITE_BYTE = 2
SYS_WRITE_U32 = 3
SYS_SPAWN = 4
SYS_THREAD_EXIT = 5
SYS_SIGHANDLER = 6
SYS_ALARM = 7


# A due_at no instruction count reaches.
NEVER = 1 << 62


class ThreadExit(Exception):
    """The calling thread ended (not the whole program)."""


class System:
    """Syscall handler and program output buffer."""

    def __init__(self):
        self.output = bytearray()
        self.exit_code = None
        # Set by executors that support threads.
        self.spawn_thread = None
        # Signal state: handler address; alarm as "in N instructions"
        # (converted by the executor to an absolute count at its next
        # safe point).
        self.signal_handler = None
        self.alarm_in = None
        self.alarm_at = None
        # The instruction count from which a safe point must ask
        # signal_due: 0 while a relative alarm awaits conversion, the
        # deadline while a handler is installed, NEVER otherwise (an
        # alarm nobody can take waits for sighandler).  Every safe
        # point's fast path is one comparison against it; only this
        # class updates it (_rearm).
        self.due_at = NEVER
        self.signals_delivered = 0

    def syscall(self, cpu):
        number = cpu.regs[0]  # eax
        arg = cpu.regs[3]  # ebx
        if number == SYS_EXIT:
            self.exit_code = arg
            raise ProgramExit(arg)
        if number == SYS_WRITE_BYTE:
            self.output.append(arg & 0xFF)
            return
        if number == SYS_WRITE_U32:
            self.output += (arg & 0xFFFFFFFF).to_bytes(4, "little")
            return
        if number == SYS_SPAWN:
            if self.spawn_thread is None:
                raise MachineFault("this executor does not support threads")
            self.spawn_thread(entry=cpu.regs[3], stack_pointer=cpu.regs[1])
            return
        if number == SYS_THREAD_EXIT:
            raise ThreadExit()
        if number == SYS_SIGHANDLER:
            self.signal_handler = arg & 0xFFFFFFFF
            self._rearm()
            return
        if number == SYS_ALARM:
            self.alarm_in = arg & 0xFFFFFFFF
            self._rearm()
            return
        raise MachineFault("unknown syscall %d" % number)

    def _rearm(self):
        if self.alarm_in is not None:
            self.due_at = 0
        elif self.alarm_at is not None and self.signal_handler:
            self.due_at = self.alarm_at
        else:
            self.due_at = NEVER

    def signal_due(self, now):
        """Whether a safe point at instruction count ``now`` delivers the
        alarm signal: a relative alarm request is converted to an
        absolute deadline first, then the deadline must have passed and
        a handler be installed.  A safe point asks only once ``now >=
        due_at``."""
        if self.alarm_in is not None:
            self.alarm_at = now + self.alarm_in
            self.alarm_in = None
            self._rearm()
        return now >= self.due_at

    def deliver_signal(self, cpu, memory, interrupted_pc, now, counter, cycles):
        """Deliver the due alarm signal to ``cpu``'s thread: push a
        signal frame that resumes at ``interrupted_pc``, clear the alarm
        and charge ``cycles`` to ``counter`` as ``signals_delivered``;
        the caller redirects the thread to ``signal_handler``.

        ``now`` is the instruction count; the delivery latency
        (instructions executed past the alarm deadline) accumulates
        under ``signal_latency`` and ``signal_latency_max``.  Returns
        it, or ``None`` when no deadline was set.
        """
        latency = None
        if self.alarm_at is not None:
            latency = now - self.alarm_at
            events = counter.events
            events["signal_latency"] = events.get("signal_latency", 0) + latency
            if latency > events.get("signal_latency_max", -1):
                events["signal_latency_max"] = latency
        push_signal_frame(cpu, memory, interrupted_pc)
        self.alarm_at = None
        self._rearm()
        self.signals_delivered += 1
        counter.charge(cycles, "signals_delivered")
        return latency

    def output_bytes(self):
        return bytes(self.output)


_MASK32 = 0xFFFFFFFF
# Saved in this push order (esp excluded: it is implied by the frame).
_FRAME_REGS = (7, 6, 5, 3, 2, 1, 0)  # edi, esi, ebp, ebx, edx, ecx, eax


def push_signal_frame(cpu, memory, interrupted_pc):
    """Build a signal frame on the application stack.

    Layout (top of stack last): eflags, edi, esi, ebp, ebx, edx, ecx,
    eax, interrupted_pc.  The handler runs with this as its "return
    address" area and unwinds it with ``iret``.
    """
    regs = cpu.regs
    sp = regs[4]
    sp = (sp - 4) & _MASK32
    memory.write_u32(sp, cpu.eflags)
    for reg in _FRAME_REGS:
        sp = (sp - 4) & _MASK32
        memory.write_u32(sp, regs[reg])
    sp = (sp - 4) & _MASK32
    memory.write_u32(sp, interrupted_pc)
    regs[4] = sp


def pop_signal_frame(cpu, memory):
    """Unwind a signal frame (the ``iret`` semantics); returns the
    interrupted pc to resume at."""
    regs = cpu.regs
    sp = regs[4]
    target = memory.read_u32(sp)
    sp = (sp + 4) & _MASK32
    for reg in reversed(_FRAME_REGS):
        regs[reg] = memory.read_u32(sp)
        sp = (sp + 4) & _MASK32
    cpu.eflags = memory.read_u32(sp)
    sp = (sp + 4) & _MASK32
    regs[4] = sp
    return target
