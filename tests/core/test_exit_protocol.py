"""The cache-exit protocol: every exit is ``Executor.run``'s return value.

An exit step records ``(reason, next_tag, stub)`` on the executor and
returns ``None``; the run loop's own boundary exits (single-step, the
quantum deadline, a reschedule, a due alarm) return directly.  Each
test below drives ``Executor.run`` on hand-built fragments to one exit
and checks the returned triple and the context-switch charge: only an
unlinked direct exit and an IBL miss pay one.  The cost model's
``context_switch`` is set far above every other charge, so the cycle
delta counts the switches.
"""

import pytest

from repro.asm import assemble
from repro.core import DynamoRIO, RuntimeOptions
from repro.core.execute import EXIT_DISPATCH, EXIT_IBL_MISS, EXIT_INTERRUPT
from repro.core.fragments import LinkStub
from repro.loader import Process
from repro.machine.cost import CostModel
from repro.machine.errors import MachineFault

PROGRAM = """
.entry main
.text
main:
    mov eax, 1
    mov ebx, 2
    jmp second
second:
    mov ecx, 3
    mov edx, 4
    jmp third
third:
    ret
target:
    mov ebx, 0
    mov eax, 1
    syscall
"""

SWITCH = 1_000_000


def _runtime(options):
    image = assemble(PROGRAM)
    cost = CostModel()
    cost.context_switch = SWITCH
    runtime = DynamoRIO(Process(image), options=options, cost_model=cost)
    cpu = runtime.current_thread.cpu
    cpu.pc = image.entry
    cpu.regs[4] = runtime.process.initial_stack_pointer()
    return runtime, image.symbols


def _linked_pair(options):
    """``main`` with its exit linked to ``second``; ``second``'s exit to
    ``third`` stays unlinked."""
    runtime, sym = _runtime(options)
    first = runtime._build_bb(sym["main"])
    second = runtime._build_bb(sym["second"])
    runtime._maybe_link(first.exits[0], second)
    assert first.exits[0].linked_to is second
    return runtime, sym, first


def _arm_alarm(runtime, handler):
    """An alarm due after the first instruction; ``handler`` 0 means
    none is installed."""
    system = runtime.system
    system.signal_handler = handler
    system.alarm_in = 1
    system.alarm_active = True


def _run(runtime, fragment, **kwargs):
    """``Executor.run`` from cycle 0; returns its exit and the number
    of context switches charged in cycles and in stats."""
    before = runtime.counter.cycles
    exit_ = runtime.executor.run(fragment, **kwargs)
    switches = (runtime.counter.cycles - before) // SWITCH
    assert switches == runtime.stats.context_switches
    return exit_, switches


def test_unlinked_direct_exit_returns_its_stub():
    runtime, sym = _runtime(RuntimeOptions.bb_cache_only())
    first = runtime._build_bb(sym["main"])
    (reason, next_tag, stub), switches = _run(runtime, first)
    assert (reason, next_tag) == (EXIT_DISPATCH, sym["second"])
    assert stub is first.exits[0]
    assert stub.target_tag == sym["second"]
    assert switches == 1


@pytest.mark.parametrize("factory", [
    RuntimeOptions.bb_cache_only, RuntimeOptions.with_indirect_links,
])
def test_ibl_miss_returns_the_target(factory):
    runtime, sym = _runtime(factory())
    leaf = runtime._build_bb(sym["third"])
    cpu = runtime.current_thread.cpu
    cpu.regs[4] -= 4
    runtime.memory.write_u32(cpu.regs[4], sym["target"])
    (reason, next_tag, stub), switches = _run(runtime, leaf)
    assert (reason, next_tag) == (EXIT_IBL_MISS, sym["target"])
    assert stub is leaf.exits[0] and stub.kind == LinkStub.KIND_INDIRECT
    assert switches == 1
    assert runtime.stats.ibl_misses == int(factory().link_indirect)


def test_linked_transfer_runs_on_to_the_next_unlinked_exit():
    runtime, sym, first = _linked_pair(RuntimeOptions.with_direct_links())
    (reason, next_tag, stub), switches = _run(runtime, first)
    assert (reason, next_tag) == (EXIT_DISPATCH, sym["third"])
    assert stub.fragment.tag == sym["second"]
    assert switches == 1
    assert runtime.executor.instructions == 6


def test_single_step_returns_after_one_fragment():
    runtime, sym, first = _linked_pair(RuntimeOptions.with_direct_links())
    exit_, switches = _run(runtime, first, single_step=True)
    assert exit_ == (EXIT_DISPATCH, sym["second"], None)
    assert switches == 0
    assert runtime.executor.instructions == 3


@pytest.mark.parametrize("stop", ["deadline", "reschedule"])
def test_quantum_boundary_returns_without_a_switch(stop):
    runtime, sym, first = _linked_pair(RuntimeOptions.with_direct_links())
    if stop == "deadline":
        exit_, switches = _run(runtime, first, deadline=1)
    else:
        runtime._need_reschedule = True
        exit_, switches = _run(runtime, first)
    assert exit_ == (EXIT_DISPATCH, sym["second"], None)
    assert switches == 0
    assert runtime.executor.instructions == 3


def test_due_alarm_returns_at_the_boundary():
    runtime, sym, first = _linked_pair(RuntimeOptions.with_direct_links())
    _arm_alarm(runtime, sym["target"])
    exit_, switches = _run(runtime, first)
    assert exit_ == (EXIT_DISPATCH, sym["second"], None)
    assert switches == 0


def test_due_alarm_without_a_handler_keeps_running():
    """Nothing could be delivered, so the boundary must not leave."""
    runtime, sym, first = _linked_pair(RuntimeOptions.with_direct_links())
    _arm_alarm(runtime, 0)
    (reason, next_tag, _stub), switches = _run(runtime, first)
    assert (reason, next_tag) == (EXIT_DISPATCH, sym["third"])
    assert switches == 1


def test_interrupt_poll_returns_the_translated_pc():
    options = RuntimeOptions.bb_cache_only()
    options.precise_interrupts = True
    runtime, sym = _runtime(options)
    first = runtime._build_bb(sym["main"])
    # The two movs fuse into one step; the jmp step is the poll point.
    jmp_pc = first.translation.poll_ops[2]
    assert sym["main"] < jmp_pc < sym["second"]
    _arm_alarm(runtime, sym["target"])
    exit_, switches = _run(runtime, first)
    assert exit_ == (EXIT_INTERRUPT, jmp_pc, None)
    assert switches == 0
    assert runtime.executor.instructions == 2


def test_step_ending_without_an_exit_fails_loudly():
    """Planted control: a step that returns ``None`` with no successor
    and no recorded exit must raise, never hand back an older exit."""
    runtime, sym = _runtime(RuntimeOptions.bb_cache_only())
    first = runtime._build_bb(sym["main"])
    exit_, _switches = _run(runtime, first)
    assert exit_[0] == EXIT_DISPATCH
    first.compiled = (lambda ex, cpu: None,)
    with pytest.raises(MachineFault, match="without an exit"):
        runtime.executor.run(first)
