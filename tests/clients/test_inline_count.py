"""Inline instruction counter: analysis-guided instrumentation."""

from repro.asm import assemble
from repro.clients import InlineInstructionCounter, InstructionCounter
from repro.core import DynamoRIO, RuntimeOptions
from repro.loader import Process
from repro.machine.interp import run_native
from repro.tools.oracle import Cell, check
from repro.workloads import load_benchmark


def run_with(image, client, options=None):
    dr = DynamoRIO(
        Process(image),
        options=options or RuntimeOptions.with_traces(),
        client=client,
    )
    return dr, dr.run()


def test_counts_match_clean_call_version():
    image = load_benchmark("vpr", 1)
    native = run_native(Process(image))
    inline = InlineInstructionCounter()
    _dr, inline_result = run_with(
        image, inline, RuntimeOptions.with_indirect_links()
    )
    clean = InstructionCounter()
    _dr, clean_result = run_with(
        image, clean, RuntimeOptions.with_indirect_links()
    )
    assert inline_result.output == native.output
    assert inline.executed == clean.executed == native.instructions


def test_mostly_inline():
    image = load_benchmark("vpr", 1)
    client = InlineInstructionCounter()
    run_with(image, client)
    assert client.inline_blocks > client.fallback_blocks


def test_much_cheaper_than_clean_calls():
    image = load_benchmark("vpr", 1)
    _dr, inline_result = run_with(image, InlineInstructionCounter())
    _dr, clean_result = run_with(image, InstructionCounter())
    assert inline_result.cycles < clean_result.cycles * 0.8


def test_counter_lives_in_runtime_memory():
    image = load_benchmark("vpr", 1)
    client = InlineInstructionCounter()
    dr, result = run_with(image, client)
    assert dr.memory.region("runtime_heap").contains(client.counter_addr)
    # and still transparent despite app-visible-address stores
    native = run_native(Process(image))
    assert result.output == native.output


def test_counts_survive_trace_promotion():
    """Traces are stitched from client-modified blocks, so the inline
    adds ride along into traces automatically."""
    image = load_benchmark("vpr", 1)
    native = run_native(Process(image))
    client = InlineInstructionCounter()
    opts = RuntimeOptions.with_traces()
    opts.trace_threshold = 5
    dr, result = run_with(image, client, opts)
    assert result.events["traces_built"] > 0
    assert client.executed == native.instructions


# ``shl eax, ecx`` with ecx = 0 leaves eflags unchanged, so the jz reads
# the cmp's ZF: no counter may be placed before the shift.
ZERO_SHIFT_ASM = """
.entry main
.text
main:
    mov ecx, 0
    mov eax, 5
    cmp eax, 5
    jnz bad
    shl eax, ecx
    jz good
bad:
    mov ebx, 1
    mov eax, 1
    syscall
good:
    mov ebx, 0
    mov eax, 1
    syscall
"""


def test_zero_count_shift_keeps_flags_live():
    image = assemble(ZERO_SHIFT_ASM)
    native = run_native(Process(image))
    _dr, result = run_with(image, InlineInstructionCounter())
    assert native.exit_code == 0
    assert (result.exit_code, result.output) == (
        native.exit_code, native.output
    )


# ``syscall`` leaves eflags as they are, so the cmp's flags reach the
# exit: the exit block has no dead-flags point and counts by clean call.
EXIT_FLAGS_ASM = """
.entry main
.text
main:
    mov eax, 5
    cmp eax, 5
    jz done
    mov eax, 6
done:
    mov ebx, 0
    mov eax, 1
    syscall
"""


def test_counter_keeps_flags_across_syscall():
    verdict = check(Cell(assemble(EXIT_FLAGS_ASM), client=InlineInstructionCounter))
    assert verdict.ok, verdict
    assert verdict.native.final_state[0][1] == "0x44"  # ZF and PF of the cmp
