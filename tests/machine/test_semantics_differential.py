"""One instruction, three implementations of its semantics.

Non-CTI semantics exist three times: ``execute_noncti`` (the tuple
engine's interpretive reference), the ``compile_noncti`` closures (the
native interpreter, one-instruction steps, segment fallbacks) and the
generated-segment templates of ``repro.core.closures`` (closure and
chain tiers alike).  Engine-level oracle cells compare closure with
chain, which share the templates, so only this test catches a template
that disagrees with the reference.

Every opcode × operand shape — register, immediate, and memory through
each ``compile_ea`` form at sizes 1/2/4 — runs from random registers,
eflags and memory, with memory targets biased to the edges (last valid
byte/halfword/word, one byte past the end, effective addresses that wrap
past 2**32), read-only regions under protection and watched lines.  All
three must leave equal registers, eflags, memory bytes and watcher calls,
or raise the same exception type and message.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.closures import compile_segment
from repro.isa.opcodes import Opcode
from repro.isa.operands import ImmOperand, MemOperand, RegOperand
from repro.machine.cost import CycleCounter
from repro.machine.cpu import CPU
from repro.machine.errors import MachineFault
from repro.machine.exec_ops import compile_noncti, execute_noncti
from repro.machine.memory import WATCH_SHIFT, Memory
from repro.machine.system import System

SIZE = 0x2000  # small, so the last bytes of memory are easy to target
M32 = 0xFFFFFFFF
LINE = 1 << WATCH_SHIFT
ESP = 4

# opcode -> (shapes of ops[0], shapes of ops[1]); ``None`` = no operand.
_SRC = ("reg", "imm", "mem")
_DST = ("reg", "mem")
SHAPES = {
    Opcode.NOP: (None, None),
    Opcode.PUSH: (_SRC, None),
    Opcode.POP: (_DST, None),
    Opcode.INC: (_DST, None),
    Opcode.DEC: (_DST, None),
    Opcode.NOT: (_DST, None),
    Opcode.NEG: (_DST, None),
    Opcode.DIV: (_SRC, None),
    Opcode.LEA: (("reg",), ("mem",)),
    Opcode.MOVSX: (("reg",), ("mem",)),
    Opcode.MOVZX: (("reg",), ("mem",)),
    Opcode.MOVB_STORE: (("mem",), ("reg", "imm")),
}
for _op in (
    Opcode.MOV, Opcode.FLD, Opcode.FST, Opcode.ADD, Opcode.SUB, Opcode.CMP,
    Opcode.TEST, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.SAR, Opcode.IMUL, Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
    Opcode.FDIV, Opcode.XCHG,
):
    SHAPES[_op] = (_DST, _SRC)

EA_FORMS = ("abs", "base", "base_disp", "index", "base_index")


def _edge_target(rng, n):
    """A memory target for an ``n``-byte access, biased to the end of
    memory: the last valid access, one byte past it, past the end."""
    pick = rng.random()
    if pick < 0.55:
        return rng.randrange(0, SIZE - n + 1)
    if pick < 0.75:
        return SIZE - n  # the last valid word / halfword / byte
    if pick < 0.9:
        return SIZE - n + 1  # one byte past the end
    return rng.choice((SIZE, M32 - rng.randrange(4), SIZE + rng.randrange(64)))


def _mem_operand(rng, regs, form, n, target, avoid):
    """A MemOperand of ``form`` whose effective address is ``target``,
    setting the base/index registers it uses in ``regs`` (the wrap past
    2**32 comes from displacements larger than the target)."""
    free = [r for r in range(8) if r not in avoid]
    disp = rng.choice((0, rng.randrange(-128, 128), rng.randrange(0, 1 << 16)))
    if form == "abs":
        return MemOperand(disp=target, size=n)
    base = rng.choice(free)
    if form == "base":
        regs[base] = target
        return MemOperand(base=base, size=n)
    if form == "base_disp":
        regs[base] = (target - disp) & M32
        return MemOperand(base=base, disp=disp, size=n)
    index = rng.choice([r for r in free if r != ESP and r != base])
    scale = rng.choice((1, 2, 4, 8))
    q = rng.choice((rng.randrange(64), rng.getrandbits(32)))
    regs[index] = q
    if form == "index":
        return MemOperand(
            index=index, scale=scale, disp=(target - q * scale), size=n
        )
    regs[base] = (target - disp - q * scale) & M32
    return MemOperand(base=base, index=index, scale=scale, disp=disp, size=n)


def _case(rng, opcode, shape0=None, shape1=None, form=None, size=None):
    """A random machine state and operand list for ``opcode``: returns
    ``(ops, regs, eflags, data, guard)`` where ``guard`` is None,
    ``("protect", start, end)`` or ``("watch", start, end)``."""
    choices = SHAPES[opcode]
    shapes = []
    for slot, pinned in zip(choices, (shape0, shape1)):
        if slot is not None:
            shapes.append(pinned or rng.choice(slot))
    if shapes.count("mem") > 1:  # RIO-32 has one memory operand at most
        shapes[0] = "reg"
    regs = [rng.getrandbits(32) for _ in range(8)]
    stack = opcode in (Opcode.PUSH, Opcode.POP)
    if stack:
        regs[ESP] = _edge_target(rng, 4) + (4 if opcode == Opcode.PUSH else 0)
    ops = []
    guard = None
    for shape in shapes:
        if shape == "reg":
            ops.append(RegOperand(rng.randrange(8)))
        elif shape == "imm":
            ops.append(ImmOperand(rng.getrandbits(32) - (1 << 31)))
        else:
            n = size or rng.choice((1, 2, 4))
            target = _edge_target(rng, n)
            op = _mem_operand(
                rng, regs, form or rng.choice(EA_FORMS), n, target,
                avoid=(ESP,) if stack else (),
            )
            ops.append(op)
            if target < SIZE and rng.random() < 0.3:
                # Straddle a line boundary or cover the target.
                start = (target & ~(LINE - 1)) + rng.choice((0, LINE))
                kind = rng.choice(("protect", "watch"))
                guard = (kind, start, min(start + LINE, SIZE))
    data = bytes(rng.getrandbits(8) for _ in range(SIZE))
    return tuple(ops), regs, rng.getrandbits(12), data, guard


def _machine(regs, eflags, data, guard):
    mem = Memory(SIZE)
    mem.write_bytes(0, data)
    calls = []
    if guard is not None:
        kind, start, end = guard
        if start < end:
            if kind == "protect":
                mem.add_region("ro", start, end - start, writable=False)
                mem.set_protection(True)
            else:
                mem.add_write_watcher(lambda addr, n: calls.append((addr, n)))
                mem.watch_range(start, end)
    cpu = CPU()
    cpu.regs = list(regs)
    cpu.eflags = eflags
    return cpu, mem, calls


def _by_execute(instrs, cpu, mem, system):
    for opcode, ops, _cost in instrs:
        execute_noncti(cpu, mem, system, opcode, ops)


def _by_closure(instrs, cpu, mem, system):
    for opcode, ops, _cost in instrs:
        compile_noncti(opcode, ops, mem, system)(cpu)


def _by_segment(instrs, cpu, mem, system):
    step = compile_segment(instrs, mem, system, CycleCounter(), 7)
    assert step(SimpleNamespace(instructions=0), cpu) == 7


IMPLEMENTATIONS = {
    "execute_noncti": _by_execute,
    "compile_noncti": _by_closure,
    "segment": _by_segment,
}


def _outcome(impl, instrs, state):
    cpu, mem, calls = _machine(*state)
    try:
        impl(instrs, cpu, mem, System())
        error = None
    except Exception as exc:  # compared, type and message, across impls
        error = (type(exc).__name__, str(exc))
    return {
        "error": error,
        "regs": cpu.regs,
        "eflags": cpu.eflags,
        "memory": mem.read_bytes(0, SIZE),
        "watch_calls": calls,
    }


def _assert_agree(opcode, ops, regs, eflags, data, guard):
    instrs = [(opcode, ops, 1)]
    state = (regs, eflags, data, guard)
    outcomes = {
        name: _outcome(impl, instrs, state)
        for name, impl in IMPLEMENTATIONS.items()
    }
    reference = outcomes["execute_noncti"]
    # A fault is a MachineFault, never a struct.error or IndexError.
    error = reference["error"]
    assert error is None or error[0] == "MachineFault", error
    for name, outcome in outcomes.items():
        for key, value in outcome.items():
            assert value == reference[key], (
                "%s disagrees with execute_noncti on %s: %s %r guard=%r "
                "regs=%r" % (name, key, opcode.name, ops, guard, regs)
            )


@pytest.mark.parametrize("opcode", sorted(SHAPES), ids=lambda op: op.name)
def test_single_instruction_sample(opcode):
    """Seeded sample: a few dozen random cases per opcode."""
    rng = random.Random(1000 + opcode)
    for _ in range(24):
        _assert_agree(opcode, *_case(rng, opcode))


@pytest.mark.slow
@pytest.mark.parametrize("opcode", sorted(SHAPES), ids=lambda op: op.name)
def test_single_instruction_sweep(opcode):
    """Every operand shape × every effective-address form × size,
    several random states each."""
    shape0s, shape1s = SHAPES[opcode]
    rng = random.Random(opcode)
    for shape0 in shape0s or (None,):
        for shape1 in shape1s or (None,):
            mem = "mem" in (shape0, shape1)
            for form in EA_FORMS if mem else (None,):
                for size in (1, 2, 4) if mem else (None,):
                    for _ in range(12):
                        _assert_agree(opcode, *_case(
                            rng, opcode, shape0, shape1, form, size,
                        ))


def _load(n, addr):
    return (Opcode.MOVZX if n < 4 else Opcode.MOV,
            (RegOperand(0), MemOperand(disp=addr, size=n)))


def _store(n, addr):
    return (Opcode.MOVB_STORE if n == 1 else Opcode.MOV,
            (MemOperand(disp=addr, size=n), RegOperand(1)))


EDGES = [
    # The last valid word, halfword and byte; one byte past the end.
    pytest.param(*_load(n, SIZE - n + past), None, id="load%d_%s" % (
        n, "past" if past else "last"))
    for n in (1, 2, 4) for past in (0, 1)
] + [
    pytest.param(*_store(n, SIZE - n + past), None, id="store%d_%s" % (
        n, "past" if past else "last"))
    for n in (1, 4) for past in (0, 1)
] + [
    # An effective address that wraps past 2**32 to a valid address.
    pytest.param(
        Opcode.ADD, (MemOperand(base=2, disp=0x200, size=4), RegOperand(1)),
        None, id="wrap",
    ),
    # A store into a read-only region under protection.
    pytest.param(*_store(4, 0x400), ("protect", 0x400, 0x440), id="readonly"),
    # A store straddling into a watched line: one watcher call.
    pytest.param(*_store(4, 0x43E), ("watch", 0x440, 0x480), id="straddle"),
    pytest.param(*_store(1, 0x43F), ("watch", 0x440, 0x480), id="unwatched"),
]


@pytest.mark.parametrize("opcode, ops, guard", EDGES)
def test_memory_edges(opcode, ops, guard):
    regs = [0x11223344 + r for r in range(8)]
    regs[2] = (0x100 - 0x200) & M32  # the wrap case's base
    data = bytes(range(256)) * (SIZE // 256)
    _assert_agree(opcode, ops, regs, 0x8D5, data, guard)
    outcome = _outcome(_by_segment, [(opcode, ops, 1)],
                       (regs, 0x8D5, data, guard))
    past = any(
        isinstance(op, MemOperand) and op.disp + op.size > SIZE for op in ops
    )
    if past or (guard and guard[0] == "protect"):
        assert outcome["error"][0] == MachineFault.__name__
    else:
        assert outcome["error"] is None
    if guard and guard[0] == "watch":
        expected = [(0x43E, 4)] if ops[0].disp == 0x43E else []
        assert outcome["watch_calls"] == expected


# ------------------------------------------------------------ mid-run faults

_FAULTS = {
    # template load past the end of memory
    "load": (Opcode.MOV, (RegOperand(3), MemOperand(disp=SIZE - 2, size=4))),
    # template store that the store-time test sends to the checked path
    "readonly": (Opcode.MOV, (MemOperand(disp=0x400, size=4), RegOperand(1))),
    # fallback closure
    "div": (Opcode.DIV, (RegOperand(7),)),
}


def _straight_line(rng, n):
    """``n`` non-faulting instructions with random costs."""
    body = []
    for _ in range(n):
        opcode = rng.choice((Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MOV,
                             Opcode.INC, Opcode.FMUL))
        if opcode == Opcode.INC:
            ops = (RegOperand(rng.randrange(4)),)
        elif rng.random() < 0.5:
            ops = (RegOperand(rng.randrange(4)),
                   MemOperand(disp=rng.randrange(0x800, 0x1000) & ~3))
        else:
            ops = (MemOperand(base=5, disp=rng.randrange(64) * 4),
                   RegOperand(rng.randrange(4)))
        body.append((opcode, ops, rng.randrange(1, 50)))
    return body


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_mid_run_fault_flushes_like_closures(fault):
    """When a segment's k-th instruction faults, the segment raises the
    closure's exception and flushes the cycles and instructions the
    per-instruction closures would have charged (faulting one included)."""
    rng = random.Random(fault)
    n = 6
    for k in range(n):
        instrs = _straight_line(rng, n)
        opcode, ops = _FAULTS[fault]
        instrs[k] = (opcode, ops, 1000 + k)
        regs = [rng.getrandbits(32) for _ in range(8)]
        regs[5] = 0x200
        regs[7] = 0  # the DIV's divisor
        state = (regs, 0x2, bytes(SIZE), ("protect", 0x400, 0x440))

        cpu, mem, _calls = _machine(*state)
        cycles = done = 0
        with pytest.raises(MachineFault) as closure_fault:
            for op_code, op_ops, cost in instrs:
                cycles += cost
                done += 1
                compile_noncti(op_code, op_ops, mem, System())(cpu)
        closure_state = (cpu.regs, cpu.eflags, mem.read_bytes(0, SIZE))

        cpu, mem, _calls = _machine(*state)
        counter = CycleCounter()
        ex = SimpleNamespace(instructions=0)
        step = compile_segment(instrs, mem, System(), counter, 1)
        with pytest.raises(MachineFault) as segment_fault:
            step(ex, cpu)
        assert str(segment_fault.value) == str(closure_fault.value)
        assert (counter.cycles, ex.instructions) == (cycles, done)
        assert done == k + 1
        assert (cpu.regs, cpu.eflags, mem.read_bytes(0, SIZE)) == closure_state


# ------------------------------------------------------------ whole engines

FAULTING_LOOP = """
.entry main
.text
main:
    mov eax, 0
    mov ebx, 0
    mov ecx, 100
    mov esi, 0x1ffff5e
loop:
    add esi, 4
    add eax, ecx
    mov edx, [esi]
    add eax, edx
    test ecx, 1
    jz skip
    inc ebx
skip:
    dec ecx
    jnz loop
    mov ebx, eax
    mov eax, 1
    syscall
"""


def test_out_of_range_load_mid_run_on_every_engine():
    """A hot loop walks a load up to one halfword short of the end of
    the 32 MiB address space; the 40th pass faults on the third
    instruction of a straight-line run.  The tuple engine, the closure
    engine's segment and the chain table's segment raise the same fault
    text with the same flushed cycles, instructions and registers, and
    the registers equal native's.  (The runtime names the dispatched
    fragment's tag as the app pc, native the faulting instruction's, so
    only the text before that suffix is compared with native; runtime
    instruction counts include the exits the runtime synthesizes.)"""
    from repro.asm import assemble
    from repro.core import DynamoRIO, RuntimeOptions
    from repro.loader import Process
    from repro.machine.interp import Interpreter
    from repro.tools.oracle import ENGINES, set_engine

    image = assemble(FAULTING_LOOP)
    interp = Interpreter(Process(image))
    with pytest.raises(MachineFault) as native:
        interp.run()
    outcomes = []
    for engine in ENGINES:
        options = set_engine(RuntimeOptions.with_traces(), engine)
        options.trace_threshold = 3
        options.chain_threshold = 1
        runtime = DynamoRIO(Process(image), options=options)
        with pytest.raises(MachineFault) as fault:
            runtime.run()
        outcomes.append((
            str(fault.value), runtime.counter.cycles,
            runtime.executor.instructions, runtime.threads[0].cpu.regs,
        ))
        if engine == "chain":
            assert runtime.chains.report()["chains_built"] > 0
    assert outcomes[1:] == outcomes[:-1]
    text, _cycles, _instructions, regs = outcomes[0]
    assert text.split(" (")[0] == str(native.value).split(" (")[0]
    assert text.startswith("read past memory at 0x1fffffe")
    assert regs == interp.cpu.regs
