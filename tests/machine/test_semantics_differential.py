"""One instruction, three implementations of its semantics.

Non-CTI semantics exist three times: ``execute_noncti`` (the
interpretive reference, also the fallback of exit-stub ops and of
operand forms ``compile_noncti`` does not specialize), the
``compile_noncti`` closures (the native interpreter, one-instruction
steps, segment fallbacks) and the generated-segment templates of
``repro.core.closures``.  Oracle cells hold whole runs to native's
final state; only this test pins each template, instruction by
instruction, to the reference.

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

from repro.core import closures
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


# ------------------------------------------------------------ whole runs
#
# Generated segments skip the flags of writers the run overwrites before
# anything reads them, rebuild those flags when a fault unwinds the
# segment, and reuse a 4-byte word the run already holds instead of
# loading it again.  These runs compare whole segments with the
# per-instruction closures.

EAX, ECX, EDX, EBX, EBP, ESI, EDI = 0, 1, 2, 3, 5, 6, 7
_WRITERS = (
    Opcode.ADD, Opcode.SUB, Opcode.CMP, Opcode.TEST, Opcode.AND, Opcode.OR,
    Opcode.XOR, Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.SHL, Opcode.SHR,
    Opcode.SAR, Opcode.IMUL,
)
_STORING_WRITERS = tuple(
    op for op in _WRITERS if op not in (Opcode.CMP, Opcode.TEST)
)


def _instruction(rng, opcode, dst):
    """``opcode`` over first operand ``dst``, with a second operand
    drawn to match: a shift counts by an immediate (0 and 32 included)
    or by ECX, which may hold 0."""
    if opcode in (Opcode.INC, Opcode.DEC, Opcode.NEG, Opcode.NOT):
        return opcode, (dst,)
    if opcode in (Opcode.SHL, Opcode.SHR, Opcode.SAR):
        if rng.random() < 0.5:
            return opcode, (dst, RegOperand(ECX))
        return opcode, (dst, ImmOperand(rng.choice((0, 1, 5, 31, 32, 33))))
    pick = rng.random()
    if pick < 0.4 or isinstance(dst, MemOperand) and pick < 0.7:
        src = RegOperand(rng.randrange(4))
    elif isinstance(dst, MemOperand) or pick < 0.7:
        src = ImmOperand(rng.getrandbits(32) - (1 << 31))
    else:
        src = MemOperand(disp=rng.randrange(0x800, 0x1000) & ~3)
    return opcode, (dst, src)


def _straight_line(rng, n):
    """``n`` non-faulting instructions with random costs: every templated
    flag writer, MOV, NOT and FMUL, over register destinations and
    words at EBP (0x200) + 0..252."""
    body = []
    for _ in range(n):
        opcode = rng.choice(_WRITERS + (Opcode.MOV, Opcode.NOT, Opcode.FMUL))
        if rng.random() < 0.6:
            dst = RegOperand(rng.randrange(4))
        else:
            dst = MemOperand(base=EBP, disp=rng.randrange(64) * 4)
        body.append(_instruction(rng, opcode, dst) + (rng.randrange(1, 50),))
    return body


def _run_state(rng):
    """Random registers (EBP = 0x200, ECX often 0 mod 32, EDI = 0 for
    DIV), eflags and memory, with the line at 0x400 read-only."""
    regs = [rng.getrandbits(32) for _ in range(8)]
    regs[EBP] = 0x200
    regs[ECX] = rng.choice((0, 32, regs[ECX]))
    regs[EDI] = 0
    data = bytes(rng.getrandbits(8) for _ in range(SIZE))
    return regs, rng.getrandbits(12), data, ("protect", 0x400, 0x440)


def _agree_with_closures(instrs, state):
    """Run ``instrs`` from ``state`` as one generated segment and as
    per-instruction ``compile_noncti`` closures: the same fault text (or
    none), flushed cycles and instructions, registers, eflags and
    memory.  Returns the fault text."""
    cpu, mem, _calls = _machine(*state)
    cycles = done = 0
    error = None
    try:
        for opcode, ops, cost in instrs:
            cycles += cost
            done += 1
            compile_noncti(opcode, ops, mem, System())(cpu)
    except MachineFault as exc:
        error = str(exc)
    closure = (error, cycles, done, cpu.regs, cpu.eflags,
               mem.read_bytes(0, SIZE))

    cpu, mem, _calls = _machine(*state)
    counter = CycleCounter()
    ex = SimpleNamespace(instructions=0)
    step = compile_segment(instrs, mem, System(), counter, 1)
    error = None
    try:
        assert step(ex, cpu) == 1
    except MachineFault as exc:
        error = str(exc)
    segment = (error, counter.cycles, ex.instructions, cpu.regs, cpu.eflags,
               mem.read_bytes(0, SIZE))
    fields = ("fault", "cycles", "instructions", "regs", "eflags", "memory")
    for field, got, want in zip(fields, segment, closure):
        assert got == want, "segment %s %r != closures %r in %r" % (
            field, got if field != "memory" else "...",
            want if field != "memory" else "...", instrs,
        )
    return error


def test_straight_line_sample():
    """Seeded sample of fault-free runs: dead flag writers skip their
    flags without changing any result."""
    rng = random.Random(21)
    for _ in range(60):
        assert _agree_with_closures(
            _straight_line(rng, 10), _run_state(rng)
        ) is None


@pytest.mark.slow
def test_straight_line_sweep():
    rng = random.Random(2100)
    for _ in range(3000):
        assert _agree_with_closures(
            _straight_line(rng, rng.randrange(2, 16)), _run_state(rng)
        ) is None


_FAULTS = {
    # template load past the end of memory (by a flag writer or a MOV)
    "load": lambda rng: (
        rng.choice((Opcode.MOV, Opcode.ADD, Opcode.CMP, Opcode.IMUL)),
        (RegOperand(EBX), MemOperand(disp=SIZE - 2, size=4)),
    ),
    # template store that the store-time test sends to the checked path
    "readonly": lambda rng: (
        Opcode.MOV, (MemOperand(disp=0x400, size=4), RegOperand(ECX)),
    ),
    # read-modify-write whose store faults after its flags are set
    "rmw": lambda rng: _instruction(
        rng, rng.choice(_STORING_WRITERS), MemOperand(disp=0x404, size=4),
    ),
    # fallback closure
    "div": lambda rng: (Opcode.DIV, (RegOperand(EDI),)),
}


def _fault_runs(rng, fault, bodies, n=8):
    """``bodies`` random runs of ``n`` instructions, each with ``fault``
    at every position in turn."""
    for _ in range(bodies):
        body = _straight_line(rng, n)
        state = _run_state(rng)
        for k in range(n):
            instrs = list(body)
            instrs[k] = _FAULTS[fault](rng) + (1000 + k,)
            assert _agree_with_closures(instrs, state) is not None


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_mid_run_fault_flushes_like_closures(fault):
    """When a segment's k-th instruction faults, the segment raises the
    closure's exception, flushes the cycles and instructions the
    per-instruction closures would have charged (faulting one
    included), and leaves their registers, memory and eflags — the
    flags of dead writers rebuilt from their inputs."""
    _fault_runs(random.Random(fault), fault, bodies=6)


@pytest.mark.slow
@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_mid_run_fault_sweep(fault):
    _fault_runs(random.Random("sweep " + fault), fault, bodies=150)


def test_noop_fault_path_fails_the_fault_runs(monkeypatch):
    """Negative control: without the eflags rebuild, a fault after a
    dead flag writer leaves stale eflags."""
    monkeypatch.setattr(closures, "_rebuild_eflags", lambda *args: None)
    with pytest.raises(AssertionError, match="eflags"):
        for fault in sorted(_FAULTS):
            _fault_runs(random.Random(fault), fault, bodies=6)


WINDOW = 0x600  # the 64-byte window every aliasing access falls in


def _aliasing_run(rng, n=16):
    """A run of 4-byte loads, 4-byte and byte stores and address-register
    rewrites over one 64-byte window, through three address forms:
    absolute, base+disp (EBX) and base+index*scale+disp (ESI, EDI).
    Stores are biased to hit a word an earlier load read, mostly
    through another form, else through the same registers at a nearby
    displacement; loads often repeat an earlier operand, also after its
    base or index was rewritten.  Returns ``(instrs, state)``."""
    regs = [rng.getrandbits(32) for _ in range(8)]
    regs[EBX] = WINDOW + rng.randrange(-64, 128)
    regs[ESI] = rng.getrandbits(32)
    regs[EDI] = rng.randrange(16)
    now = list(regs)  # address registers as the run reaches each access
    loads = []  # (address, form, operand) of earlier loads
    accesses = []  # 4-byte operands loaded or stored so far

    def operand(addr, form, size=4, scale=None):
        if form == "abs":
            return MemOperand(disp=addr, size=size)
        if form == "base":
            base, index, scale = EBX, None, 1
            disp = addr - now[EBX]
        else:
            base, index = ESI, EDI
            scale = scale or rng.choice((1, 2, 4, 8))
            disp = addr - now[ESI] - now[EDI] * scale
        disp &= M32
        return MemOperand(base=base, index=index, scale=scale,
                          disp=disp - (disp >> 31 << 32), size=size)

    def store(size):
        """``(operand, hit)``: a store's operand, usually over the word
        of a recent load ``hit`` (through another form, or the same
        registers), else ``hit`` is None."""
        if not loads or rng.random() < 0.2:
            addr = WINDOW + rng.randrange(64 - size + 1)
            form = rng.choice(("abs", "base", "index"))
            return operand(addr, form, size), None
        addr, form, hit = rng.choice(loads[-3:])
        if size == 1:  # a byte of the loaded word
            addr += rng.randrange(4)
        else:
            addr += rng.choice((0, 0, 1, 2, 3, -1, -2, -3, 4, -4, 8))
        addr = min(max(addr, WINDOW), WINDOW + 64 - size)
        if rng.random() < 0.4:
            return operand(addr, form, size, hit.scale), hit
        other = rng.choice([f for f in ("abs", "base", "index") if f != form])
        return operand(addr, other, size), hit

    body = []
    for _ in range(n):
        pick = rng.random()
        value = RegOperand(rng.choice((EAX, ECX, EDX)))
        if pick < 0.4:
            if accesses and rng.random() < 0.6:
                op = rng.choice(accesses[-3:])  # a recent operand again
            else:
                op = operand(WINDOW + rng.randrange(61),
                             rng.choice(("abs", "base", "index")))
            form = "abs" if op.base is None else (
                "base" if op.index is None else "index")
            addr = (op.disp + (now[op.base] if op.base is not None else 0)
                    + (now[op.index] * op.scale if op.index is not None
                       else 0)) & M32
            opcode = rng.choice((Opcode.MOV, Opcode.ADD, Opcode.CMP,
                                 Opcode.XOR))
            body.append((opcode, (value, op)))
            if WINDOW <= addr <= WINDOW + 60:
                loads.append((addr, form, op))
            accesses.append(op)
        elif pick < 0.85:
            # A store; the word it hit becomes the most recent access,
            # so the next load may read it again.
            op, hit = store(4 if pick < 0.7 else 1)
            if op.size == 1:
                body.append((Opcode.MOVB_STORE, (op, value)))
            else:
                opcode = rng.choice((Opcode.MOV, Opcode.MOV, Opcode.ADD,
                                     Opcode.INC))
                body.append(
                    (opcode, (op,) if opcode == Opcode.INC else (op, value))
                )
                accesses.append(op)
            if hit is not None:
                accesses.append(hit)
        else:
            reg = rng.choice((EBX, ESI, EDI))
            step = rng.choice((-8, -4, 4, 8))
            if reg == EBX:
                body.append((Opcode.ADD, (RegOperand(EBX), ImmOperand(step))))
            elif reg == ESI:
                body.append((Opcode.LEA, (RegOperand(ESI),
                                          MemOperand(base=ESI, disp=step))))
            else:
                step = rng.randrange(8) - now[EDI]
                body.append((Opcode.MOV, (RegOperand(EDI),
                                          ImmOperand(now[EDI] + step))))
            now[reg] = (now[reg] + step) & M32
    data = bytes(rng.getrandbits(8) for _ in range(SIZE))
    instrs = [instr + (rng.randrange(1, 9),) for instr in body]
    return instrs, (regs, rng.getrandbits(12), data, None)


def _aliasing_runs(rng, count):
    for _ in range(count):
        assert _agree_with_closures(*_aliasing_run(rng)) is None


def test_aliasing_sample():
    """Seeded sample: a load reuses a held word only while no store,
    byte store or address-register rewrite may have changed it."""
    _aliasing_runs(random.Random(64), 200)


@pytest.mark.slow
def test_aliasing_sweep():
    _aliasing_runs(random.Random(6400), 4000)


def test_forwarding_across_stores_fails_the_aliasing_runs(monkeypatch):
    """Negative control: treating every other address form as disjoint
    from a store forwards stale words."""
    monkeypatch.setattr(closures, "_disjoint", lambda form, other: True)
    monkeypatch.setattr(closures, "_SEGMENT_CODE_CACHE", {})
    with pytest.raises(AssertionError):
        _aliasing_runs(random.Random(64), 200)


# -------------------------------------------------------------- whole runs

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
    instruction of a straight-line run.  The runtime's segment raises
    native's fault text, and its registers and eflags equal native's.
    The segment skips the flags of ``add eax, ecx`` before the load
    (``add eax, edx`` overwrites them), so its eflags come from the
    fault path.  (The runtime names the tag of the fragment whose pass
    faulted as the app pc — here the trace at ``loop`` — and native the
    faulting instruction's, so only the text before that suffix is
    compared.)"""
    from repro.asm import assemble
    from repro.core import DynamoRIO, RuntimeOptions
    from repro.loader import Process
    from repro.machine.interp import Interpreter

    image = assemble(FAULTING_LOOP)
    interp = Interpreter(Process(image))
    with pytest.raises(MachineFault) as native:
        interp.run()
    options = RuntimeOptions.with_traces()
    options.trace_threshold = 3
    runtime = DynamoRIO(Process(image), options=options)
    with pytest.raises(MachineFault) as fault:
        runtime.run()
    text = str(fault.value)
    assert text.split(" (")[0] == str(native.value).split(" (")[0]
    assert text.startswith("read past memory at 0x1fffffe")
    cpu = runtime.threads[0].cpu
    assert (cpu.regs, cpu.eflags) == (interp.cpu.regs, interp.cpu.eflags)


STALE_AF = """
.entry main
.text
main:
    mov eax, 0xf
    add eax, 1
    jmp next
next:
    mov ebx, 0
    add ebx, 0
    mov eax, 1
    syscall
"""


def test_segments_clear_stale_af():
    """Regression: the generated segments' flag templates cleared
    ~2253, which keeps AF (16), so an add/sub/inc/dec/logic op OR-ed
    the new AF into the old one.  No Jcc reads AF, but whole runs ended
    with eflags 0x54 against native's 0x44 — and signal frames push
    eflags where the guest can see it.  Here ``add eax, 1`` sets AF at
    the end of one segment and the live ``add ebx, 0`` of the next must
    clear it."""
    from repro.asm import assemble
    from repro.tools.oracle import Cell, check

    verdict = check(Cell(assemble(STALE_AF)))
    assert verdict.ok, verdict  # final_state compares per-thread eflags
    assert verdict.native.final_state[0][1] == "0x44"


def test_fault_names_the_fragment_whose_pass_faulted():
    """A fault inside a quantum names the faulting pass's fragment, not
    the tag the dispatcher's quantum started at (the program entry):
    under ``bb_cache_only`` that is the ``loop`` block at 0x1014."""
    from repro.asm import assemble
    from repro.core import DynamoRIO, RuntimeOptions
    from repro.loader import Process

    image = assemble(FAULTING_LOOP)
    assert image.symbol("loop") == 0x1014
    runtime = DynamoRIO(Process(image), options=RuntimeOptions.bb_cache_only())
    with pytest.raises(MachineFault) as fault:
        runtime.run()
    assert str(fault.value) == "read past memory at 0x1fffffe (app pc 0x1014)"
